"""Axis-aligned binary decision trees grown by exhaustive greedy search.

One builder serves both ensemble flavors: classification trees split on
weighted Gini and store the weighted positive fraction in each leaf;
regression trees split on weighted squared error and store a caller-supplied
leaf value (the boosting Newton step). Split candidates are midpoints between
adjacent distinct sorted feature values; ties are broken toward the lowest
feature index, then the lowest threshold, so growth is deterministic.

A grown tree is immutable: five preorder node tuples (feature, threshold,
left, right, value), which is also its serialized form. For prediction the
tuples are compiled once into `FlatTrees`, numpy node arrays that can hold
many trees end to end. In the compiled layout a leaf points both child slots
at itself, so a row that reaches a leaf stays there: every row takes exactly
`depth` steps, with no per-step bookkeeping of which rows are still moving.
A step reads the row's feature from the flattened input matrix, compares it
with the node's threshold (`x <= threshold` goes left; NaN compares false and
goes right) and gathers the child index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from ..errors import FeatureMismatch

CRITERION_GINI = "gini"
CRITERION_MSE = "mse"


@dataclass(frozen=True)
class DecisionTree:
    """Preorder node tuples; feature[i] == -1 marks a leaf with value[i]."""

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @cached_property
    def _flat(self) -> FlatTrees:
        return FlatTrees((self,))

    def leaf_for(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index reached by each row."""
        return next(self._flat.leaves(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._flat.value[self.leaf_for(X)]


def _stacked(trees: Sequence[DecisionTree], attr: str, dtype) -> np.ndarray:
    return np.fromiter(chain.from_iterable(getattr(t, attr) for t in trees), dtype=dtype)


class FlatTrees:
    """Node arrays of one or more trees laid end to end, compiled once.

    Node k of tree t sits at roots[t] + k. Leaves keep feature 0 and loop
    back to themselves; `child[2i]` is node i's right child and
    `child[2i + 1]` its left, so one step is `child[2i + (x <= threshold[i])]`.
    `depths[t]` is the number of steps that brings every row to a leaf.
    """

    def __init__(self, trees: Sequence[DecisionTree]):
        sizes = [t.n_nodes for t in trees]
        self.roots = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
        feature = _stacked(trees, "feature", np.intp)
        leaf = feature < 0
        own = np.arange(feature.size)
        offset = np.repeat(self.roots, sizes)
        left = np.where(leaf, own, _stacked(trees, "left", np.intp) + offset)
        right = np.where(leaf, own, _stacked(trees, "right", np.intp) + offset)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = _stacked(trees, "threshold", float)
        self.child = np.column_stack([right, left]).ravel()
        self.value = _stacked(trees, "value", float)
        self.n_features = int(feature.max(initial=-1)) + 1

        # level-wise walk from the roots gives each node's depth
        node_depth = np.zeros(feature.size, dtype=np.intp)
        frontier, level = self.roots, 0
        while frontier.size:
            frontier = frontier[~leaf[frontier]]
            level += 1
            frontier = np.concatenate([left[frontier], right[frontier]])
            node_depth[frontier] = level
        self.depths = np.maximum.reduceat(node_depth, self.roots) if sizes else self.roots

    def leaves(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """Leaf reached by each row of X (an index into these arrays), one
        array per tree, in tree order."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] < self.n_features:
            raise FeatureMismatch(
                f"trees split on {self.n_features} features, got shape {X.shape}"
            )
        flat = X.ravel()
        row = np.arange(X.shape[0]) * X.shape[1]
        for root, depth in zip(self.roots, self.depths):
            node = np.full(X.shape[0], root)
            for _ in range(depth):
                goes_left = flat[row + self.feature[node]] <= self.threshold[node]
                node = self.child[2 * node + goes_left]
            yield node


def _sorted_sums(x, t, w, min_leaf):
    """One feature's rows sorted by value, with cumulative weight and
    weighted-target sums, and the mask of split positions that fall between
    distinct values and leave at least min_leaf rows on each side."""
    order = np.argsort(x, kind="stable")
    xs, ts, ws = x[order], t[order], w[order]
    n = len(xs)
    cw = np.cumsum(ws)
    cwt = np.cumsum(ws * ts)
    idx = np.arange(n - 1)
    valid = (xs[:-1] < xs[1:]) & (idx + 1 >= min_leaf) & (n - idx - 1 >= min_leaf)
    return xs, ts, ws, cw, cwt, valid


def _pick_split(score, valid, xs):
    """(score, threshold) of the lowest score over the valid positions, or
    (inf, nan) when no position is valid."""
    if not valid.any():
        return np.inf, np.nan
    best = int(np.argmin(score))  # first minimum -> lowest threshold on ties
    pos = np.flatnonzero(valid)[best]
    thr = (xs[pos] + xs[pos + 1]) / 2.0
    if thr >= xs[pos + 1]:  # fp midpoint collapse between adjacent doubles
        thr = xs[pos]
    return float(score[best]), float(thr)


def _best_split_gini(x, t, w, min_leaf):
    """Minimum weighted child Gini over candidate thresholds of one feature;
    t must be 0/1 labels."""
    xs, _, _, cw, cwp, valid = _sorted_sums(x, t, w, min_leaf)
    wl = cw[:-1][valid]
    pl = cwp[:-1][valid]
    wr = cw[-1] - wl
    pr = cwp[-1] - pl
    # weighted gini: W * (1 - f1^2 - f0^2) = W - (P^2 + (W-P)^2) / W
    gl = wl - (pl**2 + (wl - pl) ** 2) / wl
    gr = wr - (pr**2 + (wr - pr) ** 2) / wr
    return _pick_split(gl + gr, valid, xs)


def _best_split_mse(x, t, w, min_leaf):
    """Minimum weighted SSE over candidate thresholds of one feature."""
    xs, ts, ws, cw, cs, valid = _sorted_sums(x, t, w, min_leaf)
    cs2 = np.cumsum(ws * ts * ts)
    wl = cw[:-1][valid]
    sl = cs[:-1][valid]
    s2l = cs2[:-1][valid]
    wr = cw[-1] - wl
    sr = cs[-1] - sl
    s2r = cs2[-1] - s2l
    return _pick_split((s2l - sl**2 / wl) + (s2r - sr**2 / wr), valid, xs)


def _node_impurity(t, w, criterion):
    total_w = w.sum()
    if criterion == CRITERION_GINI:
        p = (w * t).sum()
        return total_w - (p**2 + (total_w - p) ** 2) / total_w
    mean = (w * t).sum() / total_w
    return float(np.sum(w * (t - mean) ** 2))


def grow_tree(
    X: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    *,
    criterion: str,
    max_depth: int | None,
    min_leaf: int,
    max_features: int | None,
    rng: np.random.Generator,
    leaf_value=None,
) -> DecisionTree:
    """Grow one tree depth-first (left child before right).

    `leaf_value(idx)` computes a leaf's stored value from the row indices it
    holds; the default is the weighted mean of `targets` (positive fraction
    for 0/1 labels). Feature subsets are drawn per split from `rng`.
    """
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = X.shape[1]
    split_fn = _best_split_gini if criterion == CRITERION_GINI else _best_split_mse
    if leaf_value is None:
        def leaf_value(idx):
            return float(np.sum(weights[idx] * targets[idx]) / np.sum(weights[idx]))

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    # Explicit preorder stack (left subtree expanded before right) so that
    # unlimited-depth trees cannot hit the interpreter recursion limit and
    # per-split RNG draws happen in a fixed order.
    root_idx = np.arange(X.shape[0])
    stack: list[tuple[np.ndarray, int, int, bool]] = [(root_idx, 0, -1, False)]
    while stack:
        idx, depth, parent_node, is_left = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(np.nan)
        if parent_node >= 0:
            (left if is_left else right)[parent_node] = node

        t, w = targets[idx], weights[idx]
        if (
            (max_depth is not None and depth >= max_depth)
            or len(idx) < 2 * min_leaf
            or np.all(t == t[0])
        ):
            value[node] = leaf_value(idx)
            continue

        if max_features is not None and max_features < d:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)

        parent = _node_impurity(t, w, criterion)
        best_score, best_feat, best_thr = np.inf, -1, np.nan
        for j in feats:  # ascending order: lowest feature index wins ties
            score, thr = split_fn(X[idx, j], t, w, min_leaf)
            if score < best_score:
                best_score, best_feat, best_thr = score, int(j), thr
        if best_feat < 0 or not best_score < parent - 1e-12 * max(1.0, abs(parent)):
            value[node] = leaf_value(idx)
            continue

        go_left = X[idx, best_feat] <= best_thr
        feature[node] = best_feat
        threshold[node] = best_thr
        # push right first so the left child is materialized next (preorder)
        stack.append((idx[~go_left], depth + 1, node, False))
        stack.append((idx[go_left], depth + 1, node, True))

    return DecisionTree(tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(value))
