"""Axis-aligned binary decision trees grown by exhaustive greedy search.

One builder serves both ensemble flavors: classification trees split on
weighted Gini and store the weighted positive fraction in each leaf;
regression trees split on weighted squared error and store a caller-supplied
leaf value (the boosting Newton step). Split candidates are midpoints between
adjacent distinct sorted feature values; ties are broken toward the lowest
feature index, then the lowest threshold, so growth is deterministic.

Split search is the exact presorted search of CART and SLIQ: a tree starts
from the stable order of every column of its rows (equal values keep row
order), and each split stable-partitions the node's (d, m) block of sorted
row indices into its children, so no node sorts again. A node scores all its
candidate features in one pass over that block: cumulative sums along each
row, inf at the invalid positions, then the first minimum down each row and
across rows. Every float is the one a per-node sort of each feature would
give.

The root order is the one sort of a tree. `grow_tree` computes it with a
float argsort unless the caller passes it in; ensembles do, so they sort once
per fit (see `ensemble.py`). `rank_columns` serves bootstrap samples: a
column's dense ranks follow value order and give equal values one rank, so a
stable sort of the ranks of any selection of rows is the stable float sort of
those rows' values, and uint16 ranks sort in O(n) by radix.

A grown tree is an immutable record: five preorder node tuples (feature,
threshold, left, right, value), which is also its serialized form, and no
traversal of its own. Each prediction of an ensemble compiles its trees'
tuples into `FlatTrees`, numpy node arrays laid end to end. In the compiled
layout a leaf points both child slots at itself, so a row that reaches a leaf
stays there: every row takes exactly `depth` steps, with no per-step
bookkeeping of which rows are still moving.
A step reads the row's feature from the flattened input matrix, compares it
with the node's threshold (`x <= threshold` goes left; NaN compares false and
goes right) and gathers the child index.

Each permutation importance call compiles each tree a second way, one tree
at a time, into `LeafMasks`: the leaf-bitmask form of QuickScorer (Lucchese
et al., SIGIR 2015). A tree's leaves are numbered left to right, which in
preorder is node order. A split node whose test fails (`x > threshold`, or
NaN) rules out the leaves of its left subtree, so its mask has the bits of
every other leaf. The leaf a row reaches is the lowest one that no failing
node rules out: the lowest set bit of the AND of the failing nodes' masks,
whether or not those nodes lie on the row's path. A feature's failing nodes
are those with a threshold below the row's value, a prefix of its nodes in
threshold order, so one row of a table of running ANDs is the mask the
feature allows. The row's leaf is the lowest set bit of the AND over
features. Permuting column j changes only the j masks: for each tree the AND
over the other features is computed once, and each permuted copy costs a
gather of the j masks, an AND and a lowest-bit lookup (see
`TreeEnsembleModel.permuted_proba`).

Plain prediction keeps the walk. With nothing permuted there is no AND to
share: every row looks up every feature's mask in every tree. For the
late-period rows of the six `score_stratified` tree models (panel seed 3,
`--seed 3`, one CPU), masks scored them in 0.052 s and the walk in 0.053 s,
but compiling the masks took 0.053 s against 0.005 s for `FlatTrees`, a cost
the fold and calibration predictions of a run would pay for nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from ..errors import ValidationError

CRITERION_GINI = "gini"
CRITERION_MSE = "mse"


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Preorder node tuples; feature[i] == -1 marks a leaf with value[i].

    A leaf's threshold and a split node's value are NaN, so trees compare
    their float tuples with NaN equal to NaN: a tree equals its pickled or
    serialized copy."""

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecisionTree):
            return NotImplemented
        if (self.feature, self.left, self.right) != (other.feature, other.left, other.right):
            return False
        return all(
            np.array_equal(mine, theirs, equal_nan=True)
            for mine, theirs in ((self.threshold, other.threshold), (self.value, other.value))
        )

    def __hash__(self) -> int:
        return hash((self.feature, self.left, self.right))


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
            raise ValidationError(
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


# (b * _DEBRUIJN) >> 58 differs for each of the 64 one-bit words b: a de
# Bruijn hash, and _SLOT_BIT[h] is the bit that hashes to h
_DEBRUIJN = np.uint64(0x03F79D71B4CB0A89)
_SLOT_BIT = np.empty(64, dtype=np.intp)
_SLOT_BIT[
    (np.uint64(1) << np.arange(64, dtype=np.uint64)) * _DEBRUIJN >> np.uint64(58)
] = np.arange(64)


def lowest_slots(words: np.ndarray) -> np.ndarray:
    """The slot of the lowest set bit of each (..., W) row of leaf masks:
    64 * w + the de Bruijn hash of that bit, where w is the row's first
    nonzero word. Every row must have a bit set. With one word the slots
    are computed in place, over `words`."""
    if words.shape[-1] == 1:
        first, word = words[..., 0], None
    else:
        word = (words != 0).argmax(axis=-1)
        first = np.take_along_axis(words, word[..., None], axis=-1)[..., 0]
    first &= np.negative(first)
    first *= _DEBRUIJN
    first >>= np.uint64(58)
    slot = first.view(np.intp)
    if word is not None:
        slot += 64 * word
    return slot


class LeafMasks:
    """One tree in the leaf-bitmask form (see the module docstring).

    A mask is `words` uint64 words; bit k of word w stands for the leaf
    numbered 64 * w + k. `features` are the features the tree splits on,
    ascending, and `thresholds[i]` the ascending thresholds of its nodes on
    `features[i]`. Row `offsets[i] + c` of `table` is the AND of the masks
    of those nodes below the first c thresholds, so it is the mask that a
    value above exactly c of them allows. A node whose threshold is NaN
    sends every value right, so its mask is in all of those rows.
    `slot_value[s]` is the value of the leaf whose bit `lowest_slots`
    reports as slot s. The leaf numbering relies on the tree's nodes being
    in preorder, as `DecisionTree` documents and `models/io` checks when it
    reads a tree.
    """

    def __init__(self, tree: DecisionTree):
        feature = np.array(tree.feature, dtype=np.intp)
        leaf = feature < 0
        n_leaves = int(leaf.sum())
        self.words = -(-n_leaves // 64)
        # split nodes by feature, NaN thresholds first, then by threshold
        split = np.flatnonzero(~leaf)
        threshold = np.array(tree.threshold)[split]
        nan = np.isnan(threshold)
        order = np.lexsort((threshold, ~nan, feature[split]))
        split, threshold, nan = split[order], threshold[order], nan[order]
        # in preorder a split node's left subtree runs from its left child up
        # to its right child, so its leaves are numbered from
        # leaves_before[left] up to leaves_before[right]
        leaves_before = np.cumsum(leaf) - leaf
        lo = leaves_before[np.array(tree.left, dtype=np.intp)[split]]
        hi = leaves_before[np.array(tree.right, dtype=np.intp)[split]]
        bit = np.arange(64 * self.words)
        allowed = (bit < lo[:, None]) | (bit >= hi[:, None])
        masks = np.packbits(allowed, axis=1, bitorder="little").view("<u8")
        masks = masks.astype(np.uint64, copy=False)

        # a feature's rows: every leaf, then the running AND of its nodes' masks
        self.features, first = np.unique(feature[split], return_index=True)
        self.table = np.insert(masks, first, ~np.uint64(0), axis=0)
        self.thresholds: list[np.ndarray] = []
        self.offsets: list[int] = []
        bounds = np.append(first, len(split))
        for i, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            rows = self.table[a + i : b + i + 1]
            np.bitwise_and.accumulate(rows, axis=0, out=rows)
            n_nan = int(nan[a:b].sum())
            self.offsets.append(a + i + n_nan)
            self.thresholds.append(threshold[a + n_nan : b])

        leaf_value = np.full(64 * self.words, np.nan)
        leaf_value[:n_leaves] = np.array(tree.value)[leaf]
        self.slot_value = leaf_value[(64 * np.arange(self.words)[:, None] + _SLOT_BIT).ravel()]

    def codes(self, uniques: Sequence[np.ndarray], ranks: np.ndarray) -> np.ndarray:
        """(len(features), n) `table` rows of the masks that each row's
        values allow, given each column f as its ascending distinct values
        `uniques[f]` and each row's index into them, `ranks[f]` (see
        `rank_columns`). A value's code counts the thresholds below it: one
        searchsorted of the distinct values, which rows then read off."""
        codes = np.empty(
            (len(self.features), ranks.shape[1]), dtype=np.min_scalar_type(len(self.table))
        )
        for i, f in enumerate(self.features):
            below = np.searchsorted(self.thresholds[i], uniques[f]) + self.offsets[i]
            codes[i] = below[ranks[f]]
        return codes


def _best_split(xs, ts, ws, criterion, min_leaf):
    """(score, row, threshold) of the best split over a (k, m) block whose
    row r holds one candidate feature's sorted values, targets and weights;
    the score is inf when no position is valid.

    A position is valid when it falls between distinct values and leaves at
    least min_leaf rows on each side; invalid positions score inf. The first
    minimum down a row is its lowest threshold and the first minimum across
    rows its lowest feature index, which settles ties.
    """
    m = xs.shape[1]
    cw = ws.cumsum(axis=1)
    cwt = (ws * ts).cumsum(axis=1)
    wl = cw[:, :-1]
    sl = cwt[:, :-1]
    wr = cw[:, -1:] - wl
    sr = cwt[:, -1:] - sl
    if criterion == CRITERION_GINI:
        # t is 0/1, so sl is the positive weight P of the left side.
        # weighted gini: W * (1 - f1^2 - f0^2) = W - (P^2 + (W-P)^2) / W
        gl = wl - (sl**2 + (wl - sl) ** 2) / wl
        gr = wr - (sr**2 + (wr - sr) ** 2) / wr
        score = gl + gr
    else:  # weighted SSE of each side: sum(w t^2) - (sum(w t))^2 / sum(w)
        cs2 = (ws * ts * ts).cumsum(axis=1)
        s2l = cs2[:, :-1]
        s2r = cs2[:, -1:] - s2l
        score = (s2l - sl**2 / wl) + (s2r - sr**2 / wr)
    invalid = ~(xs[:, :-1] < xs[:, 1:])
    if min_leaf > 1:
        invalid[:, : min_leaf - 1] = True
        invalid[:, m - min_leaf :] = True
    np.putmask(score, invalid, np.inf)
    best = score.min(axis=1)
    r = int(best.argmin())
    pos = int(score[r].argmin())
    lo, hi = xs[r, pos], xs[r, pos + 1]
    thr = (lo + hi) / 2.0
    if thr >= hi:  # fp midpoint collapse between adjacent doubles
        thr = lo
    return float(best[r]), r, float(thr)


def _node_impurity(t, w, criterion):
    total_w = w.sum()
    if criterion == CRITERION_GINI:
        p = (w * t).sum()
        return total_w - (p**2 + (total_w - p) ** 2) / total_w
    mean = (w * t).sum() / total_w
    return float((w * (t - mean) ** 2).sum())


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
    order: np.ndarray | None = None,
    row_leaf: np.ndarray | None = None,
) -> DecisionTree:
    """Grow one tree depth-first (left child before right).

    `leaf_value(idx)` computes a leaf's stored value from the row indices it
    holds; without it a leaf stores the weighted mean of its `targets`
    (positive fraction for 0/1 labels). Feature subsets are drawn per split
    from `rng`.

    `order`, when given, must be `np.argsort(X.T, axis=1, kind="stable")`,
    which the tree would otherwise compute. `row_leaf`, when given, receives
    each row's leaf node index: rows are routed by the comparison a
    `FlatTrees` walk makes, so it is the leaf that walk reaches for each row
    of X.
    """
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def make_leaf(node: int, idx: np.ndarray, t: np.ndarray, w: np.ndarray) -> None:
        value[node] = float((w * t).sum() / w.sum()) if leaf_value is None else leaf_value(idx)
        if row_leaf is not None:
            row_leaf[idx] = node

    # Explicit preorder stack (left subtree expanded before right) so that
    # unlimited-depth trees cannot hit the interpreter recursion limit and
    # per-split RNG draws happen in a fixed order. A node carries its rows
    # twice: `idx` ascending, for the impurity and leaf sums, and `order`,
    # whose row j lists them by (X[:, j], row index). The root's `order` is
    # the one sort of the tree, made here unless the caller passed it; each
    # split stable-partitions it into the children, with `side` marking the
    # rows that go left.
    if order is None:
        order = np.argsort(XT, axis=1, kind="stable")
    side = np.empty(n, dtype=bool)
    stack: list[tuple[np.ndarray, np.ndarray, int, int, bool]] = [
        (np.arange(n), order, 0, -1, False)
    ]
    while stack:
        idx, order, depth, parent_node, is_left = stack.pop()
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
            or not (t != t[0]).any()
        ):
            make_leaf(node, idx, t, w)
            continue

        if max_features is not None and max_features < d:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
            rows = order[feats]
        else:
            feats, rows = np.arange(d), order

        parent = _node_impurity(t, w, criterion)
        xs = XT[feats[:, None], rows]
        score, r, thr = _best_split(xs, targets[rows], weights[rows], criterion, min_leaf)
        if not score < parent - 1e-12 * max(1.0, abs(parent)):
            make_leaf(node, idx, t, w)
            continue

        j = int(feats[r])
        go_left = XT[j, idx] <= thr
        feature[node] = j
        threshold[node] = thr
        side[idx] = go_left
        to_left = side[order]
        left_order = order[to_left].reshape(d, -1)
        right_order = order[~to_left].reshape(d, -1)
        # push right first so the left child is materialized next (preorder)
        stack.append((idx[~go_left], right_order, depth + 1, node, False))
        stack.append((idx[go_left], left_order, depth + 1, node, True))

    return DecisionTree(tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(value))


def rank_columns(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(d, n) dense ranks of X's columns, in the smallest unsigned dtype that
    holds them, and each column's ascending distinct values, which the ranks
    index.

    Ranks follow value order, NaN last; equal values share a rank, and so do
    0.0 and -0.0 and all NaNs, exactly the values a float sort keeps in row
    order. So for any rows `r`, `np.argsort(ranks[:, r], axis=1,
    kind="stable")` is the stable float argsort of `X[r].T`. Up to 65,536
    distinct values per column the ranks are at most uint16, which numpy's
    stable argsort orders by radix in O(n); wider ranks take its comparison
    sort, with the same result.
    """
    X = np.asarray(X, dtype=float)
    pairs = [np.unique(column, return_inverse=True) for column in X.T]
    inverse = [r for _, r in pairs]
    top = max((int(r.max(initial=0)) for r in inverse), default=0)
    ranks = np.array(inverse, dtype=np.min_scalar_type(top)).reshape(X.shape[1], X.shape[0])
    return ranks, [u for u, _ in pairs]
