"""Random forest and gradient boosting built on the CART grower.

Every fit weights its rows by class, balanced as in `logistic`
(`sample_weights`): the weighting is no setting of `EnsembleParams`.

All randomness (bootstraps, per-split feature subsets) flows from per-tree
generators derived from the root seed, so tree i is identical no matter how
many trees the ensemble has or in what order they are grown.

A fit sorts its matrix once and hands every tree its root order, so no tree
runs a float sort. Boosting grows every round on the same `X`, so one stable
argsort of its columns serves all rounds. Forests rank each column once
(`rank_columns`) and order each bootstrap sample by a stable argsort of its
rows' ranks: ranks follow value order and equal values share one, so this is
the permutation the float sort of `X[boot]` gives, and small integer ranks
sort by radix in O(n). Boosting also reads each round's score update off the
rows `grow_tree` routed to each leaf, by the comparison prediction makes,
instead of walking `X` down the new tree.

`predict_proba` walks the trees (`FlatTrees`). `permuted_proba`, which
permutation importance calls, scores every permuted copy of every column
from the trees' leaf masks (`LeafMasks`, see `tree.py`) instead of walking
stacked permuted matrices: for the six `score_stratified` tree models at
panel seed 3 (`--seed 3`, one CPU), importance took 0.51 s with masks,
compiling included, against 2.19 s for the walk. Both add leaf values in
tree order, so their scores are equal bit for bit. Plain prediction keeps
the walk (see `tree.py`). A model keeps no compiled form: each
`predict_proba` call builds `FlatTrees`, and `permuted_proba` builds each
tree's `LeafMasks` in its tree loop (21 and 63 ms for a 100-tree forest of
72,584 nodes, 2-core Xeon VM).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CohortError, ValidationError
from ..rng import STREAM_TREE, derive_rng
from .logistic import sample_weights, sigmoid
from .matrix import FeatureMatrix
from .tree import (
    CRITERION_GINI,
    CRITERION_MSE,
    DecisionTree,
    FlatTrees,
    LeafMasks,
    grow_tree,
    lowest_slots,
    rank_columns,
)

KIND_FOREST = "random_forest"
KIND_BOOSTING = "gradient_boosting"


@dataclass(frozen=True)
class EnsembleParams:
    """A forest's or a boosting run's settings. A record checks itself when
    built, so an out-of-range one raises a `ValidationError` there."""

    kind: str
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    learning_rate: float = 0.1  # boosting only
    max_features: int | None = None  # None: all (boosting) / sqrt(d) (forest)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_FOREST, KIND_BOOSTING):
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if self.n_trees < 1:
            raise ValidationError(f"tree count must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValidationError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.kind == KIND_BOOSTING and not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError(f"learning rate must be in (0,1], got {self.learning_rate}")
        if self.max_features is not None and self.max_features < 1:
            raise ValidationError(f"max_features must be >= 1 or None, got {self.max_features}")


@dataclass(frozen=True)
class TreeEnsembleModel:
    """Fitted trees; `params.kind` says whether they are a forest or a
    boosting run."""

    trees: tuple[DecisionTree, ...]
    params: EnsembleParams
    feature_names: tuple[str, ...]
    base_score: float = 0.0  # boosting log-odds offset

    def _checked(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValidationError(
                f"expected {len(self.feature_names)} features, got shape {X.shape}"
            )
        return X

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._checked(X)
        flat = FlatTrees(self.trees)
        # per-tree values are added one tree at a time, in tree order, so the
        # float sums do not depend on how the traversal is organized
        if self.params.kind == KIND_FOREST:
            acc = np.zeros(X.shape[0])
            for leaves in flat.leaves(X):
                acc += flat.value[leaves]
            return acc / len(self.trees)
        score = np.full(X.shape[0], self.base_score)
        for leaves in flat.leaves(X):
            score += self.params.learning_rate * flat.value[leaves]
        return sigmoid(score)

    def permuted_proba(self, X: np.ndarray, perms: np.ndarray) -> np.ndarray:
        """(d, repeats, n) probabilities, where [j, r] is `predict_proba` of X
        with column j replaced by `X[perms[j, r], j]`, bit for bit.

        Leaf values are added per tree, in tree order, as `predict_proba`
        adds them. A tree's leaves come from its leaf masks: the AND of its
        features' masks is a row's leaf, and permuting column j swaps only
        the j mask. Rows are taken in chunks whose permuted masks, repeats *
        rows * words, hold no more than the repeats * n words of one
        feature's scores.
        """
        X = self._checked(X)
        n, d = X.shape
        if perms.ndim != 3 or perms.shape[0] != d or perms.shape[2] != n:
            raise ValidationError(f"expected ({d}, repeats, {n}) permutations, got {perms.shape}")
        ranks, uniques = rank_columns(X)
        forest = self.params.kind == KIND_FOREST
        out = np.full((d, perms.shape[1], n), 0.0 if forest else self.base_score)
        for masks in map(LeafMasks, self.trees):
            value = masks.slot_value if forest else self.params.learning_rate * masks.slot_value
            codes = masks.codes(uniques, ranks)
            split = {f: i for i, f in enumerate(masks.features.tolist())}
            rows = max(1, n // masks.words)
            for a in range(0, n, rows):
                own = masks.table[codes[:, a : a + rows]]
                if len(split) < d:
                    unsplit = value[lowest_slots(np.bitwise_and.reduce(own, axis=0))]
                for j in range(d):
                    if j not in split:
                        out[j, :, a : a + rows] += unsplit
                        continue
                    i = split[j]
                    _add_leaf_values(
                        out[j, :, a : a + rows],
                        value,
                        np.bitwise_and.reduce(np.delete(own, i, axis=0), axis=0),
                        own[i][perms[j]]
                        if rows == n
                        else masks.table[codes[i][perms[j, :, a : a + rows]]],
                    )
        if forest:
            out /= len(self.trees)
            return out
        for scores in out.reshape(-1, n):
            scores[...] = sigmoid(scores)
        return out


def _add_leaf_values(scores, value, rest, words) -> None:
    """Add to `scores` the value of the leaf each row of masks `words`
    reaches once ANDed with `rest`. A function, so that `words`, as large as
    `scores`, is freed as soon as it is read."""
    words &= rest
    scores += value[lowest_slots(words)]


def _resolve_max_features(params: EnsembleParams, d: int) -> int | None:
    if params.max_features is not None:
        return min(params.max_features, d)
    if params.kind == KIND_FOREST:
        return max(1, int(math.sqrt(d)))
    return None  # boosting uses all features by default


def fit_tree_ensemble(fm: FeatureMatrix, params: EnsembleParams) -> TreeEnsembleModel:
    """Fit a forest (bootstrapped Gini trees) or boosting (stagewise Newton)."""
    if fm.y.min() == fm.y.max():
        raise CohortError("both classes required to fit")
    X, y = fm.X, fm.y.astype(float)
    n, d = fm.n, fm.d
    w = sample_weights(fm.y)
    max_features = _resolve_max_features(params, d)

    if params.kind == KIND_FOREST:
        ranks, _ = rank_columns(X)
        trees = []
        for i in range(params.n_trees):
            rng = derive_rng(params.seed, STREAM_TREE, i)
            boot = rng.integers(0, n, size=n)
            trees.append(
                grow_tree(
                    X[boot],
                    y[boot],
                    w[boot],
                    criterion=CRITERION_GINI,
                    max_depth=params.max_depth,
                    min_leaf=params.min_leaf,
                    max_features=max_features,
                    rng=rng,
                    order=np.argsort(ranks[:, boot], axis=1, kind="stable"),
                )
            )
        return TreeEnsembleModel(trees=tuple(trees), params=params, feature_names=fm.feature_names)

    # gradient boosting on the log-loss: trees fit the residual y - p, leaves
    # take the Newton step sum(w*r) / sum(w*p*(1-p))
    p_base = float(np.sum(w * y) / np.sum(w))
    p_base = min(max(p_base, 1e-12), 1.0 - 1e-12)
    base = math.log(p_base / (1.0 - p_base))
    score = np.full(n, base)
    order = np.argsort(X.T, axis=1, kind="stable")
    leaf = np.empty(n, dtype=np.intp)
    trees = []
    for m in range(params.n_trees):
        rng = derive_rng(params.seed, STREAM_TREE, m)
        p = sigmoid(score)
        residual = y - p
        curvature = np.maximum(p * (1.0 - p), 1e-12)

        def newton_step(idx, residual=residual, curvature=curvature):
            num = float(np.sum(w[idx] * residual[idx]))
            den = float(np.sum(w[idx] * curvature[idx]))
            return num / den

        tree = grow_tree(
            X,
            residual,
            w,
            criterion=CRITERION_MSE,
            max_depth=params.max_depth,
            min_leaf=params.min_leaf,
            max_features=max_features,
            rng=rng,
            leaf_value=newton_step,
            order=order,
            row_leaf=leaf,
        )
        score += params.learning_rate * np.array(tree.value)[leaf]
        trees.append(tree)
    return TreeEnsembleModel(
        trees=tuple(trees),
        params=params,
        feature_names=fm.feature_names,
        base_score=base,
    )
