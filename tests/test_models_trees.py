import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ensemble_walk_score, fit_tree_ensemble_reference, grow_tree_reference, tree_walk
from snapgap.errors import CohortError, ValidationError
from snapgap.metrics import roc_auc
from snapgap.models import (
    EnsembleParams,
    FeatureMatrix,
    TreeEnsembleModel,
    fit_logistic,
    fit_tree_ensemble,
    grow_tree,
    model_from_dict,
    model_to_dict,
    sigmoid,
)
from snapgap.models.tree import FlatTrees, rank_columns
from snapgap.rng import derive_rng


def compiled_leaves(tree, X):
    """Leaf node reached by each row of X, through the compiled walk."""
    return next(FlatTrees((tree,)).leaves(X))


def compiled_values(tree, X):
    """Value of the leaf each row of X reaches, through the compiled walk."""
    return np.array(tree.value)[compiled_leaves(tree, X)]


def xor_panel(rng, n=400, noise=0.15):
    """Four clusters at (+-1, +-1); label = sign parity. Linearly hopeless."""
    centers = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    labels = np.array([0, 0, 1, 1])
    idx = rng.integers(0, 4, size=n)
    X = centers[idx] + rng.normal(scale=noise, size=(n, 2))
    y = labels[idx]
    return FeatureMatrix(X=X, y=y, feature_names=("a", "b"))


class TestGrowTree:
    def test_single_split_perfect(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        w = np.ones(4)
        tree = grow_tree(
            X, y, w, criterion="gini", max_depth=1, min_leaf=1, max_features=None,
            rng=derive_rng(0, 1),
        )
        preds = compiled_values(tree, X)
        assert np.all((preds >= 0.5).astype(int) == y)
        assert tree.feature[0] == 0
        assert -1.0 <= tree.threshold[0] <= 1.0

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.ones(3)
        tree = grow_tree(
            X, y, np.ones(3), criterion="gini", max_depth=None, min_leaf=1,
            max_features=None, rng=derive_rng(0, 1),
        )
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(float)
        tree = grow_tree(
            X, y, np.ones(40), criterion="gini", max_depth=None, min_leaf=5,
            max_features=None, rng=derive_rng(0, 1),
        )
        leaves = compiled_leaves(tree, X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 5

    def test_tie_breaks_to_lowest_feature(self):
        # duplicate feature: identical split quality, lowest index must win
        X = np.array([[-1.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = grow_tree(
            X, y, np.ones(4), criterion="gini", max_depth=1, min_leaf=1,
            max_features=None, rng=derive_rng(0, 1),
        )
        assert tree.feature[0] == 0


def tie_heavy(seed, n=240, d=4):
    """Bootstrap draw of a rounded panel: few distinct values per column and
    many exact duplicate rows."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 1)
    y = (X[:, 0] + rng.normal(size=n) > 0.5).astype(float)
    boot = rng.integers(0, n, size=n)
    return X[boot], y[boot]


def assert_same_tree(a, b):
    assert (a.feature, a.left, a.right) == (b.feature, b.left, b.right)
    for attr in ("threshold", "value"):
        assert np.array(getattr(a, attr)).tobytes() == np.array(getattr(b, attr)).tobytes()


class TestPresortedGrowth:
    """grow_tree against the per-node-sort reference grower."""

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("min_leaf", [1, 5])
    @pytest.mark.parametrize("max_features", [None, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_to_reference(self, criterion, max_depth, min_leaf, max_features, seed):
        X, y = tie_heavy(seed)
        w = np.where(y == 1, 2.5, 1.0)  # class-balanced style weights
        t = y if criterion == "gini" else np.round(y - 0.37 + 0.1 * X[:, 1], 2)
        kw = dict(criterion=criterion, max_depth=max_depth, min_leaf=min_leaf,
                  max_features=max_features)
        rng_fast, rng_ref = derive_rng(seed, 1), derive_rng(seed, 1)
        fast = grow_tree(X, t, w, rng=rng_fast, **kw)
        ref = grow_tree_reference(X, t, w, rng=rng_ref, **kw)
        assert fast.n_nodes > 1
        assert_same_tree(fast, ref)
        assert rng_fast.random() == rng_ref.random()  # same feature-subset draws

    def test_leaf_hook_sees_rows_ascending(self):
        X, y = tie_heavy(4)
        seen = {"fast": [], "ref": []}

        def hook(name):
            def leaf_value(idx):
                seen[name].append(idx.tolist())
                return float(len(idx))
            return leaf_value

        kw = dict(criterion="mse", max_depth=4, min_leaf=2, max_features=None)
        fast = grow_tree(X, y - 0.4, np.ones(len(y)), rng=derive_rng(0, 1),
                         leaf_value=hook("fast"), **kw)
        ref = grow_tree_reference(X, y - 0.4, np.ones(len(y)), rng=derive_rng(0, 1),
                                  leaf_value=hook("ref"), **kw)
        assert_same_tree(fast, ref)
        assert seen["fast"] == seen["ref"]
        assert all(idx == sorted(idx) for idx in seen["fast"])


def tie_heavy_matrix(seed, n=240):
    """Four rounded columns with few distinct values; the third is mostly
    zeros of both signs and the fourth takes three values."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 4)), 1)
    X[:, 2] = np.round(0.1 * rng.normal(size=n), 1)  # -0.0, 0.0, +-0.1, ...
    X[:, 3] = rng.integers(-1, 2, size=n) * 0.5
    y = (X[:, 0] + X[:, 3] + rng.normal(size=n) > 0.4).astype(int)
    return FeatureMatrix(X=X, y=y, feature_names=("a", "b", "c", "d"))


class TestSortOncePerFit:
    """fit_tree_ensemble against trees grown one by one with the per-node-sort
    reference grower, and the rank presort against the float sort."""

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting"])
    @pytest.mark.parametrize("max_depth", [2, 3, None])
    @pytest.mark.parametrize("min_leaf", [1, 5])
    @pytest.mark.parametrize("max_features", [None, 2])
    def test_trees_match_reference(self, kind, max_depth, min_leaf, max_features):
        fm = tie_heavy_matrix(min_leaf)
        assert np.any(np.signbit(fm.X[:, 2]) & (fm.X[:, 2] == 0.0))
        params = EnsembleParams(kind=kind, n_trees=6, max_depth=max_depth, min_leaf=min_leaf,
                                learning_rate=0.3, max_features=max_features, seed=11)
        model = fit_tree_ensemble(fm, params)
        trees, base = fit_tree_ensemble_reference(fm, params)
        assert repr(model.trees) == repr(trees)
        assert model.base_score == base
        assert any(t.n_nodes > 1 for t in model.trees)

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting"])
    def test_no_float_sort_per_tree(self, monkeypatch, kind):
        fm = tie_heavy_matrix(3)
        float_sorts = []
        argsort = np.argsort

        def spy(a, *args, **kw):
            if np.asarray(a).dtype.kind == "f":
                float_sorts.append(np.shape(a))
            return argsort(a, *args, **kw)

        monkeypatch.setattr(np, "argsort", spy)
        fit_tree_ensemble(fm, EnsembleParams(kind=kind, n_trees=5, max_depth=3, seed=2))
        assert float_sorts == ([] if kind == "random_forest" else [(4, fm.n)])

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, 1e-300, -np.inf, np.nan]),
                     min_size=12, max_size=12),
            min_size=1, max_size=4,
        ),
        boot_seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_presort_matches_float_sort(self, columns, boot_seed):
        X = np.array(columns).T
        boot = np.random.default_rng(boot_seed).integers(0, len(X), size=len(X))
        ranks, uniques = rank_columns(X)
        assert ranks.dtype == np.uint8
        for column, distinct, rank in zip(X.T, uniques, ranks):
            assert np.array_equal(distinct, np.unique(column), equal_nan=True)
            assert np.array_equal(distinct[rank], column, equal_nan=True)
        assert np.array_equal(
            np.argsort(ranks[:, boot], axis=1, kind="stable"),
            np.argsort(X[boot].T, axis=1, kind="stable"),
        )

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ties=st.integers(1, 4))
    def test_rank_presort_past_sixteen_bits(self, seed, ties):
        rng = np.random.default_rng(seed)
        distinct = rng.permutation(np.arange(-35_000, 35_000) / 8.0)  # 70,000 values
        wide = np.concatenate([distinct, [-0.0, 0.0], distinct[:ties]])
        X = np.column_stack([wide, np.round(rng.normal(size=wide.size))])
        boot = rng.integers(0, len(X), size=len(X))
        ranks, _ = rank_columns(X)
        assert ranks.dtype == np.uint32
        assert np.array_equal(
            np.argsort(ranks[:, boot], axis=1, kind="stable"),
            np.argsort(X[boot].T, axis=1, kind="stable"),
        )


def grown(X, y, **kw):
    params = dict(criterion="gini", max_depth=None, min_leaf=1, max_features=None)
    params.update(kw)
    return grow_tree(X, y, np.ones(len(y)), rng=derive_rng(0, 1), **params)


def assert_matches_walk(tree, X):
    flat = FlatTrees((tree,))
    leaves = next(flat.leaves(X))
    assert leaves.tolist() == tree_walk(tree, X)
    assert np.array_equal(flat.value[leaves], np.array([tree.value[i] for i in leaves]))


class TestCompiledTraversal:
    """`FlatTrees.leaves` against a row-by-row walk of the node tuples."""

    def test_root_only_tree(self, rng):
        X = rng.normal(size=(30, 2))
        tree = grown(X, np.ones(30))
        assert tree.n_nodes == 1
        assert_matches_walk(tree, rng.normal(size=(7, 2)))

    def test_unlimited_depth(self, rng):
        X = rng.normal(size=(300, 3))
        y = (rng.random(300) < 0.3).astype(float)  # pure noise: a deep, ragged tree
        tree = grown(X, y)
        assert tree.n_nodes > 100
        assert_matches_walk(tree, X)
        assert_matches_walk(tree, np.round(rng.normal(size=(200, 3)), 1))

    def test_min_leaf_five(self, rng):
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + rng.normal(size=200) > 0).astype(float)
        tree = grown(X, y, min_leaf=5)
        assert_matches_walk(tree, rng.normal(size=(100, 2)))

    def test_nan_goes_right(self, rng):
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] > 0.2).astype(float)
        tree = grown(X, y, max_depth=4)
        Xq = rng.normal(size=(60, 2))
        Xq[rng.random(Xq.shape) < 0.3] = np.nan
        assert_matches_walk(tree, Xq)
        at_root = np.full((1, 2), 0.0)
        at_root[0, tree.feature[0]] = np.nan
        assert compiled_leaves(tree, at_root)[0] >= tree.right[0]  # preorder: right subtree

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting"])
    def test_ensembles(self, rng, kind):
        fm = xor_panel(rng, n=200)
        model = fit_tree_ensemble(
            fm, EnsembleParams(kind=kind, n_trees=12, max_depth=None, min_leaf=3, seed=4)
        )
        Xq = rng.normal(size=(80, 2))
        Xq[::7, 1] = np.nan
        expected = ensemble_walk_score(model, Xq)
        if kind == "gradient_boosting":
            expected = sigmoid(expected)
        assert np.array_equal(model.predict_proba(Xq), expected)


class TestRandomForest:
    def test_deterministic_given_seed(self, rng):
        fm = xor_panel(rng)
        params = EnsembleParams(kind="random_forest", n_trees=15, max_depth=4, seed=99)
        m1 = fit_tree_ensemble(fm, params)
        m2 = fit_tree_ensemble(fm, params)
        X_test = rng.normal(size=(50, 2))
        assert np.array_equal(m1.predict_proba(X_test), m2.predict_proba(X_test))

    def test_tree_prefix_stable_as_count_grows(self, rng):
        fm = xor_panel(rng, n=150)
        small = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=5, max_depth=3, seed=7))
        large = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=9, max_depth=3, seed=7))
        for ts, tl in zip(small.trees, large.trees):
            assert ts.feature == tl.feature
            assert ts.threshold == tl.threshold
            assert ts.value == tl.value

    def test_probabilities_bounded(self, rng):
        fm = xor_panel(rng)
        model = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=20, max_depth=5, seed=1))
        p = model.predict_proba(rng.normal(size=(200, 2)))
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_beats_logistic_on_xor(self, rng):
        fm = xor_panel(rng, n=600)
        forest = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=30, max_depth=4, seed=5))
        logit = fit_logistic(fm, c=1.0)
        auc_forest = roc_auc(forest.predict_proba(fm.X), fm.y)
        auc_logit = roc_auc(logit.predict_proba(fm.X), fm.y)
        assert auc_forest > auc_logit
        assert auc_forest > 0.95
        assert abs(auc_logit - 0.5) < 0.15

    def test_pure_leaf_probability_one(self):
        X = np.array([[-1.0], [-0.9], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1])
        fm = FeatureMatrix(X=X, y=y, feature_names=("x",))
        model = fit_tree_ensemble(
            fm, EnsembleParams(kind="random_forest", n_trees=1, max_depth=1, seed=12)
        )
        prob = model.predict_proba(np.array([[1.05]]))[0]
        assert prob == 1.0

    def test_single_class_raises(self):
        fm_y = np.zeros(10, dtype=int)
        fm_y[0] = 0
        X = np.random.default_rng(0).normal(size=(10, 2))
        fm = FeatureMatrix(X=X, y=fm_y, feature_names=("a", "b"))
        with pytest.raises(CohortError, match="both classes required to fit"):
            fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=3))

    def test_invalid_params(self, rng):
        fm = xor_panel(rng, n=50)
        with pytest.raises(ValidationError, match="tree count must be >= 1, got 0"):
            fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=0))
        with pytest.raises(ValidationError, match="unknown ensemble kind 'extra_trees'"):
            fit_tree_ensemble(fm, EnsembleParams(kind="extra_trees", n_trees=5))
        with pytest.raises(ValidationError, match=r"learning rate must be in \(0,1\], got 0.0"):
            fit_tree_ensemble(fm, EnsembleParams(kind="gradient_boosting", learning_rate=0.0))


class TestGradientBoosting:
    def test_zero_trees_predicts_base_rate(self, rng):
        fm = xor_panel(rng, n=100)
        fitted = fit_tree_ensemble(
            fm, EnsembleParams(kind="gradient_boosting", n_trees=5, max_depth=2, seed=3)
        )
        empty = TreeEnsembleModel(
            trees=(),
            params=fitted.params,
            feature_names=fitted.feature_names,
            base_score=fitted.base_score,
        )
        p = empty.predict_proba(rng.normal(size=(20, 2)))
        expected = 1 / (1 + np.exp(-fitted.base_score))
        assert np.allclose(p, expected)

    def test_learns_xor(self, rng):
        fm = xor_panel(rng, n=500)
        model = fit_tree_ensemble(
            fm, EnsembleParams(kind="gradient_boosting", n_trees=60, max_depth=2, learning_rate=0.2, seed=8)
        )
        assert roc_auc(model.predict_proba(fm.X), fm.y) > 0.95

    def test_tree_prefix_stable_as_count_grows(self, rng):
        # stagewise: the first k rounds of an m-round fit are a k-round fit
        fm = xor_panel(rng, n=150)
        params = EnsembleParams(kind="gradient_boosting", n_trees=4, max_depth=3, seed=7)
        small = fit_tree_ensemble(fm, params)
        large = fit_tree_ensemble(fm, replace(params, n_trees=9))
        assert len(small.trees) == 4
        for ts, tl in zip(small.trees, large.trees):
            assert_same_tree(ts, tl)
        assert large.base_score == small.base_score

    def test_deterministic(self, rng):
        fm = xor_panel(rng, n=120)
        params = EnsembleParams(kind="gradient_boosting", n_trees=10, max_depth=2, seed=21)
        a = fit_tree_ensemble(fm, params)
        b = fit_tree_ensemble(fm, params)
        X_test = rng.normal(size=(30, 2))
        assert np.array_equal(a.predict_proba(X_test), b.predict_proba(X_test))


class TestSerialization:
    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting"])
    def test_ensemble_roundtrip(self, rng, kind):
        fm = xor_panel(rng, n=150)
        model = fit_tree_ensemble(fm, EnsembleParams(kind=kind, n_trees=8, max_depth=3, seed=17))
        clone = model_from_dict(model_to_dict(model))
        X_test = rng.normal(size=(40, 2))
        assert np.array_equal(model.predict_proba(X_test), clone.predict_proba(X_test))

    @pytest.mark.parametrize("family", ["logistic", "random_forest", "gradient_boosting"])
    def test_json_roundtrip_bit_identical(self, rng, family):
        fm = xor_panel(rng, n=150)
        if family == "logistic":
            model = fit_logistic(fm, c=1.0)
        else:
            model = fit_tree_ensemble(fm, EnsembleParams(kind=family, n_trees=6, seed=2))
        data = model_to_dict(model)

        def plain(v):
            if isinstance(v, dict):
                return all(type(k) is str and plain(x) for k, x in v.items())
            if isinstance(v, list):
                return all(plain(x) for x in v)
            return v is None or type(v) in (str, int, float, bool)

        assert plain(data)  # no numpy scalars hiding behind float/int
        clone = model_from_dict(json.loads(json.dumps(data)))
        X_test = rng.normal(size=(40, 2))
        assert np.array_equal(model.predict_proba(X_test), clone.predict_proba(X_test))

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting"])
    def test_pickles_without_the_compiled_cache(self, rng, kind):
        fm = xor_panel(rng, n=150)
        model = fit_tree_ensemble(fm, EnsembleParams(kind=kind, n_trees=8, seed=3))
        X_test = rng.normal(size=(40, 2))
        X_test[::5, 0] = np.nan
        want = model.predict_proba(X_test)
        perms = np.array([[rng.permutation(40)] for _ in range(2)])
        want_permuted = model.permuted_proba(X_test, perms)
        data = pickle.dumps(model)
        assert b"FlatTrees" not in data
        assert b"LeafMasks" not in data
        clone = pickle.loads(data)
        got = clone.predict_proba(X_test)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(clone.permuted_proba(X_test, perms), want_permuted)

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting", "tree"])
    def test_copies_equal_the_original(self, rng, kind):
        fm = xor_panel(rng, n=150)
        if kind == "tree":
            model = grown(fm.X, fm.y.astype(float), max_depth=4)
            copies = [pickle.loads(pickle.dumps(model))]
            tree = model
        else:
            model = fit_tree_ensemble(fm, EnsembleParams(kind=kind, n_trees=8, seed=3))
            data = json.loads(json.dumps(model_to_dict(model)))
            copies = [pickle.loads(pickle.dumps(model)), model_from_dict(data)]
            tree = model.trees[0]
        assert np.isnan(tree.threshold).any() and np.isnan(tree.value).any()
        for copy in copies:
            assert copy == model and not copy != model
            assert hash(copy) == hash(model)
        split = int(np.flatnonzero(np.array(tree.feature) >= 0)[0])
        leaf = int(np.flatnonzero(np.array(tree.feature) < 0)[0])
        moved = list(tree.threshold)
        moved[split] += 1.0
        refilled = list(tree.value)
        refilled[leaf] = np.nan
        for other in (replace(tree, threshold=tuple(moved)), replace(tree, value=tuple(refilled))):
            assert other != tree and not other == tree

    def test_logistic_roundtrip(self, rng):
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] + rng.normal(scale=0.5, size=80) > 0).astype(int)
        fm = FeatureMatrix(X=X, y=y, feature_names=("a", "b"))
        model = fit_logistic(fm, c=10.0)
        clone = model_from_dict(model_to_dict(model))
        X_test = rng.normal(size=(25, 2))
        assert np.array_equal(model.predict_proba(X_test), clone.predict_proba(X_test))

    @pytest.mark.parametrize(
        "left,right",
        [
            ((1, 3, -1, -1, -1), (2, 4, -1, -1, -1)),
            ((1, 0, -1, -1, -1), (4, 3, -1, -1, -1)),
            ((1, 2, -1, -1, -1), (5, 3, -1, -1, -1)),
        ],
        ids=["breadth_first", "child_cycle", "child_out_of_range"],
    )
    def test_tree_nodes_out_of_preorder_are_refused(self, rng, left, right):
        # leaf masks number leaves in node order, so a tree file must list
        # its nodes in preorder: a root, a split on its left, three leaves
        fm = xor_panel(rng, n=150)
        model = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=2, seed=17))
        data = json.loads(json.dumps(model_to_dict(model)))
        clone = model_from_dict(data)
        assert clone.trees == model.trees
        data["trees"][0] = {
            "feature": [0, 1, -1, -1, -1],
            "threshold": [0.0, 0.5, None, None, None],
            "left": [1, 2, -1, -1, -1],
            "right": [4, 3, -1, -1, -1],
            "value": [None, None, 0.2, 0.4, 0.6],
        }
        preorder = model_from_dict(data)
        X = np.array([[-1.0, 0.0], [-1.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(compiled_values(preorder.trees[0], X), [0.2, 0.4, 0.6])
        data["trees"][0].update(left=list(left), right=list(right))
        with pytest.raises(ValidationError, match="not in preorder"):
            model_from_dict(data)

    @pytest.mark.parametrize("feature", [5, 2, -2])
    def test_tree_node_on_a_feature_the_model_lacks_is_refused(self, rng, feature):
        # permutation importance of such a model, given base scores, ended
        # in an IndexError from LeafMasks.codes
        fm = xor_panel(rng, n=150)
        model = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=2, seed=17))
        data = json.loads(json.dumps(model_to_dict(model)))
        assert data["feature_names"] == ["a", "b"] and data["trees"][0]["feature"][0] >= 0
        data["trees"][0]["feature"][0] = feature
        message = f"tree node feature {feature} is not one of the model's 2"
        with pytest.raises(ValidationError, match=message):
            model_from_dict(data)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("foo", 1, "unknown ensemble hyperparameter 'foo'"),
            ("kind", 1, "unknown ensemble hyperparameter 'kind'"),
            ("class_weighting", "none", "model.hyperparameters.class_weighting: expected 'balanced'"),
        ],
        ids=["foo", "kind", "class_weighting"],
    )
    def test_an_unknown_hyperparameter_is_refused(self, rng, key, value, message):
        # it ended in a TypeError from the EnsembleParams constructor, and a
        # class weighting other than balanced loaded as if balanced
        fm = xor_panel(rng, n=150)
        model = fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=2, seed=17))
        data = json.loads(json.dumps(model_to_dict(model)))
        data["hyperparameters"][key] = value
        with pytest.raises(ValidationError, match=message):
            model_from_dict(data)
