from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ap_descending_sort,
    ap_rank_enum,
    auc_ascending_ranks,
    auc_pairwise,
    precision_at_k_oracle,
    stable_argsort_reference,
)
from snapgap.calibration import DecisionRule
from snapgap.errors import CohortError, ValidationError
from snapgap.jsonio import plain
from snapgap.metrics import (
    average_precision,
    confusion_at,
    evaluate,
    permutation_importance,
    precision_at_k,
    roc_auc,
    stable_argsort,
)
from snapgap.models import (
    DecisionTree,
    EnsembleParams,
    FeatureMatrix,
    LogisticModel,
    Standardization,
    TreeEnsembleModel,
    fit_logistic,
    fit_tree_ensemble,
)
from snapgap.rng import STREAM_PERMUTE, derive_rng


def random_cohort(rng, n=None, prevalence=0.3, tie_prob=0.4):
    n = n or int(rng.integers(4, 64))
    if rng.random() < tie_prob:
        scores = rng.integers(0, 6, size=n) / 5.0  # heavy ties
    else:
        scores = rng.random(n)
    labels = (rng.random(n) < prevalence).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    return scores, labels


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class(self):
        with pytest.raises(CohortError, match="AUC needs both classes"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(100):
            scores, labels = random_cohort(rng)
            assert roc_auc(scores, labels) == pytest.approx(
                auc_pairwise(scores, labels), abs=1e-12
            )

    def test_complement_under_reversal(self, rng):
        scores = rng.permutation(50) / 50.0  # no ties
        labels = (rng.random(50) < 0.4).astype(int)
        labels[0], labels[1] = 1, 0
        assert roc_auc(-scores, labels) == pytest.approx(1 - roc_auc(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        for _ in range(20):
            scores, labels = random_cohort(rng, n=40)
            transformed = np.exp(3.0 * scores) + 7.0
            assert roc_auc(transformed, labels) == pytest.approx(
                roc_auc(scores, labels), abs=1e-12
            )


class TestAveragePrecision:
    def test_perfect_list(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.linspace(1, 0.1, n)
        labels = [0] * (n - 1) + [1]
        assert average_precision(scores, labels) == pytest.approx(1 / n, abs=1e-15)

    def test_no_positives(self):
        with pytest.raises(CohortError, match="AP needs at least one positive"):
            average_precision([0.5, 0.6], [0, 0])

    def test_matches_rank_enumeration_oracle(self, rng):
        for _ in range(100):
            scores, labels = random_cohort(rng)
            assert average_precision(scores, labels) == pytest.approx(
                ap_rank_enum(scores.tolist(), labels.tolist()), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self, rng):
        for _ in range(20):
            scores, labels = random_cohort(rng, n=40)
            transformed = 0.3 * scores**3 + 5.0
            assert average_precision(transformed, labels) == pytest.approx(
                average_precision(scores, labels), abs=1e-12
            )

    def test_random_ranking_concentrates_near_prevalence(self):
        rng = np.random.default_rng(7)
        n, prevalence = 500, 0.1
        labels = np.zeros(n, dtype=int)
        labels[: int(n * prevalence)] = 1
        aps = []
        for _ in range(1000):
            scores = rng.random(n)
            aps.append(average_precision(scores, labels))
        assert abs(np.mean(aps) - prevalence) < 0.02


class TestOneOrder:
    """AUC, AP and precision@k read one descending stable order."""

    def test_auc_and_ap_keep_their_bits(self, rng):
        # tie-heavy vectors with both zeros, whose signs no sort tells apart
        for _ in range(300):
            scores, labels = random_cohort(rng, tie_prob=0.8)
            scores = np.where(rng.random(len(scores)) < 0.3, rng.choice([-0.0, 0.0], len(scores)), scores)
            assert roc_auc(scores, labels) == auc_ascending_ranks(scores, labels)
            assert average_precision(scores, labels) == ap_descending_sort(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_is_refused(self, bad):
        scores, labels = np.array([0.2, bad, 0.7, 0.4]), np.array([0, 1, 1, 0])
        rule = DecisionRule("fixed", 0.5)
        for metric in (
            lambda: roc_auc(scores, labels),
            lambda: average_precision(scores, labels),
            lambda: precision_at_k(scores, labels, 0.5),
            lambda: evaluate(scores, labels, rule, cohort="All"),
        ):
            with pytest.raises(ValidationError, match="scores must be finite"):
                metric()


class TestStableArgsort:
    """`stable_argsort` is `np.argsort(kind="stable")`, bit for bit."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.5],
            [0.5, 0.5],
            [0.7, 0.2],
            [-0.0, 0.0],
            [0.0, -0.0],
            [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0],
            [1.0, 1.0, 1.0, 0.5, 2.0, 2.0, 2.0],  # ties at both ends
            [0.0, 0.0, 0.3, 0.1, 0.0],
            [np.inf, 1.0, -np.inf, np.inf, 1.0, -np.inf],
        ],
    )
    def test_equals_the_stable_argsort_on_edges(self, values):
        values = np.array(values, dtype=float)
        got = stable_argsort(values)
        assert got.tolist() == stable_argsort_reference(values).tolist()
        assert got.dtype == np.intp

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0, 5e-324]),  # heavy ties
                st.floats(allow_nan=False, allow_infinity=True),
            ),
            max_size=80,
        )
    )
    def test_equals_the_stable_argsort(self, values):
        values = np.array(values, dtype=float)
        assert stable_argsort(values).tolist() == stable_argsort_reference(values).tolist()
        assert stable_argsort(-values).tolist() == stable_argsort_reference(-values).tolist()

    def test_large_vectors_with_and_without_ties(self, rng):
        # long enough for numpy's vectorized unstable sort
        for values in (
            rng.random(20_000),
            rng.integers(0, 20, 20_000).astype(float),
            np.round(rng.random(20_000), 3) * rng.choice([-1.0, 1.0], 20_000),
        ):
            assert np.array_equal(stable_argsort(values), stable_argsort_reference(values))


class TestConfusionAt:
    def test_flag_everything(self):
        labels = [1, 0, 0, 0, 1]
        conf = confusion_at([0.9, 0.8, 0.7, 0.6, 0.5], labels, DecisionRule("fixed", 0.0))
        assert conf.precision == pytest.approx(np.mean(labels))
        assert conf.recall == 1.0
        assert conf.n_flagged == 5

    def test_flag_nothing_warns_and_reports_zero(self):
        with pytest.warns(UserWarning, match="flags nothing"):
            conf = confusion_at([0.1, 0.2], [1, 0], DecisionRule("fixed", 0.9))
        assert conf.precision == 0.0
        assert conf.recall == 0.0
        assert conf.n_flagged == 0

    def test_f1_harmonic_mean(self, rng):
        probs = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        conf = confusion_at(probs, labels, DecisionRule("fixed", 0.5))
        if conf.precision + conf.recall > 0:
            expected = 2 * conf.precision * conf.recall / (conf.precision + conf.recall)
            assert conf.f1 == pytest.approx(expected, abs=1e-15)


class TestPrecisionAtK:
    def test_ceiling_arithmetic(self):
        scores = np.linspace(1, 0, 200)
        labels = [1, 1] + [0] * 198
        assert precision_at_k(scores, labels, 0.01) == 1.0  # K = 2

    def test_perfect_head(self):
        assert precision_at_k([0.9, 0.8, 0.1], [1, 1, 0], 0.5) == 1.0

    def test_matches_sort_count_oracle(self, rng):
        for _ in range(60):
            scores, labels = random_cohort(rng, n=30)
            frac = float(rng.uniform(0.05, 1.0))
            assert precision_at_k(scores, labels, frac) == pytest.approx(
                precision_at_k_oracle(scores.tolist(), labels.tolist(), frac), abs=1e-15
            )

    def test_fraction_one_equals_flag_everything_precision(self, rng):
        scores, labels = random_cohort(rng, n=50)
        conf = confusion_at(scores, labels, DecisionRule("fixed", 0.0))
        assert precision_at_k(scores, labels, 1.0) == pytest.approx(conf.precision, abs=1e-15)

    def test_empty(self):
        with pytest.raises(ValidationError, match="precision@K of empty cohort"):
            precision_at_k([], [], 0.5)

    def test_boundary_ties_resolved_by_input_order(self):
        scores = [0.5, 0.5, 0.5, 0.5]
        labels = [1, 0, 0, 0]
        # K=2 takes the first two input rows among the tied scores
        assert precision_at_k(scores, labels, 0.5) == 0.5


class TestPurity:
    def test_bit_identical_repeats(self, rng):
        scores, labels = random_cohort(rng, n=40)
        assert roc_auc(scores, labels) == roc_auc(scores, labels)
        assert average_precision(scores, labels) == average_precision(scores, labels)


def fitted_logistic(rng, coefs, n=300):
    d = len(coefs)
    X = rng.normal(size=(n, d))
    logits = X @ np.asarray(coefs)
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    y[0], y[1] = 1, 0
    fm = FeatureMatrix(X=X, y=y, feature_names=tuple(f"f{i}" for i in range(d)))
    return fit_logistic(fm, c=1.0), X, y


class TestPermutationImportance:
    def test_zero_coefficient_feature_has_exactly_zero_drop(self, rng):
        model = LogisticModel(
            coefficients=np.array([1.5, 0.0]),
            intercept=-0.3,
            l2_strength=1.0,
            feature_names=("used", "unused"),
            standardization=Standardization(mean=np.zeros(2), sd=np.ones(2)),
        )
        X = rng.normal(size=(200, 2))
        y = (rng.random(200) < model.predict_proba(X)).astype(int)
        y[0], y[1] = 1, 0
        report = permutation_importance(model, X, y, repeats=5, seed=3)
        unused = next(f for f in report.features if f.name == "unused")
        assert unused.delta_auc == 0.0
        assert unused.dispersion == 0.0

    def test_single_feature_drop_matches_oracle_recompute(self, rng):
        model, X, y = fitted_logistic(rng, [2.0], n=20)
        report = permutation_importance(model, X, y, repeats=3, seed=11)
        from snapgap.metrics import roc_auc as auc
        from snapgap.rng import STREAM_PERMUTE, derive_rng

        base = auc(model.predict_proba(X), y)
        drops = []
        for r in range(3):
            perm = derive_rng(11, STREAM_PERMUTE, 0, r).permutation(len(X))
            Xp = X.copy()
            Xp[:, 0] = X[perm, 0]
            drops.append(base - auc(model.predict_proba(Xp), y))
        assert report.features[0].delta_auc == pytest.approx(np.mean(drops), abs=1e-15)

    def test_dominant_feature_ranks_first(self, rng):
        model, X, y = fitted_logistic(rng, [-2.5, 0.3, 0.0], n=500)
        report = permutation_importance(model, X, y, repeats=8, seed=5)
        assert max(report.features, key=lambda f: f.delta_auc).name == "f0"

    def test_feature_mismatch(self, rng):
        model, X, y = fitted_logistic(rng, [1.0, 1.0])
        with pytest.raises(ValidationError, match=r"expected 2 features, got shape \(300, 1\)"):
            permutation_importance(model, X[:, :1], y, repeats=2)

    def test_order_independent_of_evaluation(self, rng):
        model, X, y = fitted_logistic(rng, [1.0, -1.0])
        a = permutation_importance(model, X, y, repeats=4, seed=2)
        b = permutation_importance(model, X, y, repeats=4, seed=2)
        assert a == b


@cache
def fitted_model(family):
    rng = np.random.default_rng(41)
    X = np.round(rng.normal(size=(240, 3)), 1)
    y = (rng.random(240) < 1 / (1 + np.exp(1.0 - 2.0 * X[:, 0] + X[:, 2]))).astype(int)
    fm = FeatureMatrix(X=X, y=y, feature_names=("a", "b", "c"))
    if family == "logistic":
        return fit_logistic(fm, c=1.0)
    return fit_tree_ensemble(fm, EnsembleParams(kind=family, n_trees=15, max_depth=4, seed=6))


def per_repeat_importance(model, X, y, repeats, seed):
    """One predict_proba call per (feature, repeat): the unbatched definition."""
    base = model.predict_proba(X)
    base_auc, base_ap = roc_auc(base, y), average_precision(base, y)
    out = []
    for j in range(X.shape[1]):
        d_auc, d_ap = [], []
        for r in range(repeats):
            perm = derive_rng(seed, STREAM_PERMUTE, j, r).permutation(X.shape[0])
            Xp = X.copy()
            Xp[:, j] = X[perm, j]
            scores = model.predict_proba(Xp)
            d_auc.append(base_auc - roc_auc(scores, y))
            d_ap.append(base_ap - average_precision(scores, y))
        out.append((float(np.mean(d_auc)), float(np.mean(d_ap)), float(np.std(d_auc))))
    return out


def mask_words(model) -> int:
    """Mask words of the model's largest tree: one per 64 leaves."""
    return max(-(-sum(f < 0 for f in tree.feature) // 64) for tree in model.trees)


@cache
def deep_forest(words):
    """A fully grown forest on noise whose largest tree needs `words` words."""
    rng = np.random.default_rng(words)
    n = {2: 260, 3: 420}[words]
    X = np.round(rng.normal(size=(n, 3)), 1)
    y = (rng.random(n) < 0.5).astype(int)
    fm = FeatureMatrix(X=X, y=y, feature_names=("a", "b", "c"))
    return fit_tree_ensemble(fm, EnsembleParams(kind="random_forest", n_trees=4, seed=words))


def hand_built(kind):
    """Trees that a fit on this data would not grow: a one-leaf tree, two
    nodes on feature 0 with the same threshold 0.0, a node whose threshold
    is NaN, and no split on feature 2."""
    nan = np.nan
    trees = (
        DecisionTree((-1,), (nan,), (-1,), (-1,), (0.3,)),
        DecisionTree(
            (0, 0, -1, -1, 1, -1, 1, -1, -1),
            (0.0, 0.0, nan, nan, 0.5, nan, nan, nan, nan),
            (1, 2, -1, -1, 5, -1, 7, -1, -1),
            (4, 3, -1, -1, 6, -1, 8, -1, -1),
            (nan, nan, 0.1, 0.2, nan, 0.9, nan, 0.4, 0.6),
        ),
        DecisionTree((1, -1, -1), (-0.5, nan, nan), (1, -1, -1), (2, -1, -1), (nan, 0.7, 0.8)),
    )
    return TreeEnsembleModel(
        trees=trees,
        params=EnsembleParams(kind=kind, n_trees=len(trees), learning_rate=0.5),
        feature_names=("a", "b", "c"),
        base_score=-0.2,
    )


class TestBatchedImportance:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["logistic", "random_forest", "gradient_boosting"]),
        n=st.integers(min_value=2, max_value=120),
        repeats=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_equals_per_repeat_loop(self, family, n, repeats, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, 3)), 1)  # ties within each column
        y = (rng.random(n) < 0.3).astype(int)
        y[0], y[1] = 1, 0
        model = fitted_model(family)
        report = permutation_importance(model, X, y, repeats=repeats, seed=seed)
        got = [(f.delta_auc, f.delta_ap, f.dispersion) for f in report.features]
        assert got == per_repeat_importance(model, X, y, repeats, seed)

    @settings(max_examples=15, deadline=None)
    @given(
        words=st.sampled_from([2, 3]),
        n=st.integers(min_value=2, max_value=150),
        repeats=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_trees_over_64_leaves_equal_per_repeat_loop(self, words, n, repeats, seed):
        model = deep_forest(words)
        assert mask_words(model) == words
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, 3)), 1)
        y = (rng.random(n) < 0.5).astype(int)
        y[0], y[1] = 1, 0
        report = permutation_importance(model, X, y, repeats=repeats, seed=seed)
        got = [(f.delta_auc, f.delta_ap, f.dispersion) for f in report.features]
        assert got == per_repeat_importance(model, X, y, repeats, seed)

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting"])
    def test_edge_trees_and_cells_equal_per_repeat_loop(self, kind):
        model = hand_built(kind)
        rng = np.random.default_rng(5)
        X = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan], size=(80, 3))
        y = (rng.random(80) < 0.5).astype(int)
        y[0], y[1] = 1, 0
        report = permutation_importance(model, X, y, repeats=5, seed=9)
        got = [(f.delta_auc, f.delta_ap, f.dispersion) for f in report.features]
        assert got == per_repeat_importance(model, X, y, 5, seed=9)
        assert report.features[2].delta_auc == 0.0  # no tree splits on c

    @pytest.mark.parametrize(
        "model", ["deep_2", "deep_3", "random_forest", "gradient_boosting", "logistic"]
    )
    def test_permuted_proba_is_predict_proba_bit_for_bit(self, model):
        if model.startswith("deep"):
            model = deep_forest(int(model[-1]))
        else:
            model = fitted_model(model) if model == "logistic" else hand_built(model)
        rng = np.random.default_rng(8)
        X = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.3, 0.5, 1.0, np.nan], size=(70, 3))
        perms = np.array([[rng.permutation(70) for _ in range(3)] for _ in range(3)])
        got = model.permuted_proba(X, perms)
        for j, r in np.ndindex(3, 3):
            Xp = X.copy()
            Xp[:, j] = X[perms[j, r], j]
            assert np.array_equal(got[j, r].view(np.int64), model.predict_proba(Xp).view(np.int64))

    def test_base_scores_are_the_model_scores(self):
        model = fitted_model("random_forest")
        rng = np.random.default_rng(3)
        X = np.round(rng.normal(size=(60, 3)), 1)
        y = (rng.random(60) < 0.4).astype(int)
        y[0], y[1] = 1, 0
        given_scores = permutation_importance(
            model, X, y, repeats=2, seed=1, base_scores=model.predict_proba(X)
        )
        assert given_scores == permutation_importance(model, X, y, repeats=2, seed=1)


class TestEvaluate:
    def test_full_report_fields(self, rng):
        scores, labels = random_cohort(rng, n=60)
        rule = DecisionRule("fixed", 0.3)
        report = evaluate(scores, labels, rule, cohort="All", model="demo")
        d = plain(report)
        for key in ("auc", "ap", "precision", "recall", "f1", "accuracy"):
            assert 0.0 <= d[key] <= 1.0
        assert set(d["precision_at"]) == {"0.01", "0.05"}
        assert d["n"] == 60
        assert d["n_pos"] == int(np.sum(labels))
