import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapgap.errors import CohortError, NonConvergence, ValidationError
from snapgap.metrics import average_precision
from snapgap.models import logistic
from snapgap.models import (
    FeatureMatrix,
    selection,
    cv_grid_search,
    fit_family,
    fold_proba,
    stratified_folds,
)
from snapgap.rng import STREAM_FOLDS, derive_rng


def informative_fm(rng, n=200, prevalence=0.2):
    X = rng.normal(size=(n, 2))
    logits = 1.8 * X[:, 0] - 2.0
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    need = max(2, int(prevalence * 10))
    if y.sum() < need:
        y[np.argsort(-X[:, 0])[:need]] = 1
    return FeatureMatrix(X=X, y=y, feature_names=("signal", "noise"))


class TestStratifiedFolds:
    def test_exact_partition_counts(self):
        y = np.array([1] * 10 + [0] * 90)
        folds = stratified_folds(y, 5, seed=3)
        for val in folds:
            assert np.sum(y[val] == 1) == 2
            assert len(val) == 20
        all_idx = np.sort(np.concatenate(folds))
        assert np.array_equal(all_idx, np.arange(100))

    def test_too_few_positives_reports_feasible(self):
        y = np.array([1] * 3 + [0] * 50)
        with pytest.raises(CohortError, match="minimum feasible folds: 3"):
            stratified_folds(y, 5, seed=0)

    def test_ratio_within_rounding(self, rng):
        y = (rng.random(103) < 0.3).astype(int)
        folds = stratified_folds(y, 4, seed=1)
        pos_counts = [int(np.sum(y[v] == 1)) for v in folds]
        assert max(pos_counts) - min(pos_counts) <= 1

    def test_deterministic(self):
        y = np.array([1] * 10 + [0] * 40)
        a = stratified_folds(y, 5, seed=12)
        b = stratified_folds(y, 5, seed=12)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))


class TestCvGridSearch:
    def test_singleton_grid_wins(self, rng):
        fm = informative_fm(rng)
        res = cv_grid_search(fm, "logistic", [{"c": 0.5}], folds=stratified_folds(fm.y, 3, 0), seed=0)
        assert res.winner == {"c": 0.5}
        assert len(res.grid) == 1

    def test_oof_covers_every_row(self, rng):
        fm = informative_fm(rng)
        res = cv_grid_search(fm, "logistic", [{"c": 1.0}], folds=stratified_folds(fm.y, 4, 2), seed=2)
        assert res.oof_proba.shape == (fm.n,)
        assert np.all((res.oof_proba > 0) & (res.oof_proba < 1))

    def test_winner_matches_exhaustive_refit_oracle(self, rng):
        fm = informative_fm(rng, n=240)
        grid = [{"c": c} for c in (0.01, 0.1, 1.0, 10.0)]
        folds, seed = 4, 17
        res = cv_grid_search(fm, "logistic", grid, folds=stratified_folds(fm.y, folds, seed), seed=seed)

        # independent fold reconstruction from the documented seeding contract
        fold_rng = derive_rng(seed, STREAM_FOLDS)
        pos = np.flatnonzero(fm.y == 1)
        neg = np.flatnonzero(fm.y == 0)
        pos = pos[fold_rng.permutation(len(pos))]
        neg = neg[fold_rng.permutation(len(neg))]
        fold_idx = [np.sort(np.concatenate([pos[i::folds], neg[i::folds]])) for i in range(folds)]

        mean_aps = []
        for params in grid:
            aps = []
            for val in fold_idx:
                train = np.setdiff1d(np.arange(fm.n), val)
                model = fit_family(fm.subset(train), "logistic", params, seed)
                aps.append(average_precision(model.predict_proba(fm.X[val]), fm.y[val]))
            mean_aps.append(np.mean(aps))
        oracle_winner = grid[int(np.argmax(mean_aps))]
        assert res.winner == oracle_winner
        got = {tuple(e.params.items()): e.mean_ap for e in res.grid}
        for params, ap in zip(grid, mean_aps):
            assert got[tuple(params.items())] == pytest.approx(ap, abs=1e-12)

    def test_exact_ties_break_to_simpler(self, rng):
        # constant feature: every C yields identical predictions, so all mean
        # APs tie exactly and the lowest C must win
        n = 60
        X = np.ones((n, 1))
        y = np.array(([1] * 12) + [0] * (n - 12))
        fm = FeatureMatrix(X=X, y=y, feature_names=("const",))
        grid = [{"c": c} for c in (100.0, 1.0, 0.01)]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cv_grid_search(fm, "logistic", grid, folds=stratified_folds(fm.y, 3, 5), seed=5)
        assert res.winner == {"c": 0.01}

    @pytest.mark.parametrize(
        "family, grid, winner",
        [
            # an omitted n_trees is fitted as 100 trees
            (
                "random_forest",
                [{"max_depth": 1}, {"n_trees": 3, "max_depth": 1}],
                {"n_trees": 3, "max_depth": 1},
            ),
            # an omitted learning_rate is fitted as 0.1
            (
                "gradient_boosting",
                [{"n_trees": 3, "max_depth": 1}, {"n_trees": 3, "max_depth": 1, "learning_rate": 0.05}],
                {"n_trees": 3, "max_depth": 1, "learning_rate": 0.05},
            ),
            # an omitted c is fitted as 1.0
            ("logistic", [{}, {"c": 0.5}], {"c": 0.5}),
        ],
    )
    def test_ties_rank_omitted_params_at_their_defaults(self, family, grid, winner):
        # constant feature: every candidate's predictions are constant, so all
        # mean APs tie exactly and the candidate simpler as fitted must win
        n = 60
        X = np.ones((n, 1))
        y = np.array(([1] * 12) + [0] * (n - 12))
        fm = FeatureMatrix(X=X, y=y, feature_names=("const",))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cv_grid_search(fm, family, grid, folds=stratified_folds(fm.y, 3, 5), seed=5)
        assert len({e.mean_ap for e in res.grid}) == 1
        assert res.winner == winner

    def test_tree_families_run(self, rng):
        fm = informative_fm(rng, n=120)
        grids = {
            "random_forest": [{"n_trees": 5, "max_depth": 2}],
            "gradient_boosting": [{"n_trees": 5, "max_depth": 2, "learning_rate": 0.1}],
        }
        for family, grid in grids.items():
            res = cv_grid_search(fm, family, grid, folds=stratified_folds(fm.y, 3, 4), seed=4)
            assert 0.0 <= res.grid[0].mean_ap <= 1.0

    def test_non_converged_candidate_is_an_entry(self, rng, monkeypatch):
        fm = informative_fm(rng, n=120)
        fit_logistic = selection.fit_logistic

        def fit(fm, c=1.0, **kw):
            if c == 100.0:
                raise NonConvergence("stuck")
            return fit_logistic(fm, c=c, **kw)

        monkeypatch.setattr(selection, "fit_logistic", fit)
        grid = [{"c": 100.0}, {"c": 1.0}]
        res = cv_grid_search(fm, "logistic", grid, folds=stratified_folds(fm.y, 3, 4), seed=4)
        assert res.winner == {"c": 1.0}
        assert [(e.params, e.error) for e in res.grid] == [
            ({"c": 1.0}, None),
            ({"c": 100.0}, "stuck"),
        ]
        assert np.isnan(res.grid[1].mean_ap) and res.grid[1].fold_aps == []
        with pytest.raises(NonConvergence, match="stuck"):
            cv_grid_search(fm, "logistic", [{"c": 100.0}], folds=stratified_folds(fm.y, 3, 4), seed=4)

    def test_fold_proba_alignment(self, rng):
        fm = informative_fm(rng, n=90)
        folds = stratified_folds(fm.y, 3, seed=9)
        oof = np.empty((1, fm.n))
        for val in folds:
            assert fold_proba(fm, "logistic", [{"c": 1.0}], val, 9, oof) == [None]
        oof = oof[0]
        # rows in a validation fold must be scored by a model that never saw them;
        # verify by recomputing one fold by hand
        val = folds[0]
        train = np.setdiff1d(np.arange(fm.n), val)
        model = fit_family(fm.subset(train), "logistic", {"c": 1.0}, 9)
        assert np.array_equal(oof[val], model.predict_proba(fm.X[val]))

    def test_logistic_candidates_share_each_folds_training_matrix(self, rng, monkeypatch):
        fm = informative_fm(rng, n=150)
        grid = [{"c": 0.1}, {"c": 1.0}, {"c": 100.0}]
        calls = []
        for module in (selection, logistic):
            real = module.standardize
            monkeypatch.setattr(
                module, "standardize", lambda m, real=real: calls.append(m.n) or real(m)
            )
        cv_grid_search(fm, "logistic", grid, folds=stratified_folds(fm.y, 5, 3), seed=3)
        assert len(calls) == 5  # once per fold, not once per fold and candidate
        monkeypatch.undo()
        assert_matches_loop(fm, "logistic", grid, folds=5, seed=3)


def per_candidate_grid(fm, family, grid, folds, seed):
    """The grid search written out as a plain loop: one `fit_family` per
    candidate and fold, candidates taken in simplicity order (fewer trees,
    then shallower, then lower learning rate, an omitted value counting as
    the default it is fitted with) and replaced only on a strictly better
    mean AP. Returns (entries, winner params, winner's oof scores)."""
    fold_idx = stratified_folds(fm.y, folds, seed)

    def simplicity(p):
        depth = p.get("max_depth")
        depth_rank = np.inf if depth is None else depth
        return (p.get("n_trees", 100), depth_rank, p.get("learning_rate", 0.1))

    entries, best = [], None
    for params in sorted(grid, key=simplicity):
        proba = np.empty(fm.n)
        for val in fold_idx:
            train = np.setdiff1d(np.arange(fm.n), val)
            model = fit_family(fm.subset(train), family, params, seed)
            proba[val] = model.predict_proba(fm.X[val])
        fold_aps = [average_precision(proba[val], fm.y[val]) for val in fold_idx]
        entry = (params, float(np.mean(fold_aps)), fold_aps)
        entries.append(entry)
        if best is None or entry[1] > best[0][1]:
            best = (entry, proba)
    return entries, best[0][0], best[1]


def assert_matches_loop(fm, family, grid, folds, seed):
    got = cv_grid_search(fm, family, grid, folds=stratified_folds(fm.y, folds, seed), seed=seed)
    entries, winner, oof = per_candidate_grid(fm, family, grid, folds, seed)
    assert [(e.params, e.mean_ap, e.fold_aps) for e in got.grid] == entries
    assert got.winner == winner
    assert got.oof_proba.tobytes() == oof.tobytes()


class TestPrefixSharing:
    """Candidates that differ only in n_trees share one fit per fold."""

    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(["random_forest", "gradient_boosting"]),
        counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        depths=st.lists(st.sampled_from([1, 2, None]), min_size=1, max_size=2, unique=True),
        omit_count=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_per_candidate_loop(self, family, counts, depths, omit_count, seed):
        fm = informative_fm(np.random.default_rng(seed), n=60, prevalence=0.6)  # >= 6 positives
        grid = [
            {"n_trees": k, "max_depth": depth, "min_leaf": 3, "learning_rate": 0.3}
            for depth in depths
            for k in counts
        ]
        grid.append(dict(grid[0]))  # an exact duplicate
        if omit_count:  # fits the default 100 trees
            grid.append({"max_depth": 1, "min_leaf": 3, "learning_rate": 0.3})
        assert_matches_loop(fm, family, grid, folds=3, seed=seed % 1000)

    @pytest.mark.parametrize("family", ["random_forest", "gradient_boosting"])
    def test_omitted_n_trees_shares_the_default_count(self, rng, family):
        fm = informative_fm(rng, n=60)
        grid = [
            {"max_depth": 1},  # fits the default 100 trees
            {"n_trees": 100, "max_depth": 1},
            {"n_trees": 3, "max_depth": 1},
            {"n_trees": 3, "max_depth": 1},
            {"n_trees": 5, "max_depth": 1, "min_leaf": 1},  # the default, spelled out
            {"n_trees": 7, "max_depth": 2},
        ]
        assert_matches_loop(fm, family, grid, folds=3, seed=5)

    def test_prefix_rows_equal_smaller_fits(self, rng):
        fm = informative_fm(rng, n=90)
        folds = stratified_folds(fm.y, 3, seed=2)
        params = {"n_trees": 6, "max_depth": 2}
        prefixes = [2, 6, 4]
        rows = np.empty((len(prefixes), fm.n))
        alone = np.empty((len(prefixes), fm.n))
        for val in folds:
            fold_proba(
                fm, "gradient_boosting", [{**params, "n_trees": k} for k in prefixes], val, 2, rows
            )
            for i, k in enumerate(prefixes):
                fold_proba(
                    fm, "gradient_boosting", [{**params, "n_trees": k}], val, 2, alone[i : i + 1]
                )
        for row, one in zip(rows, alone):
            assert row.tobytes() == one.tobytes()

    @pytest.mark.parametrize("family", ["random_forest", "gradient_boosting"])
    def test_invalid_count_still_raises(self, rng, family):
        fm = informative_fm(rng, n=60)
        grid = [{"n_trees": 30, "max_depth": 2}, {"n_trees": 0, "max_depth": 2}]
        with pytest.raises(ValidationError, match="tree count must be >= 1, got 0"):
            cv_grid_search(fm, family, grid, folds=stratified_folds(fm.y, 3, 0), seed=0)
