import json
from pathlib import Path

import pytest

from snapgap.cli import main
from snapgap.config import apply_overrides, load_config, settings_from
from snapgap.errors import ValidationError
from snapgap.labeling import LabelConfig
from snapgap.pipeline import BacktestConfig, all_feature_subsets
from snapgap.synth import SyntheticSpec

WORKLOADS = sorted((Path(__file__).resolve().parents[1] / "bench" / "workloads").glob("*.yaml"))


def test_no_keys_give_the_dataclass_defaults():
    settings = settings_from({})
    assert settings.backtest == BacktestConfig()
    assert settings.synth == SyntheticSpec()
    assert settings.read == {}


def test_only_the_given_keys_leave_their_defaults():
    settings = settings_from({"folds": 3, "lo_q": 0.2, "seed": 7, "synth": {"n_zips": 50}})
    label = LabelConfig(lo_q=0.2)
    assert settings.backtest == BacktestConfig(folds=3, seed=7, label=label)
    assert settings.synth == SyntheticSpec(n_zips=50, seed=7, label=label)


def test_floats_take_ints_and_store_floats():
    settings = settings_from(
        {"hidden_tail": 0, "families": ["logistic"], "grids": {"logistic": [{"c": 1}]}}
    )
    assert type(settings.backtest.hidden_tail) is float
    assert settings.backtest.grids == {"logistic": [{"c": 1.0}]}
    assert type(settings.backtest.grids["logistic"][0]["c"]) is float


@pytest.mark.parametrize("value", [[2014, 2017], "2014-2017", "2014 2017"])
def test_year_pairs_take_a_list_or_a_string(value):
    assert settings_from({"p1_years": value}).backtest.p1_years == (2014, 2017)


def test_feature_subsets_all_means_every_subset():
    assert settings_from({"feature_subsets": "all"}).backtest.subsets() == all_feature_subsets()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"importance_repeat": 5}, "unknown key 'importance_repeat'"),
        ({"stratify_by_area": True}, "unknown key 'stratify_by_area'"),
        ({"synth": {"seed": 1}}, "unknown key 'synth.seed'"),
        ({"folds": True}, "folds must be int, got True"),
        ({"folds": "5"}, "folds must be int, got '5'"),
        ({"hidden_tail": False}, "hidden_tail must be float, got False"),
        ({"families": "logistic"}, "families must be list[str, ...], got 'logistic'"),
        ({"p1_years": [2014]}, "p1_years must be a year pair"),
        ({"p1_years": [2014, "x"]}, "p1_years[1] must be int, got 'x'"),
        ({"synth": {"area_mix": {"Urban": "half"}}}, "synth.area_mix.Urban must be float"),
        ({"grids": {"lasso": [{"c": 1.0}]}}, "unknown key 'grids.lasso'"),
        ({"grids": {"random_forest": [{"c": 1.0}]}}, "unknown key 'grids.random_forest[0].c'"),
        ({"grids": {"logistic": [{"c": 1.0}]}}, "grids has no candidate for family 'random_forest'"),
        (
            {"grids": {"gradient_boosting": [{"n_trees": 10}, {"n_trees": 2.5}]}},
            "grids.gradient_boosting[1].n_trees must be int, got 2.5",
        ),
        # A model is keyed by its family and subset, so a repeat would be
        # fitted twice and then overwrite the other in the manifest and the
        # scorer files; a subset in another order fits the same model twice.
        ({"families": ["logistic", "random_forest", "logistic"]}, "families[2] repeats family 'logistic'"),
        (
            {"feature_subsets": [["pct_no_vehicle"], ["pct_hs_only"], ["pct_no_vehicle"]]},
            "feature_subsets[2] repeats feature_subsets[0]",
        ),
        (
            {"feature_subsets": [["pct_no_vehicle", "pct_hs_only"], ["pct_hs_only", "pct_no_vehicle"]]},
            "feature_subsets[1] repeats feature_subsets[0]",
        ),
        (
            {"feature_subsets": [["pct_no_vehicle"], ["pct_hs_only", "pct_no_vehicle", "pct_hs_only"]]},
            "feature_subsets[1] repeats predictor 'pct_hs_only'",
        ),
    ],
)
def test_rejects_unknown_keys_and_wrong_types(config, message):
    with pytest.raises(ValidationError) as exc:
        settings_from(config)
    assert message in str(exc.value)


@pytest.mark.parametrize("command", ["backtest", "train"])
def test_a_repeated_model_exits_2_before_any_work(tmp_path, capsys, command):
    # the panel does not exist, so reading it first would exit 4
    code = main(
        [
            command,
            "--panel", str(tmp_path / "missing.csv"),
            "--seed", "3",
            "--out", str(tmp_path / "out"),
            "--set", "feature_subsets=[[pct_no_vehicle], [pct_no_vehicle], [pct_hs_only, pct_hs_only]]",
            "--set", "families=[logistic, logistic]",
        ]
    )
    assert code == 2
    assert "families[1] repeats family 'logistic'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_benchmark_workloads_load_unedited(path):
    settings = settings_from(apply_overrides(load_config(path), ["seed=1"]))
    assert settings.synth.seed == settings.backtest.seed == 1
    assert settings.synth.n_zips > 0


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "panel.csv"
    assert main(["synth", "--seed", "2", "--out", str(path), "--set", "synth.n_zips=20"]) == 0
    return str(path)


# Each of these ran without an error, read a value other than the one
# given, or ended in a traceback, before every key was checked.
DEFECTS = [
    ("ingest", ["--set", "importance_repeat=5"], "importance_repeat"),
    ("synth", ["--set", "synth.n_zip=50"], "synth.n_zip"),
    ("ingest", ["--set", "folds=5.7"], "folds"),
    ("ingest", ["--set", "use_capped_uptake='no'"], "use_capped_uptake"),
    ("label", ["--set", "area_mode=Stratified"], "area_mode"),
    ("backtest", ["--set", "grids={logistic: [{C: 0.01}]}", "--set", "families=[logistic]"],
     "grids.logistic[0].C"),
    ("ingest", ["--set", "folds=abc"], "folds"),
    ("ingest", ["--set", "feature_subsets=3"], "feature_subsets"),
    ("ingest", ["--set", "grids=[1]"], "grids"),
    ("ingest", ["--set", "hidden_tail=x"], "hidden_tail"),
    ("synth", ["--set", "synth=5"], "synth"),
    ("ingest", ["--set", "schema=5"], "schema"),
    ("ingest", ["--set", "delimiter=';;'"], "delimiter"),
    ("ingest", ["--set", "families=logistic"], "families"),
]


def _args(command, panel, out):
    if command == "synth":
        return ["synth", "--seed", "1", "--out", str(out / "panel.csv")]
    seed = ["--seed", "1"] if command in ("train", "backtest") else []
    return [command, *seed, "--panel", panel, "--out", str(out / "out.csv")]


@pytest.mark.parametrize("command, extra, key", DEFECTS, ids=[d[2] for d in DEFECTS])
def test_each_defect_exits_2_naming_its_key(tmp_path, capsys, panel, command, extra, key):
    assert main(_args(command, panel, tmp_path) + extra) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["ingest", "label", "train", "backtest", "synth", "report"])
def test_every_command_checks_keys_before_any_work(tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    seed = ["--seed", "1"] if command in ("train", "backtest") else []
    args = {
        "synth": ["synth", "--seed", "1", "--out", str(tmp_path / "p.csv")],
        "report": ["report", "--manifest", missing, "--out", str(tmp_path / "r")],
    }.get(command, [command, *seed, "--panel", missing, "--out", str(tmp_path / "o")])
    args += ["--set", "importance_repeat=5"]
    if command == "report":  # takes no settings: --set is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments: --set importance_repeat=5" in capsys.readouterr().err
    else:
        assert main(args) == 2
        assert capsys.readouterr().err == "error: unknown key 'importance_repeat'\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flags",
    [
        ("report", ["--config", "c.yaml"]),
        ("report", ["--seed", "1"]),
        ("ingest", ["--seed", "1"]),
        ("label", ["--seed", "1"]),
        ("backtest", ["--formats", "json"]),
    ],
)
def test_flags_that_set_nothing_are_unknown(tmp_path, capsys, command, flags):
    # report reads no setting (its --set is refused above), neither ingest
    # nor label draws a random number, and a run writes every report file
    given = {"report": ["--manifest", "m.json"], "backtest": ["--seed", "1", "--panel", "p.csv"]}.get(
        command, ["--panel", "p.csv"]
    )
    with pytest.raises(SystemExit) as exc:
        main([command, *given, "--out", str(tmp_path / "o"), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# Each of these passed the settings check and failed only after the panel
# was read: `hidden_tail` after every fit, the others in the first task.
OUT_OF_RANGE = [
    (["--set", "hidden_tail=2"], "hidden_tail must be in [0, 1], got 2.0"),
    (["--set", "folds=1"], "folds must be >= 2, got 1"),
    (["--set", "importance_repeats=0"], "importance_repeats must be >= 1, got 0"),
    (["--set", "reliability_bins=0"], "reliability_bins must be >= 1, got 0"),
    (
        ["--set", "families=[random_forest]", "--set", "grids={random_forest: [{n_trees: 5}, {n_trees: 0}]}"],
        "grids.random_forest[1]: tree count must be >= 1, got 0",
    ),
    (
        ["--set", "families=[logistic]", "--set", "grids={logistic: [{c: -1}]}"],
        "grids.logistic[0]: l2 strength C must be positive, got -1.0",
    ),
]
RANGE_IDS = ["hidden_tail", "folds", "importance_repeats", "reliability_bins", "grids.tree", "grids.logistic"]


@pytest.mark.parametrize("extra, message", OUT_OF_RANGE, ids=RANGE_IDS)
def test_out_of_range_settings_exit_2_before_any_work(tmp_path, capsys, extra, message):
    # The panel does not exist, so any work before the check would exit 4.
    args = ["backtest", "--seed", "1", "--panel", str(tmp_path / "missing"), "--out", str(tmp_path / "o")]
    assert main(args + extra) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


# Each of these ended in a traceback, ran to the end and wrote garbage, or
# failed only after its work: a negative seed in numpy's seeding, a
# non-finite float at the manifest digest, in a fit or in the panel's cells,
# an int past the float range in its conversion, a negative area share in
# the area draw, an empty feature subset as a model with no features or in
# the first tree fit, a synth key out of range on a backtest not at all, and
# a split70 grid of two candidates as a fit of neither, with both recorded.
BAD_SETTINGS = [
    ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("backtest", ["--seed", "-5"], "seed must be >= 0, got -5"),
    (
        "backtest",
        ["--seed", "1", "--set", "families=[logistic]", "--set", "grids={logistic: [{c: .inf}]}"],
        "grids.logistic[0].c must be finite, got inf",
    ),
    (
        "backtest",
        ["--seed", "1", "--set", "families=[logistic]", "--set", "grids={logistic: [{c: .nan}]}"],
        "grids.logistic[0].c must be finite, got nan",
    ),
    (
        "synth",
        ["--seed", "1", "--set", "synth.true_coefficients={pct_no_vehicle: .nan}"],
        "synth.true_coefficients.pct_no_vehicle must be finite, got nan",
    ),
    (
        "synth",
        ["--seed", "1", "--set", "synth.area_mix={Urban: .nan, Rural: 1.0}"],
        "synth.area_mix.Urban must be finite, got nan",
    ),
    (
        "synth",
        ["--seed", "1", "--set", "synth.area_mix={Urban: 2.0, Rural: -1.0}"],
        "area_mix share of 'Rural' must be >= 0, got -1.0",
    ),
    (
        "backtest",
        ["--seed", "1", "--set", "hidden_tail=1" + "0" * 309],
        "hidden_tail must be finite, got 1" + "0" * 309,
    ),
    ("backtest", ["--seed", "1", "--set", "feature_subsets=[[]]"], "feature_subsets[0] is empty"),
    ("backtest", ["--seed", "1", "--set", "synth.anomaly_rate=5"], "anomaly_rate must be in [0,1), got 5.0"),
    (
        "backtest",
        [
            "--seed", "1", "--set", "selection=split70", "--set", "families=[random_forest]",
            "--set", "grids.random_forest=[{n_trees: 2}, {n_trees: 4}]",
        ],
        "grids.random_forest: split70 fits one candidate, got 2",
    ),
]
BAD_IDS = [
    "synth-negative-seed",
    "backtest-negative-seed",
    "c-inf",
    "c-nan",
    "coefficient-nan",
    "area-share-nan",
    "negative-area-share",
    "int-past-float-range",
    "empty-subset",
    "synth-key-on-backtest",
    "split70-grid-of-two",
]


@pytest.mark.parametrize("command, extra, message", BAD_SETTINGS, ids=BAD_IDS)
def test_bad_settings_exit_2_before_any_work(tmp_path, capsys, command, extra, message):
    # A backtest's panel does not exist, so any work before the check would exit 4.
    args = {
        "synth": ["synth", "--out", str(tmp_path / "p.csv")],
        "backtest": ["backtest", "--panel", str(tmp_path / "missing"), "--out", str(tmp_path / "o")],
    }[command]
    assert main(args + extra) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_range_bounds_are_valid():
    BacktestConfig(hidden_tail=0.0, folds=2, importance_repeats=1, reliability_bins=1)
    BacktestConfig(hidden_tail=1.0, grids={"logistic": [{}], "random_forest": [{}],
                                            "gradient_boosting": [{"learning_rate": 1.0}]})


def test_area_mode_decides_how_label_stratifies(tmp_path, panel):
    out = tmp_path / "labeled.csv"
    assert main(["label", "--panel", panel, "--out", str(out), "--set", "area_mode=stratified"]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["stratified"] is True
