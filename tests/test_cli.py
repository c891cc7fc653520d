import csv
import json
import math
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import snapgap
from snapgap import pipeline
from snapgap.cli import main
from snapgap.config import apply_overrides, settings_from
from snapgap.errors import SingleClass
from snapgap.ingest import PREDICTOR_FIELDS, parse_panel
from snapgap.jsonio import load_json
from snapgap.labeling import LabelConfig, build_labels, fit_uptake_ols
from snapgap.models import FAMILIES, scorer_from_dict
from snapgap.pipeline import digest_of, train_scorers

PANEL_CSV = """zip,year,pov_fam,snap_fam,fam_universe,pct_no_vehicle,pct_no_internet,pct_no_computer,pct_hs_only
01001,2015,120,60,400,12.0,15.0,9.0,30.0
01002,2015,-999,60,400,12.0,15.0,9.0,30.0
1003,2015,90,30,300,104.5,15.0,9.0,30.0
BAD,2015,90,30,300,10.0,15.0,9.0,30.0
01001,2015,120,60,400,12.0,15.0,9.0,30.0
"""

CROSSWALK_CSV = """zip,tract_status,res_ratio
01001,Urban,0.9
01001,Rural,0.1
01002,Rural,1.0
01003,Urban,0.5
01003,Rural,0.5
"""


def test_ingest_label_flow(tmp_path, capsys):
    panel = tmp_path / "raw.csv"
    panel.write_text(PANEL_CSV)
    crosswalk = tmp_path / "crosswalk.csv"
    crosswalk.write_text(CROSSWALK_CSV)
    out = tmp_path / "panel.csv"
    rejects = tmp_path / "rejects.csv"

    code = main(
        [
            "ingest",
            "--panel", str(panel),
            "--crosswalk", str(crosswalk),
            "--out", str(out),
            "--rejects", str(rejects),
        ]
    )
    assert code == 0
    assert out.exists()
    reject_text = rejects.read_text()
    assert "zip" in reject_text  # the BAD row landed in the report

    labeled = tmp_path / "labeled.csv"
    code = main(["label", "--panel", str(out), "--out", str(labeled)])
    assert code == 0
    assert labeled.exists()
    sidecar = json.loads(labeled.with_suffix(".json").read_text())
    assert "thresholds" in sidecar and "prevalence" in sidecar


def test_reject_report_names_the_source_file(tmp_path):
    panel = tmp_path / "raw.csv"
    panel.write_text("zip,year,pov_fam,snap_fam\nBAD,2015,90,30\n01001,2015,120,60\n")
    crosswalk = tmp_path / "crosswalk.csv"
    crosswalk.write_text("zip,tract_status,res_ratio\nXYZ,Urban,0.5\n01001,Urban,1.0\n")
    rejects = tmp_path / "rejects.csv"
    code = main(
        [
            "ingest",
            "--panel", str(panel),
            "--crosswalk", str(crosswalk),
            "--out", str(tmp_path / "panel.csv"),
            "--rejects", str(rejects),
        ]
    )
    assert code == 0
    assert rejects.read_text().splitlines() == [
        "source,row,reason",
        "panel,1,zip: not a ZIP code: 'BAD'",
        "crosswalk,1,zip: not a ZIP code: 'XYZ'",
    ]


def test_label_sidecar_records_the_rule(tmp_path):
    panel = tmp_path / "synth.csv"
    assert main(["synth", "--seed", "3", "--out", str(panel), "--set", "synth.n_zips=200"]) == 0
    sidecars = {}
    for name, extra in (("capped", []), ("raw", ["--set", "use_capped_uptake=false"])):
        out = tmp_path / f"{name}.csv"
        assert main(["label", "--panel", str(panel), "--out", str(out), *extra]) == 0
        sidecars[name] = out.with_suffix(".json").read_text()
    assert sidecars["capped"] != sidecars["raw"]
    config = json.loads(sidecars["capped"])["config"]
    assert config == {"poverty_floor": 0.15, "hi_q": 0.70, "lo_q": 0.10, "use_capped_uptake": True}
    assert json.loads(sidecars["raw"])["config"]["use_capped_uptake"] is False


def test_label_writes_the_uptake_residuals(tmp_path):
    panel = tmp_path / "synth.csv"
    assert main(["synth", "--seed", "3", "--out", str(panel), "--set", "synth.n_zips=200"]) == 0
    out = tmp_path / "labeled.csv"
    assert main(["label", "--panel", str(panel), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        written = [row["residual"] for row in csv.DictReader(fh)]
    labeled, _ = fit_uptake_ols(build_labels(parse_panel(panel)[0], LabelConfig()))
    assert written == ["" if math.isnan(r) else repr(r) for r in labeled.residual.tolist()]
    assert written.count("") == len(written) - labeled.n_eligible() > 0


def test_label_leaves_the_residuals_blank_without_a_fit(tmp_path):
    panel = tmp_path / "one.csv"
    panel.write_text(PANEL_CSV.splitlines()[0] + "\n" + PANEL_CSV.splitlines()[1] + "\n")
    out = tmp_path / "labeled.csv"
    assert main(["label", "--panel", str(panel), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert [row["residual"] for row in csv.DictReader(fh)] == [""]


def test_synth_backtest_report_flow(tmp_path):
    panel = tmp_path / "synth.csv"
    code = main(
        [
            "synth",
            "--seed", "9",
            "--out", str(panel),
            "--set", "synth.n_zips=300",
            "--set", "synth.true_coefficients={pct_no_vehicle: -0.5}",
        ]
    )
    assert code == 0
    assert panel.exists()
    truth = json.loads(panel.with_suffix(".truth.json").read_text())
    assert truth["spec"]["n_zips"] == 300

    outdir = tmp_path / "run"
    code = main(
        [
            "backtest",
            "--panel", str(panel),
            "--seed", "9",
            "--out", str(outdir),
            "--set", "feature_subsets=[[pct_no_vehicle]]",
            "--set", "families=[logistic]",
            "--set", "grids={logistic: [{c: 1.0}]}",
            "--set", "folds=3",
            "--set", "importance_repeats=2",
        ]
    )
    assert code == 0
    manifest_path = outdir / "manifest.json"
    assert manifest_path.exists()
    body = json.loads(manifest_path.read_text())
    assert body["seed"] == 9
    assert (outdir / "report.md").exists()
    assert (outdir / "metrics.csv").exists()

    # re-render from the saved manifest
    rerender = tmp_path / "rerender"
    code = main(["report", "--manifest", str(manifest_path), "--out", str(rerender)])
    assert code == 0
    assert (rerender / "report.md").read_text() == (outdir / "report.md").read_text()


@pytest.fixture(scope="module")
def saved_manifest(tmp_path_factory):
    """The JSON data of a small backtest's manifest."""
    tmp = tmp_path_factory.mktemp("saved")
    panel = tmp / "synth.csv"
    main(["synth", "--seed", "4", "--out", str(panel), "--set", "synth.n_zips=250"])
    args = ["backtest", "--panel", str(panel), "--out", str(tmp / "run"), "--formats", "json"]
    assert main(args + SMALL_RUN) == 0
    return load_json(tmp / "run" / "manifest.json")


def _model(body):
    return body["cohorts"]["All"]["models"]["logistic[pct_no_vehicle]"]


def _set(path, value):
    """A change to a manifest body that puts `value` at `path`."""

    def change(body):
        *parents, last = path
        for key in parents:
            body = body[key]
        body[last] = value

    return change


MANIFEST_DAMAGE = {
    "format": _set(["format"], "snapgap-manifest/0"),
    "no periods": lambda body: body.pop("periods"),
    "cohorts a list": _set(["cohorts"], []),
    "tau_lo a string": _set(["periods", "p1", "thresholds", "All", "tau_lo"], "0.4"),
    "group key": lambda body: body["fragile_distribution"]["p1"].update(x={"by_area": {}}),
    "yearly prevalence": lambda body: body["yearly"][0].update(prevalence="high"),
    "reliability row": lambda body: _model(body)["reliability"].append([0.5, 0.1]),
    "no eval": lambda body: _model(body).pop("eval"),
    "flagged a dict": lambda body: _model(body).update(flagged={}),
    "year a string": lambda body: _model(body)["flagged"][0].__setitem__(1, "2019"),
    "year a bool": lambda body: _model(body)["flagged"][0].__setitem__(1, True),
    "year too large": lambda body: _model(body)["flagged"][0].__setitem__(1, 2**70),
    "probability an int": lambda body: _model(body)["flagged"][0].__setitem__(2, 1),
    "zip a number": lambda body: _model(body)["flagged"][0].__setitem__(0, 1001),
    "short row": lambda body: _model(body)["flagged"][0].pop(),
}


def _report_fails_with_exit_2(tmp_path, capsys, manifest: Path) -> None:
    out = tmp_path / "out"
    assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"{}", b"[1]", b'{"cohorts": 5}', b'{"format": "snapgap-manifest/1"', b"{} 1"],
    ids=["not utf-8", "empty object", "a list", "no format", "cut short", "trailing data"],
)
def test_report_exits_2_on_a_file_that_is_not_a_manifest(tmp_path, capsys, content):
    manifest = tmp_path / "bad.json"
    manifest.write_bytes(content)
    _report_fails_with_exit_2(tmp_path, capsys, manifest)


@pytest.mark.parametrize("damage", MANIFEST_DAMAGE.values(), ids=MANIFEST_DAMAGE.keys())
def test_report_exits_2_on_a_manifest_it_cannot_render(tmp_path, capsys, saved_manifest, damage):
    body = json.loads(json.dumps(saved_manifest))
    assert _model(body)["flagged"]
    damage(body)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(body), encoding="utf-8")
    _report_fails_with_exit_2(tmp_path, capsys, manifest)


def _halve_a_flagged_probability(body):
    _model(body)["flagged"][0][2] /= 2


def _raise_an_auc(body):
    _model(body)["eval"]["auc"] += 0.01


@pytest.mark.parametrize(
    "edit", [_halve_a_flagged_probability, _raise_an_auc], ids=["a flagged probability", "an AUC"]
)
def test_report_exits_2_on_a_body_that_does_not_match_its_digest(
    tmp_path, capsys, saved_manifest, edit
):
    body = json.loads(json.dumps(saved_manifest))
    edit(body)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(body), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    actual = digest_of({k: v for k, v in body.items() if k != "manifest_digest"})
    assert actual != body["manifest_digest"]
    assert line.startswith("error: ") and actual in line and body["manifest_digest"] in line
    assert not out.exists()


def test_report_renders_an_undamaged_copy(tmp_path, saved_manifest):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(saved_manifest), encoding="utf-8")
    assert main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
    assert load_json(tmp_path / "out" / "manifest.json") == saved_manifest


def test_train_writes_scorer_files(tmp_path):
    # training-period rows alone are enough for `train`
    panel = tmp_path / "synth.csv"
    main([
        "synth", "--seed", "4", "--out", str(panel),
        "--set", "synth.n_zips=250", "--set", "synth.years=[2014, 2018]",
    ])
    outdir = tmp_path / "models"
    code = main(
        [
            "train",
            "--panel", str(panel),
            "--out", str(outdir),
            "--set", "feature_subsets=[[pct_no_vehicle]]",
            "--set", "families=[logistic]",
            "--set", "grids={logistic: [{c: 1.0}]}",
            "--set", "folds=3",
            "--set", "importance_repeats=1",
        ]
    )
    assert code == 0
    files = list(outdir.glob("model_*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["format"] == "snapgap-model/1"
    assert doc["model"]["family"] == "logistic"
    assert "calibration" in doc and "rule" in doc


def test_scorer_files_read_back_to_the_same_predictions(tmp_path, small_panel):
    run = [*SMALL_RUN, "--set", "grids.gradient_boosting=[{n_trees: 5, max_depth: 2, learning_rate: 0.3}]"]
    outdir = tmp_path / "models"
    assert main(["train", "--panel", str(small_panel), "--out", str(outdir), *run]) == 0
    settings = settings_from(apply_overrides({"seed": 6}, run[3::2]))
    panel = parse_panel(small_panel)[0]
    scorers = train_scorers(settings.backtest, panel)
    X = panel.predictors[~np.isnan(panel.predictors).any(axis=1)]
    files = sorted(outdir.iterdir())
    assert len(files) == len(scorers) == 6
    families = set()
    for path in files:
        loaded = scorer_from_dict(load_json(path))
        family = load_json(path)["model"]["family"]
        families.add(family)
        names = loaded.feature_names
        scorer = scorers[("All", f"{family}[{'+'.join(names)}]")]
        cols = [PREDICTOR_FIELDS.index(name) for name in names]
        for predict in ("predict_calibrated", "model.predict_proba"):
            got, want = (attrgetter(predict)(s)(X[:, cols]) for s in (loaded, scorer))
            assert got.tobytes() == want.tobytes()
    assert families == set(FAMILIES)


def test_train_and_backtest_models_write_identical_scorers(tmp_path):
    panel = tmp_path / "synth.csv"
    main(["synth", "--seed", "5", "--out", str(panel), "--set", "synth.n_zips=250"])
    common = [
        "--panel", str(panel),
        "--seed", "5",
        "--set", "feature_subsets=[[pct_no_vehicle], [pct_no_vehicle, pct_hs_only]]",
        "--set", "families=[logistic, random_forest]",
        "--set", "grids={logistic: [{c: 1.0}], random_forest: [{n_trees: 5, max_depth: 3}]}",
        "--set", "folds=3",
        "--set", "importance_repeats=1",
    ]
    assert main(["train", *common, "--out", str(tmp_path / "trained")]) == 0
    assert main(["backtest", *common, "--out", str(tmp_path / "run"), "--models"]) == 0
    trained = {p.name: p.read_bytes() for p in (tmp_path / "trained").iterdir()}
    backtested = {p.name: p.read_bytes() for p in (tmp_path / "run" / "models").iterdir()}
    assert len(trained) == 4
    assert trained == backtested


def test_validation_exit_code(tmp_path):
    panel = tmp_path / "synth.csv"
    main(["synth", "--seed", "1", "--out", str(panel), "--set", "synth.n_zips=200"])
    code = main(
        [
            "backtest",
            "--panel", str(panel),
            "--seed", "1",
            "--out", str(tmp_path / "x"),
            "--set", "p1_years=[2014, 2020]",  # overlaps p2
        ]
    )
    assert code == 2


def test_io_exit_code(tmp_path):
    code = main(
        ["backtest", "--panel", str(tmp_path / "missing.csv"), "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 4


def test_insufficient_cohort_exit_code(tmp_path):
    panel = tmp_path / "tiny.csv"
    panel.write_text(
        "zip,year,pov_fam,snap_fam,fam_universe,pct_no_vehicle,pct_no_internet,pct_no_computer,pct_hs_only\n"
        "01001,2015,120,60,400,12.0,15.0,9.0,30.0\n"
        "01002,2020,120,60,400,12.0,15.0,9.0,30.0\n"
    )
    code = main(["backtest", "--panel", str(panel), "--seed", "1", "--out", str(tmp_path / "y")])
    assert code == 3


def test_seed_required_for_backtest_and_synth(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2


SMALL_RUN = [
    "--seed", "6",
    "--set", "feature_subsets=[[pct_no_vehicle], [pct_no_vehicle, pct_hs_only]]",
    "--set", "families=[logistic, random_forest, gradient_boosting]",
    "--set", "grids={logistic: [{c: 1.0}], random_forest: [{n_trees: 5, max_depth: 3}],"
    " gradient_boosting: [{n_trees: 5, max_depth: 2, learning_rate: 0.1}]}",
    "--set", "folds=3",
    "--set", "importance_repeats=1",
]

# Runs the CLI, then reports whether the process imported the pool modules.
RUN_CLI = """\
import sys
from snapgap.cli import main
code = main(sys.argv[1:])
print("pool imported:", "concurrent.futures" in sys.modules)
sys.exit(code)
"""


@pytest.fixture
def small_panel(tmp_path):
    panel = tmp_path / "synth.csv"
    main(["synth", "--seed", "6", "--out", str(panel), "--set", "synth.n_zips=250"])
    return panel


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, small_panel):
    src = str(Path(snapgap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    pooled = len(os.sched_getaffinity(0)) > 1
    outputs = []
    for pinned in (True, False):
        out = tmp_path / ("one-cpu" if pinned else "all-cpus")
        for command in (
            ["backtest", "--panel", str(small_panel), *SMALL_RUN, "--models", "--out", str(out / "backtest")],
            ["train", "--panel", str(small_panel), *SMALL_RUN, "--out", str(out / "train")],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", RUN_CLI, *command],
                env=env,
                preexec_fn=pin_to_one_cpu if pinned else None,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.endswith(f"pool imported: {pooled and not pinned}\n")
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert outputs[0] == outputs[1]
    assert sum(p.parts[0] == "train" for p in outputs[0]) == 6
    assert sum(p.parts[:2] == ("backtest", "models") for p in outputs[0]) == 6


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")
def test_task_warnings_print_the_same_pinned_or_not(tmp_path, small_panel):
    header, *rows = small_panel.read_text().splitlines()
    col = header.split(",").index("pct_hs_only")
    cells = [row.split(",") for row in rows]
    for row in cells:
        row[col] = "30.0"
    panel = tmp_path / "constant_hs_only.csv"
    panel.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
    src = str(Path(snapgap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = [
        *SMALL_RUN,
        "--set", "feature_subsets=[[pct_hs_only], [pct_no_vehicle, pct_hs_only]]",
        "--set", "families=[logistic]",
    ]
    stderr = []
    for pinned in (True, False):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, "backtest", "--panel", str(panel), *run,
             "--out", str(tmp_path / f"pinned-{pinned}")],
            env=env,
            preexec_fn=pin_to_one_cpu if pinned else None,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        stderr.append(proc.stderr)
    assert stderr[0] == stderr[1]
    assert stderr[0].count("UserWarning: constant feature(s) passed through centered") == 1


def run_tasks_in_workers(monkeypatch):
    """Run every task in one of two forked workers; a task run in this
    process fails the test."""
    parent, task_outcome = os.getpid(), pipeline._task_outcome

    def in_worker(state, i):
        assert os.getpid() != parent, "task ran in the parent process"
        return task_outcome(state, i)

    monkeypatch.setattr(pipeline, "_task_outcome", in_worker)
    monkeypatch.setattr(pipeline, "_pool_size", lambda n_tasks: min(n_tasks, 2))


def test_validation_error_in_a_worker_exits_2(tmp_path, small_panel, monkeypatch, capsys):
    run_tasks_in_workers(monkeypatch)
    # The settings check rejects this grid up front; let it reach the worker.
    monkeypatch.setattr(pipeline, "check_candidate", lambda family, params: None)
    code = main([
        "backtest", "--panel", str(small_panel), *SMALL_RUN, "--out", str(tmp_path / "run"),
        "--set", "grids={logistic: [{c: 1.0}], random_forest: [{n_trees: 0}],"
        " gradient_boosting: [{n_trees: 5}]}",
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: tree count must be >= 1, got 0\n"


def test_cohort_error_in_a_worker_exits_3(tmp_path, small_panel, monkeypatch, capsys):
    run_tasks_in_workers(monkeypatch)

    def single_class(cfg, cohort, *args):
        raise SingleClass(f"cohort {cohort!r}: one class in a worker")

    monkeypatch.setattr(pipeline, "_fit_task", single_class)
    code = main(["backtest", "--panel", str(small_panel), *SMALL_RUN, "--out", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == "error: every cohort failed: cohort 'All': one class in a worker\n"


def test_worker_death_exits_nonzero(tmp_path, small_panel, monkeypatch, capsys):
    parent, task_outcome = os.getpid(), pipeline._task_outcome

    def die_in_boosting_worker(state, i):
        if state[1][i][2] == "gradient_boosting" and os.getpid() != parent:
            os._exit(1)
        return task_outcome(state, i)

    monkeypatch.setattr(pipeline, "_task_outcome", die_in_boosting_worker)
    monkeypatch.setattr(pipeline, "_pool_size", lambda n_tasks: min(n_tasks, 2))
    code = main(["train", "--panel", str(small_panel), *SMALL_RUN, "--out", str(tmp_path / "run")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process exited abruptly while running ")
    assert "All/gradient_boosting[pct_no_vehicle]" in err
