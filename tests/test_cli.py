import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import RUN_CLI, files_in, move_p2_mixed_to_urban, pin_to_one_cpu
import snapgap
from snapgap import cli, pipeline
from snapgap.calibration import apply_isotonic
from snapgap.cli import main
from snapgap.config import apply_overrides, settings_from
from snapgap.errors import CohortError, SnapGapError
from snapgap.ingest import PREDICTOR_FIELDS, parse_panel
from snapgap.jsonio import load_json
from snapgap.labeling import LabelConfig, build_labels, fit_uptake_ols
from snapgap.models import FAMILIES, scorer_from_dict
from snapgap.pipeline import digest_of, sha256

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
    labeled = build_labels(parse_panel(panel)[0], LabelConfig())
    residual, _ = fit_uptake_ols(labeled)
    assert written == ["" if math.isnan(r) else repr(r) for r in residual.tolist()]
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


STRATIFIED = str(Path(__file__).resolve().parents[1] / "bench" / "workloads" / "score_stratified.yaml")


def test_a_subset_with_no_labeled_row_has_a_blank_prevalence(tmp_path):
    # Stratified labeling with every late-period Mixed row moved to Urban:
    # the late period keeps the Mixed thresholds, frozen from the early
    # period, but no row is labeled under them, so its prevalence is None.
    panel = tmp_path / "panel.csv"
    synth = ["synth", "--config", STRATIFIED, "--seed", "3", "--set", "synth.n_zips=300"]
    assert main([*synth, "--out", str(panel)]) == 0
    move_p2_mixed_to_urban(panel)
    run = tmp_path / "run"
    backtest = ["backtest", "--config", STRATIFIED, "--seed", "3", "--panel", str(panel)]
    assert main([*backtest, "--set", "families=[logistic]", "--out", str(run)]) == 0

    with open(run / "thresholds.csv", newline="", encoding="utf-8") as fh:
        thresholds = {(row[0], row[1]): row[2:] for row in csv.reader(fh)}
    tau_hi, tau_lo, prevalence = thresholds["p2", "Mixed"]
    assert (float(tau_hi), float(tau_lo)) == tuple(map(float, thresholds["p1", "Mixed"][:2]))
    assert prevalence == ""  # blank, as a missing value is in yearly.csv
    markdown = (run / "report.md").read_text(encoding="utf-8").splitlines()
    [line] = [line for line in markdown if line.startswith("| P2 | Mixed |")]
    assert line.endswith(" | -- |")

    rerendered = tmp_path / "rerendered"
    assert main(["report", "--manifest", str(run / "manifest.json"), "--out", str(rerendered)]) == 0
    files = sorted(path.name for path in run.iterdir())
    assert sorted(path.name for path in rerendered.iterdir()) == files
    for name in files:
        assert (rerendered / name).read_bytes() == (run / name).read_bytes(), name


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """The directory of a small backtest run."""
    tmp = tmp_path_factory.mktemp("saved")
    panel = tmp / "synth.csv"
    main(["synth", "--seed", "4", "--out", str(panel), "--set", "synth.n_zips=250"])
    args = ["backtest", "--panel", str(panel), "--out", str(tmp / "run")]
    assert main(args + SMALL_RUN) == 0
    return tmp / "run"


@pytest.fixture(scope="module")
def saved_manifest(saved_run):
    """The JSON data of a small backtest's manifest."""
    return load_json(saved_run / "manifest.json")


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


def _drop(path):
    """A change to a manifest body that removes the part at `path`."""

    def change(body):
        *parents, last = path
        for key in parents:
            body = body[key]
        del body[last]

    return change


FLAGGED = ["cohorts", "All", "models", "logistic[pct_no_vehicle]", "flagged"]

# Parts of a manifest body that every run writes and a report must find.
MISSING_PARTS = [
    ("cohorts",),
    ("cohorts", "All", "models"),
    ("fragile_distribution",),
    ("fragile_distribution", "p1"),
    ("fragile_distribution", "p2"),
    ("hidden_fragility",),
    ("hidden_fragility", "p1"),
    ("hidden_fragility", "p2"),
    ("yearly",),
]

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
    "flagged a list": lambda body: _model(body).update(flagged=[["01001", 2019, 0.5]]),
    "rows a string": _set([*FLAGGED, "rows"], "12"),
    "sha256 a number": _set([*FLAGGED, "sha256"], 0),
    "file a number": _set([*FLAGGED, "file"], 1),
    "no sha256": lambda body: _model(body)["flagged"].pop("sha256"),
    **{f"no {'.'.join(path)}": _drop(path) for path in MISSING_PARTS},
}


def _report_fails_with_exit_2(tmp_path, capsys, manifest: Path) -> str:
    """The one error line of a `report` of `manifest` that exits 2 and writes nothing."""
    out = tmp_path / "out"
    assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"{}", b"[1]", b'{"cohorts": 5}', b'{"format": "snapgap-manifest/1"', b"{} 1"],
    ids=["not utf-8", "empty object", "a list", "no format", "cut short", "trailing data"],
)
def test_report_exits_2_on_a_file_that_is_not_a_manifest(tmp_path, capsys, content):
    manifest = tmp_path / "bad.json"
    manifest.write_bytes(content)
    _report_fails_with_exit_2(tmp_path, capsys, manifest)


def _copy_run(saved_run, body, directory: Path) -> Path:
    """`body` as a manifest in `directory`, beside copies of the flagged
    CSVs of `saved_run`; returns the manifest's path."""
    directory.mkdir(exist_ok=True)
    for path in saved_run.glob("flagged_*.csv"):
        shutil.copy(path, directory)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(body), encoding="utf-8")
    return manifest


def _redigested(body):
    """`body` with the `manifest_digest` of what it now holds."""
    body["manifest_digest"] = digest_of({k: v for k, v in body.items() if k != "manifest_digest"})
    return body


@pytest.mark.parametrize("damage", MANIFEST_DAMAGE.values(), ids=MANIFEST_DAMAGE.keys())
def test_report_exits_2_on_a_manifest_it_cannot_render(
    tmp_path, capsys, saved_run, saved_manifest, damage
):
    body = json.loads(json.dumps(saved_manifest))
    assert _model(body)["flagged"]["rows"]
    damage(body)
    _report_fails_with_exit_2(tmp_path, capsys, _copy_run(saved_run, _redigested(body), tmp_path))


@pytest.mark.parametrize("path", MISSING_PARTS, ids=[".".join(path) for path in MISSING_PARTS])
def test_report_names_a_missing_part(tmp_path, capsys, saved_run, saved_manifest, path):
    # the renderers read such a part as empty, and the report showed an empty section
    body = json.loads(json.dumps(saved_manifest))
    _drop(path)(body)
    line = _report_fails_with_exit_2(tmp_path, capsys, _copy_run(saved_run, _redigested(body), tmp_path))
    assert line.endswith(f": {'.'.join(('manifest', *path[:-1]))}: expected a key {path[-1]!r}")


def _edit_a_flagged_probability(body, directory):
    """Change the last digit of the first probability in a flagged CSV;
    returns the text the error names."""
    path = directory / _model(body)["flagged"]["file"]
    header, first, rest = path.read_bytes().split(b"\r\n", 2)
    digit = b"1" if first.endswith(b"2") else b"2"
    path.write_bytes(b"\r\n".join([header, first[:-1] + digit, rest]))
    return str(path)


def _raise_an_auc(body, directory):
    _model(body)["eval"]["auc"] += 0.01
    actual = digest_of({k: v for k, v in body.items() if k != "manifest_digest"})
    assert actual != body["manifest_digest"]
    return f"digests to {actual}, not to its manifest_digest {body['manifest_digest']}"


@pytest.mark.parametrize(
    "edit", [_edit_a_flagged_probability, _raise_an_auc], ids=["a flagged probability", "an AUC"]
)
def test_report_exits_2_on_a_body_that_does_not_match_its_digest(
    tmp_path, capsys, saved_run, saved_manifest, edit
):
    # the digest covers the flagged rows through each CSV's sha256
    body = json.loads(json.dumps(saved_manifest))
    manifest = _copy_run(saved_run, body, tmp_path / "copy")
    named = edit(body, manifest.parent)
    manifest.write_text(json.dumps(body), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and named in line
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda entry: entry.update(rows=entry["rows"] + 1),
        lambda entry: entry.update(file="../flagged_All_logistic_pct_no_vehicle.csv"),
        lambda entry: entry.update(file="flagged_All_logistic_pct_hs_only.csv"),
    ],
    ids=["another row count", "a path", "another model's file"],
)
def test_report_exits_2_on_a_flagged_entry_its_file_does_not_match(
    tmp_path, capsys, saved_run, saved_manifest, edit
):
    # a manifest edited and digested again
    body = json.loads(json.dumps(saved_manifest))
    edit(_model(body)["flagged"])
    _report_fails_with_exit_2(tmp_path, capsys, _copy_run(saved_run, _redigested(body), tmp_path))


def test_report_exits_2_on_a_flagged_row_count_of_true(tmp_path, capsys, saved_run, saved_manifest):
    # JSON's true read as the int 1, so a one-row flagged CSV matched it
    body = json.loads(json.dumps(saved_manifest))
    manifest = _copy_run(saved_run, body, tmp_path / "copy")
    entry = _model(body)["flagged"]
    path = manifest.parent / entry["file"]
    data = b"".join(path.read_bytes().splitlines(keepends=True)[:2])
    path.write_bytes(data)
    entry.update(rows=True, sha256=sha256(data).hexdigest())
    manifest.write_text(json.dumps(_redigested(body)), encoding="utf-8")
    line = _report_fails_with_exit_2(tmp_path, capsys, manifest)
    assert line.endswith(f": manifest.{'.'.join(FLAGGED)}.rows: expected an integer")


def test_report_exits_4_on_a_missing_flagged_csv(tmp_path, capsys, saved_run, saved_manifest):
    manifest = _copy_run(saved_run, saved_manifest, tmp_path / "copy")
    missing = manifest.parent / _model(saved_manifest)["flagged"]["file"]
    missing.unlink()
    out = tmp_path / "out"
    assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(missing) in line
    assert not out.exists()


def test_report_renders_an_undamaged_copy(tmp_path, saved_run, saved_manifest):
    manifest = _copy_run(saved_run, saved_manifest, tmp_path / "copy")
    assert main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
    assert load_json(tmp_path / "out" / "manifest.json") == saved_manifest
    for path in saved_run.glob("flagged_*.csv"):
        assert (tmp_path / "out" / path.name).read_bytes() == path.read_bytes()


def test_backtest_writes_every_flagged_csv_under_any_format(tmp_path, saved_run, saved_manifest):
    models = [m for c in saved_manifest["cohorts"].values() for m in c["models"].values()]
    named = {m["flagged"]["file"] for m in models}
    assert len(named) == len(models) == 6
    assert all((saved_run / name).is_file() for name in named)
    out = tmp_path / "out"
    assert main(["report", "--manifest", str(saved_run / "manifest.json"), "--out", str(out)]) == 0
    for name in named:
        assert (out / name).read_bytes() == (saved_run / name).read_bytes()


def test_report_holds_no_flagged_csv(tmp_path, saved_run, saved_manifest):
    # each flagged CSV replaced by 10,000 rows, about 300 kB, and its
    # manifest entry edited to match
    body = json.loads(json.dumps(saved_manifest))
    manifest = _copy_run(saved_run, body, tmp_path / "big")
    rows = "".join(f"{i:05d},2019,0.{i:016d}\r\n" for i in range(10_000))
    data = ("zip,year,calibrated_probability\r\n" + rows).encode("utf-8")
    total = 0
    for model in body["cohorts"]["All"]["models"].values():
        (manifest.parent / model["flagged"]["file"]).write_bytes(data)
        model["flagged"].update(rows=10_000, sha256=sha256(data).hexdigest())
        total += len(data)
    manifest.write_text(json.dumps(_redigested(body)), encoding="utf-8")
    assert total > 1 << 20
    tracemalloc.start()
    try:
        code = main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    for model in body["cohorts"]["All"]["models"].values():
        assert (tmp_path / "out" / model["flagged"]["file"]).read_bytes() == data
    assert peak < total / 2, (peak, total)


def failing_last_task(monkeypatch):
    """Make the last task of every plan raise `SnapGapError` after the
    others have run."""
    task_outcome = pipeline._task_outcome

    def outcome(state, i, fold_errors=None):
        if i == len(state[1]) - 1:
            raise SnapGapError("the last task failed")
        return task_outcome(state, i, fold_errors)

    monkeypatch.setattr(pipeline, "_task_outcome", outcome)


# The commands whose last task fails, by the prefix of their test ids.
FAILING_RUNS = {
    "": ["backtest"],
    "backtest --models, ": ["backtest", "--models"],
    "train, ": ["train"],
}


@pytest.mark.parametrize(
    "command, existing",
    [
        pytest.param(command, existing, id=prefix + ("an existing --out" if existing else "a new --out"))
        for prefix, command in FAILING_RUNS.items()
        for existing in (True, False)
    ],
)
def test_a_failed_backtest_leaves_out_as_it_found_it(
    tmp_path, small_panel, saved_run, monkeypatch, capsys, command, existing
):
    out = tmp_path / "out" / "run"
    if existing:
        shutil.copytree(saved_run, out)
    failing_last_task(monkeypatch)
    args = [*command, "--panel", str(small_panel), "--out", str(out), *SMALL_RUN]
    assert main(args) == 5
    assert capsys.readouterr().err == "error: the last task failed\n"
    if existing:
        assert files_in(out) == files_in(saved_run)
    else:
        assert not (tmp_path / "out").exists()


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
    assert [f.name for f in files] == ["model_All_logistic_pct_no_vehicle.json"]
    doc = json.loads(files[0].read_text())
    assert doc["format"] == "snapgap-model/1"
    assert doc["model"]["family"] == "logistic"
    assert "calibration" in doc and "rule" in doc


def test_scorer_files_read_back_to_the_same_predictions(tmp_path, small_panel):
    run = [*SMALL_RUN, "--set", "grids.gradient_boosting=[{n_trees: 5, max_depth: 2, learning_rate: 0.3}]"]
    outdir = tmp_path / "models"
    assert main(["train", "--panel", str(small_panel), "--out", str(outdir), *run]) == 0
    cfg = settings_from(apply_overrides({"seed": 6}, run[3::2])).backtest
    panel = parse_panel(small_panel)[0]
    p1 = build_labels(pipeline._rows_in_years(panel, cfg.p1_years), cfg.label, by=cfg.label_by)
    tasks, _ = pipeline._plan_tasks(cfg, p1)
    scorers = {task.model: pipeline._fit_task(cfg, task, p1)[0] for task in tasks}
    X = panel.predictors[~np.isnan(panel.predictors).any(axis=1)]
    files = sorted(outdir.iterdir())
    assert len(files) == len(scorers) == 6
    families = set()
    for path in files:
        loaded = scorer_from_dict(load_json(path))
        family = load_json(path)["model"]["family"]
        families.add(family)
        names = loaded.model.feature_names
        scorer = scorers[f"{family}[{'+'.join(names)}]"]
        cols = [PREDICTOR_FIELDS.index(name) for name in names]
        got, want = (
            (raw.tobytes(), apply_isotonic(s.isotonic, raw).tobytes())
            for s in (loaded, scorer)
            for raw in [s.model.predict_proba(X[:, cols])]
        )
        assert got == want
    assert families == set(FAMILIES)


def test_train_names_the_tasks_it_skipped(tmp_path, capsys):
    # Mixed holds too few positives for 3 folds: each of its 6 tasks fails
    panel = tmp_path / "synth.csv"
    main(["synth", "--seed", "6", "--out", str(panel), "--set", "synth.n_zips=60"])
    args = ["--panel", str(panel), *SMALL_RUN, "--set", "area_mode=stratified"]
    capsys.readouterr()
    assert main(["train", *args, "--out", str(tmp_path / "train")]) == 0
    captured = capsys.readouterr()
    assert main(["backtest", *args, "--out", str(tmp_path / "run")]) == 0
    cohorts = load_json(tmp_path / "run" / "manifest.json")["cohorts"]
    subsets = (["pct_no_vehicle"], ["pct_no_vehicle", "pct_hs_only"])
    plan = [f"{family}[{'+'.join(subset)}]" for subset in subsets for family in FAMILIES]
    mixed = cohorts["Mixed"]["models"]
    assert all("cannot fill 3 folds" in mixed[model]["error"] for model in plan)
    assert captured.err == "".join(f"skipped Mixed/{model}: {mixed[model]['error']}\n" for model in plan)
    assert captured.out == f"wrote 12 scorer files, skipped 6 failed tasks -> {tmp_path / 'train'}\n"
    trained = sorted(path.name for path in (tmp_path / "train").iterdir())
    assert trained == sorted(
        pipeline.model_file("model", cohort, model, ".json")
        for cohort in ("Urban", "Rural")
        for model in plan
        if "error" not in cohorts[cohort]["models"][model]
    )


def test_train_names_the_cohorts_it_skipped(tmp_path, capsys):
    # no Rural ZIP, so Rural has no training rows; Mixed holds too few
    # positives for 3 folds, so each of its 6 tasks fails
    panel = tmp_path / "synth.csv"
    mix = "synth.area_mix={Urban: 0.9, Mixed: 0.1}"
    main(["synth", "--seed", "6", "--out", str(panel), "--set", "synth.n_zips=60", "--set", mix])
    args = ["--panel", str(panel), *SMALL_RUN, "--set", "area_mode=stratified"]
    capsys.readouterr()
    assert main(["train", *args, "--out", str(tmp_path / "train")]) == 0
    captured = capsys.readouterr()
    assert main(["backtest", *args, "--out", str(tmp_path / "run")]) == 0
    cohorts = load_json(tmp_path / "run" / "manifest.json")["cohorts"]
    assert cohorts["Rural"] == {"error": "cohort 'Rural': no labeled training rows"}
    subsets = (["pct_no_vehicle"], ["pct_no_vehicle", "pct_hs_only"])
    plan = [f"{family}[{'+'.join(subset)}]" for subset in subsets for family in FAMILIES]
    mixed = cohorts["Mixed"]["models"]
    assert captured.err == "skipped Rural: cohort 'Rural': no labeled training rows\n" + "".join(
        f"skipped Mixed/{model}: {mixed[model]['error']}\n" for model in plan
    )
    assert captured.out == (
        f"wrote 6 scorer files, skipped 1 failed cohort and 6 failed tasks -> {tmp_path / 'train'}\n"
    )
    assert len(list((tmp_path / "train").iterdir())) == 6


def test_a_train_that_fits_no_scorer_exits_3(tmp_path, capsys):
    panel = tmp_path / "tiny.csv"
    panel.write_text(
        "zip,year,pov_fam,snap_fam,fam_universe,pct_no_vehicle,pct_no_internet,pct_no_computer,pct_hs_only\n"
        "01001,2015,120,60,400,12.0,15.0,9.0,30.0\n"
    )
    code = main(["train", "--panel", str(panel), "--seed", "1", "--out", str(tmp_path / "y")])
    assert code == 3
    assert capsys.readouterr().err == "error: every cohort failed: cohort 'All': no labeled training rows\n"
    assert not (tmp_path / "y").exists()


def test_scorer_files_digest_to_their_manifest_entries(tmp_path, small_panel):
    out = tmp_path / "run"
    args = ["backtest", "--panel", str(small_panel), *SMALL_RUN, "--set", "area_mode=stratified"]
    assert main([*args, "--models", "--out", str(out)]) == 0
    digests = {
        pipeline.model_file("model", cohort, model, ".json"): entry["model_digest"]
        for cohort, body in load_json(out / "manifest.json")["cohorts"].items()
        for model, entry in body["models"].items()
    }
    assert len(digests) == 18
    assert sorted(path.name for path in (out / "models").iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert digest_of(load_json(out / "models" / name)["model"]) == digest, name


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


def test_panel_years_follow_the_periods(tmp_path):
    # a run whose periods start in 2010 reads the 2010-2013 rows, which the
    # default periods (2014-2023) reject
    panel = tmp_path / "synth.csv"
    synth = ["synth", "--seed", "1", "--out", str(panel), "--set", "synth.n_zips=200"]
    assert main([*synth, "--set", "synth.years=[2010, 2023]"]) == 0
    periods = ["--set", "p1_years=[2010, 2014]", "--set", "p2_years=[2015, 2023]"]
    for extra, n_rejects in (([], 800), (periods, 0)):
        rejects = tmp_path / "rejects.csv"
        args = ["ingest", "--panel", str(panel), "--out", str(tmp_path / "i.csv"), "--rejects", str(rejects)]
        assert main([*args, *extra]) == 0
        assert len(rejects.read_text().splitlines()) == 1 + n_rejects
    run = tmp_path / "run"
    args = ["backtest", "--panel", str(panel), "--seed", "1", "--out", str(run), *periods]
    args += ["--set", "families=[logistic]", "--set", "feature_subsets=[[pct_no_vehicle]]"]
    assert main(args) == 0
    assert load_json(run / "manifest.json")["periods"]["p1"]["n_rows"] == 1000

def test_hi_q_below_the_wider_rule_records_its_error(tmp_path, small_panel, capsys):
    # hi_q = 0.25 is valid with lo_q = 0.10, but the 30% fragile-distribution
    # rule cannot be built with it: that rule's groups record the error
    run = tmp_path / "run"
    args = ["backtest", "--panel", str(small_panel), "--out", str(run), *SMALL_RUN[:2]]
    args += ["--set", "hi_q=0.25", "--set", "feature_subsets=[[pct_no_vehicle]]"]
    args += ["--set", "families=[logistic]", "--set", "folds=3", "--set", "importance_repeats=1"]
    assert main(args) == 0, capsys.readouterr().err
    body = load_json(run / "manifest.json")
    for period in ("p1", "p2"):
        dist = body["fragile_distribution"][period]
        assert dist["0.30"] == {"error": "need 0 < lo_q < hi_q < 1, got 0.3, 0.25"}
        assert "by_area" in dist["0.10"]
    assert main(["report", "--manifest", str(run / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "report.md").read_bytes() == (run / "report.md").read_bytes()


def test_a_label_rule_the_synthetic_target_misses_still_backtests(tmp_path, small_panel, capsys):
    # The default synthetic target prevalence, 0.031, is not below lo_q =
    # 0.02, so no synthetic panel could be made under this rule; a backtest
    # makes none, and runs.
    run = tmp_path / "run"
    args = ["backtest", "--panel", str(small_panel), "--out", str(run), *SMALL_RUN[:2]]
    args += ["--set", "lo_q=0.02", "--set", "feature_subsets=[[pct_no_vehicle]]"]
    args += ["--set", "families=[logistic]", "--set", "folds=3", "--set", "importance_repeats=1"]
    assert main(args) == 0, capsys.readouterr().err
    assert load_json(run / "manifest.json")["config"]["label"]["lo_q"] == 0.02


def test_io_exit_code(tmp_path):
    code = main(
        ["backtest", "--panel", str(tmp_path / "missing.csv"), "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 4


GOOD_PANEL = b"zip,year,pov_fam,snap_fam\n01234,2015,100,40\n"
GOOD_CROSSWALK = b"zip,tract_status,res_ratio\n01234,Urban,1.0\n"
MALFORMED_INPUTS = {
    "panel header not utf-8": (b"zip,year,pov_fam,snap_fam\xff\xfe\n01234,2015,100,40\n", GOOD_CROSSWALK, 4),
    "panel cell not utf-8": (b"zip,year,pov_fam,snap_fam\n01234,2015,100,\xff\xfe\n", GOOD_CROSSWALK, 4),
    "crosswalk header not utf-8": (GOOD_PANEL, b"zip,tract_status,res_ratio\xff\xfe\n01234,Urban,1\n", 4),
    "crosswalk cell not utf-8": (GOOD_PANEL, b"zip,tract_status,res_ratio\n\xff\xfe,Urban,1.0\n", 4),
    "panel repeats year": (b"zip,year,pov_fam,snap_fam,year\n01234,2015,100,40,2016\n", GOOD_CROSSWALK, 2),
    "crosswalk repeats zip": (GOOD_PANEL, b"zip,tract_status,res_ratio,zip\n01234,Urban,1.0,01235\n", 2),
}


@pytest.mark.parametrize("panel, crosswalk, code", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_files_exit_with_one_error_line(tmp_path, capsys, panel, crosswalk, code):
    (tmp_path / "p.csv").write_bytes(panel)
    (tmp_path / "cw.csv").write_bytes(crosswalk)
    out = tmp_path / "out.csv"
    args = ["ingest", "--panel", str(tmp_path / "p.csv"), "--crosswalk", str(tmp_path / "cw.csv")]
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    """A directory holding a synthetic panel, `synth.csv`, one without its
    `pov_fam` column, `no-pov.csv`, and an empty file, `empty.csv`."""
    tmp = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--seed", "1", "--out", str(tmp / "synth.csv"), "--set", "synth.n_zips=200"]) == 0
    (tmp / "no-pov.csv").write_text("zip,year,snap_fam\n01001,2015,60\n")
    (tmp / "empty.csv").write_text("")
    return tmp


# One case per typed error the CLI reaches from a bad setting or input file.
CLI_ERRORS = {
    "periods overlap": (
        ["backtest", "--panel", "synth.csv", "--seed", "1", "--set", "p1_years=[2014,2019]"],
        2, "training years (2014, 2019) must end before test years (2019, 2023)",
    ),
    "backtest, no eligible row": (
        ["backtest", "--panel", "synth.csv", "--seed", "1", "--set", "poverty_floor=0.95"],
        3, "no rows pass the eligibility filters",
    ),
    "label, no eligible row": (
        ["label", "--panel", "synth.csv", "--set", "poverty_floor=0.95"],
        3, "no rows pass the eligibility filters",
    ),
    "bad synth spec": (["synth", "--seed", "1", "--set", "synth.n_zips=0"], 2, "n_zips must be in [1, 99999], got 0"),
    "panel without pov_fam": (
        ["ingest", "--panel", "no-pov.csv"], 2, "column 'pov_fam' (field 'pov_fam') not in header",
    ),
    "empty panel": (["ingest", "--panel", "empty.csv"], 2, "CSV has no header row"),
}


@pytest.mark.parametrize("args, code, error", CLI_ERRORS.values(), ids=CLI_ERRORS.keys())
def test_typed_errors_exit_with_their_code_and_line(tmp_path, capsys, monkeypatch, error_inputs, args, code, error):
    monkeypatch.chdir(error_inputs)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert not out.exists()


# Each command writes two files here, and the second would replace the first.
OUTPUT_CLASHES = {
    "label": (["label", "--panel", "p.csv", "--out", "lab.json"], "--out and its JSON sidecar are the same file: lab.json"),
    "ingest": (
        ["ingest", "--panel", "p.csv", "--out", "x.csv", "--rejects", "{cwd}/x.csv"],
        "--out and --rejects are the same file: {cwd}/x.csv",
    ),
    "synth": (["synth", "--seed", "1", "--out", "x.csv", "--truth", "x.csv"], "--out and --truth are the same file: x.csv"),
}


@pytest.mark.parametrize("args, error", OUTPUT_CLASHES.values(), ids=OUTPUT_CLASHES.keys())
def test_two_outputs_at_one_path_exit_2_before_any_work(tmp_path, capsys, monkeypatch, args, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text(PANEL_CSV)
    assert main([arg.format(cwd=tmp_path) for arg in args]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error.format(cwd=tmp_path)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


# An output each command cannot write, found before it reads any input:
# `afile` is a regular file and `nodir` does not exist.
UNWRITABLE_OUTPUTS = {
    "synth": (
        ["synth", "--seed", "1", "--out", "q.csv", "--truth", "nodir/t.json"],
        "generate_synthetic", "cannot write nodir/t.json: nodir is not a directory",
    ),
    "ingest": (
        ["ingest", "--panel", "p.csv", "--out", "x.csv", "--rejects", "nodir/r.csv"],
        "parse_panel", "cannot write nodir/r.csv: nodir is not a directory",
    ),
    "backtest": (
        ["backtest", "--seed", "1", "--panel", "p.csv", "--out", "afile/sub"],
        "parse_panel", "cannot write afile/sub: afile is not a directory",
    ),
    "train": (["train", "--panel", "p.csv", "--out", "afile"], "parse_panel", "cannot write afile: afile is not a directory"),
    # `Path(".").with_suffix` raised a ValueError traceback here
    "synth into a directory": (["synth", "--seed", "1", "--out", "."], "generate_synthetic", "cannot write .: it is a directory"),
}


@pytest.mark.parametrize("args, reader, error", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS.keys())
def test_an_unwritable_output_exits_4_before_any_input_is_read(tmp_path, capsys, monkeypatch, args, reader, error):
    def no_input(*args, **kwargs):
        raise AssertionError("read an input before checking the outputs")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, reader, no_input)
    (tmp_path / "p.csv").write_text(PANEL_CSV)
    (tmp_path / "afile").write_text("")
    assert main(args) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "p.csv"]


def test_insufficient_cohort_exit_code(tmp_path, capsys):
    panel = tmp_path / "tiny.csv"
    panel.write_text(
        "zip,year,pov_fam,snap_fam,fam_universe,pct_no_vehicle,pct_no_internet,pct_no_computer,pct_hs_only\n"
        "01001,2015,120,60,400,12.0,15.0,9.0,30.0\n"
        "01002,2020,120,60,400,12.0,15.0,9.0,30.0\n"
    )
    code = main(["backtest", "--panel", str(panel), "--seed", "1", "--out", str(tmp_path / "y")])
    assert code == 3
    assert capsys.readouterr().err == "error: every cohort failed: cohort 'All': no labeled training rows\n"


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

@pytest.fixture
def small_panel(tmp_path):
    panel = tmp_path / "synth.csv"
    main(["synth", "--seed", "6", "--out", str(panel), "--set", "synth.n_zips=250"])
    return panel


# A path each command writes in `--out`, made a directory there beforehand.
PUBLISH_BLOCKED = {
    "backtest": (["backtest", *SMALL_RUN], "manifest.json"),
    "backtest --models": (
        ["backtest", "--models", *SMALL_RUN], "models/model_All_random_forest_pct_no_vehicle.json"
    ),
    "train": (["train", *SMALL_RUN], "model_All_gradient_boosting_pct_no_vehicle_pct_hs_only.json"),
    "report": (["report"], "metrics.csv"),
}


@pytest.mark.parametrize("args, blocked", PUBLISH_BLOCKED.values(), ids=PUBLISH_BLOCKED.keys())
def test_a_command_that_cannot_publish_leaves_out_as_it_found_it(
    tmp_path, small_panel, saved_run, capsys, args, blocked
):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (out / "note.txt").write_text("kept")
    (out / blocked / "note.txt").write_text("kept")
    before = files_in(out)
    source = (
        ["--manifest", str(saved_run / "manifest.json")]
        if args[0] == "report"
        else ["--panel", str(small_panel)]
    )
    assert main([*args, *source, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out / blocked}: it is a directory\n"
    assert "wrote" not in captured.out
    assert files_in(out) == before


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


# Runs `synth`, `backtest` through two forked workers, and `report` in one
# process, then prints the OpenSSL and pool modules it imported.
RUN_COMMANDS = """\
import json, sys
from snapgap import pipeline
from snapgap.cli import main
pipeline._pool_size = lambda n_tasks: min(n_tasks, 2)
for command in json.loads(sys.argv[1]):
    assert main(command) == 0, command
print(sorted({"_hashlib", "concurrent.futures"} & set(sys.modules)))
import secrets  # the real module, not the stand-in numpy.random was imported against
print(secrets.token_hex(0) == "", "_hashlib" in sys.modules)
"""


def test_no_command_loads_openssl(tmp_path):
    # OpenSSL's hashlib holds megabytes resident; the digests need only
    # CPython's own sha256.
    panel, out = str(tmp_path / "synth.csv"), tmp_path / "run"
    commands = [
        ["synth", "--seed", "6", "--out", panel, "--set", "synth.n_zips=120"],
        ["backtest", "--panel", panel, *SMALL_RUN, "--out", str(out)],
        ["report", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "again")],
    ]
    src = str(Path(snapgap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("['concurrent.futures']\nTrue True\n")


def run_tasks_in_workers(monkeypatch):
    """Run every task, and every fold of a task split into folds, in one of
    two forked workers; a task or fold run in this process fails the test."""
    parent = os.getpid()
    for unit in ("_task_outcome", "_fold_outcome"):

        def in_worker(state, i, *part, run_unit=getattr(pipeline, unit)):
            assert os.getpid() != parent, "task ran in the parent process"
            return run_unit(state, i, *part)

        monkeypatch.setattr(pipeline, unit, in_worker)
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

    def single_class(cfg, task, *args):
        raise CohortError("one class in a worker")

    monkeypatch.setattr(pipeline, "_fit_task", single_class)
    code = main(["backtest", "--panel", str(small_panel), *SMALL_RUN, "--out", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == "error: every cohort failed: cohort 'All': one class in a worker\n"


def test_worker_death_exits_nonzero(tmp_path, small_panel, monkeypatch, capsys):
    parent, task_outcome = os.getpid(), pipeline._task_outcome

    def die_in_boosting_worker(state, i, fold_errors=None):
        if state[1][i][2] == "gradient_boosting" and os.getpid() != parent:
            os._exit(1)
        return task_outcome(state, i, fold_errors)

    monkeypatch.setattr(pipeline, "_task_outcome", die_in_boosting_worker)
    monkeypatch.setattr(pipeline, "_pool_size", lambda n_tasks: min(n_tasks, 2))
    code = main(["train", "--panel", str(small_panel), *SMALL_RUN, "--out", str(tmp_path / "run")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process exited abruptly while running ")
    assert "All/gradient_boosting[pct_no_vehicle]" in err
