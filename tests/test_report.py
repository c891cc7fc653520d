import csv
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from oracles import flagged_rows_reference, render_report_reference
from snapgap import pipeline
from snapgap.calibration import apply_isotonic, classify
from snapgap.ingest import PREDICTOR_FIELDS
from snapgap.jsonio import load_json, plain
from snapgap.labeling import LabelConfig, build_labels
from snapgap.models import scorer_from_dict
from snapgap.pipeline import BacktestConfig, run_backtest
from snapgap.report import emit_report, manifest_body, render_markdown
from snapgap.synth import SyntheticSpec, generate_synthetic

CFG = BacktestConfig(
    feature_subsets=(("pct_no_vehicle",), ("pct_no_vehicle", "pct_hs_only")),
    families=("logistic",),
    grids={"logistic": [{"c": 1.0}]},
    folds=3,
    seed=5,
    importance_repeats=2,
)


@pytest.fixture(scope="module")
def records():
    spec = SyntheticSpec(
        n_zips=400, years=(2014, 2023), target_prevalence=0.031,
        true_coefficients={"pct_no_vehicle": -0.5}, seed=3,
    )
    return generate_synthetic(spec)[0]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The directory of the flagged CSVs of the `manifest` run."""
    return tmp_path_factory.mktemp("flagged")


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory):
    """The directory of the scorer files of the `manifest` run."""
    return tmp_path_factory.mktemp("models")


@pytest.fixture(scope="module")
def manifest(records, run_dir, models_dir):
    return run_backtest(CFG, records, run_dir, models_dir=models_dir)


@pytest.fixture
def emit(manifest, run_dir, tmp_path):
    """`emit_report` of the `manifest` run, beside copies of its flagged CSVs."""

    def emit(outdir):
        shutil.copytree(run_dir, outdir, dirs_exist_ok=True)
        return emit_report(manifest, outdir)

    return emit


def test_emits_all_formats(emit, tmp_path):
    written = emit(tmp_path)
    names = {p.name for p in written}
    assert "manifest.json" in names
    assert "metrics.csv" in names
    assert "thresholds.csv" in names
    assert "yearly.csv" in names
    assert "report.md" in names
    assert any(name.startswith("flagged_") for name in names)
    assert any(name.startswith("reliability_") for name in names)


def test_csv_and_json_agree_field_for_field(emit, tmp_path):
    emit(tmp_path)
    with open(tmp_path / "manifest.json") as fh:
        body = json.load(fh)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        detail = body["cohorts"][row["cohort"]]["models"][row["model"]]
        ev = detail["eval"]
        for col in ("auc", "ap", "precision", "recall", "f1", "accuracy"):
            assert float(row[col]) == ev[col]
        assert float(row["precision_at_0.01"]) == ev["precision_at"]["0.01"]
        assert float(row["precision_at_0.05"]) == ev["precision_at"]["0.05"]


def test_markdown_one_row_per_model_cohort(manifest):
    md = render_markdown(manifest)
    table_rows = [
        line
        for line in md.splitlines()
        if line.startswith("| All | logistic[")
    ]
    assert len(table_rows) == 2
    header = next(line for line in md.splitlines() if line.startswith("| Cohort |"))
    assert header.count("|") == 10  # 9 columns


def error_rows(body, title: str) -> list[str]:
    """The rows of the report.md section `title` that show an error."""
    table = render_markdown(body).split(f"## {title}\n\n", 1)[1].split("\n\n", 1)[0]
    return [line for line in table.splitlines() if "error: " in line]


def test_markdown_shows_a_failed_cohort(records, tmp_path):
    # a stratified run on a panel with no Mixed ZIP, so the Mixed cohort
    # has nothing to train on
    cfg = replace(CFG, area_mode="stratified")
    body = run_backtest(cfg, records.take(records.area != "Mixed"), tmp_path)
    error = "cohort 'Mixed': no labeled training rows"
    assert body["cohorts"]["Mixed"] == {"error": error}
    rows = error_rows(body, "Out-of-time performance (all values x100)")
    assert rows == [f"| Mixed || error: {error} |" + "|" * 6]


def test_markdown_shows_a_fragile_rule_that_cannot_be_built(records, tmp_path):
    # the bottom-30% rule needs lo_q 0.30 below hi_q 0.25
    body = run_backtest(replace(CFG, label=LabelConfig(hi_q=0.25)), records, tmp_path)
    rows = error_rows(body, "Fragile-row distribution by area")
    for period in ("p1", "p2"):
        error = body["fragile_distribution"][period]["0.30"]["error"]
        assert "0.3, 0.25" in error
        assert f"| {period.upper()} | bottom 30% | error: {error} |||" in rows
    assert len(rows) == 2


def test_markdown_shows_a_hidden_fragility_error(records, tmp_path):
    # one poverty count on every P2 row: the uptake OLS has no slope to fit
    late = records.year >= CFG.p2_years[0]
    pov_fam = np.where(late & ~np.isnan(records.pov_fam), 500.0, records.pov_fam)
    panel = replace(records, pov_fam=pov_fam)
    body = run_backtest(CFG, panel, tmp_path)
    error = body["hidden_fragility"]["p2"]["error"]
    assert "error" not in body["hidden_fragility"]["p1"]
    emit_report(body, tmp_path)
    saved = manifest_body(load_json(tmp_path / "manifest.json"))
    for shown in (body, saved):
        rows = error_rows(shown, "Fragile-row distribution by area")
        assert rows == [f"| P2 | hidden fragility | error: {error} |||"]


def test_flagged_csv_sorted(emit, tmp_path):
    emit(tmp_path)
    path = next(tmp_path.glob("flagged_All_logistic_pct_no_vehicle.csv"))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    probs = [float(r["calibrated_probability"]) for r in rows]
    assert probs == sorted(probs, reverse=True)
    for a, b in zip(rows, rows[1:]):
        if a["calibrated_probability"] == b["calibrated_probability"]:
            assert (a["zip"], a["year"]) <= (b["zip"], b["year"])


def test_json_and_flagged_csvs_match_the_reference_renderer(
    records, manifest, models_dir, emit, tmp_path
):
    # each model's flagged rows, worked out again from its scorer file
    p2 = build_labels(pipeline._rows_in_years(records, CFG.p2_years), CFG.label)
    rows = pipeline._cohort_rows(p2, "All")
    flagged, cohort = {}, "All"
    for label in manifest["cohorts"][cohort]["models"]:
        path = models_dir / pipeline.model_file("model", cohort, label, ".json")
        scorer = scorer_from_dict(load_json(path))
        columns = [PREDICTOR_FIELDS.index(f) for f in scorer.model.feature_names]
        scores = scorer.model.predict_proba(p2.panel.predictors[np.ix_(rows, columns)])
        probs = apply_isotonic(scorer.isotonic, scores)
        hit = classify(probs, scorer.rule) == 1
        flagged[cohort, label] = flagged_rows_reference(
            p2.panel.zip[rows[hit]].tolist(), p2.panel.year[rows[hit]].tolist(), probs[hit].tolist()
        )
    (tmp_path / "ref").mkdir()
    names = render_report_reference(plain(manifest), flagged, tmp_path / "ref")
    emit(tmp_path / "out")
    assert len(names) == 3
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_manifest_json_roundtrip_preserves_digest(manifest, emit, tmp_path):
    emit(tmp_path)
    with open(tmp_path / "manifest.json") as fh:
        body = json.load(fh)
    assert body["manifest_digest"] == manifest["manifest_digest"]
    from snapgap.pipeline import digest_of

    stripped = {k: v for k, v in body.items() if k != "manifest_digest"}
    assert digest_of(stripped) == body["manifest_digest"]
