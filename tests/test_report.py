import csv
import json

import pytest

from oracles import render_report_reference
from snapgap.pipeline import BacktestConfig, run_backtest
from snapgap.report import emit_report, render_markdown
from snapgap.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="module")
def manifest():
    spec = SyntheticSpec(
        n_zips=400, years=(2014, 2023), target_prevalence=0.031,
        true_coefficients={"pct_no_vehicle": -0.5}, seed=3,
    )
    records, _ = generate_synthetic(spec)
    cfg = BacktestConfig(
        feature_subsets=(("pct_no_vehicle",), ("pct_no_vehicle", "pct_hs_only")),
        families=("logistic",),
        grids={"logistic": [{"c": 1.0}]},
        folds=3,
        seed=5,
        importance_repeats=2,
    )
    return run_backtest(cfg, records)


def test_emits_all_formats(manifest, tmp_path):
    written = emit_report(manifest, ("json", "csv", "markdown"), tmp_path)
    names = {p.name for p in written}
    assert "manifest.json" in names
    assert "metrics.csv" in names
    assert "thresholds.csv" in names
    assert "yearly.csv" in names
    assert "report.md" in names
    assert any(name.startswith("flagged_") for name in names)
    assert any(name.startswith("reliability_") for name in names)


def test_csv_and_json_agree_field_for_field(manifest, tmp_path):
    emit_report(manifest, ("json", "csv"), tmp_path)
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
    md = render_markdown(manifest.body)
    table_rows = [
        line
        for line in md.splitlines()
        if line.startswith("| All | logistic[")
    ]
    assert len(table_rows) == 2
    header = next(line for line in md.splitlines() if line.startswith("| Cohort |"))
    assert header.count("|") == 10  # 9 columns


def test_flagged_csv_sorted(manifest, tmp_path):
    emit_report(manifest, ("csv",), tmp_path)
    path = next(tmp_path.glob("flagged_All_logistic_pct_no_vehicle.csv"))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    probs = [float(r["calibrated_probability"]) for r in rows]
    assert probs == sorted(probs, reverse=True)
    for a, b in zip(rows, rows[1:]):
        if a["calibrated_probability"] == b["calibrated_probability"]:
            assert (a["zip"], a["year"]) <= (b["zip"], b["year"])


def test_json_and_flagged_csvs_match_the_reference_renderer(manifest, tmp_path):
    (tmp_path / "ref").mkdir()
    names = render_report_reference(manifest.body, tmp_path / "ref")
    emit_report(manifest, ("json", "csv"), tmp_path / "out")
    assert len(names) == 3
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_manifest_json_roundtrip_preserves_digest(manifest, tmp_path):
    emit_report(manifest, ("json",), tmp_path)
    with open(tmp_path / "manifest.json") as fh:
        body = json.load(fh)
    assert body["manifest_digest"] == manifest.digest
    from snapgap.pipeline import digest_of

    stripped = {k: v for k, v in body.items() if k != "manifest_digest"}
    assert digest_of(stripped) == body["manifest_digest"]


def test_unknown_format_rejected(manifest, tmp_path):
    from snapgap.errors import ValidationError

    with pytest.raises(ValidationError):
        emit_report(manifest, ("pdf",), tmp_path)
