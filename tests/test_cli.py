import json
from pathlib import Path

import pytest

from snapgap.cli import main

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
