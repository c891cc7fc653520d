"""The bytes of every CSV the package writes, pinned for fixed inputs.

Other tests compare these files with `csv` at run time, so a change to the
format itself (a cell rule, the quoting, the line ends) would pass them.
Here each writer's output for a fixed input hashes to a literal sha256.
"""
import io
import math
from hashlib import sha256

import numpy as np

from conftest import make_panel, make_record
from snapgap.ingest import Area, Reject, csv_text, write_records, write_rejects
from snapgap.labeling import UNLABELED, LabeledPanel, Thresholds, write_labeled_panel
from snapgap.report import emit_report

NAN = math.nan

RECORDS = make_panel(
    # integral floats, a float that needs 17 digits, and two flags
    make_record(
        zip="00001", year=2015, pov_fam=100.0, snap_fam=60.0, fam_universe=500.0,
        pov_rate=0.1 + 0.2, pct_no_vehicle=12.5, area=Area.URBAN,
        flags=frozenset({"SnapExceedsPoverty", "Clipped"}),
    ),
    # missing counts and predictors; -0.0, the smallest subnormal and 1e300
    make_record(
        zip="00002", year=2016, pov_fam=None, snap_fam=None, fam_universe=-0.0,
        pct_no_vehicle=None, pct_no_internet=5e-324, pct_no_computer=1e300, area=Area.UNKNOWN,
    ),
    # a ZIP cell that csv quotes
    make_record(zip='9"9,9', year=2017, pct_hs_only=33.3, area=Area.MIXED),
)


def text_digest(write) -> str:
    out = io.StringIO(newline="")
    write(out)
    return sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_write_records_bytes():
    digest = text_digest(lambda out: write_records(RECORDS, out))
    assert digest == "5799e0610fae4d3305a7cd758959039b275126a58d1e0d52cbd8a097f8d96608"


def test_write_rejects_bytes():
    rejects = [
        Reject(row=3, reason="year: not an integer: '2,01\"5'"),
        Reject(row=7, reason="zip: not a ZIP code: ''", source="crosswalk"),
    ]
    assert text_digest(lambda out: write_rejects(rejects, out)) == (
        "5adf946668606b9ce7e5bcd58d35b8e794d60fbb371f3d2212e79ba5cb8a9aac"
    )


def labeled():
    return LabeledPanel(
        panel=RECORDS,
        p=np.array([0.2, NAN, 1 / 3]),
        s_raw=np.array([1.5, NAN, 5e-324]),
        eligible=np.array([True, False, True]),
        y=np.array([1, UNLABELED, 0]),
        thresholds={"All": Thresholds(tau_hi=0.3, tau_lo=0.5)},
        prevalence=0.5,
        prevalences={"All": 0.5},
    )


def test_write_labeled_panel_bytes(tmp_path):
    digests = []
    for residual in (np.array([-0.0, NAN, 1e300]), np.full(3, NAN)):
        write_labeled_panel(labeled(), residual, tmp_path / "labeled.csv")
        digests.append(sha256((tmp_path / "labeled.csv").read_bytes()).hexdigest())
    assert digests == [
        "9c94cf03b0e7177d828d8632654389895c8f2adf4e36b0c95100da3d44cd1c34",
        "dfdbd1778dccad3f9ec08521c87cc50540f04b0b0c6ace53e623b9ab13966d1f",
    ]


MODEL = "logistic[pct_no_vehicle]"
FLAGGED = "flagged_All_logistic_pct_no_vehicle.csv"

# A hand-written manifest body: the numbers the report CSVs write, with
# -0.0, the smallest subnormal and 1e300 among them, missing yearly values
# and a failed model.
BODY = {
    "seed": 7,
    "config_hash": "c0ffee",
    "manifest_digest": "d1e5e1",
    "periods": {
        "p1": {
            "thresholds": {
                "Rural": {"tau_hi": 0.1 + 0.2, "tau_lo": -0.0},
                "Urban": {"tau_hi": 0.7, "tau_lo": 0.5},
            },
            "prevalences": {"Rural": 5e-324, "Urban": 0.25},
        },
        "p2": {"thresholds": {"Urban": {"tau_hi": 0.3, "tau_lo": 0.5}}, "prevalences": {"Urban": 1 / 3}},
    },
    "cohorts": {
        "All": {
            "models": {
                MODEL: {
                    "eval": {
                        "auc": 0.75, "ap": 5e-324, "precision": -0.0, "recall": 1.0,
                        "f1": 2 / 3, "accuracy": 1.0,
                        "precision_at": {"0.01": 0.0, "0.05": 0.25},
                    },
                    "reliability": [
                        {"bin_center": 0.05, "mean_predicted": -0.0, "observed_rate": 5e-324, "count": 3},
                        {"bin_center": 0.95, "mean_predicted": 1e300, "observed_rate": 1.0, "count": 0},
                    ],
                    "flagged": {"file": FLAGGED, "rows": 1, "sha256": "0"},
                },
                "random_forest[pct_hs_only]": {"error": "no random_forest grid candidate converged: stuck"},
            }
        }
    },
    "fragile_distribution": {
        "p1": {
            "0.1": {"by_area": {"Urban": {"count": 3, "share": 0.75}, "Rural": {"count": 0, "share": 0.0}}},
            "0.3": {"error": "no eligible row"},
        },
        "p2": {},
    },
    "hidden_fragility": {"p1": {}, "p2": {}},
    "yearly": [
        {"year": 2014, "n_rows": 10, "n_eligible": 8, "tau_hi": 0.3, "tau_lo": -0.0,
         "prevalence": 5e-324, "anomaly_rows": 0},
        {"year": 2015, "n_rows": 0, "n_eligible": 0, "tau_hi": None, "tau_lo": None,
         "prevalence": None, "anomaly_rows": 1},
    ],
}


def test_emit_report_bytes(tmp_path):
    flagged = b"zip,year,calibrated_probability\r\n00001,2019,0.5\r\n"
    (tmp_path / FLAGGED).write_bytes(flagged)
    written = emit_report(BODY, tmp_path)
    digests = {path.name: sha256(path.read_bytes()).hexdigest() for path in written}
    assert digests == {
        FLAGGED: sha256(flagged).hexdigest(),
        "manifest.json": "6fa35e35a3d00b9a737a07fc59656a3c85dd81ebb726292a470a06b255bff225",
        "metrics.csv": "8b478b833905c04ddd26b1732e1ddfaa061ac8b2b0ade4e201f1e98e4aa68ec0",
        "thresholds.csv": "30ca5116ff2bdcd6cec4e3102ea43c6d53bcd3fa73ecc83b6f0ae4ed6c6eb397",
        "yearly.csv": "0c673c18b0b0f89c267f5d5904c32d141edd52c6d17427a6bfcdfa0a4ad54d70",
        "reliability_All_logistic_pct_no_vehicle.csv": (
            "7d1adc92e0dbf8966ac9b9cb2921ff18609518317bff5841f37cdc07264436a5"
        ),
        "report.md": "43e2cb7ff0426d7367fcc60d25bb58f01c49ba656748e3cdd9c8ad84eb35d52d",
    }


def test_flagged_csv_bytes():
    # a flagged CSV as a task renders it
    got = csv_text(
        ["zip", "year", "calibrated_probability"],
        [
            np.array(["00001", "a,b", 'q"x', "00001"], dtype=object),
            np.array([2019, 2020, 2021, 2019], dtype=np.int64),
            np.array([1e300, 5e-324, -0.0, 0.1 + 0.2]),
        ],
    ).encode("utf-8")
    assert sha256(got).hexdigest() == "32b9395f4890e0069e41654ee9b4856b42952f88b50b4835020433a54f365072"
