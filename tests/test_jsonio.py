import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapgap.calibration import DecisionRule, IsotonicMap
from snapgap import pipeline
from snapgap.jsonio import plain, save_json
from snapgap.labeling import LabelConfig, Thresholds
from snapgap.metrics import EvalReport, FeatureImportance, ImportanceReport
from snapgap.models import EnsembleParams, Standardization
from snapgap.pipeline import digest_of, sha256
from snapgap.synth import SyntheticSpec, generate_synthetic

# Strings that JSON escapes or `csv` quotes, or that look like the seams
# between items of an indented JSON text.
TRICKY_TEXT = ['"', "\\", "\n", "],  [", "],\n    [", "é", " ", "x\ty"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(max_value=-(2**63), min_value=-(2**80)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(TRICKY_TEXT),
)

# Keys that `json.dump` writes as their JSON text: floats, non-finite ones
# and a signed zero among them, and booleans. A None key has no other key
# to sort against.
float_keys = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(TRICKY_TEXT)), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.one_of(float_keys, st.booleans()), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
        # Rows of scalars, some empty, as lists or tuples.
        st.lists(st.lists(scalars, max_size=3), max_size=4),
        st.lists(st.lists(scalars, max_size=3).map(tuple), max_size=4),
        # Rows of which some hold a nested container.
        st.lists(st.lists(st.one_of(scalars, children), min_size=1, max_size=3), max_size=4),
    )


json_values = st.recursive(scalars, containers, max_leaves=40)


def compact(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def assert_digests_the_compact_text(obj):
    """`digest_of(obj)` is the sha256 of the strict compact text, or raises
    `ValueError` where `json.dumps` raises it."""
    try:
        want = hashlib.sha256(compact(obj).encode("utf-8")).hexdigest()
    except ValueError:  # a NaN or infinity, as a value or a key
        with pytest.raises(ValueError):
            digest_of(obj)
    else:
        assert digest_of(obj) == want


@settings(max_examples=400, deadline=None)
@given(json_values)
@example({math.nan: [1]})
@example({-math.inf: {"a": None}, 0.5: [2]})
@example({-0.0: [[]], True: {}})
def test_digest_hashes_the_strict_compact_text(obj):
    assert_digests_the_compact_text(obj)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(0, 300), max_size=6))
def test_sha256_is_hashlibs_for_any_split(data, cuts):
    """The built-in `sha256` the digests use gives hashlib's digest of the
    bytes, however they are split into `update` pieces."""
    bounds = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
    h = sha256()
    for lo, hi in zip(bounds, bounds[1:]):
        h.update(data[lo:hi])
    assert h.hexdigest() == hashlib.sha256(data).hexdigest()
    assert h.digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


# Probabilities with many ties, signed zeros, the smallest subnormal and a
# float whose `repr` takes an exponent.
TIED_PROBABILITIES = [-0.0, 0.0, 5e-324, 1e-05, 0.1 + 0.2, 1.0, 1e300]

flagged_rows = st.lists(
    st.tuples(
        # ZIP strings, some that `csv` quotes
        st.one_of(st.text(max_size=5), st.sampled_from(TRICKY_TEXT + [",", "\r", "", "00001"])),
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from(TIED_PROBABILITIES),
    ),
    max_size=200,
)


@settings(max_examples=150, deadline=None)
@given(flagged_rows)
@example([])
@example([("00001", 2019, -0.0), ("00001", 2019, 0.0), ('a"b', 2020, 5e-324), ("x,y", 2021, 1e300)])
def test_flagged_csv_is_what_csv_writer_writes(rows):
    # the flagged CSV a task renders from its columns
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["zip", "year", "calibrated_probability"])
    writer.writerows([zcta, year, repr(p)] for zcta, year, p in rows)
    zips, years, probs = zip(*rows) if rows else ((), (), ())
    got = pipeline._flagged_csv(
        np.array(zips, dtype=object), np.array(years, dtype=np.int64), np.array(probs, dtype=np.float64)
    )
    assert got == want.getvalue().encode("utf-8")


def test_save_json_ends_with_a_newline(tmp_path):
    obj = {"b": [1, 2], "a": {"c": None}}
    save_json(obj, tmp_path / "x.json")
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# A fixed document with every kind of key, float and string the format has
# to get right. Its digest and file text below are literals, so a change to
# the format itself fails here, where tests that compare against `json`
# at run time would not see it.
PINNED_DOCUMENT = {
    "keys": {
        "floats": {1e300: "big", -0.0: "signed zero", 5e-324: "tiny"},
        "ints": {10: "ten", -3: "minus three", 2: "two"},
        "mixed numbers": {2: "int", 0.5: "float", False: "bool"},
        "bools": {True: "yes", False: "no"},
        "none": {None: "null"},
    },
    "floats": [-0.0, 5e-324, 1e300, 0.1, 1 / 3, -2.5e-8],
    "ints": [0, -7, 2**64],
    "literals": (True, False, None),
    "text": ["é", "snow ☃", "😀", '"quoted"', "back\\slash", "tab\tline\nbreak", "\x01\x7f", "</script>"],
    "empty": [[], {}, (), ""],
    "nested": {"rows": [("a", 1, [0.5, ()]), {"b": {"c": [[]]}}], "z": {}},
}

PINNED_FILE = r"""{
  "empty": [
    [],
    {},
    [],
    ""
  ],
  "floats": [
    -0.0,
    5e-324,
    1e+300,
    0.1,
    0.3333333333333333,
    -2.5e-08
  ],
  "ints": [
    0,
    -7,
    18446744073709551616
  ],
  "keys": {
    "bools": {
      "false": "no",
      "true": "yes"
    },
    "floats": {
      "-0.0": "signed zero",
      "5e-324": "tiny",
      "1e+300": "big"
    },
    "ints": {
      "-3": "minus three",
      "2": "two",
      "10": "ten"
    },
    "mixed numbers": {
      "false": "bool",
      "0.5": "float",
      "2": "int"
    },
    "none": {
      "null": "null"
    }
  },
  "literals": [
    true,
    false,
    null
  ],
  "nested": {
    "rows": [
      [
        "a",
        1,
        [
          0.5,
          []
        ]
      ],
      {
        "b": {
          "c": [
            []
          ]
        }
      }
    ],
    "z": {}
  },
  "text": [
    "\u00e9",
    "snow \u2603",
    "\ud83d\ude00",
    "\"quoted\"",
    "back\\slash",
    "tab\tline\nbreak",
    "\u0001\u007f",
    "</script>"
  ]
}
"""


def test_a_fixed_document_keeps_its_digest_and_file_bytes(tmp_path):
    assert digest_of(PINNED_DOCUMENT) == "642d93e0d6be78d89f2c8a697df55fb1bf7468ab4296d98593adf273ca4872b7"
    save_json(PINNED_DOCUMENT, tmp_path / "x.json")
    assert (tmp_path / "x.json").read_bytes() == PINNED_FILE.encode("ascii")


@dataclass(frozen=True)
class Inner:
    values: np.ndarray
    pair: tuple[int, int]


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    by_key: dict[str, Inner]
    rows: list[tuple[str, float]]


def test_plain_maps_arrays_tuples_and_nested_dataclasses():
    inner = Inner(values=np.array([[1.5, 2.0], [3.0, 4.25]]), pair=(1, 2))
    value = Outer("x", inner, {"k": Inner(np.arange(3), (3, 4))}, [("a", 0.5)])
    assert plain(value) == {
        "name": "x",
        "inner": {"values": [[1.5, 2.0], [3.0, 4.25]], "pair": [1, 2]},
        "by_key": {"k": {"values": [0, 1, 2], "pair": [3, 4]}},
        "rows": [["a", 0.5]],
    }
    values = plain(value)["inner"]["values"][0] + plain(value)["by_key"]["k"]["values"]
    assert [type(v) for v in values] == [float, float, int, int, int]


# The forms below are the dicts that hand-written writers produced before
# `plain` derived them; scorer files and manifests hold these forms.


def test_decision_rule_form():
    assert plain(DecisionRule("prevalence_anchored", 0.031, 0.031)) == {
        "policy": "prevalence_anchored",
        "threshold": 0.031,
        "source_prevalence": 0.031,
    }
    assert plain(DecisionRule("youden", 0.42)) == {
        "policy": "youden",
        "threshold": 0.42,
        "source_prevalence": None,
    }


def test_isotonic_map_form_reads_back():
    iso = IsotonicMap(scores=[0.1, 0.5, 0.9], values=[0.0, 0.25, 0.75], fitted_on=40)
    form = plain(iso)
    assert form == {"scores": [0.1, 0.5, 0.9], "values": [0.0, 0.25, 0.75], "fitted_on": 40}
    assert all(type(v) is float for v in form["scores"] + form["values"])
    back = IsotonicMap(**json.loads(json.dumps(form)))
    assert back.scores.tolist() == iso.scores.tolist() and back.values.tolist() == iso.values.tolist()


def test_eval_report_form():
    rule = DecisionRule("youden", 0.3)
    report = EvalReport(
        cohort="Rural", model="logistic[pct_hs_only]", auc=0.75, ap=0.5, precision=0.25,
        recall=0.5, f1=1 / 3, accuracy=0.875, precision_at={"0.01": 1.0, "0.05": 0.5},
        n=40, n_pos=4, rule=rule, n_flagged=8,
    )
    assert plain(report) == {
        "cohort": "Rural",
        "model": "logistic[pct_hs_only]",
        "auc": 0.75,
        "ap": 0.5,
        "precision": 0.25,
        "recall": 0.5,
        "f1": 1 / 3,
        "accuracy": 0.875,
        "precision_at": {"0.01": 1.0, "0.05": 0.5},
        "n": 40,
        "n_pos": 4,
        "n_flagged": 8,
        "rule": {"policy": "youden", "threshold": 0.3, "source_prevalence": None},
    }


def test_importance_report_form():
    report = ImportanceReport(
        metric="auc",
        baseline_auc=0.8,
        baseline_ap=0.3,
        features=(
            FeatureImportance("pct_no_vehicle", 0.1, 0.05, 2, 0.01),
            FeatureImportance("pct_hs_only", -0.02, 0.0, 2, 0.0),
        ),
    )
    assert plain(report) == {
        "metric": "auc",
        "baseline_auc": 0.8,
        "baseline_ap": 0.3,
        "features": [
            {"name": "pct_no_vehicle", "delta_auc": 0.1, "delta_ap": 0.05, "repeats": 2, "dispersion": 0.01},
            {"name": "pct_hs_only", "delta_auc": -0.02, "delta_ap": 0.0, "repeats": 2, "dispersion": 0.0},
        ],
    }


def test_thresholds_and_label_config_forms():
    thresholds = {"Rural": Thresholds(0.31, 0.42), "Urban": Thresholds(0.28, 0.5)}
    assert plain(thresholds) == {
        "Rural": {"tau_hi": 0.31, "tau_lo": 0.42},
        "Urban": {"tau_hi": 0.28, "tau_lo": 0.5},
    }
    assert plain(LabelConfig(lo_q=0.3)) == {
        "poverty_floor": 0.15, "hi_q": 0.7, "lo_q": 0.3, "use_capped_uptake": True,
    }


def test_ensemble_params_form_reads_back():
    params = EnsembleParams(
        kind="gradient_boosting", n_trees=30, max_depth=3, min_leaf=2, learning_rate=0.05, seed=7
    )
    form = plain(params)
    assert form.pop("kind") == "gradient_boosting"
    assert form == {
        "n_trees": 30,
        "max_depth": 3,
        "min_leaf": 2,
        "learning_rate": 0.05,
        "max_features": None,
        "class_weighting": "balanced",
        "seed": 7,
    }
    assert EnsembleParams(kind="gradient_boosting", **json.loads(json.dumps(form))) == params


def test_standardization_form_reads_back():
    std = Standardization(mean=np.array([10.5, 20.0]), sd=np.array([1.0, 2.5]))
    form = plain(std)
    assert form == {"mean": [10.5, 20.0], "sd": [1.0, 2.5]}
    back = Standardization(**json.loads(json.dumps(form)))
    assert back.mean.tolist() == [10.5, 20.0] and back.sd.dtype == np.float64


def test_synthetic_spec_form():
    spec = SyntheticSpec(
        n_zips=50,
        years=(2014, 2016),
        true_coefficients={"pct_no_vehicle": -0.5},
        target_prevalence=(0.03, 0.05),
        anomaly_rate=0.01,
        seed=3,
    )
    form = plain(spec)
    assert form.pop("label") == plain(LabelConfig())
    assert form == {
        "n_zips": 50,
        "years": [2014, 2016],
        "area_mix": {"Mixed": 0.1, "Rural": 0.5, "Unknown": 0.1, "Urban": 0.3},
        "true_coefficients": {"pct_no_vehicle": -0.5},
        "target_prevalence": [0.03, 0.05],
        "anomaly_rate": 0.01,
        "seed": 3,
    }
    assert generate_synthetic(spec)[1]["spec"] == form
