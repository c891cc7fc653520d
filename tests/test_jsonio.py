import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapgap.calibration import DecisionRule, IsotonicMap
from snapgap.jsonio import plain, save_json
from snapgap.labeling import LabelConfig, Thresholds
from snapgap.metrics import EvalReport, FeatureImportance, ImportanceReport
from snapgap.errors import ValidationError
from snapgap.models import (
    DecisionTree,
    EnsembleParams,
    LogisticModel,
    Standardization,
    TreeEnsembleModel,
    model_from_dict,
    model_to_dict,
    scorer_from_dict,
    scorer_to_dict,
)
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
    leaf = DecisionTree(feature=(-1,), threshold=(math.nan,), left=(-1,), right=(-1,), value=(0.5,))
    model = TreeEnsembleModel(trees=(leaf,), params=params, feature_names=("a",))
    form = model_to_dict(model)
    assert form["family"] == "gradient_boosting"
    assert form["hyperparameters"] == {
        "n_trees": 30,
        "max_depth": 3,
        "min_leaf": 2,
        "learning_rate": 0.05,
        "max_features": None,
        "class_weighting": "balanced",
        "seed": 7,
    }
    assert model_from_dict(json.loads(json.dumps(form))).params == params


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


def small_scorer_files() -> dict[str, dict]:
    """Scorer file data of a two-feature logistic model and a 2-tree forest,
    each with one isotonic map and decision rule."""
    iso = IsotonicMap(scores=np.array([0.1, 0.6]), values=np.array([0.0, 0.75]), fitted_on=40)
    rule = DecisionRule(policy="prevalence", threshold=0.375, source_prevalence=0.05)
    logistic = LogisticModel(
        coefficients=np.array([0.5, -1.25]),
        intercept=-2.0,
        l2_strength=0.1,
        feature_names=("pct_no_vehicle", "pct_hs_only"),
        standardization=Standardization(mean=np.array([10.5, 30.0]), sd=np.array([2.0, 4.5])),
    )
    nan = math.nan
    trees = (
        DecisionTree((0, -1, -1), (12.5, nan, nan), (1, -1, -1), (2, -1, -1), (nan, 0.25, 0.75)),
        DecisionTree((-1,), (nan,), (-1,), (-1,), (0.5,)),
    )
    params = EnsembleParams(kind="random_forest", n_trees=2, max_depth=1, min_leaf=5, seed=3)
    forest = TreeEnsembleModel(trees=trees, params=params, feature_names=("pct_no_vehicle",))
    return {
        name: json.loads(json.dumps(scorer_to_dict(model_to_dict(model), iso, rule)))
        for name, model in (("logistic", logistic), ("forest", forest))
    }


def test_scorer_files_keep_their_bytes(tmp_path):
    # the sha256 of the files the writer made while records held the class
    # weighting and a tree model's kind
    digests = {}
    for name, data in small_scorer_files().items():
        save_json(data, tmp_path / "scorer.json")
        text = (tmp_path / "scorer.json").read_bytes()
        digests[name] = hashlib.sha256(text).hexdigest()
        scorer = scorer_from_dict(data)
        assert scorer_to_dict(model_to_dict(scorer.model), scorer.isotonic, scorer.rule) == data
    assert digests == {
        "logistic": "405174f0576129278f7b9681ba17ca74eeccf18859d68d28fce96d032fcbf538",
        "forest": "df09894a0f8d98f525aad14be734c16ea651ef3adb91e450b183d16dd1847707",
    }


def key_paths(value, path=()):
    """The path of every key under `value`, through objects and each list's
    first item."""
    if isinstance(value, list) and value:
        yield from key_paths(value[0], (*path, 0))
    if isinstance(value, dict):
        for key, item in value.items():
            yield (*path, key)
            yield from key_paths(item, (*path, key))


def named(path) -> str:
    """`path` as a scorer file error names it."""
    return "scorer" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def at(data, path):
    for key in path:
        data = data[key]
    return data


SCORER_KEYS = [
    (name, path) for name, data in small_scorer_files().items() for path in key_paths(data)
]


@pytest.mark.parametrize(
    "name, path", SCORER_KEYS, ids=[f"{name}:{named(path)}" for name, path in SCORER_KEYS]
)
def test_a_scorer_file_missing_a_key_is_refused(name, path):
    # it ended in a KeyError or a constructor's TypeError, or loaded anyway
    data = small_scorer_files()[name]
    del at(data, path[:-1])[path[-1]]
    message = (
        f"{named(path)}: expected one of"
        if path == ("model", "family")
        else f"{named(path[:-1])}: expected a key '{path[-1]}'"
    )
    with pytest.raises(ValidationError, match=re.escape(message)):
        scorer_from_dict(data)


@pytest.mark.parametrize(
    "name, path", SCORER_KEYS, ids=[f"{name}:{named(path)}" for name, path in SCORER_KEYS]
)
def test_a_mistyped_scorer_block_is_refused(name, path):
    data = small_scorer_files()[name]
    value = at(data, path)
    wrong = {dict: [], list: {}, str: 1}.get(type(value), "1")
    at(data, path[:-1])[path[-1]] = wrong
    message = f"{named(path)}: expected"
    with pytest.raises(ValidationError, match=re.escape(message)):
        scorer_from_dict(data)


NODE_LIST_DAMAGE = [
    (key, bad, "an integer") for key in ("feature", "left", "right") for bad in ("1", True, -1.0, None)
] + [(key, bad, "a number or null") for key in ("threshold", "value") for bad in ("0.5", True, [])]


@pytest.mark.parametrize(
    "key, bad, expected",
    NODE_LIST_DAMAGE,
    ids=[f"{key}:{json.dumps(bad)}" for key, bad, _ in NODE_LIST_DAMAGE],
)
def test_a_mistyped_tree_node_is_refused(key, bad, expected):
    # a string ended in a TypeError or ValueError, and a bool or a float
    # was read as a number
    data = small_scorer_files()["forest"]
    data["model"]["trees"][1][key][0] = bad
    message = f"scorer.model.trees[1].{key}[0]: expected {expected}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        scorer_from_dict(data)


@pytest.mark.parametrize("values", [[0.0], []], ids=["one value short", "both empty"])
def test_an_isotonic_map_of_two_lengths_is_refused(values):
    # it loaded, and scoring with it failed inside np.interp
    data = small_scorer_files()["logistic"]
    data["calibration"]["values"] = values
    if not values:
        data["calibration"]["scores"] = []
    with pytest.raises(ValidationError, match="must be non-empty and of one length"):
        scorer_from_dict(data)
