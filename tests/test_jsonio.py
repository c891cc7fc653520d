import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from snapgap.jsonio import save_json, write_json

# Strings that could look like the writer's own seams if it did not rely on
# the encoder escaping line breaks.
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


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(TRICKY_TEXT)), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        # Rows of scalars, some empty, as lists or tuples.
        st.lists(st.lists(scalars, max_size=3), max_size=4),
        st.lists(st.lists(scalars, max_size=3).map(tuple), max_size=4),
        # Rows of which some hold a nested container.
        st.lists(st.lists(st.one_of(scalars, children), min_size=1, max_size=3), max_size=4),
    )


json_values = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writes_what_json_dump_writes(obj):
    fh = io.StringIO()
    write_json(obj, fh)
    assert fh.getvalue() == json.dumps(obj, sort_keys=True, indent=2)


def test_long_rows_of_scalars():
    obj = {
        "flagged": [[f"{i:05d}", 2019 + i % 5, i / 7] for i in range(500)],
        "empty": [[], {}],
        "single": [["only"]],
    }
    fh = io.StringIO()
    write_json(obj, fh)
    assert fh.getvalue() == json.dumps(obj, sort_keys=True, indent=2)


def test_save_json_ends_with_a_newline(tmp_path):
    obj = {"b": [1, 2], "a": {"c": None}}
    save_json(obj, tmp_path / "x.json")
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == json.dumps(obj, sort_keys=True, indent=2) + "\n"
