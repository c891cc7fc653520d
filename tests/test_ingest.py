import csv
import io
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_record, random_records
from oracles import (
    dedupe_reference,
    panel_of,
    parse_crosswalk_reference,
    parse_panel_reference,
    records_of,
)
from snapgap import ingest
from snapgap.errors import IoFailure, ValidationError
from snapgap.ingest import (
    DEFAULT_SCHEMA,
    FLAG_CLIPPED,
    FLAG_DUPLICATE_AVERAGED,
    FLAG_SENTINEL_RECODED,
    FLAG_SNAP_EXCEEDS_POVERTY,
    PREDICTOR_FIELDS,
    Area,
    Panel,
    csv_text,
    dedupe,
    designate_all,
    normalize_zip,
    parse_crosswalk,
    parse_panel,
    write_records,
)

HEADER = "zip,year,pov_fam,snap_fam,pct_no_vehicle,pct_no_internet,pct_no_computer,pct_hs_only"
SCHEMA = {
    "zip": "zip",
    "year": "year",
    "pov_fam": "pov_fam",
    "snap_fam": "snap_fam",
    "pct_no_vehicle": "pct_no_vehicle",
    "pct_no_internet": "pct_no_internet",
    "pct_no_computer": "pct_no_computer",
    "pct_hs_only": "pct_hs_only",
}


def parse_rows(*rows, schema=SCHEMA, header=HEADER):
    """Parsed rows as Records, and the rejects."""
    text = "\n".join([header, *rows])
    panel, rejects = parse_panel(io.StringIO(text), schema)
    return records_of(panel), rejects


def dedupe_records(records):
    return records_of(dedupe(panel_of(records)))


class TestNormalizeZip:
    def test_left_pad(self):
        assert normalize_zip("1234") == "01234"

    def test_plus4_strip(self):
        assert normalize_zip("01234-5678") == "01234"

    def test_non_numeric(self):
        with pytest.raises(ValidationError, match="not a ZIP code: 'ABCDE'"):
            normalize_zip("ABCDE")

    def test_overflow(self):
        with pytest.raises(ValidationError, match="ZIP has 6 digits after suffix strip: '123456'"):
            normalize_zip("123456")

    def test_float_artifact(self):
        assert normalize_zip("601.0") == "00601"

    @pytest.mark.parametrize("raw,expected", [("00001", "00001"), ("99999-1", "99999"), (" 7 ", "00007")])
    def test_misc(self, raw, expected):
        assert normalize_zip(raw) == expected

    def test_only_ascii_digits_make_a_zip(self):
        # str.isdigit and a regex \d without re.ASCII accept all of these
        tokens = ["\u0661\u0662\u0663", "\u0661\u0662\u0663.0", "\uff11\uff12", "01234-\u0661", "\u00a012"]
        for token in tokens:
            with pytest.raises(ValidationError, match="not a ZIP code: "):
                normalize_zip(token)
        records, rejects = parse_rows(*(f"{t},2016,12,5,1,2,3,4" for t in tokens), "12,2016,12,5,1,2,3,4")
        assert [(r.row, r.reason) for r in rejects] == [
            (i, f"zip: not a ZIP code: {t!r}") for i, t in enumerate(tokens, start=1)
        ]
        assert [r.zip for r in records] == ["00012"]
        text = "zip,tract_status,res_ratio\n\u0661\u0662\u0663.0,Urban,1\n12,Rural,1\n"
        areas, rejects = parse_crosswalk(io.StringIO(text))
        assert areas == {"00012": "Rural"}
        assert [(r.row, r.reason, r.source) for r in rejects] == [
            (1, "zip: not a ZIP code: '\u0661\u0662\u0663.0'", "crosswalk")
        ]


class TestParsePanel:
    def test_direct_mapping(self):
        records, rejects = parse_rows("01234,2015,100,40,12.0,8.0,6.0,30.0")
        assert rejects == []
        (rec,) = records
        assert rec.zip == "01234"
        assert rec.year == 2015
        assert rec.pov_fam == 100.0
        assert rec.snap_fam == 40.0
        assert rec.pct_no_vehicle == 12.0
        assert rec.flags == frozenset()

    def test_sentinel_recoded(self):
        records, rejects = parse_rows("01234,2015,-999,40,12.0,8.0,6.0,30.0")
        assert rejects == []
        (rec,) = records
        assert rec.pov_fam is None
        assert FLAG_SENTINEL_RECODED in rec.flags

    def test_na_tokens_recoded(self):
        records, _ = parse_rows("01234,2015,100,40,N/A,NA,6.0,30.0")
        (rec,) = records
        assert rec.pct_no_vehicle is None
        assert rec.pct_no_internet is None
        assert FLAG_SENTINEL_RECODED in rec.flags

    def test_blank_is_missing_without_flag(self):
        records, _ = parse_rows("01234,2015,100,40,,8.0,6.0,30.0")
        (rec,) = records
        assert rec.pct_no_vehicle is None
        assert FLAG_SENTINEL_RECODED not in rec.flags

    def test_percentage_clipped(self):
        records, rejects = parse_rows("01234,2015,100,40,104.2,8.0,6.0,30.0")
        assert rejects == []
        (rec,) = records
        assert rec.pct_no_vehicle == 100.0
        assert FLAG_CLIPPED in rec.flags

    def test_snap_exceeds_poverty_flagged(self):
        records, _ = parse_rows("01234,2015,100,140,12.0,8.0,6.0,30.0")
        (rec,) = records
        assert FLAG_SNAP_EXCEEDS_POVERTY in rec.flags

    def test_bad_zip_rejected_with_row_number(self):
        records, rejects = parse_rows(
            "01234,2015,100,40,12.0,8.0,6.0,30.0",
            "XYZ,2015,100,40,12.0,8.0,6.0,30.0",
        )
        assert len(records) == 1
        (rej,) = rejects
        assert rej.row == 2
        assert "zip" in rej.reason

    def test_bad_year_rejected(self):
        _, rejects = parse_rows("01234,1999,100,40,12.0,8.0,6.0,30.0")
        assert len(rejects) == 1
        assert "year" in rejects[0].reason

    @pytest.mark.parametrize("year", ["inf", "-inf", "nan", "2015.7"])
    def test_non_integer_year_rejected(self, year):
        records, rejects = parse_rows(f"01234,{year},100,40,12.0,8.0,6.0,30.0")
        assert records == []
        (rej,) = rejects
        assert rej.reason == f"year: not an integer: {year!r}"

    def test_truncated_row_rejected(self):
        records, rejects = parse_rows(
            "01234,2015",
            "01235,2015,100,40,12.0,8.0,6.0",
            "01236,2015,100,40,12.0,8.0,6.0,30.0",
        )
        assert [r.zip for r in records] == ["01236"]
        assert [(r.row, r.reason) for r in rejects] == [
            (1, "row: 2 fields, need 8"),
            (2, "row: 7 fields, need 8"),
        ]

    def test_extra_field_row_rejected(self):
        records, rejects = parse_rows(
            "01234,2015,100,40,1,2,3,4,999,junk",
            "01236,2015,100,40,12.0,8.0,6.0,30.0",
        )
        assert [r.zip for r in records] == ["01236"]
        assert [(r.row, r.reason) for r in rejects] == [(1, "row: 10 fields, need 8")]

    def test_blank_lines_skipped_but_counted(self):
        records, rejects = parse_rows("", ",,,,,,,", "XYZ,2015,100,40,1,2,3,4", " , ")
        assert records == []
        assert [(r.row, r.reason) for r in rejects] == [(3, "zip: not a ZIP code: 'XYZ'")]

    def test_integral_float_year_accepted(self):
        records, rejects = parse_rows("01234,2015.0,100,40,12.0,8.0,6.0,30.0")
        assert rejects == []
        assert records[0].year == 2015

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_tokens_are_sentinels(self, token):
        records, rejects = parse_rows(f"01234,2015,{token},40,{token},8.0,6.0,30.0")
        assert rejects == []
        (rec,) = records
        assert rec.pov_fam is None
        assert rec.pct_no_vehicle is None
        assert FLAG_SENTINEL_RECODED in rec.flags
        assert FLAG_CLIPPED not in rec.flags

    def test_garbage_numeric_rejected(self):
        _, rejects = parse_rows("01234,2015,abc,40,12.0,8.0,6.0,30.0")
        assert len(rejects) == 1
        assert "pov_fam" in rejects[0].reason

    def test_only_plain_ascii_decimals_are_numbers(self):
        # float() reads all of these; none is a plain ASCII decimal
        records, rejects = parse_rows(
            "00001,2_015,1_000,5,1,2,3,4",
            "00002,2016,\u0661\u0662,5,1,2,3,4",
            "00003,2016,12,5,\uff11,2,3,4",
            "00004,2016,12,5,1,2,3,\u00a04",
            "00005,2016,+12.5e0,5,1,2,3, 4 ",
        )
        assert [(r.row, r.reason) for r in rejects] == [
            (1, "year: not an integer: '2_015'"),
            (2, "pov_fam: unparseable value '\u0661\u0662'"),
            (3, "pct_no_vehicle: unparseable value '\uff11'"),
            (4, "pct_hs_only: unparseable value '\\xa04'"),
        ]
        assert [(r.zip, r.pov_fam, r.pct_hs_only) for r in records] == [("00005", 12.5, 4.0)]

    def test_missing_column(self):
        with pytest.raises(ValidationError, match="column 'pov_fam' \\(field 'pov_fam'\\) not in header"):
            parse_panel(io.StringIO("zip,year\n"), SCHEMA)

    def test_schema_missing_required_key(self):
        with pytest.raises(ValidationError, match="schema does not map required field 'year'"):
            parse_panel(io.StringIO(HEADER + "\n"), {"zip": "zip"})

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="CSV has no header row"):
            parse_panel(io.StringIO(""), SCHEMA)

    def test_header_only_yields_nothing(self):
        panel, rejects = parse_panel(io.StringIO(HEADER + "\n"), SCHEMA)
        assert len(panel) == 0 and rejects == []
        assert panel.predictors.shape == (0, len(PREDICTOR_FIELDS))

    def test_renamed_headers_via_schema(self):
        schema = dict(SCHEMA, zip="ZCTA", pov_fam="FamiliesPoverty")
        header = HEADER.replace("zip", "ZCTA").replace("pov_fam", "FamiliesPoverty")
        panel, _ = parse_panel(io.StringIO(header + "\n01234,2015,100,40,1,1,1,1"), schema)
        assert panel.pov_fam[0] == 100.0

    def test_path_and_text_stream_sources(self, tmp_path):
        text = HEADER + "\n01234,2015,100,40,1,1,1,1"
        path = tmp_path / "p.csv"
        path.write_text(text, encoding="utf-8")
        stream = io.StringIO(text)
        for source in (path, str(path), stream):
            panel, _ = parse_panel(source, SCHEMA)
            assert panel.zip.tolist() == ["01234"]
        assert not stream.closed  # a caller's stream stays the caller's

    @pytest.mark.parametrize("read", [parse_panel, parse_crosswalk])
    @pytest.mark.parametrize("source", [b"zip\n", io.BytesIO(b"zip\n"), 5])
    def test_bytes_and_other_sources_are_refused(self, read, source):
        with pytest.raises(IoFailure, match="unsupported CSV source"):
            read(source)

    @pytest.mark.parametrize("read", [parse_panel, parse_crosswalk])
    @pytest.mark.parametrize("where", ["header", "body"])
    def test_text_that_is_not_utf8_is_unreadable(self, tmp_path, read, where):
        header, row = (
            (HEADER, "01234,2015,100,40,1,1,1,1")
            if read is parse_panel
            else (CROSSWALK_HEADER, "01234,Urban,1.0")
        )
        lines = [line.encode() for line in [header] + [row] * 3000]  # past one parse chunk
        bad = 0 if where == "header" else -1
        lines[bad] = b"\xff\xfe" + lines[bad]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(IoFailure, match="CSV is not valid UTF-8"):
            read(path)

    @pytest.mark.parametrize("read", [parse_panel, parse_crosswalk])
    def test_a_utf8_byte_order_mark_is_skipped(self, tmp_path, read):
        # spreadsheet "CSV UTF-8" exports start with one
        header, row = (
            (HEADER, "01234,2015,100,40,1,1,1,1")
            if read is parse_panel
            else (CROSSWALK_HEADER, "01234,Urban,1.0")
        )
        text = "\n".join([header, row, "x" + row]) + "\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        (got, got_rejects), (expected, expected_rejects) = read(bom), read(plain)
        assert got_rejects == expected_rejects and len(got_rejects) == 1
        if read is parse_panel:
            got, expected = asdict(got), asdict(expected)
        np.testing.assert_equal(got, expected)

    def test_a_read_column_named_twice_is_an_error(self):
        for header, schema in ((HEADER + ",year", SCHEMA), ("zip,year,pov_fam,snap_fam,year", None)):
            with pytest.raises(ValidationError, match="column 'year' appears 2 times in header"):
                parse_panel(io.StringIO(header + "\n" + "1," * header.count(",") + "1"), schema)
        schema = dict(SCHEMA, pct_hs_only="h")
        with pytest.raises(ValidationError, match="column 'h' appears 3 times"):
            parse_panel(io.StringIO(HEADER.replace("pct_hs_only", "h,h,h")), schema)

    def test_an_unread_column_may_repeat(self):
        records, rejects = parse_rows("01234,2015,100,40,1,2,3,4,a,b", header=HEADER + ",note,note")
        assert rejects == [] and records[0].pct_hs_only == 4.0
        panel, rejects = parse_panel(io.StringIO("note,zip,note,year,pov_fam,snap_fam\na,1,b,2015,9,3"))
        assert rejects == [] and panel.zip.tolist() == ["00001"]

    def test_no_silent_drops(self, rng):
        rows = []
        for i in range(50):
            zcta = f"{i:05d}" if i % 7 else "BAD"
            rows.append(f"{zcta},2015,10,5,1,1,1,1")
        records, rejects = parse_rows(*rows)
        assert len(records) + len(rejects) == 50


class TestRoundTrip:
    def test_serialize_reparse_identical(self, rng):
        records = random_records(rng, 60)
        # exercise flags too
        records[0] = make_record(zip="00777", snap_fam=150.0, pov_fam=100.0, flags=frozenset({FLAG_SNAP_EXCEEDS_POVERTY}))
        buf = io.StringIO()
        write_records(panel_of(records), buf)
        buf.seek(0)
        reparsed, rejects = parse_panel(buf, DEFAULT_SCHEMA)
        assert rejects == []
        assert records_of(reparsed) == records

    def test_clean_values_never_reclipped(self, rng):
        records = random_records(rng, 40)
        buf = io.StringIO()
        write_records(panel_of(records), buf)
        buf.seek(0)
        reparsed, _ = parse_panel(buf, DEFAULT_SCHEMA)
        for rec in records_of(reparsed):
            assert FLAG_CLIPPED not in rec.flags
            assert FLAG_SENTINEL_RECODED not in rec.flags


# Cells of each kind a CSV column holds: strings that `csv` quotes, empty
# strings and non-ASCII text; int64 extremes; signed zeros, the smallest
# subnormal, a float whose `repr` takes an exponent, and NaN; and None.
CSV_STRINGS = st.one_of(st.text(max_size=5), st.sampled_from([",", '"', "\r", "\n", "a,b", 'q"x', "", "é", "00001"]))
CSV_INTS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0]))
CSV_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 0.1 + 0.2, 1.0, 1e300, math.nan])
CSV_COLUMNS = {
    "str": lambda n: st.lists(CSV_STRINGS, min_size=n, max_size=n).map(lambda c: np.array(c, dtype=object)),
    "int": lambda n: st.lists(CSV_INTS, min_size=n, max_size=n).map(lambda c: np.array(c, dtype=np.int64)),
    "float": lambda n: st.lists(CSV_FLOATS, min_size=n, max_size=n).map(lambda c: np.array(c, dtype=np.float64)),
    "str, int or None": lambda n: st.lists(st.one_of(st.none(), CSV_STRINGS, CSV_INTS), min_size=n, max_size=n),
    "any": lambda n: st.lists(st.one_of(st.none(), CSV_STRINGS, CSV_INTS, CSV_FLOATS), min_size=n, max_size=n),
}


@st.composite
def csv_tables(draw):
    """A header and the columns of a table of two or more columns."""
    n, width = draw(st.integers(0, 30)), draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_COLUMNS)), min_size=width, max_size=width))
    header = draw(st.lists(CSV_STRINGS, min_size=width, max_size=width))
    return header, [draw(CSV_COLUMNS[kind](n)) for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(csv_tables())
@example((["zip", "year", "calibrated_probability"], [np.array([], dtype=object), np.array([], dtype=np.int64), np.array([])]))
@example((
    ["a,b", ""],
    [np.array([-0.0, 0.0, 5e-324, 1e300, math.nan]), [None, 'q"x', -(2**63), 2**63 - 1, 0.0]],
))
def test_csv_text_is_what_csv_writer_writes(table):
    header, columns = table
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    cells = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    writer.writerows([None if v != v else v for v in row] for row in zip(*cells))
    assert csv_text(header, columns) == want.getvalue()


class TestPanel:
    def test_columns_follow_the_records(self):
        records = [
            make_record(zip="00002", year=2016, pov_rate=0.2, pct_hs_only=None, area=Area.RURAL),
            make_record(zip="00001", snap_fam=None, flags=frozenset({FLAG_CLIPPED})),
        ]
        buf = io.StringIO()
        write_records(panel_of(records), buf)
        buf.seek(0)
        panel, _ = parse_panel(buf)
        assert len(panel) == 2
        assert panel.zip.tolist() == ["00002", "00001"]
        assert panel.year.tolist() == [2016, 2015]
        assert panel.area.tolist() == ["Rural", "Urban"]
        assert panel.flags.tolist() == [frozenset(), frozenset({FLAG_CLIPPED})]
        assert panel.pov_rate[0] == 0.2 and np.isnan(panel.pov_rate[1])
        assert np.isnan(panel.snap_fam[1])
        expected = [[np.nan if getattr(r, f) is None else getattr(r, f) for f in PREDICTOR_FIELDS] for r in records]
        assert np.array_equal(panel.predictors, expected, equal_nan=True)
        assert dedupe(panel) is panel  # no repeated key

    def test_take_keeps_rows_aligned(self, rng):
        records = random_records(rng, 20)
        panel = panel_of(records)
        rows = np.array([5, 0, 17])
        taken = panel.take(rows)
        again = panel_of([records[i] for i in rows])
        for name in ("zip", "year", "area", "flags"):
            assert getattr(taken, name).tolist() == getattr(again, name).tolist()
        for name in ("pov_fam", "snap_fam", "fam_universe", "pov_rate", "predictors"):
            assert np.array_equal(getattr(taken, name), getattr(again, name), equal_nan=True)
        assert len(panel.take(panel.year == 1999)) == 0

    def test_concat_keeps_row_order(self, rng):
        records = random_records(rng, 12)
        parts = [panel_of(records[:5]), panel_of([]), panel_of(records[5:])]
        assert records_of(Panel.concat(parts)) == records
        assert records_of(Panel.concat(iter(parts))) == records


class TestDedupe:
    def test_keys_number_by_first_appearance(self):
        records = [
            make_record(zip="00009", year=2016, pov_fam=1.0),
            make_record(zip="00001", year=2016),
            make_record(zip="00009", year=2015),
            make_record(zip="00009", year=2016, pov_fam=3.0),
            make_record(zip="00001", year=2016),
        ]
        out = dedupe(panel_of(records))
        assert list(zip(out.zip.tolist(), out.year.tolist())) == [
            ("00009", 2016), ("00001", 2016), ("00009", 2015)
        ]
        assert out.pov_fam[0] == 2.0 and FLAG_DUPLICATE_AVERAGED in out.flags[0]
        assert FLAG_DUPLICATE_AVERAGED not in out.flags[1]

    def test_exact_duplicates_collapse_without_flag(self):
        rec = make_record()
        out = dedupe_records([rec, rec])
        assert out == [rec]

    def test_conflicting_duplicates_averaged(self):
        a = make_record(pov_fam=100.0)
        b = make_record(pov_fam=200.0)
        (merged,) = dedupe_records([a, b])
        assert merged.pov_fam == 150.0
        assert FLAG_DUPLICATE_AVERAGED in merged.flags

    def test_single_record_unchanged(self):
        rec = make_record()
        assert dedupe_records([rec]) == [rec]

    def test_missing_aware_mean(self):
        a = make_record(pct_no_vehicle=None, pov_fam=100.0)
        b = make_record(pct_no_vehicle=12.0, pov_fam=100.0)
        (merged,) = dedupe_records([a, b])
        assert merged.pct_no_vehicle == 12.0

    def test_idempotent(self, rng):
        records = random_records(rng, 30)
        # introduce duplicates
        records = records + records[:10] + [make_record(zip="00001", pov_fam=999.0)]
        once = dedupe_records(records)
        twice = dedupe_records(once)
        assert once == twice
        keys = [(r.zip, r.year) for r in once]
        assert len(keys) == len(set(keys))


OPTIONAL_COLUMNS = (
    "fam_universe", "pov_rate", *PREDICTOR_FIELDS, "area", "flags", "note",
)
TOKENS = {
    "zip": [
        "00001", "1", "2.0", "00002-1234", "3", " 4 ", "XYZ", "1234567", "",
        "\u0661\u0662\u0663", "\u0661.0", "\uff15", "00003-\u0661", "\u00a04", "5-", "6.0.0",
    ],
    "year": ["2015", "2016", "2015.0", "2017"] * 3
    + ["1999", "2015.5", "nan", "inf", "x", "", "2_015", "\u0662\u0660\u0661\u0665"],
    "number": [
        "0", "0.0", "-0.0", "-0", "1", "12.5", "40", "99.99", "100", "100.5", "150", "1e3", "7_0",
        "", "  ", "N/A", "NA", "na", "nan", "NaN", "inf", "-inf", "Infinity", "-1", "-999", "abc", "1.2.3",
        "1_000", "\u0661\u0662", "\uff14\uff10", "\u00a012", " 12 ", "+.5e1", "5.",
    ],
    "area": ["", " ", "Urban", "Rural", "Mixed", "Unknown", " Rural ", "urban", "Suburb"],
    "flags": ["", "A", "A;B", " ; X ;", "SentinelRecoded", "B;A"],
    "note": ["", "free text"],
}


def token_pool(column):
    if column in TOKENS:
        return TOKENS[column]
    return TOKENS["number"]


@st.composite
def raw_panels(draw):
    """CSV text with a shuffled header of the required and some optional
    columns, at times with a column that no reader reads or a read column
    named twice, and rows that are blank, short, long, duplicated or drawn
    cell by cell from valid, sentinel and garbage tokens."""
    optional = draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS), unique=True))
    optional += draw(st.sampled_from([[]] * 6 + [["note"], ["note", "note"], ["year"], ["pov_fam"]]))
    header = draw(st.permutations(["zip", "year", "pov_fam", "snap_fam", *optional]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long", "repeat"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",,", "," * (len(header) - 1)])))
        elif kind == "repeat" and len(lines) > 1:
            lines.append(draw(st.sampled_from(lines[1:])))
        else:
            cells = [draw(st.sampled_from(token_pool(column))) for column in header]
            if kind == "short":
                cells = cells[: draw(st.integers(1, len(cells) - 1))]
            elif kind == "long":
                cells += draw(st.lists(st.sampled_from(["999", "junk", ""]), min_size=1, max_size=2))
            lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def read_outcome(read, source):
    """`read(source)`, or the type and message of the ValidationError it raises."""
    try:
        return read(source)
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_same_panel(got: Panel, want: Panel) -> None:
    """Equal columns: the same dtypes, and the same values with NaN equal to NaN."""
    for name in ("zip", "year", "area", "flags"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    for name in ("pov_fam", "snap_fam", "fam_universe", "pov_rate", "predictors"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)


class TestRowWiseReference:
    """Columnar parse and dedupe against the row-by-row reference."""

    @settings(max_examples=300, deadline=None)
    @given(text=raw_panels())
    def test_parse_and_dedupe_match_reference(self, text):
        try:
            records, expected_rejects = parse_panel_reference(text)
        except ValidationError as exc:
            assert read_outcome(parse_panel, io.StringIO(text)) == (type(exc), str(exc))
            return
        panel, rejects = parse_panel(io.StringIO(text))
        assert [(r.row, r.reason) for r in rejects] == [(r.row, r.reason) for r in expected_rejects]
        assert records_of(panel) == records
        # the tuple-keyed reference
        assert_same_panel(dedupe(panel), panel_of(dedupe_reference(records)))

        for rows in (1, 2, 3, 7):  # rejects and repeated keys straddle chunks
            with mock.patch.object(ingest, "PARSE_CHUNK_ROWS", rows):
                chunked, chunked_rejects = parse_panel(io.StringIO(text))
            assert chunked_rejects == rejects
            assert_same_panel(chunked, panel)

    def test_signed_zero_duplicates_are_exact(self):
        text = "\n".join([HEADER, "00001,2015,0.0,1,2,3,4,5", "00001,2015,-0.0,1,2,3,4,5"])
        panel, _ = parse_panel(io.StringIO(text), SCHEMA)
        (row,) = records_of(dedupe(panel))
        assert FLAG_DUPLICATE_AVERAGED not in row.flags

    def test_conflicts_average_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the order of the sum shows;
        # the last row differs in area, so it is no exact duplicate
        records = [make_record(pct_no_vehicle=v) for v in (1e16, 1.0, None)]
        records.append(make_record(pct_no_vehicle=1.0, area=Area.RURAL))
        (merged,) = dedupe_records(records)
        assert merged.area is Area.URBAN
        assert merged.pct_no_vehicle == 1e16 / 3 != (1.0 + 1.0 + 1e16) / 3
        assert merged.flags == frozenset({FLAG_DUPLICATE_AVERAGED})


CROSSWALK_HEADER = "zip,tract_status,res_ratio"


def crosswalk_areas(*rows):
    """The areas `parse_crosswalk` reads from these data rows, and its rejects."""
    return parse_crosswalk(io.StringIO("\n".join([CROSSWALK_HEADER, *rows])))


class TestDesignateArea:
    def test_urban_above_080(self):
        areas, _ = crosswalk_areas("01234,Urban,0.85", "01234,Rural,0.15")
        assert areas == {"01234": "Urban"}

    def test_rural_below_020(self):
        areas, _ = crosswalk_areas("01234,Urban,0.10", "01234,Rural,0.90")
        assert areas == {"01234": "Rural"}

    def test_mixed_between(self):
        areas, _ = crosswalk_areas("01234,Urban,0.5", "01234,Rural,0.5")
        assert areas == {"01234": "Mixed"}

    def test_no_rows_unknown(self):
        areas, _ = crosswalk_areas()
        assert areas == {}
        out = designate_all(panel_of([make_record(zip="01234", area=Area.URBAN)]), areas)
        assert [r.area for r in records_of(out)] == [Area.UNKNOWN]

    def test_unknown_mass_excluded_from_denominator(self):
        areas, _ = crosswalk_areas("01234,Urban,0.09", "01234,Rural,0.01", "01234,Unknown,0.90")
        assert areas == {"01234": "Urban"}

    def test_all_unknown_mass(self):
        areas, _ = crosswalk_areas("01234,Unknown,1.0")
        assert areas == {"01234": "Unknown"}

    def test_boundaries_inclusive(self):
        areas, _ = crosswalk_areas("0,Urban,0.80", "0,Rural,0.20")
        assert areas == {"00000": "Urban"}
        areas, _ = crosswalk_areas("0,Urban,0.20", "0,Rural,0.80")
        assert areas == {"00000": "Rural"}

    def test_row_order_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            statuses = ["Urban", "Rural", "Unknown"]
            rows = [f"00042,{statuses[int(rng.integers(0, 3))]},{float(rng.random())!r}" for _ in range(n)]
            base, _ = crosswalk_areas(*rows)
            assert base["00042"] in ("Urban", "Rural", "Mixed", "Unknown")
            assert base == parse_crosswalk_reference("\n".join([CROSSWALK_HEADER, *rows]))[0]
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert crosswalk_areas(*shuffled)[0] == base

    def test_designate_all_fixed_across_years(self):
        recs = [make_record(zip="00042", year=y, area=Area.UNKNOWN) for y in (2014, 2019)]
        areas, _ = crosswalk_areas("00042,Rural,1.0")
        out = designate_all(panel_of(recs), areas)
        assert all(r.area is Area.RURAL for r in records_of(out))


class TestParseCrosswalk:
    def test_basic(self):
        areas, rejects = crosswalk_areas("1234,Urban,0.7", "1234,rural,0.3", "2345, RURAL ,0.4")
        assert rejects == []
        assert areas == {"01234": "Mixed", "02345": "Rural"}

    def test_bad_ratio_rejected(self):
        areas, rejects = crosswalk_areas("1234,Urban,1.7")
        assert areas == {}
        assert [(r.row, r.reason) for r in rejects] == [(1, "res_ratio: 1.7 outside [0,1]")]

    def test_res_ratio_must_be_a_plain_decimal(self):
        areas, rejects = crosswalk_areas("01001,Urban,0_5", "01002,Rural,\u0660.5", "01003,Urban, 0.5")
        assert areas == {"01003": "Urban"}
        assert [(r.row, r.reason) for r in rejects] == [
            (1, "res_ratio: unparseable '0_5'"),
            (2, "res_ratio: unparseable '\u0660.5'"),
        ]

    def test_a_read_column_named_twice_is_an_error(self):
        for header in ("zip,tract_status,res_ratio,zip", "ZIP,tract_status, zip ,res_ratio"):
            with pytest.raises(ValidationError, match="column 'zip' appears 2 times in header"):
                parse_crosswalk(io.StringIO(header + "\n01234,Urban,1.0,0"))
        areas, rejects = parse_crosswalk(io.StringIO("note,zip,tract_status,res_ratio,NOTE\na,1,Rural,1,b"))
        assert areas == {"00001": "Rural"} and rejects == []

    def test_short_row_rejected(self):
        areas, rejects = crosswalk_areas("01001,Urban", "01002", "1234,Urban,0.7")
        assert areas == {"01234": "Urban"}
        assert [(r.row, r.reason) for r in rejects] == [
            (1, "row: 2 fields, need 3"),
            (2, "row: 1 fields, need 3"),
        ]


CROSSWALK_TOKENS = {
    "zip": [
        "1234", "01234", "2345", " 2345 ", "02345-6789", "3456.0", "4567", "",
        "XYZ", "1234567", "12-34567", "\u0661\u0662", "\u00a01234", "\uff11",
    ],
    "tract_status": [
        "Urban", "urban", " URBAN ", "uRBAN", "Rural", "rural ", " RuRaL", "Mixed", "Unknown", "",
        "suburb", "\u00a0Rural", "Urban area",
    ],
    "res_ratio": [
        "0", "0.0", "-0.0", "0.1", "0.2", "0.25", "0.5", "0.8", "1", "1.0", "1e-1", ".5", " 0.5",
        "0_5", "\u0660.5", "nan", "inf", "-inf", "1.0000001", "-0.1", "", "x",
    ],
    "note": ["", "free text"],
}


@st.composite
def raw_crosswalks(draw):
    """Crosswalk text with a shuffled, padded header, at times with a column
    that no reader reads or a read column named twice, and rows that are
    blank, short, long, repeated, drawn cell by cell from valid and
    malformed tokens, or pairs that give a ZIP an urban share of exactly
    0.80 or 0.20; in any order."""
    extra = draw(st.sampled_from([[]] * 5 + [["note"], ["note", "note"], ["zip"], ["res_ratio"]]))
    columns = draw(st.permutations(["zip", "tract_status", "res_ratio", *extra]))
    header = [draw(st.sampled_from([c, c.upper(), f" {c} "])) for c in columns]
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 6 + ["float", "blank", "short", "long", "repeat", "edge"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",,", "," * len(columns)])))
        elif kind == "repeat" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif kind == "edge":  # shares of 0.8 / 1.0, 0.4 / 0.5 and their mirrors
            zcta = draw(st.sampled_from(["77777", "88888"]))
            big, small = draw(st.sampled_from([("0.8", "0.2"), ("0.4", "0.1")]))
            urban, rural = draw(st.permutations([big, small]))
            for status, ratio in (("Urban", urban), ("Rural", rural)):
                cells = {"zip": zcta, "tract_status": status, "res_ratio": ratio, "note": ""}
                lines.append(",".join(cells[c] for c in columns))
        else:
            cells = {c: draw(st.sampled_from(CROSSWALK_TOKENS[c])) for c in columns}
            if kind == "float":
                cells["res_ratio"] = repr(draw(st.floats(0.0, 1.0)))
            row = [cells[c] for c in columns]
            if kind == "short":
                row = row[: draw(st.integers(1, len(row) - 1))]
            elif kind == "long":
                row += draw(st.lists(st.sampled_from(["0.5", "junk", ""]), min_size=1, max_size=2))
            lines.append(",".join(row))
    lines = draw(st.permutations(lines))
    return "\n".join([",".join(header), *lines]) + draw(st.sampled_from(["", "\n"]))


class TestCrosswalkReference:
    """The crosswalk read into areas against the row-by-row reference."""

    @settings(max_examples=300, deadline=None)
    @given(text=raw_crosswalks())
    def test_areas_and_rejects_match_reference(self, text):
        assert read_outcome(parse_crosswalk, io.StringIO(text)) == read_outcome(
            parse_crosswalk_reference, text
        )
