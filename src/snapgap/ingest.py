"""Parse, clean, and normalize raw ZIP-level CSV panels and the ZIP-tract crosswalk.

Raw exports arrive as UTF-8 CSVs with arbitrary column headers; a schema map
translates logical field names to the headers actually present. A reader's
source is a path, opened as UTF-8, or a text stream. Cleaning is
conservative and auditable: sentinel codes become missing values,
out-of-range percentages are clipped, and every dropped row lands in a
reject report with its row number and reason. Nothing is silently discarded.

A panel travels as one `Panel` of numpy columns from the CSV reader to the
CSV writer; no per-row object is built. `parse_panel` reads the file in
chunks of rows, turns each chunk's cells into columns, converts each numeric
column in one call and builds rejects from per-row masks. `dedupe`,
`designate_all` and `write_records` work on the columns too. The crosswalk
is read straight into a ZIP -> area map (`parse_crosswalk`), each row adding
to its ZIP's urban or rural mass, so it builds no per-row object either.

Memory follows the panel's numbers, not its text. A chunk is
PARSE_CHUNK_ROWS = 1024 raw rows, about 12k Python strings against 98k for
8192 rows, which lowered a backtest job's peak RSS by 0.7 to 3.5 MB on the
benchmark workloads at about the same speed (see the constant).
`Panel.concat` joins the chunks one column at a time and releases that
column's pieces, so the chunks and the joined panel never exist whole side
by side, and `dedupe` keys each row by one integer.

Every CSV the package writes, the flagged CSVs too, is `csv_text` of a table
given by column: the text `csv.writer` writes, with each column's distinct
values rendered once and the cells joined into CRLF rows.
"""
from __future__ import annotations

import csv
import io
import itertools
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .errors import IoFailure, ValidationError

# Quality flags carried on each record.
FLAG_SENTINEL_RECODED = "SentinelRecoded"
FLAG_CLIPPED = "Clipped"
FLAG_DUPLICATE_AVERAGED = "DuplicateAveraged"
FLAG_SNAP_EXCEEDS_POVERTY = "SnapExceedsPoverty"

# String tokens treated as missing, in addition to any negative or non-finite
# numeric value (nan, inf).
SENTINEL_TOKENS = frozenset({"", "N/A", "NA"})

PREDICTOR_FIELDS = ("pct_no_vehicle", "pct_no_internet", "pct_no_computer", "pct_hs_only")

# Logical schema keys. `zip`..`snap_fam` must be mapped; the rest are optional.
REQUIRED_SCHEMA_KEYS = ("zip", "year", "pov_fam", "snap_fam")
OPTIONAL_SCHEMA_KEYS = PREDICTOR_FIELDS + ("fam_universe", "pov_rate", "area", "flags")

DEFAULT_YEAR_RANGE = (2014, 2023)

# Identity schema: logical names double as the CSV headers.
DEFAULT_SCHEMA = {key: key for key in REQUIRED_SCHEMA_KEYS + OPTIONAL_SCHEMA_KEYS}

# Raw rows read and converted at a time, so a file's strings are never all
# held: a chunk holds a Python string per cell. Against 8192, 1024 lowered a
# 30k-row parse's VmHWM from 40.8 to 36.3 MB at about the same speed, and a
# backtest job's peak RSS by 0.7 to 3.5 MB on the three benchmark workloads;
# neither 512 nor 2048 did better on all three (2-core Xeon VM).
PARSE_CHUNK_ROWS = 1024


class Area(str, Enum):
    URBAN = "Urban"
    RURAL = "Rural"
    MIXED = "Mixed"
    UNKNOWN = "Unknown"


# Tract status -> index of the ZIP mass its residential ratio adds to.
_MASS_INDEX = {Area.URBAN.value: 0, Area.RURAL.value: 1}

CROSSWALK_COLUMNS = ("zip", "tract_status", "res_ratio")


@dataclass
class Reject:
    row: int  # 1-based data-row number (header excluded)
    reason: str
    source: str = "panel"  # the file the row is in: "panel" or "crosswalk"


COUNT_FIELDS = ("pov_fam", "snap_fam", "fam_universe", "pov_rate")  # with the precomputed rate
NUMERIC_FIELDS = COUNT_FIELDS + PREDICTOR_FIELDS
PERCENT_FIELDS = frozenset(PREDICTOR_FIELDS)

# Bit of each flag that parsing derives from the values of a row.
_VALUE_FLAGS = ((1, FLAG_SENTINEL_RECODED), (2, FLAG_CLIPPED), (4, FLAG_SNAP_EXCEEDS_POVERTY))


@dataclass(frozen=True, eq=False)
class Panel:
    """ZIP-year observations as numpy columns, one entry per row.

    Counts may be missing after sentinel recoding; percentages are either in
    [0, 100] or missing; missing values are NaN. `fam_universe`/`pov_rate`
    are alternative sources for the poverty rate (universe preferred when
    both are present). `zip` (five digits), `area` (the area name) and
    `flags` (each row's frozenset of quality flags) are object arrays;
    `predictors` is the (n, 4) block of PREDICTOR_FIELDS in that order.
    """

    zip: np.ndarray
    year: np.ndarray
    area: np.ndarray
    flags: np.ndarray
    pov_fam: np.ndarray
    snap_fam: np.ndarray
    fam_universe: np.ndarray
    pov_rate: np.ndarray
    predictors: np.ndarray

    @classmethod
    def concat(cls, parts: Iterable[Panel]) -> Panel:
        """The rows of `parts` (at least one), in order. Each column is
        joined and its pieces released before the next, so, given a
        generator, the parts and the joined panel never exist whole at once."""
        pieces: dict[str, list[np.ndarray]] = {f.name: [] for f in fields(cls)}
        for part in parts:
            for name, column in pieces.items():
                column.append(getattr(part, name))
        return cls(**{name: np.concatenate(pieces.pop(name)) for name in list(pieces)})

    def __len__(self) -> int:
        return len(self.year)

    def take(self, rows: np.ndarray) -> Panel:
        """The panel restricted to `rows` (a boolean mask or an index array)."""
        return Panel(*(getattr(self, f.name)[rows] for f in fields(self)))


# ASCII digits only, between optional ASCII blanks, as for numbers: `\d`
# and `str.strip` would also take other scripts' digits and blanks.
_ZIP_RE = re.compile(r"\s*(\d+)(?:\.0|[-+]\d{1,4})?\s*", re.ASCII)


def normalize_zip(raw: str) -> str:
    """Normalize a ZIP/ZCTA token to exactly five digits.

    Left-pads short codes with zeros, strips a trailing +4 suffix, and
    tolerates spreadsheet float artifacts like "601.0".
    """
    match = _ZIP_RE.fullmatch(str(raw))
    if not match:
        raise ValidationError(f"not a ZIP code: {raw!r}")
    digits = match.group(1)
    if len(digits) > 5:
        raise ValidationError(f"ZIP has {len(digits)} digits after suffix strip: {raw!r}")
    return digits.zfill(5)


def _factorize(values: Iterable) -> tuple[list, np.ndarray]:
    """(distinct values in first-appearance order, each value's index among them)."""
    index: dict = {}
    codes = [index.setdefault(v, len(index)) for v in values]
    return list(index), np.array(codes, dtype=np.intp)


def _is_plain(text: str) -> bool:
    """Whether `text`, if `float()` reads it, is a plain ASCII decimal (or
    nan/inf): `float()` also reads digit-group underscores and non-ASCII
    digits and spaces."""
    return text.isascii() and "_" not in text


def _floats(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`float()` of every token (an object array of str) that is a plain
    ASCII decimal, and the mask of the others, NaN there. Empty and non-plain
    cells fail untried and the rest convert in one call, or one by one when
    another cell fails."""
    failed = tokens == ""
    values = np.full(len(tokens), np.nan)
    rest = np.flatnonzero(~failed)
    if not _is_plain("".join(tokens[rest].tolist())):
        odd = rest[[not _is_plain(t) for t in tokens[rest].tolist()]]
        failed[odd] = True
        rest = np.flatnonzero(~failed)
    try:
        values[rest] = tokens[rest].astype(float)
    except ValueError:
        for i in rest.tolist():
            try:
                values[i] = float(tokens[i])
            except ValueError:
                failed[i] = True
    return values, failed


@contextmanager
def _text_source(csv_source) -> Iterator[IO[str]]:
    """A text stream over a path (closed afterwards, and past the UTF-8
    byte-order mark of a spreadsheet's "CSV UTF-8" export) or a text stream,
    whose text that is not UTF-8 raises `IoFailure` wherever it is read."""
    if isinstance(csv_source, (str, Path)):
        try:
            stream = open(csv_source, "r", encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise IoFailure(f"cannot open {csv_source}: {exc}") from exc
    elif hasattr(csv_source, "read") and isinstance(csv_source.read(0), str):
        stream = nullcontext(csv_source)
    else:
        raise IoFailure(f"unsupported CSV source: {type(csv_source)!r}")
    try:
        with stream as text:
            yield text
    except UnicodeDecodeError as exc:
        raise IoFailure(f"CSV is not valid UTF-8: {exc}") from exc


def _named_once(header: list[str], columns: Iterable[str]) -> None:
    """Raise a `ValidationError` for any of `columns` that `header` repeats."""
    for column in columns:
        if (count := header.count(column)) > 1:
            raise ValidationError(f"column {column!r} appears {count} times in header")


def _is_blank(row: list[str]) -> bool:
    return not "".join(row).strip()


def _zip_entry(token: str) -> tuple[str | None, str | None]:
    """(normalized ZIP, None), or (None, reject reason)."""
    try:
        return normalize_zip(token), None
    except ValidationError as exc:
        return None, f"zip: {exc}"


def _parse_chunk(
    reader: Iterator[list[str]], first_row: int, positions: dict[str, int], width: int,
    year_range: tuple[int, int], zips: dict, rejects: list[Reject],
) -> tuple[Panel, int]:
    """The columns of the next PARSE_CHUNK_ROWS raw rows of `reader` (fewer
    at its end), numbered from `first_row`, and how many rows were read.

    A row gets at most one reject, the first of: a short or long row, the
    zip, a year that is not an integer, a year out of range, the first
    unparseable field in NUMERIC_FIELDS order, the area. Blank lines are
    skipped. `zips` keeps each ZIP token's normalization across chunks, so
    every row of a ZIP holds the same string.
    """
    rows = list(itertools.islice(reader, PARSE_CHUNK_ROWS))
    full = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)) == width
    for i in np.flatnonzero(~full).tolist():
        if not _is_blank(rows[i]):
            rejects.append(Reject(first_row + i, f"row: {len(rows[i])} fields, need {width}"))
    kept = np.flatnonzero(full)
    columns = list(zip(*itertools.compress(rows, full))) or [()] * width
    alive = np.ones(kept.size, dtype=bool)

    def column(logical: str) -> np.ndarray:
        return np.array(columns[positions[logical]], dtype=object)

    def reject(bad: np.ndarray, reason) -> None:
        """Drop the live rows in `bad`, each a reject unless `reason(i)` is None."""
        for i in np.flatnonzero(bad & alive).tolist():
            if (why := reason(i)) is not None:
                rejects.append(Reject(first_row + int(kept[i]), why))
        alive[bad] = False

    tokens, inv = _factorize(columns[positions["zip"]])
    entries = [zips[t] if t in zips else zips.setdefault(t, _zip_entry(t)) for t in tokens]
    zcta = np.array([z for z, _ in entries], dtype=object)[inv]
    bad = np.array([z is None for z, _ in entries], dtype=bool)[inv]
    reject(bad, lambda i: None if _is_blank(rows[kept[i]]) else entries[inv[i]][1])

    year_tokens = column("year")
    year, _ = _floats(year_tokens)
    not_integer = ~np.isfinite(year) | (year != np.floor(year))
    reject(not_integer, lambda i: f"year: not an integer: {year_tokens[i]!r}")
    lo, hi = year_range
    reject((year < lo) | (year > hi), lambda i: f"year: {int(year[i])} outside {lo}-{hi}")

    values: dict[str, np.ndarray] = {}
    recoded = np.zeros(kept.size, dtype=bool)
    clipped = np.zeros(kept.size, dtype=bool)
    for name in NUMERIC_FIELDS:
        if name not in positions:
            values[name] = np.full(kept.size, np.nan)
            continue
        tokens = column(name)
        value, failed = _floats(tokens)
        # a token float() rejects is blank (missing), a sentinel token or garbage
        odd, inv = _factorize(t.strip() for t in tokens[failed].tolist())
        missing = np.array([t.upper() in SENTINEL_TOKENS for t in odd], dtype=bool)[inv]
        recoded[failed] |= missing & np.array([t != "" for t in odd], dtype=bool)[inv]
        garbage = failed.copy()
        garbage[failed] = ~missing
        reject(garbage, lambda i: f"{name}: unparseable value {tokens[i]!r}")
        sentinel = ~failed & ((value < 0) | ~np.isfinite(value))
        value[sentinel] = np.nan
        recoded |= sentinel
        if name in PERCENT_FIELDS:
            over = value > 100.0
            value[over] = 100.0
            clipped |= over
        values[name] = value

    area = np.full(kept.size, Area.UNKNOWN.value, dtype=object)
    if "area" in positions:
        tokens, inv = _factorize(columns[positions["area"]])
        names = [t.strip() or Area.UNKNOWN.value for t in tokens]
        known = np.array([a in Area._value2member_map_ for a in names], dtype=bool)
        reject(~known[inv], lambda i: f"area: unknown value {tokens[inv[i]]!r}")
        area = np.array(names, dtype=object)[inv]

    # one flag set per distinct (flags cell, derived flags) pair
    pov, snap = values["pov_fam"], values["snap_fam"]
    bits = 1 * recoded + 2 * clipped + 4 * ((pov > 0) & (snap > pov))
    flag_cells = [""]
    if "flags" in positions:
        flag_cells, inv = _factorize(columns[positions["flags"]])
        bits = bits + 8 * inv
    keys, inv = np.unique(bits, return_inverse=True)
    flag_sets = [
        frozenset(t.strip() for t in flag_cells[key >> 3].split(";") if t.strip())
        | {flag for bit, flag in _VALUE_FLAGS if key & bit}
        for key in keys.tolist()
    ]
    return Panel(
        zip=zcta[alive],
        year=year[alive].astype(np.int64),
        area=area[alive],
        flags=np.array(flag_sets, dtype=object)[inv][alive],
        **{name: values[name][alive] for name in COUNT_FIELDS},
        predictors=np.column_stack([values[name] for name in PREDICTOR_FIELDS])[alive],
    ), len(rows)


def parse_panel(
    csv_source,
    schema: dict[str, str] | None = None,
    *,
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE,
) -> tuple[Panel, list[Reject]]:
    """Parse a raw comma-separated panel CSV into a validated `Panel` plus
    row-level rejects.

    `schema` maps logical names (zip, year, pov_fam, snap_fam, pct_*,
    fam_universe, pov_rate, area, flags) to the column headers of this export.
    Every mapped header must exist; zip/year/pov_fam/snap_fam must be mapped.
    With no schema, logical names double as headers and optional columns may
    simply be absent. A row with fewer or more fields than the header, a bad
    zip or year, an unparseable numeric cell or an unknown area is rejected
    with a reason (see `_parse_chunk`); other cells are cleaned in place,
    flagging a recoded sentinel or a clipped percentage. Panel rows keep
    file order.
    A schema that cannot apply raises before the source is read, and a
    header that names a mapped column twice before any data row is.
    """
    identity = schema is None
    schema = dict(DEFAULT_SCHEMA if identity else schema)
    for key in schema:
        if key not in DEFAULT_SCHEMA:
            raise ValidationError(f"schema maps unknown field {key!r}")
    for key in REQUIRED_SCHEMA_KEYS:
        if key not in schema:
            raise ValidationError(f"schema does not map required field {key!r}")

    with _text_source(csv_source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("CSV has no header row") from None

        if identity:
            schema = {
                key: col
                for key, col in schema.items()
                if col in header or key in REQUIRED_SCHEMA_KEYS
            }
        positions: dict[str, int] = {}
        for logical, column in schema.items():
            if column not in header:
                raise ValidationError(f"column {column!r} (field {logical!r}) not in header")
            positions[logical] = header.index(column)
        _named_once(header, schema.values())

        rejects: list[Reject] = []
        zips: dict[str, tuple[str | None, str | None]] = {}

        def parts() -> Iterator[Panel]:
            first_row, count = 1, PARSE_CHUNK_ROWS
            while count == PARSE_CHUNK_ROWS:  # a short chunk, even an empty one, is the last
                part, count = _parse_chunk(
                    reader, first_row, positions, len(header), year_range, zips, rejects
                )
                first_row += count
                yield part

        panel = Panel.concat(parts())

    rejects.sort(key=lambda r: r.row)
    return panel, rejects


def dedupe(panel: Panel) -> Panel:
    """Collapse a panel to at most one row per (zip, year).

    Exact duplicates are dropped first (missing values equal each other, and
    0.0 equals -0.0). Remaining conflicts have their numeric fields averaged,
    missing-aware and summed left to right in row order, keep the first
    row's area and are flagged DuplicateAveraged. Output preserves
    first-appearance order of each key; a panel with no repeated key is
    returned as it is.

    A key is one integer, from the ZIP's code by first appearance and the
    year's code: no Python tuple is built per row, and only the rows of
    repeated keys are compared cell by cell.
    """
    _, zip_codes = _factorize(panel.zip.tolist())
    years, year_codes = np.unique(panel.year, return_inverse=True)
    _, first, key_codes = np.unique(
        zip_codes * len(years) + year_codes, return_index=True, return_inverse=True
    )
    if len(first) == len(panel):
        return panel
    group = np.empty(len(first), dtype=np.intp)  # keys renumbered by first appearance
    group[np.argsort(first)] = np.arange(len(first))
    group = group[key_codes]
    numeric = np.column_stack([getattr(panel, name) for name in COUNT_FIELDS] + [panel.predictors])
    repeated = np.flatnonzero(np.bincount(group)[group] > 1)
    cells = [[None if v != v else v for v in column] for column in numeric[repeated].T.tolist()]
    distinct: dict[int, list[int]] = {}  # key -> its distinct rows, in row order
    seen: set = set()
    for i, values in zip(repeated.tolist(), zip(*cells)):
        identity = (group[i], panel.area[i], panel.flags[i], values)
        if identity not in seen:
            seen.add(identity)
            distinct.setdefault(int(group[i]), []).append(i)

    out = panel.take(np.sort(first))
    merged = np.column_stack([getattr(out, name) for name in COUNT_FIELDS] + [out.predictors])
    flags = out.flags.copy()
    for key, rows in distinct.items():
        if len(rows) == 1:
            continue
        total, count = np.zeros(merged.shape[1]), np.zeros(merged.shape[1])
        for values in numeric[rows]:  # left to right from 0.0, as sum() adds
            present = ~np.isnan(values)
            total[present] += values[present]
            count += present
        merged[key] = np.divide(total, count, out=np.full_like(total, np.nan), where=count > 0)
        flags[key] = frozenset().union(*panel.flags[rows]) | {FLAG_DUPLICATE_AVERAGED}
    columns = {name: merged[:, j].copy() for j, name in enumerate(COUNT_FIELDS)}
    return replace(out, flags=flags, predictors=merged[:, len(COUNT_FIELDS):].copy(), **columns)


def parse_crosswalk(csv_source) -> tuple[dict[str, str], list[Reject]]:
    """Read the ZIP-tract crosswalk CSV (columns: zip, tract_status,
    res_ratio) into each ZIP's area name, and the rejected rows in row order.

    No row is kept: each accepted row adds its res_ratio to its ZIP's urban
    or rural residential mass (the status read in any case, between blanks;
    any other status adds nothing), each mass summed from 0.0 in row order.
    The 0.80/0.20 rule then designates each ZIP: an urban share of the urban
    plus rural mass >= 0.80 is Urban, <= 0.20 Rural, between them Mixed, and
    no mass Unknown. A row is rejected for too few fields, then its zip, then
    a res_ratio that is not a plain ASCII decimal in [0, 1]; blank lines are
    skipped. Each distinct ZIP and status token is read once. A header that
    names one of the three columns twice raises before any row is read.
    """
    with _text_source(csv_source) as stream:
        reader = csv.reader(stream)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ValidationError("crosswalk CSV has no header row") from None
        for col in CROSSWALK_COLUMNS:
            if col not in header:
                raise ValidationError(f"crosswalk column {col!r} not in header")
        _named_once(header, CROSSWALK_COLUMNS)
        zi, si, ri = map(header.index, CROSSWALK_COLUMNS)
        width = max(zi, si, ri) + 1

        zips: dict[str, tuple[str | None, str | None]] = {}
        statuses: dict[str, int | None] = {}  # token -> index of its mass, None for neither
        masses: dict[str, list[float]] = {}  # ZIP -> [urban, rural]
        rejects: list[Reject] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) < width:
                if not _is_blank(row):
                    rejects.append(Reject(row_num, f"row: {len(row)} fields, need {width}", "crosswalk"))
                continue
            token = row[zi]
            zcta, reason = zips[token] if token in zips else zips.setdefault(token, _zip_entry(token))
            if zcta is None:
                if not _is_blank(row):  # a blank line's zip is blank
                    rejects.append(Reject(row_num, reason, "crosswalk"))
                continue
            text = row[ri]
            try:
                ratio = float(text) if _is_plain(text) else None
            except ValueError:
                ratio = None
            if ratio is None:
                rejects.append(Reject(row_num, f"res_ratio: unparseable {text!r}", "crosswalk"))
                continue
            if not 0.0 <= ratio <= 1.0:
                rejects.append(Reject(row_num, f"res_ratio: {ratio} outside [0,1]", "crosswalk"))
                continue
            token = row[si]
            if token not in statuses:
                statuses[token] = _MASS_INDEX.get(token.strip().capitalize())
            mass = masses.setdefault(zcta, [0.0, 0.0])
            if (status := statuses[token]) is not None:
                mass[status] += ratio

    areas: dict[str, str] = {}
    for zcta, (urban, rural) in masses.items():
        total = urban + rural
        if total <= 0.0:
            area = Area.UNKNOWN
        elif urban / total >= 0.80:
            area = Area.URBAN
        elif urban / total <= 0.20:
            area = Area.RURAL
        else:
            area = Area.MIXED
        areas[zcta] = area.value
    return areas, rejects


def designate_all(panel: Panel, areas: dict[str, str]) -> Panel:
    """Give every row its ZIP's area name from `areas`, as `parse_crosswalk`
    reads it (the 0.80/0.20 rule over the ZIP's urban and rural mass, summed
    in crosswalk row order), or Unknown for a ZIP it does not name. One
    designation applies to all years of a ZIP."""
    zips, inv = _factorize(panel.zip.tolist())
    names = [areas.get(z, Area.UNKNOWN.value) for z in zips]
    return replace(panel, area=np.array(names, dtype=object)[inv])


# --- serialization ---------------------------------------------------------

RECORD_COLUMNS = (
    "zip", "year", "pov_fam", "snap_fam", "fam_universe", "pov_rate",
    "pct_no_vehicle", "pct_no_internet", "pct_no_computer", "pct_hs_only", "area", "flags",
)


def _string_cells(values: list[str]) -> list[str]:
    """Each of `values` as `csv.writer` writes it among other cells of a row:
    one call writes them all, and one per value follows if any is quoted."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([*values, ""])
    if out.getvalue() == ",".join(values) + ",\r\n":
        return values
    cells = []
    for value in values:
        out.seek(0)
        out.truncate()
        writer.writerow([value, ""])
        cells.append(out.getvalue()[: -len(",\r\n")])
    return cells


def _scalar_text(value, float_text: Callable[[float], str]) -> str:
    """None and NaN blank, a float by `float_text`, an int by `str`."""
    if value is None or value != value:
        return ""
    return float_text(value) if isinstance(value, float) else str(value)


def _cells(column, float_text: Callable[[float], str]) -> list[str]:
    """The text of each cell of `column`, a numeric array or a sequence of
    str, int, float and None, each distinct value rendered once: an array's
    values told apart by their bits, so -0.0 keeps its sign, and a
    sequence's by value unless it holds floats or bools (0 == -0.0 == False),
    whose cells are rendered one by one."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        distinct, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        values = distinct.view(column.dtype)
        texts = list(map(float_text if column.dtype.kind == "f" else str, values.tolist()))
        texts = np.array(texts, dtype=object)
        texts[np.isnan(values)] = ""
        return texts[inverse].tolist()
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    by_value = set(map(type, cells)) <= {str, int, type(None)}
    distinct = set(cells) if by_value else {v for v in cells if v.__class__ is str}
    strings = [v for v in distinct if v.__class__ is str]
    texts = dict(zip(strings, _string_cells(strings)))
    if by_value:
        texts.update((v, _scalar_text(v, float_text)) for v in distinct if v.__class__ is not str)
        return list(map(texts.__getitem__, cells))
    return [texts[v] if v.__class__ is str else _scalar_text(v, float_text) for v in cells]


def csv_text(header: Iterable[str], columns: list, float_text: Callable[[float], str] = repr) -> str:
    """The text `csv.writer` (excel dialect, CRLF line ends) writes for
    `header` and the rows of `columns`, two or more of equal length, where a
    float is written by `float_text` and None and NaN are blank."""
    cells = [_cells(column, float_text) for column in columns]
    width, n = len(cells), len(cells[0])
    parts = [","] * (2 * width * n)
    for j, column in enumerate(cells):
        parts[2 * j :: 2 * width] = column
    parts[2 * width - 1 :: 2 * width] = ["\r\n"] * n
    return ",".join(_string_cells(list(header))) + "\r\n" + "".join(parts)


def write_csv(dest, header: Iterable[str], columns: list, float_text: Callable[[float], str] = repr) -> None:
    """Write `csv_text(header, columns, float_text)` to `dest`, a path
    (as UTF-8) or a text stream opened with `newline=""`."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return write_csv(fh, header, columns, float_text)
    dest.write(csv_text(header, columns, float_text))


def flag_cells(flags: np.ndarray) -> list[str]:
    """Each row's flag set sorted and joined by ";", rendering each set once."""
    flags = flags.tolist()
    joined = {key: ";".join(sorted(key)) for key in set(flags)}
    return [joined[key] for key in flags]


def _integral_or_repr(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


def write_records(panel: Panel, dest) -> None:
    """Write a panel as CSV with identity headers; re-parsing round-trips.
    A number with an integral value has no decimal point."""
    numbers = [*(getattr(panel, name) for name in COUNT_FIELDS), *panel.predictors.T]
    columns = [panel.zip, panel.year, *numbers, panel.area, flag_cells(panel.flags)]
    write_csv(dest, RECORD_COLUMNS, columns, _integral_or_repr)


def write_rejects(rejects: list[Reject], dest) -> None:
    """Write the reject report as CSV with columns (source, row, reason)."""
    columns = [[getattr(rej, name) for rej in rejects] for name in ("source", "row", "reason")]
    write_csv(dest, ["source", "row", "reason"], columns)
