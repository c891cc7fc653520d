"""Parse, clean, and normalize raw ZIP-level CSV panels and the ZIP-tract crosswalk.

Raw exports arrive as UTF-8 CSVs with arbitrary column headers; a schema map
translates logical field names to the headers actually present. Cleaning is
conservative and auditable: sentinel codes become missing values, out-of-range
percentages are clipped, and every dropped row lands in a reject report with
its row number and reason. Nothing is silently discarded.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

from .errors import (
    EmptyInput,
    LengthOverflow,
    MissingColumn,
    NonNumericZip,
    UnreadableStream,
)

# Quality flags carried on each record.
FLAG_SENTINEL_RECODED = "SentinelRecoded"
FLAG_CLIPPED = "Clipped"
FLAG_DUPLICATE_AVERAGED = "DuplicateAveraged"
FLAG_SNAP_EXCEEDS_POVERTY = "SnapExceedsPoverty"

KNOWN_FLAGS = frozenset(
    {FLAG_SENTINEL_RECODED, FLAG_CLIPPED, FLAG_DUPLICATE_AVERAGED, FLAG_SNAP_EXCEEDS_POVERTY}
)

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


class Area(str, Enum):
    URBAN = "Urban"
    RURAL = "Rural"
    MIXED = "Mixed"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ZipRecord:
    """One geographic unit-period observation.

    Counts may be missing after sentinel recoding; percentages are either in
    [0, 100] or missing. `fam_universe`/`pov_rate` are alternative sources for
    the poverty rate (universe preferred when both are present).
    """

    zip: str
    year: int
    pov_fam: float | None
    snap_fam: float | None
    fam_universe: float | None = None
    pov_rate: float | None = None
    pct_no_vehicle: float | None = None
    pct_no_internet: float | None = None
    pct_no_computer: float | None = None
    pct_hs_only: float | None = None
    area: Area = Area.UNKNOWN
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class CrosswalkRow:
    zip: str
    tract_status: Area  # Urban / Rural / Unknown
    res_ratio: float


@dataclass
class Reject:
    row: int  # 1-based data-row number (header excluded)
    reason: str


NUMERIC_FIELDS = ("pov_fam", "snap_fam", "fam_universe", "pov_rate") + PREDICTOR_FIELDS
PERCENT_FIELDS = frozenset(PREDICTOR_FIELDS)

_ZIP_RE = re.compile(r"^(\d+)(?:[-+]\d{1,4})?$")


def normalize_zip(raw: str) -> str:
    """Normalize a ZIP/ZCTA token to exactly five digits.

    Left-pads short codes with zeros, strips a trailing +4 suffix, and
    tolerates spreadsheet float artifacts like "601.0".
    """
    token = str(raw).strip()
    if token.endswith(".0"):
        head = token[:-2]
        if head.isdigit():
            token = head
    match = _ZIP_RE.match(token)
    if not match:
        raise NonNumericZip(f"not a ZIP code: {raw!r}")
    digits = match.group(1)
    if len(digits) > 5:
        raise LengthOverflow(f"ZIP has {len(digits)} digits after suffix strip: {raw!r}")
    return digits.zfill(5)


def _parse_number(token: str) -> tuple[float | None, bool]:
    """Return (value, was_sentinel). Raises ValueError on non-numeric garbage.

    Negative values and the non-finite tokens `float` accepts (nan, inf,
    -inf, infinity) are sentinels, not values.
    """
    token = token.strip()
    if token.upper() in SENTINEL_TOKENS or token in SENTINEL_TOKENS:
        return None, True
    value = float(token)  # ValueError propagates to the caller
    if value < 0 or not math.isfinite(value):
        return None, True
    return value, False


def _open_text(csv_source) -> IO[str]:
    if isinstance(csv_source, (str, Path)):
        try:
            return open(csv_source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise UnreadableStream(f"cannot open {csv_source}: {exc}") from exc
    if isinstance(csv_source, bytes):
        return io.StringIO(csv_source.decode("utf-8"))
    if hasattr(csv_source, "read"):
        probe = csv_source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(csv_source, encoding="utf-8", newline="")
        return csv_source
    raise UnreadableStream(f"unsupported CSV source: {type(csv_source)!r}")


def parse_panel(
    csv_source,
    schema: dict[str, str] | None = None,
    *,
    delimiter: str = ",",
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE,
) -> tuple[list[ZipRecord], list[Reject]]:
    """Parse a raw panel CSV into validated ZipRecords plus row-level rejects.

    `schema` maps logical names (zip, year, pov_fam, snap_fam, pct_*,
    fam_universe, pov_rate, area, flags) to the column headers of this export.
    Every mapped header must exist; zip/year/pov_fam/snap_fam must be mapped.
    With no schema, logical names double as headers and optional columns may
    simply be absent. Rows that cannot be keyed (bad zip or year) are rejected
    with a reason; cleaning of field values never drops a row.
    """
    identity = schema is None
    schema = dict(DEFAULT_SCHEMA if identity else schema)
    for key in REQUIRED_SCHEMA_KEYS:
        if key not in schema:
            raise MissingColumn(f"schema does not map required field {key!r}")

    stream = _open_text(csv_source)
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput("CSV has no header row") from None
        except UnicodeDecodeError as exc:
            raise UnreadableStream(f"CSV is not valid UTF-8: {exc}") from exc

        if identity:
            schema = {
                key: col
                for key, col in schema.items()
                if col in header or key in REQUIRED_SCHEMA_KEYS
            }
        positions: dict[str, int] = {}
        for logical, column in schema.items():
            if column not in header:
                raise MissingColumn(f"column {column!r} (field {logical!r}) not in header")
            positions[logical] = header.index(column)

        records: list[ZipRecord] = []
        rejects: list[Reject] = []
        lo_year, hi_year = year_range

        try:
            for row_num, row in enumerate(reader, start=1):
                if not any(cell.strip() for cell in row):
                    continue  # blank line, not a data row

                def cell(logical: str) -> str:
                    idx = positions.get(logical)
                    if idx is None or idx >= len(row):
                        return ""
                    return row[idx]

                try:
                    zcta = normalize_zip(cell("zip"))
                except (NonNumericZip, LengthOverflow) as exc:
                    rejects.append(Reject(row_num, f"zip: {exc}"))
                    continue

                try:
                    year_value = float(cell("year"))
                except ValueError:
                    year_value = math.nan
                if not year_value.is_integer():  # also nan and +-inf
                    rejects.append(Reject(row_num, f"year: not an integer: {cell('year')!r}"))
                    continue
                year = int(year_value)
                if not lo_year <= year <= hi_year:
                    rejects.append(Reject(row_num, f"year: {year} outside {lo_year}-{hi_year}"))
                    continue

                values: dict[str, float | None] = {}
                flags: set[str] = set()
                bad_field = None
                for name in NUMERIC_FIELDS:
                    if name not in positions:
                        values[name] = None
                        continue
                    try:
                        value, sentinel = _parse_number(cell(name))
                    except ValueError:
                        bad_field = (name, cell(name))
                        break
                    if sentinel and cell(name).strip() != "":
                        flags.add(FLAG_SENTINEL_RECODED)
                    if value is not None and name in PERCENT_FIELDS and value > 100.0:
                        value = 100.0
                        flags.add(FLAG_CLIPPED)
                    values[name] = value
                if bad_field is not None:
                    rejects.append(
                        Reject(row_num, f"{bad_field[0]}: unparseable value {bad_field[1]!r}")
                    )
                    continue

                area = Area.UNKNOWN
                if "area" in positions and cell("area").strip():
                    try:
                        area = Area(cell("area").strip())
                    except ValueError:
                        rejects.append(Reject(row_num, f"area: unknown value {cell('area')!r}"))
                        continue

                if "flags" in positions and cell("flags").strip():
                    for token in cell("flags").split(";"):
                        token = token.strip()
                        if token:
                            flags.add(token)

                pov, snap = values["pov_fam"], values["snap_fam"]
                if pov is not None and snap is not None and pov > 0 and snap > pov:
                    flags.add(FLAG_SNAP_EXCEEDS_POVERTY)

                records.append(
                    ZipRecord(
                        zip=zcta,
                        year=year,
                        pov_fam=pov,
                        snap_fam=snap,
                        fam_universe=values["fam_universe"],
                        pov_rate=values["pov_rate"],
                        pct_no_vehicle=values["pct_no_vehicle"],
                        pct_no_internet=values["pct_no_internet"],
                        pct_no_computer=values["pct_no_computer"],
                        pct_hs_only=values["pct_hs_only"],
                        area=area,
                        flags=frozenset(flags),
                    )
                )
        except UnicodeDecodeError as exc:
            raise UnreadableStream(f"CSV is not valid UTF-8: {exc}") from exc
    finally:
        if isinstance(csv_source, (str, Path)):
            stream.close()

    return records, rejects


def _mean_or_none(values: Iterable[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)


def dedupe(records: list[ZipRecord]) -> list[ZipRecord]:
    """Collapse records to at most one per (zip, year).

    Exact duplicates are dropped first; remaining conflicts have their numeric
    fields averaged (missing-aware) and are flagged DuplicateAveraged. Output
    preserves first-appearance order of each key.
    """
    groups: dict[tuple[str, int], list[ZipRecord]] = {}
    order: list[tuple[str, int]] = []
    for rec in records:
        key = (rec.zip, rec.year)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)

    out: list[ZipRecord] = []
    for key in order:
        group = groups[key]
        distinct: list[ZipRecord] = []
        for rec in group:
            if rec not in distinct:
                distinct.append(rec)
        if len(distinct) == 1:
            out.append(distinct[0])
            continue
        merged = {
            name: _mean_or_none(getattr(r, name) for r in distinct) for name in NUMERIC_FIELDS
        }
        flags = frozenset().union(*(r.flags for r in distinct)) | {FLAG_DUPLICATE_AVERAGED}
        base = distinct[0]
        out.append(replace(base, **merged, flags=flags))
    return out


def parse_crosswalk(
    csv_source, *, delimiter: str = ","
) -> tuple[list[CrosswalkRow], list[Reject]]:
    """Parse the ZIP-tract crosswalk CSV (columns: zip, tract_status, res_ratio)."""
    stream = _open_text(csv_source)
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise EmptyInput("crosswalk CSV has no header row") from None
        for col in ("zip", "tract_status", "res_ratio"):
            if col not in header:
                raise MissingColumn(f"crosswalk column {col!r} not in header")
        zi, si, ri = header.index("zip"), header.index("tract_status"), header.index("res_ratio")
        width = max(zi, si, ri) + 1

        rows: list[CrosswalkRow] = []
        rejects: list[Reject] = []
        for row_num, row in enumerate(reader, start=1):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) < width:
                rejects.append(Reject(row_num, f"row: {len(row)} fields, need {width}"))
                continue
            try:
                zcta = normalize_zip(row[zi])
            except (NonNumericZip, LengthOverflow) as exc:
                rejects.append(Reject(row_num, f"zip: {exc}"))
                continue
            status_token = row[si].strip().capitalize()
            if status_token in (Area.URBAN.value, Area.RURAL.value):
                status = Area(status_token)
            else:
                status = Area.UNKNOWN
            try:
                ratio = float(row[ri])
            except ValueError:
                rejects.append(Reject(row_num, f"res_ratio: unparseable {row[ri]!r}"))
                continue
            if not 0.0 <= ratio <= 1.0:
                rejects.append(Reject(row_num, f"res_ratio: {ratio} outside [0,1]"))
                continue
            rows.append(CrosswalkRow(zip=zcta, tract_status=status, res_ratio=ratio))
    finally:
        if isinstance(csv_source, (str, Path)):
            stream.close()
    return rows, rejects


def designate_area(zcta: str, crosswalk: Iterable[CrosswalkRow]) -> Area:
    """Designate one ZIP from its crosswalk rows using the 0.80/0.20 rule.

    Residential mass is summed by tract status; Unknown-status mass is
    excluded from the denominator. Urban share >= 0.80 -> Urban, <= 0.20 ->
    Rural, otherwise Mixed. No rows or no urban+rural mass -> Unknown.
    Row order never matters.
    """
    urban = rural = 0.0
    for row in crosswalk:
        if row.zip != zcta:
            continue
        if row.tract_status is Area.URBAN:
            urban += row.res_ratio
        elif row.tract_status is Area.RURAL:
            rural += row.res_ratio
    mass = urban + rural
    if mass <= 0.0:
        return Area.UNKNOWN
    share = urban / mass
    if share >= 0.80:
        return Area.URBAN
    if share <= 0.20:
        return Area.RURAL
    return Area.MIXED


def designate_all(
    records: list[ZipRecord], crosswalk: list[CrosswalkRow]
) -> list[ZipRecord]:
    """Apply a fixed, crosswalk-derived area designation to every record.

    Designation is computed once per ZIP from the reference crosswalk and
    applied to all years of that ZIP.
    """
    by_zip: dict[str, list[CrosswalkRow]] = {}
    for row in crosswalk:
        by_zip.setdefault(row.zip, []).append(row)
    cache: dict[str, Area] = {}
    out = []
    for rec in records:
        if rec.zip not in cache:
            cache[rec.zip] = designate_area(rec.zip, by_zip.get(rec.zip, []))
        out.append(replace(rec, area=cache[rec.zip]))
    return out


# --- serialization ---------------------------------------------------------

RECORD_COLUMNS = [f.name for f in fields(ZipRecord)]


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Area):
        return value.value
    if isinstance(value, frozenset):
        return ";".join(sorted(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def write_records(records: Iterable[ZipRecord], dest) -> None:
    """Write records as CSV with identity headers; re-parsing round-trips."""
    close = False
    if isinstance(dest, (str, Path)):
        dest = open(dest, "w", encoding="utf-8", newline="")
        close = True
    try:
        writer = csv.writer(dest)
        writer.writerow(RECORD_COLUMNS)
        for rec in records:
            writer.writerow([_format_value(getattr(rec, name)) for name in RECORD_COLUMNS])
    finally:
        if close:
            dest.close()


def write_rejects(rejects: Iterable[Reject], dest) -> None:
    """Write the reject report as CSV with columns (row, reason)."""
    close = False
    if isinstance(dest, (str, Path)):
        dest = open(dest, "w", encoding="utf-8", newline="")
        close = True
    try:
        writer = csv.writer(dest)
        writer.writerow(["row", "reason"])
        for rej in rejects:
            writer.writerow([rej.row, rej.reason])
    finally:
        if close:
            dest.close()
