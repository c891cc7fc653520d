"""Render a run manifest into JSON, CSV, and Markdown report files.

Machine formats (JSON, CSV) carry full-precision fractions and agree
field-for-field; the Markdown tables show percentages scaled by 100 with one
decimal, with near-zero top-of-list precision shown as a dash.

A manifest body's flagged lists are `jsonio.RowTable`s of ZIP, year and
probability columns, in a fresh manifest and in a saved one alike:
`manifest_body` checks a loaded manifest, its shape and that its body
hashes to its `manifest_digest`, and turns its flagged lists into row
tables, so one path renders both. `manifest.json` goes through
`jsonio.save_json`, which streams the text of
`json.dump(plain(body), fh, sort_keys=True, indent=2)` plus a newline, byte
for byte, with the C JSON encoder and the row tables rendered from their
columns. The flagged CSVs are rendered from the columns too, with the bytes
`csv.writer` writes for the rows: excel dialect, `\r\n` line ends, a ZIP
quoted only where `csv` quotes it, and each float written with `repr`, as
the other CSVs do explicitly, so every float cell reads back to the same
bits.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoFailure, ValidationError
from .jsonio import RowTable, save_json
from .pipeline import MANIFEST_FORMAT, digest_of

FORMAT_JSON = "json"
FORMAT_CSV = "csv"
FORMAT_MARKDOWN = "markdown"
ALL_FORMATS = (FORMAT_JSON, FORMAT_CSV, FORMAT_MARKDOWN)

METRIC_COLUMNS = ["auc", "ap", "precision", "recall", "f1", "accuracy"]
PCT_AT_KEYS = ["0.01", "0.05"]

# Display-only cutoff: fractions below 0.05% render as a dash in Markdown.
DASH_BELOW = 0.0005


def _fmt_pct(value: float | None) -> str:
    if value is None:
        return "--"
    return f"{value * 100:.1f}"


def _fmt_pct_dash(value: float | None) -> str:
    if value is None or value < DASH_BELOW:
        return "--"
    return f"{value * 100:.1f}"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


def _metric_rows(manifest_body: dict) -> list[dict]:
    rows = []
    for cohort, cdata in sorted(manifest_body.get("cohorts", {}).items()):
        for label, detail in sorted(cdata.get("models", {}).items()):
            if "error" in detail:
                rows.append({"cohort": cohort, "model": label, "error": detail["error"]})
                continue
            ev = detail["eval"]
            row = {"cohort": cohort, "model": label}
            for col in METRIC_COLUMNS:
                row[col] = ev[col]
            for key in PCT_AT_KEYS:
                row[f"precision_at_{key}"] = ev["precision_at"].get(key)
            rows.append(row)
    return rows


def write_metrics_csv(manifest_body: dict, path: Path) -> None:
    header = ["cohort", "model"] + METRIC_COLUMNS + [f"precision_at_{k}" for k in PCT_AT_KEYS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in _metric_rows(manifest_body):
            if "error" in row:
                continue
            writer.writerow([row["cohort"], row["model"]] + [repr(row[c]) for c in header[2:]])


def write_thresholds_csv(manifest_body: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "subset", "tau_hi", "tau_lo", "prevalence"])
        for period in ("p1", "p2"):
            summary = manifest_body["periods"][period]
            for key, th in sorted(summary["thresholds"].items()):
                prev = summary["prevalences"].get(key)
                writer.writerow([period, key, repr(th["tau_hi"]), repr(th["tau_lo"]), repr(prev)])


def write_yearly_csv(manifest_body: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "n_rows", "n_eligible", "tau_hi", "tau_lo", "prevalence", "anomaly_rows"])
        for row in manifest_body.get("yearly", []):
            writer.writerow(
                [
                    row["year"],
                    row["n_rows"],
                    row["n_eligible"],
                    "" if row["tau_hi"] is None else repr(row["tau_hi"]),
                    "" if row["tau_lo"] is None else repr(row["tau_lo"]),
                    "" if row["prevalence"] is None else repr(row["prevalence"]),
                    row["anomaly_rows"],
                ]
            )


FLAGGED_HEADER = ["zip", "year", "calibrated_probability"]
RELIABILITY_KEYS = ["bin_center", "mean_predicted", "observed_rate", "count"]


def _csv_cells(values: list[str]) -> list[str]:
    """Each of `values` as `csv.writer` writes it among other cells of a row:
    as it is, unless `csv` quotes it."""
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


def _write_flagged(detail: dict, fh) -> None:
    csv.writer(fh).writerow(FLAGGED_HEADER)
    fh.write(detail["flagged"].text("", ",", "\r\n", "", _csv_cells))


def _write_reliability(detail: dict, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(RELIABILITY_KEYS)
    writer.writerows(
        [
            repr(row["bin_center"]),
            repr(row["mean_predicted"]),
            repr(row["observed_rate"]),
            row["count"],
        ]
        for row in detail["reliability"]
    )


# Per-model CSV files: name prefix, and the writer of one model's file.
MODEL_CSVS = (("flagged", _write_flagged), ("reliability", _write_reliability))


def write_model_csvs(manifest_body: dict, outdir: Path) -> list[Path]:
    """One CSV per fitted model and MODEL_CSVS entry; failed models are skipped."""
    models = [
        (cohort, label, detail)
        for cohort, cdata in sorted(manifest_body.get("cohorts", {}).items())
        for label, detail in sorted(cdata.get("models", {}).items())
        if "error" not in detail
    ]
    paths = []
    for prefix, write in MODEL_CSVS:
        for cohort, label, detail in models:
            path = outdir / f"{prefix}_{_slug(cohort)}_{_slug(label)}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write(detail, fh)
            paths.append(path)
    return paths


def render_markdown(manifest_body: dict) -> str:
    lines = ["# Backtest report", ""]
    lines.append(f"- seed: {manifest_body['seed']}")
    lines.append(f"- config hash: `{manifest_body['config_hash']}`")
    lines.append(f"- manifest digest: `{manifest_body['manifest_digest']}`")
    lines.append("")

    lines.append("## Out-of-time performance (all values x100)")
    lines.append("")
    lines.append("| Cohort | Model | AUC | AP | Precision | Recall | F1 | Accuracy | Pre@1% / Pre@5% |")
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for row in _metric_rows(manifest_body):
        if "error" in row:
            lines.append(f"| {row['cohort']} | {row['model']} | error: {row['error']} |||||||")
            continue
        at1 = _fmt_pct_dash(row["precision_at_0.01"])
        at5 = _fmt_pct_dash(row["precision_at_0.05"])
        lines.append(
            "| {cohort} | {model} | {auc} | {ap} | {precision} | {recall} | {f1} | {accuracy} | {at} |".format(
                cohort=row["cohort"],
                model=row["model"],
                auc=_fmt_pct(row["auc"]),
                ap=_fmt_pct(row["ap"]),
                precision=_fmt_pct(row["precision"]),
                recall=_fmt_pct(row["recall"]),
                f1=_fmt_pct(row["f1"]),
                accuracy=_fmt_pct(row["accuracy"]),
                at=f"{at1} / {at5}",
            )
        )
    lines.append("")

    lines.append("## Thresholds and prevalence")
    lines.append("")
    lines.append("| Period | Subset | tau_hi | tau_lo | Prevalence |")
    lines.append("|---|---|---|---|---|")
    for period in ("p1", "p2"):
        summary = manifest_body["periods"][period]
        for key, th in sorted(summary["thresholds"].items()):
            prev = summary["prevalences"].get(key)
            lines.append(
                f"| {period.upper()} | {key} | {_fmt_pct(th['tau_hi'])} | "
                f"{th['tau_lo']:.3f} | {_fmt_pct(prev)} |"
            )
    lines.append("")

    lines.append("## Fragile-row distribution by area")
    lines.append("")
    lines.append("| Period | Group | Area | Count | Share |")
    lines.append("|---|---|---|---|---|")
    for period in ("p1", "p2"):
        dist = manifest_body.get("fragile_distribution", {}).get(period, {})
        for group, gdata in sorted(dist.items()):
            if "error" in gdata:
                continue
            for area, adata in gdata["by_area"].items():
                lines.append(
                    f"| {period.upper()} | bottom {float(group):.0%} | {area} "
                    f"| {adata['count']} | {_fmt_pct(adata['share'])} |"
                )
    lines.append("")

    lines.append("## Yearly diagnostics")
    lines.append("")
    lines.append("| Year | Rows | Eligible | tau_hi | tau_lo | Prevalence | Anomalies |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in manifest_body.get("yearly", []):
        tau_hi = "--" if row["tau_hi"] is None else _fmt_pct(row["tau_hi"])
        tau_lo = "--" if row["tau_lo"] is None else f"{row['tau_lo']:.3f}"
        prev = "--" if row["prevalence"] is None else _fmt_pct(row["prevalence"])
        lines.append(
            f"| {row['year']} | {row['n_rows']} | {row['n_eligible']} | {tau_hi} "
            f"| {tau_lo} | {prev} | {row['anomaly_rows']} |"
        )
    lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class _Each:
    """An object whose every value has `shape`, and every key passes `key`."""

    shape: object
    key: type = str


@dataclass(frozen=True)
class _OrError:
    """An object holding "error", or one of `shape`."""

    shape: object


_FLAGGED = object()  # a list of [str, int, float] rows, read as a RowTable
_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
_PERIOD = {
    "thresholds": _Each({"tau_hi": _NUMBER_OR_NULL, "tau_lo": _NUMBER}),
    "prevalences": _Each(_NUMBER_OR_NULL),
}
_MODEL = {
    "eval": {
        **dict.fromkeys(METRIC_COLUMNS, _NUMBER_OR_NULL),
        "precision_at": _Each(_NUMBER_OR_NULL),
    },
    "reliability": [dict.fromkeys(RELIABILITY_KEYS, object)],
    "flagged": _FLAGGED,
}
_AREA_SHARES = _Each(
    _OrError({"by_area": _Each({"count": object, "share": _NUMBER_OR_NULL})}), key=float
)

# What the renderers read of a manifest body. A shape is a type or tuple of
# types; a dict of keys and their shapes, where a key ending in "?" may be
# missing; a one-item list, for a list of items of that shape; `_Each`,
# `_OrError` or `_FLAGGED`.
MANIFEST_SHAPE = {
    "seed": object,
    "config_hash": object,
    "manifest_digest": object,
    "periods": {"p1": _PERIOD, "p2": _PERIOD},
    "cohorts?": _Each({"models?": _Each(_OrError(_MODEL))}),
    "fragile_distribution?": {"p1?": _AREA_SHARES, "p2?": _AREA_SHARES},
    "yearly?": [
        {
            **dict.fromkeys(("year", "n_rows", "n_eligible", "anomaly_rows"), object),
            **dict.fromkeys(("tau_hi", "tau_lo", "prevalence"), _NUMBER_OR_NULL),
        }
    ],
}


def manifest_body(data) -> dict:
    """The body of a saved manifest from its JSON data `data`, with its
    flagged lists as row tables. Raises a `ValidationError` naming the first
    part the renderers cannot read, unless `data` is a manifest object of
    format `MANIFEST_FORMAT`, or naming both digests when the body without
    its `manifest_digest` does not hash to that digest: a report never shows
    numbers a run did not produce under the digest it prints."""
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ValidationError(f"not a manifest: expected an object with format {MANIFEST_FORMAT!r}")
    body = _read(data, MANIFEST_SHAPE, "manifest")
    recorded = data["manifest_digest"]
    try:
        actual = digest_of({key: value for key, value in data.items() if key != "manifest_digest"})
    except ValueError:  # NaN or an infinity, which no run writes
        raise ValidationError("manifest: expected finite numbers") from None
    if actual != recorded:
        raise ValidationError(
            f"manifest: the body digests to {actual}, not to its manifest_digest {recorded}"
        )
    return body


def _read(value, shape, where: str):
    """`value`, checked to have `shape`, with its flagged lists as row tables."""

    def fail(what: str):
        return ValidationError(f"{where}: expected {what}")

    if shape is _FLAGGED:
        return _flagged_table(value, fail)
    if isinstance(shape, _OrError):
        if isinstance(value, dict) and "error" in value:
            return value
        shape = shape.shape
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise fail("a list")
        return [_read(item, shape[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(shape, (dict, _Each)):
        if not isinstance(value, dict):
            raise fail("an object")
        if isinstance(shape, _Each):
            for key in value:
                try:
                    shape.key(key)
                except ValueError:
                    raise fail(f"keys that read as {shape.key.__name__}, not {key!r}") from None
            return {key: _read(item, shape.shape, f"{where}.{key}") for key, item in value.items()}
        out = dict(value)
        for key, item_shape in shape.items():
            name = key.removesuffix("?")
            if name in value:
                out[name] = _read(value[name], item_shape, f"{where}.{name}")
            elif name == key:
                raise fail(f"a key {name!r}")
        return out
    if not isinstance(value, shape):
        raise fail("a number" if shape == _NUMBER else "a number or null")
    return value


def _flagged_table(rows, fail) -> RowTable:
    if not isinstance(rows, list) or not all(
        type(row) is list
        and len(row) == 3
        and type(row[0]) is str
        and type(row[1]) is int
        and type(row[2]) is float
        for row in rows
    ):
        raise fail("a list of [zip, year, probability] rows of a string, an integer and a float")
    zips, years, probs = zip(*rows) if rows else ((), (), ())
    try:
        years = np.array(years, dtype=np.int64)
    except OverflowError:
        raise fail("years that fit in 64 bits") from None
    return RowTable(np.array(zips, dtype=object), years, np.array(probs, dtype=np.float64))


def emit_report(manifest, formats, outdir) -> list[Path]:
    """Write the requested formats into outdir; returns written paths.

    `manifest` may be a RunManifest or its body dict, whose flagged lists
    are row tables (see `manifest_body` for a saved one).
    """
    body = manifest.body if hasattr(manifest, "body") else manifest
    for fmt in formats:
        if fmt not in ALL_FORMATS:
            raise ValidationError(f"unknown report format {fmt!r}")
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        if FORMAT_JSON in formats:
            path = outdir / "manifest.json"
            save_json(body, path)
            written.append(path)
        if FORMAT_CSV in formats:
            for name, writer in (
                ("metrics.csv", write_metrics_csv),
                ("thresholds.csv", write_thresholds_csv),
                ("yearly.csv", write_yearly_csv),
            ):
                path = outdir / name
                writer(body, path)
                written.append(path)
            written.extend(write_model_csvs(body, outdir))
        if FORMAT_MARKDOWN in formats:
            path = outdir / "report.md"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_markdown(body))
            written.append(path)
        return written
    except OSError as exc:
        raise IoFailure(f"failed writing report to {outdir}: {exc}") from exc
