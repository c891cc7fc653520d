"""Render a run manifest into JSON, CSV, and Markdown report files.

Machine formats (JSON, CSV) carry full-precision fractions and agree
field-for-field; the Markdown tables show percentages scaled by 100 with one
decimal, with near-zero top-of-list precision shown as a dash.

The renderers take a manifest body, a fresh one or a saved one that
`manifest_body` has checked: its shape, and that the body hashes to its
`manifest_digest`. `manifest.json` is the body as `jsonio.save_json`
writes it, so `json.load` gives back the dict that `pipeline.digest_of`
hashed. A model's flagged rows are not in the body: the task that
evaluated the model rendered them into its flagged CSV (see `pipeline`),
and the body's `flagged` entry holds that file's name, row count and
sha256, so the digest covers the rows through the sha256. `emit_report`
writes each flagged CSV the body names from its bytes, on every run and
whatever formats it is asked for: a backtest's bytes from
`RunManifest.flagged_csvs`, a saved manifest's from the files beside it,
which `flagged_csvs` reads and checks against their entries. The other
CSVs write each float with `repr`, so every float cell reads back to the
same bits.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import IoFailure, ValidationError
from .jsonio import save_json
from .pipeline import MANIFEST_FORMAT, digest_of, model_file, sha256

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


def _threshold_rows(manifest_body: dict) -> list[tuple]:
    """(period, subset, tau_hi, tau_lo, prevalence) of each period's
    thresholds; the prevalence is None for a subset with no labeled row."""
    rows = []
    for period in ("p1", "p2"):
        summary = manifest_body["periods"][period]
        for key, th in sorted(summary["thresholds"].items()):
            rows.append((period, key, th["tau_hi"], th["tau_lo"], summary["prevalences"].get(key)))
    return rows


def write_thresholds_csv(manifest_body: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "subset", "tau_hi", "tau_lo", "prevalence"])
        for period, key, *values in _threshold_rows(manifest_body):
            writer.writerow([period, key, *map(repr, values)])


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


RELIABILITY_KEYS = ["bin_center", "mean_predicted", "observed_rate", "count"]


def _fitted_models(manifest_body: dict) -> list[tuple[str, str, dict]]:
    """(cohort, model label, entry) of each fitted model; failed models are
    skipped."""
    return [
        (cohort, label, detail)
        for cohort, cdata in sorted(manifest_body.get("cohorts", {}).items())
        for label, detail in sorted(cdata.get("models", {}).items())
        if "error" not in detail
    ]


def write_reliability_csvs(manifest_body: dict, outdir: Path) -> list[Path]:
    """One reliability CSV per fitted model."""
    paths = []
    for cohort, label, detail in _fitted_models(manifest_body):
        path = outdir / model_file("reliability", cohort, label)
        with open(path, "w", encoding="utf-8", newline="") as fh:
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
    for period, key, tau_hi, tau_lo, prev in _threshold_rows(manifest_body):
        lines.append(
            f"| {period.upper()} | {key} | {_fmt_pct(tau_hi)} | {tau_lo:.3f} | {_fmt_pct(prev)} |"
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


_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
_TYPE_NAMES = {
    _NUMBER: "a number", _NUMBER_OR_NULL: "a number or null", str: "a string", int: "an integer"
}
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
    "flagged": {"file": str, "rows": int, "sha256": str},
}
_AREA_SHARES = _Each(
    _OrError({"by_area": _Each({"count": object, "share": _NUMBER_OR_NULL})}), key=float
)

# What the renderers read of a manifest body. A shape is a type or tuple of
# types; a dict of keys and their shapes, where a key ending in "?" may be
# missing; a one-item list, for a list of items of that shape; `_Each` or
# `_OrError`.
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
    """The body of a saved manifest from its JSON data `data`. Raises a
    `ValidationError` naming the first part the renderers cannot read,
    unless `data` is a manifest object of format `MANIFEST_FORMAT`, or
    naming both digests when that body without its `manifest_digest` does
    not hash to that digest: a report never shows numbers a run did not
    produce under the digest it prints."""
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ValidationError(f"not a manifest: expected an object with format {MANIFEST_FORMAT!r}")
    body = _read(data, MANIFEST_SHAPE, "manifest")
    recorded = body["manifest_digest"]
    try:
        actual = digest_of({key: value for key, value in body.items() if key != "manifest_digest"})
    except ValueError:  # NaN or an infinity, which no run writes
        raise ValidationError("manifest: expected finite numbers") from None
    if actual != recorded:
        raise ValidationError(
            f"manifest: the body digests to {actual}, not to its manifest_digest {recorded}"
        )
    return body


def _read(value, shape, where: str):
    """`value`, checked to have `shape`."""

    def fail(what: str):
        return ValidationError(f"{where}: expected {what}")

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
        raise fail(_TYPE_NAMES[shape])
    return value



def flagged_csvs(body: dict, directory: Path) -> dict[str, bytes]:
    """The bytes of each flagged CSV a checked manifest body names, by file
    name, read from `directory`. Raises a `ValidationError` when an entry
    names another file than its model's, or when a file's bytes do not hash
    to its entry's sha256 or hold another number of rows, and `IoFailure`
    when one cannot be read. A row is a line: ZIPs are five digits, so no
    cell holds a line break."""
    csvs = {}
    for cohort, label, detail in _fitted_models(body):
        entry, name = detail["flagged"], model_file("flagged", cohort, label)
        if entry["file"] != name:
            raise ValidationError(
                f"manifest.cohorts.{cohort}.models.{label}.flagged: expected file {name!r}"
            )
        path = directory / name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise IoFailure(f"cannot read flagged CSV {path}: {exc}") from exc
        if sha256(data).hexdigest() != entry["sha256"]:
            raise ValidationError(f"{path} does not hash to the sha256 its manifest records")
        if data.count(b"\n") - 1 != entry["rows"]:
            raise ValidationError(f"{path} does not hold the {entry['rows']} rows its manifest records")
        csvs[name] = data
    return csvs


def emit_report(body: dict, formats, outdir, flagged_csvs: dict[str, bytes]) -> list[Path]:
    """Write each flagged CSV `body` names, from its bytes in
    `flagged_csvs`, and the requested formats of the manifest body, into
    outdir; returns the written paths."""
    for fmt in formats:
        if fmt not in ALL_FORMATS:
            raise ValidationError(f"unknown report format {fmt!r}")
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for _, _, detail in _fitted_models(body):
            path = outdir / detail["flagged"]["file"]
            path.write_bytes(flagged_csvs[path.name])
            written.append(path)
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
            written.extend(write_reliability_csvs(body, outdir))
        if FORMAT_MARKDOWN in formats:
            path = outdir / "report.md"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_markdown(body))
            written.append(path)
        return written
    except OSError as exc:
        raise IoFailure(f"failed writing report to {outdir}: {exc}") from exc
