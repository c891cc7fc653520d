"""Render a run manifest into JSON, CSV, and Markdown report files.

Machine formats (JSON, CSV) carry full-precision fractions and agree
field-for-field; the Markdown tables show percentages scaled by 100 with one
decimal, with near-zero top-of-list precision shown as a dash.

`manifest.json` goes through `jsonio.save_json`, which streams the text of
`json.dump(body, fh, sort_keys=True, indent=2)` plus a newline, byte for
byte, but encodes it with the C JSON encoder: every all-scalar container and
every list of scalar rows (the flagged `[zip, year, p]` lists) is one
`json.dumps` call whose separators carry the indentation, and only the mixed
containers around them are walked in Python. `json.dump` itself encodes
indented JSON in pure Python, which took most of the report's time on large
runs. The flagged CSVs hand the manifest's rows to `csv` as they are: `csv`
writes a float with `repr`, as the other CSVs do explicitly, so every float
cell reads back to the same bits.
"""
from __future__ import annotations

import csv
import re
from pathlib import Path

from .errors import IoFailure, ValidationError
from .jsonio import save_json

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


# Per-model CSV files: name prefix, header, and the rows of one model's detail.
MODEL_CSVS = (
    (
        "flagged",
        ["zip", "year", "calibrated_probability"],
        lambda detail: detail["flagged"],
    ),
    (
        "reliability",
        ["bin_center", "mean_predicted", "observed_rate", "count"],
        lambda detail: (
            [
                repr(row["bin_center"]),
                repr(row["mean_predicted"]),
                repr(row["observed_rate"]),
                row["count"],
            ]
            for row in detail["reliability"]
        ),
    ),
)


def write_model_csvs(manifest_body: dict, outdir: Path) -> list[Path]:
    """One CSV per fitted model and MODEL_CSVS entry; failed models are skipped."""
    models = [
        (cohort, label, detail)
        for cohort, cdata in sorted(manifest_body.get("cohorts", {}).items())
        for label, detail in sorted(cdata.get("models", {}).items())
        if "error" not in detail
    ]
    paths = []
    for prefix, header, rows in MODEL_CSVS:
        for cohort, label, detail in models:
            path = outdir / f"{prefix}_{_slug(cohort)}_{_slug(label)}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows(detail))
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


def emit_report(manifest, formats, outdir) -> list[Path]:
    """Write the requested formats into outdir; returns written paths.

    `manifest` may be a RunManifest or its body dict.
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
