"""Render a run manifest into its report: one fixed set of files.

The report is `manifest.json`, the CSV tables (metrics, thresholds, yearly,
and one reliability table per fitted model) and `report.md`, beside each
model's flagged CSV. Machine formats (JSON, CSV) carry full-precision
fractions and agree field-for-field; the Markdown tables show percentages
scaled by 100 with one decimal, with near-zero top-of-list precision shown
as a dash.

The renderers take a manifest body, a fresh one or a saved one that
`manifest_body` has checked: its shape, every part a run writes present,
and that the body hashes to its `manifest_digest`. `manifest.json` is the
body as `jsonio.save_json` writes it, so `json.load` gives back the dict
that `pipeline.digest_of` hashed. A model's flagged rows are not in the
body: the task that evaluated the model rendered them into its flagged CSV
(see `pipeline`), and the body's `flagged` entry holds that file's name,
row count and sha256, so the digest covers the rows through the sha256.
`emit_report` writes the report beside the flagged CSVs the body names,
and lists those CSVs first among its outputs: a backtest's CSVs as its
tasks wrote them, a saved manifest's as `flagged_csvs` copied them from
beside it, in chunks, checking each against its entry as it went. Both
write only into the directory the CLI gives them, its stage (see `cli`).
The tasks rendered the flagged CSVs with `ingest.csv_text`, and the other
CSVs go through `ingest.write_csv`, so every cell is written by csv's own
rules: a float by its `repr`, so it reads back to the same bits, an int by
its `str`, and None, such as the prevalence of a subset with no labeled
row, blank.
"""
from __future__ import annotations

from pathlib import Path

from .errors import IoFailure, ValidationError
from .ingest import write_csv
from .jsonio import NUMBER, NUMBER_OR_NULL, Each, OrError, read_shape, save_json
from .pipeline import MANIFEST_FORMAT, digest_of, model_file, sha256

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


def _fmt_fixed(value: float | None) -> str:
    if value is None:
        return "--"
    return f"{value:.3f}"


def _models(manifest_body: dict) -> list[tuple[str, str, dict]]:
    """(cohort, model label, entry) of each model, failed ones too, and
    (cohort, "", entry) of each cohort that failed before any model."""
    return [
        (cohort, label, detail)
        for cohort, cdata in sorted(manifest_body["cohorts"].items())
        for label, detail in ([("", cdata)] if "error" in cdata else sorted(cdata["models"].items()))
    ]


def _fitted_models(manifest_body: dict) -> list[tuple[str, str, dict]]:
    """(cohort, model label, entry) of each fitted model."""
    return [model for model in _models(manifest_body) if "error" not in model[2]]


def _metric_values(ev: dict) -> list:
    """The metrics of a model's `eval` entry, in the order of `metrics.csv`."""
    return [ev[c] for c in METRIC_COLUMNS] + [ev["precision_at"].get(k) for k in PCT_AT_KEYS]


def _threshold_rows(manifest_body: dict) -> list[tuple]:
    """(period, subset, tau_hi, tau_lo, prevalence) of each period's
    thresholds; the prevalence is None for a subset with no labeled row."""
    rows = []
    for period in ("p1", "p2"):
        summary = manifest_body["periods"][period]
        for key, th in sorted(summary["thresholds"].items()):
            rows.append((period, key, th["tau_hi"], th["tau_lo"], summary["prevalences"].get(key)))
    return rows


THRESHOLD_COLUMNS = ["period", "subset", "tau_hi", "tau_lo", "prevalence"]
YEARLY_KEYS = ["year", "n_rows", "n_eligible", "tau_hi", "tau_lo", "prevalence", "anomaly_rows"]
RELIABILITY_KEYS = ["bin_center", "mean_predicted", "observed_rate", "count"]


def _csv_tables(manifest_body: dict) -> dict[str, tuple[list[str], list]]:
    """The header and rows of each CSV table of the report, by file name:
    metrics, thresholds, yearly, and one reliability table per fitted model."""
    fitted = _fitted_models(manifest_body)
    yearly = manifest_body["yearly"]
    tables = {
        "metrics.csv": (
            ["cohort", "model", *METRIC_COLUMNS, *(f"precision_at_{k}" for k in PCT_AT_KEYS)],
            [[cohort, label, *_metric_values(d["eval"])] for cohort, label, d in fitted],
        ),
        "thresholds.csv": (THRESHOLD_COLUMNS, _threshold_rows(manifest_body)),
        "yearly.csv": (YEARLY_KEYS, [[row[k] for k in YEARLY_KEYS] for row in yearly]),
    }
    for cohort, label, detail in fitted:
        rows = [[row[k] for k in RELIABILITY_KEYS] for row in detail["reliability"]]
        tables[model_file("reliability", cohort, label, ".csv")] = (RELIABILITY_KEYS, rows)
    return tables


def _markdown_table(title: str, header: list[str], rows) -> list[str]:
    """The lines of a report section: its title, a table of `header` and
    `rows`, and a blank line. An empty cell is nothing between its bars."""

    def line(cells) -> str:
        return "|" + "".join(f" {text} |" if text else "|" for text in map(str, cells))

    return [f"## {title}", "", line(header), "|" + "---|" * len(header), *map(line, rows), ""]


def render_markdown(manifest_body: dict) -> str:
    metrics = []
    for cohort, label, detail in _models(manifest_body):
        if "error" in detail:  # the error spans the row
            metrics.append([cohort, label, f"error: {detail['error']}"] + [""] * 6)
        else:
            *values, at1, at5 = _metric_values(detail["eval"])
            at = f"{_fmt_pct_dash(at1)} / {_fmt_pct_dash(at5)}"
            metrics.append([cohort, label, *map(_fmt_pct, values), at])
    thresholds = [
        (period.upper(), key, _fmt_pct(tau_hi), _fmt_fixed(tau_lo), _fmt_pct(prevalence))
        for period, key, tau_hi, tau_lo, prevalence in _threshold_rows(manifest_body)
    ]
    shares = manifest_body["fragile_distribution"]
    fragile = [
        (period.upper(), f"bottom {float(group):.0%}", *cells)
        for period in ("p1", "p2")
        for group, gdata in sorted(shares[period].items())
        for cells in (
            [(f"error: {gdata['error']}", "", "")]
            if "error" in gdata
            else [(area, a["count"], _fmt_pct(a["share"])) for area, a in gdata["by_area"].items()]
        )
    ]
    fragile += [
        (period.upper(), "hidden fragility", f"error: {entry['error']}", "", "")
        for period, entry in sorted(manifest_body["hidden_fragility"].items())
        if "error" in entry
    ]
    yearly = [
        (
            row["year"], row["n_rows"], row["n_eligible"], _fmt_pct(row["tau_hi"]),
            _fmt_fixed(row["tau_lo"]), _fmt_pct(row["prevalence"]), row["anomaly_rows"],
        )
        for row in manifest_body["yearly"]
    ]
    lines = [
        "# Backtest report",
        "",
        f"- seed: {manifest_body['seed']}",
        f"- config hash: `{manifest_body['config_hash']}`",
        f"- manifest digest: `{manifest_body['manifest_digest']}`",
        "",
        *_markdown_table(
            "Out-of-time performance (all values x100)",
            ["Cohort", "Model", "AUC", "AP", "Precision", "Recall", "F1", "Accuracy", "Pre@1% / Pre@5%"],
            metrics,
        ),
        *_markdown_table(
            "Thresholds and prevalence", ["Period", "Subset", "tau_hi", "tau_lo", "Prevalence"], thresholds
        ),
        *_markdown_table(
            "Fragile-row distribution by area", ["Period", "Group", "Area", "Count", "Share"], fragile
        ),
        *_markdown_table(
            "Yearly diagnostics",
            ["Year", "Rows", "Eligible", "tau_hi", "tau_lo", "Prevalence", "Anomalies"],
            yearly,
        ),
    ]
    return "\n".join(lines)


_PERIOD = {
    "thresholds": Each({"tau_hi": NUMBER_OR_NULL, "tau_lo": NUMBER}),
    "prevalences": Each(NUMBER_OR_NULL),
}
_MODEL = {
    "eval": {
        **dict.fromkeys(METRIC_COLUMNS, NUMBER_OR_NULL),
        "precision_at": Each(NUMBER_OR_NULL),
    },
    "reliability": [dict.fromkeys(RELIABILITY_KEYS, object)],
    "flagged": {"file": str, "rows": int, "sha256": str},
}
_AREA_SHARES = Each(
    OrError({"by_area": Each({"count": object, "share": NUMBER_OR_NULL})}), key=float
)

# What the renderers read of a manifest body, as a `jsonio.read_shape` shape.
MANIFEST_SHAPE = {
    "seed": object,
    "config_hash": object,
    "manifest_digest": object,
    "periods": {"p1": _PERIOD, "p2": _PERIOD},
    "cohorts": Each(OrError({"models": Each(OrError(_MODEL))})),
    "fragile_distribution": {"p1": _AREA_SHARES, "p2": _AREA_SHARES},
    "hidden_fragility": {"p1": OrError({}), "p2": OrError({})},
    "yearly": [
        {
            **dict.fromkeys(("year", "n_rows", "n_eligible", "anomaly_rows"), object),
            **dict.fromkeys(("tau_hi", "tau_lo", "prevalence"), NUMBER_OR_NULL),
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
    body = read_shape(data, MANIFEST_SHAPE, "manifest")
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


# The bytes `flagged_csvs` copies at a time: memory for one chunk, not a file.
CHUNK_BYTES = 1 << 16


def flagged_csvs(body: dict, directory: Path, stage: Path) -> None:
    """Copy each flagged CSV a checked manifest body names from `directory`
    into `stage`, in chunks of `CHUNK_BYTES`, checking it against its entry
    in the same pass. Raises a `ValidationError` when an entry names another
    file than its model's, or a file does not hash to its entry's sha256 or
    holds another number of rows, and `IoFailure` when one cannot be copied.
    A row is a line: ZIPs are five digits, so no cell holds a line break."""
    for cohort, label, detail in _fitted_models(body):
        entry, name = detail["flagged"], model_file("flagged", cohort, label, ".csv")
        if entry["file"] != name:
            raise ValidationError(
                f"manifest.cohorts.{cohort}.models.{label}.flagged: expected file {name!r}"
            )
        path = directory / name
        digest, lines = sha256(), 0
        try:
            with open(path, "rb") as fh, open(stage / name, "wb") as copy:
                for chunk in iter(lambda: fh.read(CHUNK_BYTES), b""):
                    digest.update(chunk)
                    lines += chunk.count(b"\n")
                    copy.write(chunk)
        except OSError as exc:
            raise IoFailure(f"cannot copy flagged CSV {path}: {exc}") from exc
        if digest.hexdigest() != entry["sha256"]:
            raise ValidationError(f"{path} does not hash to the sha256 its manifest records")
        if lines - 1 != entry["rows"]:
            raise ValidationError(f"{path} does not hold the {entry['rows']} rows its manifest records")


def emit_report(body: dict, outdir) -> list[Path]:
    """Write the report of the manifest body, `manifest.json`, the CSV
    tables and `report.md`, into the existing directory `outdir`, beside
    the flagged CSVs the body names, which are there already; returns the
    paths of those CSVs, then the paths written."""
    outdir = Path(outdir)
    written = [outdir / detail["flagged"]["file"] for _, _, detail in _fitted_models(body)]
    try:
        path = outdir / "manifest.json"
        save_json(body, path)
        written.append(path)
        for name, (header, rows) in _csv_tables(body).items():
            path = outdir / name
            write_csv(path, header, list(zip(*rows)) or [()] * len(header))
            written.append(path)
        path = outdir / "report.md"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(body))
        written.append(path)
        return written
    except OSError as exc:
        raise IoFailure(f"failed writing report to {outdir}: {exc}") from exc
