"""Command-line interface.

Subcommands cover the full flow: `ingest` raw CSVs into a validated panel,
`label` a panel, `train` scorers on the early period, `backtest` end to end,
`synth` a verification panel, and `report` a saved manifest. A YAML config
supplies settings; any key can be overridden with repeated `--set key=value`
flags (values parsed as YAML). Every command checks every key first (see
`config`): an unknown key, a value of the wrong type, or one out of range,
exits 2 before any work. So does `report`, before writing anything, on a
file that is not a manifest it can render: not UTF-8 JSON, another format,
a part the renderers read missing or of the wrong type, or a body that does
not hash to its `manifest_digest` (edited after the run). Exit codes: 0 ok,
2 validation error, 3 insufficient cohort, 4 I/O failure, 5 a run that
failed on valid input (a worker process died, a fit did not converge).
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from .config import Settings, apply_overrides, load_config, settings_from
from .errors import CohortError, DegenerateDesign, IoFailure, SnapGapError, ValidationError
from .ingest import (
    dedupe,
    designate_all,
    parse_crosswalk,
    parse_panel,
    write_records,
    write_rejects,
)
from .labeling import build_labels, fit_uptake_ols, write_labeled_panel
from .jsonio import load_json, save_json
from .models import scorer_to_dict
from .pipeline import run_backtest, train_scorers
from .report import ALL_FORMATS, emit_report, manifest_body
from .synth import generate_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COHORT = 3
EXIT_IO = 4
EXIT_RUN = 5


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_merged_config(args) -> Settings:
    """The settings of `--config`, `--seed` and `--set`, every key checked."""
    config = load_config(args.config) if args.config else {}
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    return settings_from(apply_overrides(config, args.set or []))


def _load_panel(settings: Settings, panel: str, crosswalk: str | None = None):
    """Parse and dedupe a panel CSV, then designate areas from the crosswalk
    when one is given. Returns (panel, rejects, input digests)."""
    panel_path = Path(panel)
    panel, rejects = parse_panel(panel_path, **settings.read)
    panel = dedupe(panel)
    digests = {"panel": _file_digest(panel_path)}
    if crosswalk:
        cw_path = Path(crosswalk)
        table, cw_rejects = parse_crosswalk(cw_path)
        panel = designate_all(panel, table)
        rejects = rejects + cw_rejects
        digests["crosswalk"] = _file_digest(cw_path)
    return panel, rejects, digests


def _write_scorers(scorers: dict, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for (cohort, label), scorer in sorted(scorers.items()):
        name = f"model_{cohort}_{label}".replace("[", "_").replace("]", "").replace("+", "-")
        save_json(scorer_to_dict(scorer), outdir / f"{name}.json")


def cmd_ingest(args) -> int:
    settings = _load_merged_config(args)
    panel, rejects, _ = _load_panel(settings, args.panel, args.crosswalk)
    write_records(panel, Path(args.out))
    if args.rejects:
        write_rejects(rejects, Path(args.rejects))
    print(f"ingested {len(panel)} records, {len(rejects)} rejects -> {args.out}")
    return EXIT_OK


def cmd_label(args) -> int:
    settings = _load_merged_config(args)
    panel, _, _ = _load_panel(settings, args.panel)
    cfg = settings.backtest
    labeled = build_labels(panel, cfg.label, stratify_by_area=cfg.stratified)
    try:
        labeled, _ = fit_uptake_ols(labeled)
    except DegenerateDesign:
        pass  # the residual column stays blank
    write_labeled_panel(labeled, Path(args.out))
    print(
        f"labeled {len(panel)} rows: {labeled.n_eligible()} eligible, "
        f"{labeled.n_positive()} fragile (prevalence {labeled.prevalence:.4f}) -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    settings = _load_merged_config(args)
    panel, _, _ = _load_panel(settings, args.panel, args.crosswalk)
    scorers = train_scorers(settings.backtest, panel)
    outdir = Path(args.out)
    _write_scorers(scorers, outdir)
    print(f"wrote {len(scorers)} scorer files -> {outdir}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    settings = _load_merged_config(args)
    panel, _, digests = _load_panel(settings, args.panel, args.crosswalk)
    manifest = run_backtest(settings.backtest, panel, input_digests=digests)
    outdir = Path(args.out)
    formats = args.formats.split(",") if args.formats else list(ALL_FORMATS)
    written = emit_report(manifest, formats, outdir)
    if args.models:
        _write_scorers(manifest.scorers, outdir / "models")
    print(f"manifest digest {manifest.digest}")
    print(f"wrote {len(written)} report files -> {outdir}")
    return EXIT_OK


def cmd_synth(args) -> int:
    panel, truth = generate_synthetic(_load_merged_config(args).synth)
    write_records(panel, Path(args.out))
    truth_path = Path(args.truth) if args.truth else Path(args.out).with_suffix(".truth.json")
    save_json(truth, truth_path)
    print(f"generated {len(panel)} rows -> {args.out} (truth: {truth_path})")
    return EXIT_OK


def cmd_report(args) -> int:
    _load_merged_config(args)  # a report takes no setting, but a bad key is still an error
    try:
        data = load_json(args.manifest)
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {args.manifest}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"manifest {args.manifest} is not UTF-8 JSON: {exc}") from exc
    try:
        body = manifest_body(data)
    except ValidationError as exc:
        raise ValidationError(f"cannot render {args.manifest}: {exc}") from exc
    formats = args.formats.split(",") if args.formats else list(ALL_FORMATS)
    written = emit_report(body, formats, Path(args.out))
    print(f"wrote {len(written)} report files -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapgap",
        description="Label high-poverty, low-uptake ZIPs and backtest classifiers out-of-time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False):
        p.add_argument("--config", help="YAML config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (YAML-parsed value); repeatable",
        )
        p.add_argument(
            "--seed", type=int, required=seed_required, help="root random seed"
        )

    p = sub.add_parser("ingest", help="parse + clean raw panel CSV into a validated panel")
    common(p)
    p.add_argument("--panel", required=True, help="raw panel CSV")
    p.add_argument("--crosswalk", help="ZIP-tract crosswalk CSV for area designation")
    p.add_argument("--out", required=True, help="output panel CSV")
    p.add_argument("--rejects", help="output reject-report CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", help="build eligibility, thresholds, the target and uptake residuals")
    common(p)
    p.add_argument("--panel", required=True, help="validated panel CSV")
    p.add_argument("--out", required=True, help="labeled panel CSV (JSON sidecar beside it)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train calibrated scorers on the early period")
    common(p, seed_required=False)
    p.add_argument("--panel", required=True)
    p.add_argument("--crosswalk")
    p.add_argument("--out", required=True, help="directory for scorer JSON files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="full out-of-time run with reports")
    common(p, seed_required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--crosswalk")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--formats", help="comma list of json,csv,markdown (default all)")
    p.add_argument("--models", action="store_true", help="also write scorer JSON files")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("synth", help="generate a synthetic verification panel")
    common(p, seed_required=True)
    p.add_argument("--out", required=True, help="output panel CSV")
    p.add_argument("--truth", help="ground-truth sidecar path (default: <out>.truth.json)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="render reports from a saved manifest")
    common(p)
    p.add_argument("--manifest", required=True, help="manifest.json from a backtest run")
    p.add_argument("--out", required=True)
    p.add_argument("--formats", help="comma list of json,csv,markdown (default all)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CohortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COHORT
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SnapGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
