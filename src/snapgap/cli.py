"""Command-line interface.

Subcommands cover the full flow: `ingest` raw CSVs into a validated panel,
`label` a panel, `train` scorers on the early period, `backtest` end to end,
`synth` a verification panel, and `report` a saved manifest. A fitted scorer
leaves its task only as the scorer file the task writes: `train` writes
every one, naming on stderr each failed task and each cohort with no
labeled training rows, in plan order, and `backtest` only under
`--models`, with the same report files either way. `backtest` and `report`
write one fixed set of report files (see `report`), so the report depends
on the panel and settings alone. `backtest` writes each model's flagged
CSV, which the task that evaluated the model rendered: the manifest holds
only each file's name, row count and sha256, and its digest covers the rows
through them. `report` checks those CSVs beside the manifest and copies
them unchanged. `train`, `backtest` and `report` write every file into a
staging directory inside `--out`, the tasks' files from the tasks, and move
them into place when all are there and none would land on a directory, so a
run that fails leaves `--out` as it found it, or makes none. A YAML
`--config` supplies settings, repeated `--set key=value` flags override any
key (values parsed as YAML), and `--seed`, an int >= 0, is the root seed of
the commands that draw random numbers: `synth`, `train` and `backtest`.
`report` takes none of the three. Every other command checks every key
first (see `config`), the `synth.*` keys included: an unknown key, a value
of the wrong type, or one out of range, exits 2 before any work, and so do
a command's two outputs at one path (`--out` and `--rejects`, `--out` and
`--truth`, or `label --out x.json` and its sidecar). Before it reads any
input, a command exits 4, writing nothing, on an output it cannot write: a
file that is a directory or is in none, or a directory (`train`, `backtest`
and `report --out`) under a regular file. `report` exits 2, before writing
anything, on a file that is not a manifest it can render: not UTF-8 JSON,
another format, a part a run writes missing or of the wrong type, a body
that does not hash to its `manifest_digest` (edited after the run), or a
flagged CSV that does not hash to its recorded sha256 or holds another row
count; and it exits 4 when a flagged CSV is missing. Exit codes: 0 ok, 2
validation error, 3 insufficient cohort, 4 I/O failure, 5 a run that failed
on valid input (a worker process died, a fit did not converge).
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

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
from .pipeline import run_backtest, sha256, train_scorers
from .report import emit_report, flagged_csvs, manifest_body
from .synth import generate_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COHORT = 3
EXIT_IO = 4
EXIT_RUN = 5


def _file_digest(path: Path) -> str:
    h = sha256()
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
    """Parse and dedupe a panel CSV, keeping the years from the start of the
    training period to the end of the test period, then designate areas
    from the crosswalk when one is given. Returns (panel, rejects)."""
    years = (settings.backtest.p1_years[0], settings.backtest.p2_years[1])
    panel, rejects = parse_panel(Path(panel), **settings.read, year_range=years)
    panel = dedupe(panel)
    if crosswalk:
        areas, cw_rejects = parse_crosswalk(Path(crosswalk))
        panel = designate_all(panel, areas)
        rejects = rejects + cw_rejects
    return panel, rejects


def _output_file(path: Path) -> None:
    """Refuse, before any work, an output file that is a directory or is in none."""
    if path.is_dir():
        raise IoFailure(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise IoFailure(f"cannot write {path}: {path.parent} is not a directory")


def _second_output(names: str, first: Path, second: Path) -> None:
    """Refuse, before any work, a command's second output file at the path
    of its first, which it would replace, or one `_output_file` refuses."""
    if first.resolve() == second.resolve():
        raise ValidationError(f"{names} are the same file: {second}")
    _output_file(second)


def _output_dir(path: Path) -> None:
    """Refuse, before any work, an output directory whose nearest existing
    ancestor, or itself, is not a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise IoFailure(f"cannot write {path}: {existing} is not a directory")


@contextmanager
def _staging(outdir: Path) -> Iterator[Path]:
    """A fresh directory inside `outdir`, the stage, for every file a command
    puts in `outdir`, moved there when the block ends, unless one would
    land on an existing directory: that is an `IoFailure`, before any file
    moves. The stage is made on entry, with `outdir` and its missing
    parents, and removed on exit; on a raise, so is every directory made."""
    made = next((p for p in reversed((outdir, *outdir.parents)) if not p.exists()), None)
    outdir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=outdir))
    try:
        yield stage
        staged = sorted(path.relative_to(stage) for path in stage.rglob("*") if path.is_file())
        for name in staged:
            if (outdir / name).is_dir():
                raise IoFailure(f"cannot write {outdir / name}: it is a directory")
        for name in staged:
            (outdir / name).parent.mkdir(exist_ok=True)
            os.replace(stage / name, outdir / name)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_ingest(args) -> int:
    settings = _load_merged_config(args)
    _output_file(Path(args.out))
    if args.rejects:
        _second_output("--out and --rejects", Path(args.out), Path(args.rejects))
    panel, rejects = _load_panel(settings, args.panel, args.crosswalk)
    write_records(panel, Path(args.out))
    if args.rejects:
        write_rejects(rejects, Path(args.rejects))
    print(f"ingested {len(panel)} records, {len(rejects)} rejects -> {args.out}")
    return EXIT_OK


def cmd_label(args) -> int:
    settings = _load_merged_config(args)
    out = Path(args.out)
    _output_file(out)
    _second_output("--out and its JSON sidecar", out, out.with_suffix(".json"))
    panel, _ = _load_panel(settings, args.panel)
    cfg = settings.backtest
    labeled = build_labels(panel, cfg.label, by=cfg.label_by)
    try:
        residual, _ = fit_uptake_ols(labeled)
    except DegenerateDesign:
        residual = np.full(len(panel), np.nan)  # the residual column stays blank
    write_labeled_panel(labeled, residual, out)
    print(
        f"labeled {len(panel)} rows: {labeled.n_eligible()} eligible, "
        f"{labeled.n_positive()} fragile (prevalence {labeled.prevalence:.4f}) -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    settings = _load_merged_config(args)
    outdir = Path(args.out)
    _output_dir(outdir)
    panel, _ = _load_panel(settings, args.panel, args.crosswalk)
    with _staging(outdir) as stage:
        failed = train_scorers(settings.backtest, panel, stage)
        written = len(list(stage.iterdir()))
    for label, message in failed.items():
        print(f"skipped {label}: {message}", file=sys.stderr)
    tasks = sum("/" in label for label in failed)  # a cohort's name holds none
    counts = {"cohort": len(failed) - tasks, "task": tasks}
    skipped = " and ".join(f"{n} failed {noun}{'s' * (n != 1)}" for noun, n in counts.items() if n)
    print(f"wrote {written} scorer files{', skipped ' + skipped if skipped else ''} -> {outdir}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    settings = _load_merged_config(args)
    outdir = Path(args.out)
    _output_dir(outdir / "models" if args.models else outdir)
    panel, _ = _load_panel(settings, args.panel, args.crosswalk)
    # only a backtest records its inputs' digests, so only it reads them twice
    digests = {"panel": _file_digest(Path(args.panel))}
    if args.crosswalk:
        digests["crosswalk"] = _file_digest(Path(args.crosswalk))
    with _staging(outdir) as stage:
        models_dir = stage / "models" if args.models else None
        if models_dir:
            models_dir.mkdir()
        body = run_backtest(
            settings.backtest, panel, stage, input_digests=digests, models_dir=models_dir
        )
        written = emit_report(body, stage)
    print(f"manifest digest {body['manifest_digest']}")
    print(f"wrote {len(written)} report files -> {outdir}")
    return EXIT_OK


def cmd_synth(args) -> int:
    settings = _load_merged_config(args)
    out = Path(args.out)
    _output_file(out)
    truth_path = Path(args.truth) if args.truth else out.with_suffix(".truth.json")
    _second_output("--out and --truth", out, truth_path)
    panel, truth = generate_synthetic(settings.synth)
    write_records(panel, out)
    save_json(truth, truth_path)
    print(f"generated {len(panel)} rows -> {args.out} (truth: {truth_path})")
    return EXIT_OK


def cmd_report(args) -> int:
    outdir = Path(args.out)
    _output_dir(outdir)
    try:
        data = load_json(args.manifest)
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {args.manifest}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"manifest {args.manifest} is not UTF-8 JSON: {exc}") from exc
    with _staging(outdir) as stage:
        try:
            body = manifest_body(data)
            flagged_csvs(body, Path(args.manifest).parent, stage)
        except ValidationError as exc:
            raise ValidationError(f"cannot render {args.manifest}: {exc}") from exc
        written = emit_report(body, stage)
    print(f"wrote {len(written)} report files -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapgap",
        description="Label high-poverty, low-uptake ZIPs and backtest classifiers out-of-time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key (YAML-parsed value); repeatable",
        )

    p = sub.add_parser("ingest", help="parse + clean raw panel CSV into a validated panel")
    config_flags(p)
    p.add_argument("--panel", required=True, help="raw panel CSV")
    p.add_argument("--crosswalk", help="ZIP-tract crosswalk CSV for area designation")
    p.add_argument("--out", required=True, help="output panel CSV")
    p.add_argument("--rejects", help="output reject-report CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", help="build eligibility, thresholds, the target and uptake residuals")
    config_flags(p)
    p.add_argument("--panel", required=True, help="validated panel CSV")
    p.add_argument("--out", required=True, help="labeled panel CSV (JSON sidecar beside it)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train calibrated scorers on the early period")
    config_flags(p)
    p.add_argument("--seed", type=int, help="root random seed")
    p.add_argument("--panel", required=True)
    p.add_argument("--crosswalk")
    p.add_argument("--out", required=True, help="directory for scorer JSON files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="full out-of-time run with reports")
    config_flags(p)
    p.add_argument("--seed", type=int, required=True, help="root random seed")
    p.add_argument("--panel", required=True)
    p.add_argument("--crosswalk")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument(
        "--models",
        action="store_true",
        help="also write each fitted scorer's JSON file to <out>/models",
    )
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("synth", help="generate a synthetic verification panel")
    config_flags(p)
    p.add_argument("--seed", type=int, required=True, help="root random seed")
    p.add_argument("--out", required=True, help="output panel CSV")
    p.add_argument("--truth", help="ground-truth sidecar path (default: <out>.truth.json)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="render reports from a saved manifest")
    p.add_argument("--manifest", required=True, help="manifest.json from a backtest run")
    p.add_argument("--out", required=True)
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
