"""Run equivalence: every way to make a run's files makes the same bytes.

A session fixture makes four small panels with `synth`, and runs `ingest`,
`label` and `backtest --models` once on each. Three panels take the option
sets of the benchmark workloads, with each grid's tree counts scaled down
and its shape kept: CV over all three families (`cv_grid`), 15 logistic
subsets (`national_panel`), and split70, Youden, frozen thresholds and
stratified cohorts (`score_stratified`). The fourth is the stratified one
with every P2 Mixed row moved to Urban, so P2 holds no Mixed row.

Each row of `VARIANTS` makes a first run's files again another way: on one
CPU, under another `PYTHONHASHSEED`, re-rendered by `report`, without
`--models`, by `train`, or through the reference logistic path.
`assert_same_files` compares what the variant wrote with the first run's
files, and names the first file that differs, and in a JSON file the first
path, with both values. Every file a panel's commands write also passes the
checks of `test_every_file_written_is_well_formed`,
`test_each_periods_yearly_counts_sum_to_its_own` and
`test_each_model_was_fitted_with_a_recorded_candidate`.

A new invariant of a run's files goes in as a row of `VARIANTS`.
"""
import csv
import json
import os
import random
import shutil
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import RUN_CLI, files_in, move_p2_mixed_to_urban, new_dir, pin_to_one_cpu
from oracles import reference_logistic_path
import snapgap
from snapgap import pipeline
from snapgap.cli import main
from snapgap.config import load_config, settings_from
from snapgap.jsonio import load_json

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def json_difference(want, got, path: str = "") -> str | None:
    """The first JSON path at which `got` differs from `want`, with both
    values; None where they are equal. Keys go in sorted order, but those
    ending in `digest` last: a digest moves with what it digests, so the
    path named is the field that moved."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys(), key=lambda key: (key.endswith("digest"), key)):
            where = f"{path}.{key}" if path else key
            if key not in want:
                return f"{where}: missing in the first run, {got[key]!r} here"
            if key not in got:
                return f"{where}: {want[key]!r} in the first run, missing here"
            found = json_difference(want[key], got[key], where)
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            found = json_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(want) != len(got):
            return f"{path}: {len(want)} items in the first run, {len(got)} here"
        return None
    if type(want) is type(got) and want == got:
        return None
    return f"{path}: {want!r} in the first run, {got!r} here"


def _difference(name: str, want: bytes | None, got: bytes | None) -> str:
    """How the file or directory `name` differs: `want` and `got` are its
    bytes in the first run and here, None for a directory."""
    if want is None or got is None:
        kinds = ["a directory" if data is None else "a file" for data in (want, got)]
        return f"{kinds[0]} in the first run, {kinds[1]} here"
    if name.endswith(".json"):
        try:
            found = json_difference(json.loads(want), json.loads(got))
        except ValueError:
            found = None
        if found:
            return found
    lines = want.splitlines(), got.splitlines()
    for number, (a, b) in enumerate(zip(*lines), 1):
        if a != b:
            return f"line {number}: {a!r} in the first run, {b!r} here"
    if len(lines[0]) != len(lines[1]):
        return f"{len(lines[0])} lines in the first run, {len(lines[1])} here"
    return "the same lines, with other line ends"


def assert_same_files(first: Path, again: Path, ignore=()) -> None:
    """Fail, naming the first file (and in a JSON file the first path) that
    differs and both values, unless `again` holds the files and directories
    of `first`, those under a first part in `ignore` aside."""
    want, got = (
        {name: data for name, data in files_in(root).items() if Path(name).parts[0] not in ignore}
        for root in (first, again)
    )
    assert want, f"{first} holds nothing to compare"
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            raise AssertionError(f"{name}: written by the first run only")
        if name not in want:
            raise AssertionError(f"{name}: not written by the first run")
        if want[name] != got[name]:
            raise AssertionError(f"{name}: {_difference(name, want[name], got[name])}")


def test_the_comparator_names_the_first_differing_file(tmp_path):
    first, again = new_dir(tmp_path / "first"), new_dir(tmp_path / "again")
    for root in (first, again):
        (root / "a.csv").write_bytes(b"x\r\n1\r\n")
        new_dir(root / "models")
    (first / "b.csv").write_bytes(b"x\r\n1\r\n2\r\n")
    (again / "b.csv").write_bytes(b"x\r\n1\r\n3\r\n")
    (again / "c.md").write_bytes(b"later")
    with pytest.raises(AssertionError, match=r"^b\.csv: line 3: b'2' in the first run, b'3' here$"):
        assert_same_files(first, again)
    (again / "b.csv").write_bytes(b"x\r\n1\r\n2\r\n")
    with pytest.raises(AssertionError, match=r"^c\.md: not written by the first run$"):
        assert_same_files(first, again)
    (again / "c.md").unlink()
    (first / "models" / "m.json").write_bytes(b"{}\n")
    with pytest.raises(AssertionError, match=r"^models/m\.json: written by the first run only$"):
        assert_same_files(first, again)
    assert_same_files(first, again, ignore=("models",))


def test_the_comparator_names_the_first_differing_manifest_path(tmp_path):
    first, again = new_dir(tmp_path / "first"), new_dir(tmp_path / "again")
    body = {"cohorts": {"All": {"models": {"logistic[a]": {"eval": {"ap": 0.5, "auc": 0.75}}}}}}
    (first / "manifest.json").write_text(json.dumps(body, sort_keys=True, indent=2))
    body["cohorts"]["All"]["models"]["logistic[a]"]["eval"].update(ap=0.25, auc=0.5)
    (again / "manifest.json").write_text(json.dumps(body, sort_keys=True, indent=2))
    message = r"^manifest\.json: cohorts\.All\.models\.logistic\[a\]\.eval\.ap: 0\.5 in the first run, 0\.25 here$"
    with pytest.raises(AssertionError, match=message):
        assert_same_files(first, again)


@pytest.mark.parametrize(
    "want, got, difference",
    [
        ({"a": [1, 2]}, {"a": [1, 2, 3]}, "a: 2 items in the first run, 3 here"),
        ({"a": [{"b": 1}]}, {"a": [{"b": 1.0}]}, "a[0].b: 1 in the first run, 1.0 here"),
        ({"a": 1}, {"a": 1, "b": None}, "b: missing in the first run, None here"),
        ({"a": {"b": "x"}}, {"a": {}}, "a.b: 'x' in the first run, missing here"),
        ({"a_digest": "x", "b": 1}, {"a_digest": "y", "b": 2}, "b: 1 in the first run, 2 here"),
        ({"a": [1, {"b": [True]}]}, {"a": [1, {"b": [True]}]}, None),
    ],
)
def test_json_difference_names_a_path_and_both_values(want, got, difference):
    assert json_difference(want, got) == difference


def scaled_grids(workload: str) -> str:
    """A `--set` of the grids a benchmark workload fits, its own or its
    selection's defaults where it sets none, with each family's least tree
    count made 2 and its other tree counts scaled with it."""
    grids = settings_from(load_config(WORKLOADS / f"{workload}.yaml")).backtest.family_grids()
    scaled = {}
    for family, grid in grids.items():
        least = min(candidate.get("n_trees", 1) for candidate in grid)
        scaled[family] = [
            {**c, "n_trees": 2 * c["n_trees"] // least} if "n_trees" in c else c for c in grid
        ]
    return "grids=" + json.dumps(scaled)


# Each panel: the workload whose settings `synth` makes it with, on 200
# ZIPs, and a change made to it then. Under split70 (the stratified panels)
# each family's grid is its one split70 default, with 2 trees for 100.
PANELS = {
    "cv_grid": ("cv_grid", None),
    "national_panel": ("national_panel", None),
    "score_stratified": ("score_stratified", None),
    "empty_p2_mixed": ("score_stratified", move_p2_mixed_to_urban),
}
WORKLOAD_RUNS = ("cv_grid", "national_panel", "score_stratified")


@dataclass
class Run:
    """A panel's directory: `panel.csv`, what `ingest` and `label` wrote
    of it, and its first run, `backtest --models` in `run/`."""

    home: Path
    settings: list[str]
    pooled: bool = False  # the first run forked workers

    @property
    def panel(self) -> Path:
        return self.home / "panel.csv"

    @property
    def out(self) -> Path:
        return self.home / "run"

    def args(self, command: str, out: Path, *extra: str, panel: Path | None = None) -> list[str]:
        """The arguments of `command` on this panel, or on `panel`, with its settings."""
        seed = ["--seed", "3"] if command in ("synth", "train", "backtest") else []
        source = [] if command == "synth" else ["--panel", str(panel or self.panel)]
        return [command, *seed, *source, *self.settings, *extra, "--out", str(out)]


@pytest.fixture(scope="session")
def runs(tmp_path_factory) -> dict[str, Run]:
    runs = {}
    for name, (workload, edit) in PANELS.items():
        settings = ["--config", str(WORKLOADS / f"{workload}.yaml"), "--set", "synth.n_zips=200"]
        run = Run(tmp_path_factory.mktemp(name), [*settings, "--set", scaled_grids(workload)])
        assert main(run.args("synth", run.panel)) == 0
        if edit:
            edit(run.panel)
        rejects = str(run.home / "rejects.csv")
        assert main(run.args("ingest", run.home / "ingested.csv", "--rejects", rejects)) == 0
        assert main(run.args("label", run.home / "labeled.csv")) == 0
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            pool_size = pipeline._pool_size
            mp.setattr(pipeline, "_pool_size", lambda n: sizes.append(pool_size(n)) or sizes[-1])
            assert main(run.args("backtest", run.out, "--models")) == 0
        run.pooled = max(sizes) > 1
        runs[name] = run
    return runs


def run_cli(args: list[str], pinned: bool = False, **env: str) -> str:
    """The standard output of `snapgap` with `args` in a subprocess, under
    one OpenBLAS thread and `env`, on one CPU when `pinned`."""
    src = str(Path(snapgap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *args],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src, **env),
        preexec_fn=pin_to_one_cpu if pinned else None,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def on_one_cpu(command: str, *extra: str):
    """A variant: `command` in a subprocess whose affinity mask holds one
    CPU, so it forks no worker, against a first run that forked some."""

    def make(run, out, monkeypatch):
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU here: the first run forked no worker either")
        assert run.pooled, "the first run forked no worker"
        assert run_cli(run.args(command, out, *extra), pinned=True).endswith("pool imported: False\n")

    return make


def under_hash_seed(seed: str):
    """A variant: `backtest --models` in a subprocess under `PYTHONHASHSEED=seed`."""
    return lambda run, out, monkeypatch: run_cli(run.args("backtest", out, "--models"), PYTHONHASHSEED=seed)


def in_process(command: str, *extra: str):
    """A variant: `command` in this process."""

    def make(run, out, monkeypatch):
        assert main(run.args(command, out, *extra)) == 0

    return make


def report_into_a_new_directory(run, out, monkeypatch):
    assert main(["report", "--manifest", str(run.out / "manifest.json"), "--out", str(out)]) == 0


def report_into_a_copy_of_its_own(run, out, monkeypatch):
    shutil.copytree(run.out, out)
    assert main(["report", "--manifest", str(out / "manifest.json"), "--out", str(out)]) == 0


def through_the_reference_logistic_path(run, out, monkeypatch):
    # the loss-first Newton loop and numpy's stable argsort of
    # tests/oracles.py, patched in before any worker forks
    reference_logistic_path(monkeypatch.setattr)
    assert main(run.args("backtest", out, "--models")) == 0


@dataclass(frozen=True)
class Variant:
    """Another way to make a first run's files: `make(run, out,
    monkeypatch)` writes into `out` what must equal `first` in the run's
    directory, names in `ignore` aside, for each run named in `runs`."""

    make: Callable
    runs: tuple[str, ...] = WORKLOAD_RUNS
    first: str = "."
    ignore: tuple[str, ...] = ()


VARIANTS = {
    "one CPU, backtest --models": Variant(on_one_cpu("backtest", "--models")),
    "one CPU, train": Variant(on_one_cpu("train"), runs=("cv_grid", "score_stratified"), first="models"),
    "PYTHONHASHSEED=1": Variant(under_hash_seed("1")),
    "PYTHONHASHSEED=2": Variant(under_hash_seed("2")),
    "report into a new directory": Variant(report_into_a_new_directory, runs=tuple(PANELS), ignore=("models",)),
    "report into a copy of its own": Variant(report_into_a_copy_of_its_own, runs=tuple(PANELS)),
    "backtest without --models": Variant(in_process("backtest"), ignore=("models",)),
    "train": Variant(in_process("train"), first="models"),
    "reference logistic path": Variant(through_the_reference_logistic_path),
}


@pytest.mark.parametrize(
    "variant, name",
    [
        pytest.param(variant, name, id=f"{row}-{name}")
        for row, variant in VARIANTS.items()
        for name in variant.runs
    ],
)
def test_a_variant_writes_the_first_runs_files(runs, tmp_path, monkeypatch, variant, name):
    out = tmp_path / "out"
    variant.make(runs[name], out, monkeypatch)
    assert_same_files(runs[name].out / variant.first, out, variant.ignore)


@pytest.mark.parametrize("name", PANELS)
def test_every_file_written_is_well_formed(runs, name):
    # every JSON file in the file layout; no CSV cell None, nan or an
    # infinity, and every CSV row as wide as its header
    home = runs[name].home
    jsons, csvs = sorted(home.rglob("*.json")), sorted(home.rglob("*.csv"))
    assert len(jsons) > 4 and len(csvs) > 4
    for path in jsons:
        text = path.read_bytes().decode("utf-8")
        layout = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert text == layout, f"{path.relative_to(home)} is not in the file layout"
    for path in csvs:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for line, row in enumerate(rows, 1):
            where = f"{path.relative_to(home)}, line {line}"
            bad = {"None", "nan", "inf", "-inf"}.intersection(row)
            assert not bad, f"{where}: {sorted(bad)}"
            assert len(row) == len(rows[0]), f"{where}: {len(row)} fields, header {len(rows[0])}"


@pytest.mark.parametrize("name", PANELS)
def test_each_periods_yearly_counts_sum_to_its_own(runs, name):
    body = load_json(runs[name].out / "manifest.json")
    for period in ("p1", "p2"):
        first, last = body["config"][f"{period}_years"]
        years = [entry for entry in body["yearly"] if first <= entry["year"] <= last]
        assert [entry["year"] for entry in years] == list(range(first, last + 1)), period
        for key in ("n_rows", "n_eligible", "anomaly_rows"):
            total, want = sum(entry[key] for entry in years), body["periods"][period][key]
            assert total == want, f"manifest.json: {period} {key}: yearly sum {total}, period {want}"


@pytest.mark.parametrize("name", PANELS)
def test_each_model_was_fitted_with_a_recorded_candidate(runs, name):
    # each model's winner is a candidate of config.grids, and its scorer
    # file holds that winner's hyperparameters
    out = runs[name].out
    body = load_json(out / "manifest.json")
    fitted = 0
    for cohort, entry in body["cohorts"].items():
        for model, detail in entry.get("models", {}).items():
            if "error" in detail:
                continue
            where = f"manifest.json: cohorts.{cohort}.models.{model}"
            family, winner = detail["family"], detail["winner"]
            assert winner in body["config"]["grids"][family], f"{where}: winner {winner} is not in config.grids.{family}"
            scorer = load_json(out / "models" / pipeline.model_file("model", cohort, model, ".json"))
            hyperparameters = scorer["model"]["hyperparameters"]
            for key, value in winner.items():
                assert key in hyperparameters and hyperparameters[key] == value, (
                    f"{where}: winner {key} {value!r}, scorer file {hyperparameters.get(key)!r}"
                )
            fitted += 1
    assert fitted


@pytest.mark.parametrize("name", WORKLOAD_RUNS)
def test_ingest_writes_back_the_panel_synth_wrote(runs, name):
    run = runs[name]
    assert (run.home / "ingested.csv").read_bytes() == run.panel.read_bytes()


def write_crosswalk(panel: Path, path: Path) -> None:
    """1-4 tracts for each ZIP of `panel`, with statuses in mixed case, and
    two malformed rows: a ZIP that is not one (row 11) and a ratio above 1
    (row 21)."""
    rng = random.Random(3)
    with open(panel, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        column = next(reader).index("zip")
        zips = sorted({row[column] for row in reader})
    statuses = ["Urban", "urban", " URBAN ", "Rural", "rural", "RURAL ", "Unknown", "unknown"]
    rows = [
        [z, rng.choice(statuses), repr(round(rng.random(), 4))]
        for z in zips
        for _ in range(rng.randint(1, 4))
    ]
    rows.insert(10, ["ABCDE", "Rural", "0.5"])
    rows.insert(20, [zips[0], "Urban", "1.5"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["zip", "tract_status", "res_ratio"], *rows])


def test_a_crosswalk_gives_the_same_areas_at_ingest_and_at_backtest(runs, tmp_path):
    run = runs["score_stratified"]
    crosswalk, ingested, rejects = tmp_path / "cw.csv", tmp_path / "ingested.csv", tmp_path / "rejects.csv"
    write_crosswalk(run.panel, crosswalk)
    args = run.args("ingest", ingested, "--crosswalk", str(crosswalk), "--rejects", str(rejects))
    assert main(args) == 0
    with open(rejects, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [
            ["source", "row", "reason"],
            ["crosswalk", "11", "zip: not a ZIP code: 'ABCDE'"],
            ["crosswalk", "21", "res_ratio: 1.5 outside [0,1]"],
        ]
    with open(ingested, newline="", encoding="utf-8") as fh:
        assert {row["area"] for row in csv.DictReader(fh)} == {"Urban", "Rural", "Mixed", "Unknown"}

    at_backtest, at_ingest = tmp_path / "at-backtest", tmp_path / "at-ingest"
    assert main(run.args("backtest", at_backtest, "--crosswalk", str(crosswalk))) == 0
    assert main(run.args("backtest", at_ingest, panel=ingested)) == 0
    assert_same_files(at_ingest, at_backtest, ignore=("manifest.json", "report.md"))
    bodies = [load_json(out / "manifest.json") for out in (at_ingest, at_backtest)]
    inputs = [sorted(body.pop("input_digests")) for body in bodies]
    assert inputs == [["panel"], ["crosswalk", "panel"]]
    for body in bodies:
        del body["manifest_digest"]
    assert json_difference(*bodies) is None
