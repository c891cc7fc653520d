import csv
import json
import os

import numpy as np
import pytest

from oracles import Record, panel_of
from snapgap.ingest import Area
from snapgap.jsonio import load_json
from snapgap.models import scorer_from_dict


def make_record(
    zip="00001",
    year=2015,
    pov_fam=100.0,
    snap_fam=60.0,
    fam_universe=500.0,
    pct_no_vehicle=10.0,
    pct_no_internet=15.0,
    pct_no_computer=12.0,
    pct_hs_only=30.0,
    area=Area.URBAN,
    pov_rate=None,
    flags=frozenset(),
):
    return Record(
        zip=zip,
        year=year,
        pov_fam=pov_fam,
        snap_fam=snap_fam,
        fam_universe=fam_universe,
        pov_rate=pov_rate,
        pct_no_vehicle=pct_no_vehicle,
        pct_no_internet=pct_no_internet,
        pct_no_computer=pct_no_computer,
        pct_hs_only=pct_hs_only,
        area=area,
        flags=flags,
    )


def make_panel(*records):
    """A `Panel` of `records`, built with the test-side `panel_of`."""
    return panel_of(records)


def random_records(rng: np.random.Generator, n: int, year=2015, areas=None):
    """Random panel rows with occasional missing fields and anomalies."""
    areas = areas or [Area.URBAN, Area.RURAL, Area.MIXED, Area.UNKNOWN]
    records = []
    for i in range(n):
        universe = float(rng.integers(50, 2000))
        pov = float(rng.integers(0, int(universe)))
        snap = float(rng.integers(0, int(pov * 1.3) + 2))
        flags = frozenset({"SnapExceedsPoverty"}) if 0 < pov < snap else frozenset()
        rec = make_record(
            flags=flags,
            zip=f"{i + 1:05d}",
            year=year,
            pov_fam=pov,
            snap_fam=snap,
            fam_universe=universe,
            pct_no_vehicle=None if rng.random() < 0.05 else float(rng.uniform(0, 40)),
            pct_no_internet=float(rng.uniform(0, 50)),
            pct_no_computer=float(rng.uniform(0, 40)),
            pct_hs_only=float(rng.uniform(5, 60)),
            area=areas[int(rng.integers(0, len(areas)))],
        )
        records.append(rec)
    return records


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_panel(rng: np.random.Generator, n: int, year=2015, areas=None):
    """`random_records` as a `Panel`."""
    return panel_of(random_records(rng, n, year, areas))


def json_text(obj) -> str:
    """The indented text of a JSON file holding `obj`, without its final newline."""
    return json.dumps(obj, sort_keys=True, indent=2)


def new_dir(path):
    """`path`, made as an empty directory."""
    path.mkdir()
    return path


def files_in(directory) -> dict[str, bytes | None]:
    """The bytes of each file under `directory`, and None for each
    directory, by path relative to it."""
    return {
        str(path.relative_to(directory)): None if path.is_dir() else path.read_bytes()
        for path in sorted(directory.rglob("*"))
    }


def scorers_in(directory) -> dict:
    """The scorer each scorer file in `directory` holds, by file name."""
    return {path.name: scorer_from_dict(load_json(path)) for path in sorted(directory.iterdir())}


# Runs the CLI, then reports whether the process imported the pool modules.
RUN_CLI = """\
import sys
from snapgap.cli import main
code = main(sys.argv[1:])
print("pool imported:", "concurrent.futures" in sys.modules)
sys.exit(code)
"""


def pin_to_one_cpu():
    """Narrow this process's affinity mask to one CPU (a `preexec_fn`)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def move_p2_mixed_to_urban(path) -> None:
    """Rewrite the panel CSV at `path` with every 2019-2023 Mixed row in Urban."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    area, year = rows[0].index("area"), rows[0].index("year")
    for row in rows[1:]:
        if row[area] == "Mixed" and 2019 <= int(row[year]) <= 2023:
            row[area] = "Urban"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
