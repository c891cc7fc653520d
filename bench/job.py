"""Run one snapgap CLI command in this process, then print its peak RSS.

    python3 bench/job.py backtest --config ... --seed ... --panel ... --out ...

Same as `python3 -m snapgap.cli ...`, plus a last stdout line
`peak_rss_kib=<n>`: VmHWM, the high-water mark of this process's own memory.
ru_maxrss from wait4 would not do: across exec, Linux carries the launching
process's memory into a child's ru_maxrss, so a benchmark process that has
parsed large manifests would raise every job's figure.
"""
import sys

from snapgap.cli import main


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    print(f"peak_rss_kib={peak_rss_kib()}")
    sys.exit(code)
