"""End-to-end figures and output checks read from a backtest manifest."""
from __future__ import annotations

import statistics

PLANTED_FEATURE = "pct_no_vehicle"  # the synthetic panel's only planted effect


def models(body: dict) -> list[tuple[str, str, dict]]:
    """(cohort, model label, detail) for every model entry, failed ones too."""
    out = []
    for cohort, entry in sorted(body["cohorts"].items()):
        for label, detail in sorted(entry.get("models", {}).items()):
            out.append((cohort, label, detail))
    return out


def task_counts(body: dict) -> tuple[int, int]:
    """(attempted, failed) (cohort, subset, family) tasks.

    A cohort-level error fails every task the cohort would have run.
    """
    config = body["config"]
    per_cohort = len(config["feature_subsets"]) * len(config["families"])
    attempted = failed = 0
    for entry in body["cohorts"].values():
        attempted += per_cohort
        if "error" in entry:
            failed += per_cohort
        else:
            failed += sum(1 for d in entry["models"].values() if "error" in d)
    return attempted, failed


def calib_gap(reliability: list[dict]) -> float:
    """Count-weighted mean |observed - predicted| over reliability bins."""
    total = sum(b["count"] for b in reliability)
    gap = sum(b["count"] * abs(b["observed_rate"] - b["mean_predicted"]) for b in reliability)
    return gap / total


def quality(body: dict) -> dict[str, float]:
    """Means over successful models of out-of-time AP, AUC, calibration gap
    and precision of the flagged ZIP-years."""
    ok = [d for _, _, d in models(body) if "error" not in d]
    return {
        "p2_ap_mean": statistics.fmean(d["eval"]["ap"] for d in ok),
        "p2_auc_mean": statistics.fmean(d["eval"]["auc"] for d in ok),
        "calib_gap_mean": statistics.fmean(calib_gap(d["reliability"]) for d in ok),
        "flag_precision_mean": statistics.fmean(d["eval"]["precision"] for d in ok),
    }


def importance_miss(body: dict) -> str | None:
    """The feature with the largest mean AUC drop under permutation, when it
    is not the planted one.

    The mean is over every successful model whose subset holds the planted
    feature. Any one model's ranking can be noise: a small cohort can leave a
    model with no out-of-time skill, and two permutation repeats on a few
    dozen positives spread as widely as the gap between features.
    """
    drops: dict[str, list[float]] = {}
    for _, _, detail in models(body):
        if "error" in detail or PLANTED_FEATURE not in detail["features"]:
            continue
        for f in detail["importance"]["features"]:
            drops.setdefault(f["name"], []).append(f["delta_auc"])
    if not drops:
        return None
    means = {name: statistics.fmean(v) for name, v in drops.items()}
    top = max(means, key=means.get)
    return None if top == PLANTED_FEATURE else top
