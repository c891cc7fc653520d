"""Synthetic ZIP panel generator with known planted structure.

The generator exists to verify the pipeline: it draws predictors from
area-dependent distributions, drives the uptake ratio through a logistic link
on chosen effect sizes, plants benefit>poverty anomalies at a chosen rate,
and tunes a poverty-uptake coupling per year (by bisection on the realized
panel) so the labeled prevalence lands on a target. Ground truth (per-year
fragile rows, effect sizes, planted anomalies) is emitted in a sidecar.

Coefficient orientation: `true_coefficients[j]` is the planted standardized
effect on the *fragility propensity* — the uptake latent subtracts it — so
the sign a downstream fragility classifier recovers parallels the planted
sign (a negative value makes the predictor protective).

The sidecar labels come from this module's own direct sort-and-threshold
arithmetic, not from the labeling module, so downstream agreement is a real
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidSpec
from .ingest import FLAG_SNAP_EXCEEDS_POVERTY, PREDICTOR_FIELDS, Area, Panel
from .jsonio import plain
from .labeling import LabelConfig
from .models.logistic import sigmoid
from .rng import STREAM_SYNTH, derive_rng

# Per-area predictor means (percent units): rural areas skew toward vehicle,
# internet, and education barriers; urban toward density-driven no-vehicle.
AREA_PREDICTOR_MEANS = {
    Area.URBAN: {"pct_no_vehicle": 14.0, "pct_no_internet": 12.0, "pct_no_computer": 9.0, "pct_hs_only": 26.0},
    Area.RURAL: {"pct_no_vehicle": 7.0, "pct_no_internet": 22.0, "pct_no_computer": 14.0, "pct_hs_only": 36.0},
    Area.MIXED: {"pct_no_vehicle": 9.0, "pct_no_internet": 16.0, "pct_no_computer": 11.0, "pct_hs_only": 31.0},
    Area.UNKNOWN: {"pct_no_vehicle": 10.0, "pct_no_internet": 16.0, "pct_no_computer": 11.0, "pct_hs_only": 30.0},
}
PREDICTOR_SD = 4.0
UPTAKE_NOISE_SD = 0.8
UPTAKE_BASE = 0.8  # sigmoid offset; centers mean uptake near 0.7
UPTAKE_LO, UPTAKE_HI = 0.02, 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    n_zips: int = 1000
    years: tuple[int, int] = (2014, 2023)
    area_mix: dict[str, float] = field(
        default_factory=lambda: {"Urban": 0.30, "Rural": 0.50, "Mixed": 0.10, "Unknown": 0.10}
    )
    true_coefficients: dict[str, float] = field(default_factory=dict)
    target_prevalence: float | tuple[float, float] = 0.031  # constant or (start, end) drift
    anomaly_rate: float = 0.0
    seed: int = 0
    label: LabelConfig = field(default_factory=LabelConfig)  # the rule the targets are met under

    def validate(self) -> None:
        if not 1 <= self.n_zips <= 99999:
            raise InvalidSpec(f"n_zips must be in [1, 99999], got {self.n_zips}")
        if self.years[0] > self.years[1]:
            raise InvalidSpec(f"invalid year range {self.years}")
        if abs(sum(self.area_mix.values()) - 1.0) > 1e-9:
            raise InvalidSpec(f"area_mix must sum to 1, got {sum(self.area_mix.values())}")
        for name in self.area_mix:
            if name not in Area._value2member_map_:
                raise InvalidSpec(f"unknown area {name!r} in area_mix")
        for name in self.true_coefficients:
            if name not in PREDICTOR_FIELDS:
                raise InvalidSpec(f"unknown predictor {name!r} in true_coefficients")
        for t in self._targets():
            if not 0.0 < t < 1.0:
                raise InvalidSpec(f"target prevalence must be in (0,1), got {t}")
            if t >= self.label.lo_q:
                raise InvalidSpec(
                    f"target prevalence {t} is unreachable: the fragile set lives inside "
                    f"the bottom-{self.label.lo_q:.0%} uptake tail"
                )
        if not 0.0 <= self.anomaly_rate < 1.0:
            raise InvalidSpec(f"anomaly_rate must be in [0,1), got {self.anomaly_rate}")

    def _targets(self) -> list[float]:
        if isinstance(self.target_prevalence, (int, float)):
            return [float(self.target_prevalence)]
        return [float(v) for v in self.target_prevalence]

    def target_for_year(self, year: int) -> float:
        targets = self._targets()
        if len(targets) == 1:
            return targets[0]
        y0, y1 = self.years
        if y1 == y0:
            return targets[0]
        frac = (year - y0) / (y1 - y0)
        return targets[0] + (targets[1] - targets[0]) * frac


def _zscore(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    return (v - v.mean()) / (sd if sd > 0 else 1.0)


def _direct_labeler(
    pov: np.ndarray, universe: np.ndarray, spec: SyntheticSpec
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """`label(snap)`: the (eligible, fragile) masks by direct definition on
    the realized counts `pov`, `snap` and `universe`, under `spec.label`: the
    low-uptake quantile is of capped or raw uptake as its
    `use_capped_uptake` says. What does not depend on `snap` (the poverty
    rate and the rows it allows) is computed once, and the poverty-rate
    cutpoint is kept while the eligible rows stay the same."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = pov / universe
    rule = spec.label
    base = np.flatnonzero((pov > 0) & (p >= rule.poverty_floor) & (p > 0))  # uptake decides these
    p_base, pov_base = p[base], np.maximum(pov, 1)[base]
    kept_eligible, tau_hi = None, None

    def label(snap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal kept_eligible, tau_hi
        s = snap[base] / pov_base
        ok = (s > 0) & np.isfinite(s)
        eligible = np.zeros(len(pov), dtype=bool)
        eligible[base[ok]] = True
        fragile = np.zeros(len(pov), dtype=bool)
        if not ok.any():
            return eligible, fragile
        uptake = np.minimum(s, 1.0) if rule.use_capped_uptake else s
        if kept_eligible is None or not np.array_equal(ok, kept_eligible):
            kept_eligible, tau_hi = ok, np.quantile(p_base[ok], rule.hi_q, method="linear")
        tau_lo = np.quantile(uptake[ok], rule.lo_q, method="linear")
        fragile[base[ok & (p_base >= tau_hi) & (uptake <= tau_lo)]] = True
        return eligible, fragile

    return label


def generate_synthetic(spec: SyntheticSpec) -> tuple[Panel, dict]:
    """Generate one panel plus a ground-truth sidecar.

    Per year, a coupling between poverty and the uptake latent is solved by
    bisection so that the realized fragile share of eligible rows matches the
    year's target prevalence as closely as the finite panel allows. Each
    year is one block of columns over all ZIPs; the panel is the blocks in
    year order, joined one column at a time as `Panel.concat` joins parse
    chunks.
    """
    spec.validate()
    rng0 = derive_rng(spec.seed, STREAM_SYNTH, 0)
    n = spec.n_zips
    zips = np.array([f"{i:05d}" for i in range(1, n + 1)], dtype=object)
    area_names = sorted(spec.area_mix)
    probs = np.array([spec.area_mix[a] for a in area_names])
    areas = rng0.choice(len(area_names), size=n, p=probs)
    area_per_zip = [Area(area_names[i]) for i in areas]
    area_column = np.array([a.value for a in area_per_zip], dtype=object)
    universe = rng0.integers(200, 5000, size=n).astype(float)
    exceeds_flags = np.array([frozenset(), frozenset({FLAG_SNAP_EXCEEDS_POVERTY})], dtype=object)

    truth_years: dict[str, dict] = {}
    planted_anomalies: list[list] = []

    def year_blocks() -> Iterator[Panel]:
        """Each year's block, after recording its truth."""
        for year in range(spec.years[0], spec.years[1] + 1):
            rng = derive_rng(spec.seed, STREAM_SYNTH, year)
            preds = {}
            for name in PREDICTOR_FIELDS:
                mus = np.array([AREA_PREDICTOR_MEANS[a][name] for a in area_per_zip])
                preds[name] = np.clip(rng.normal(mus, PREDICTOR_SD), 0.0, 100.0)
            p_rate = np.clip(rng.normal(0.25, 0.09, size=n), 0.02, 0.90)
            pov = np.round(p_rate * universe)
            noise = rng.normal(0.0, UPTAKE_NOISE_SD, size=n)

            eta = np.zeros(n)  # fragility propensity from planted effects
            for name in PREDICTOR_FIELDS:
                beta = spec.true_coefficients.get(name, 0.0)
                if beta != 0.0:
                    eta += beta * _zscore(preds[name])
            zp = _zscore(p_rate)

            n_anom = int(round(spec.anomaly_rate * n))
            anomaly_candidates = np.flatnonzero(pov >= 1)
            if n_anom > len(anomaly_candidates):
                raise InvalidSpec(
                    f"anomaly_rate {spec.anomaly_rate} asks for {n_anom} anomalies but only "
                    f"{len(anomaly_candidates)} rows have positive poverty counts in {year}"
                )
            anom_idx = np.sort(rng.choice(anomaly_candidates, size=n_anom, replace=False))
            anom_excess = rng.uniform(0.05, 0.50, size=n_anom)
            anom_snap = np.ceil(pov[anom_idx] * (1.0 + anom_excess))
            base_link = UPTAKE_BASE - eta + noise  # fragility effects lower the uptake latent
            label = _direct_labeler(pov, universe, spec)

            def realize(gamma: float) -> np.ndarray:
                s = UPTAKE_LO + (UPTAKE_HI - UPTAKE_LO) * sigmoid(base_link + gamma * zp)
                snap = np.round(s * pov)
                snap[anom_idx] = anom_snap
                return snap

            target = spec.target_for_year(year)

            def prevalence_of(gamma: float) -> tuple[float, np.ndarray, np.ndarray]:
                snap = realize(gamma)
                eligible, fragile = label(snap)
                n_el = int(eligible.sum())
                prev = fragile.sum() / n_el if n_el else 0.0
                return prev, snap, fragile

            # prevalence decreases as gamma rises (high-poverty rows gain uptake)
            lo, hi = -15.0, 15.0
            best = None
            for _ in range(48):
                mid = (lo + hi) / 2.0
                prev, snap, fragile = prevalence_of(mid)
                if best is None or abs(prev - target) < abs(best[0] - target):
                    best = (prev, mid, snap, fragile)
                if prev > target:
                    lo = mid
                else:
                    hi = mid
            realized_prev, gamma, snap, fragile = best

            planted_anomalies.extend([zips[i], year] for i in anom_idx)
            truth_years[str(year)] = {
                "target_prevalence": target,
                "realized_prevalence": float(realized_prev),
                "gamma": float(gamma),
                "fragile_zips": [zips[i] for i in np.flatnonzero(fragile)],
            }
            yield Panel(
                zip=zips,
                year=np.full(n, year, dtype=np.int64),
                area=area_column,
                flags=exceeds_flags[((pov > 0) & (snap > pov)).astype(np.intp)],
                pov_fam=pov,
                snap_fam=snap,
                fam_universe=universe,
                pov_rate=np.full(n, np.nan),
                predictors=np.column_stack([preds[name] for name in PREDICTOR_FIELDS]),
            )

    panel = Panel.concat(year_blocks())
    truth = {
        "spec": {k: v for k, v in plain(spec).items() if k != "label"},
        "years": truth_years,
        "planted_anomalies": planted_anomalies,
        "n_planted_anomalies": len(planted_anomalies),
    }
    return panel, truth
