"""Independent brute-force oracles used to verify the package's fast paths.

Everything here is written from the definitions, not from the library code:
quantiles by hand-rolled rank interpolation, OLS by normal equations, AUC by
pairwise comparison, AP by rank enumeration, labeling by explicit sort-and-
threshold, poverty rate, uptake and eligibility one record at a time,
gradients by central differences, tree prediction by walking
one row at a time down the node tuples, tree growth by sorting each
candidate feature again at every node, ensembles tree by tree with that
grower, CSV parsing and dedupe one `Record` at a time, crosswalk areas from
one tuple per row grouped by ZIP, flagged-row order by
`sorted` on tuples, report files through the standard library's
`json.dump`, the yearly table one sliced and pooled-labeled year at a
time, the logistic Newton loop with every candidate's loss computed and
tested first, and the stable order by numpy's stable argsort.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from snapgap.errors import CohortError, NonConvergence, ValidationError
from snapgap.ingest import (
    COUNT_FIELDS,
    DEFAULT_SCHEMA,
    DEFAULT_YEAR_RANGE,
    FLAG_CLIPPED,
    FLAG_DUPLICATE_AVERAGED,
    FLAG_SENTINEL_RECODED,
    FLAG_SNAP_EXCEEDS_POVERTY,
    NUMERIC_FIELDS,
    PERCENT_FIELDS,
    PREDICTOR_FIELDS,
    REQUIRED_SCHEMA_KEYS,
    SENTINEL_TOKENS,
    Area,
    Panel,
    Reject,
)
from snapgap.labeling import build_labels
from snapgap.models import DecisionTree, LogisticModel, logistic, sigmoid, standardize
from snapgap.rng import STREAM_TREE, derive_rng


@dataclass(frozen=True)
class Record:
    """One geographic unit-period observation, row-wise; None is missing.

    Equality is field by field, so missing values equal each other and
    0.0 equals -0.0.
    """

    zip: str
    year: int
    pov_fam: float | None
    snap_fam: float | None
    fam_universe: float | None = None
    pov_rate: float | None = None
    pct_no_vehicle: float | None = None
    pct_no_internet: float | None = None
    pct_no_computer: float | None = None
    pct_hs_only: float | None = None
    area: Area = Area.UNKNOWN
    flags: frozenset[str] = frozenset()


def panel_of(records) -> Panel:
    """The columns of `records`, one entry per record in order."""
    records = list(records)

    def floats(names):
        return np.array([[getattr(r, name) for name in names] for r in records], dtype=float)

    return Panel(
        zip=np.array([r.zip for r in records], dtype=object),
        year=np.array([r.year for r in records], dtype=np.int64),
        area=np.array([r.area.value for r in records], dtype=object),
        flags=np.array([r.flags for r in records], dtype=object),
        **{name: floats([name]).reshape(-1) for name in COUNT_FIELDS},
        predictors=floats(PREDICTOR_FIELDS).reshape(-1, len(PREDICTOR_FIELDS)),
    )


def records_of(panel: Panel) -> list[Record]:
    """One `Record` per panel row, NaN read as None."""
    columns = {name: getattr(panel, name).tolist() for name in COUNT_FIELDS}
    columns.update(zip(PREDICTOR_FIELDS, panel.predictors.T.tolist()))
    return [
        Record(
            zip=panel.zip[i],
            year=int(panel.year[i]),
            area=Area(panel.area[i]),
            flags=panel.flags[i],
            **{name: None if math.isnan(col[i]) else col[i] for name, col in columns.items()},
        )
        for i in range(len(panel))
    ]


# A plain decimal in ASCII, with optional exponent, or nan/inf, between
# optional ASCII blanks.
_PLAIN_NUMBER = re.compile(
    r"[ \t\r\n\f\v]*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)"
    r"[ \t\r\n\f\v]*",
    re.IGNORECASE,
)


def _plain_float(token):
    """float(token) for a plain ASCII decimal; ValueError for anything else,
    digit-group underscores and non-ASCII digits included."""
    if not _PLAIN_NUMBER.fullmatch(token):
        raise ValueError(f"not a plain decimal: {token!r}")
    return float(token)


_ASCII_BLANKS = " \t\r\n\f\v"
_ASCII_DIGITS = frozenset("0123456789")


def _ascii_digits(text):
    return bool(text) and set(text) <= _ASCII_DIGITS


def normalize_zip_reference(raw):
    """Five ASCII digits from a ZIP token, by hand: ASCII blanks stripped,
    then a ".0" float artifact or a "-"/"+" suffix of 1-4 digits dropped,
    then 1-5 digits left-padded with zeros."""
    token = raw.strip(_ASCII_BLANKS)
    head = token
    if token.endswith(".0"):
        head = token[:-2]
    else:
        cut = min((i for i in (token.find("-"), token.find("+")) if i >= 0), default=-1)
        if cut >= 0 and 1 <= len(token) - cut - 1 <= 4 and _ascii_digits(token[cut + 1:]):
            head = token[:cut]
    if not _ascii_digits(head):
        raise ValidationError(f"not a ZIP code: {raw!r}")
    if len(head) > 5:
        raise ValidationError(f"ZIP has {len(head)} digits after suffix strip: {raw!r}")
    return "0" * (5 - len(head)) + head


def _parse_number(token):
    """(value, was_sentinel); ValueError on garbage. Negative and non-finite
    values are sentinels."""
    if token.strip().upper() in SENTINEL_TOKENS:
        return None, True
    value = _plain_float(token)
    if value < 0 or not math.isfinite(value):
        return None, True
    return value, False


def parse_panel_reference(csv_text, schema=None, *, delimiter=",", year_range=DEFAULT_YEAR_RANGE):
    """Row-by-row parse of CSV text into (Records, Rejects), one row at a
    time under the same rules as `snapgap.ingest.parse_panel`."""
    identity = schema is None
    schema = dict(DEFAULT_SCHEMA if identity else schema)
    for key in REQUIRED_SCHEMA_KEYS:
        if key not in schema:
            raise ValidationError(f"schema does not map required field {key!r}")
    reader = csv.reader(io.StringIO(csv_text), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("CSV has no header row") from None
    if identity:
        schema = {k: c for k, c in schema.items() if c in header or k in REQUIRED_SCHEMA_KEYS}
    positions = {}
    for logical, column in schema.items():
        if column not in header:
            raise ValidationError(f"column {column!r} (field {logical!r}) not in header")
        positions[logical] = header.index(column)
    named = Counter(header)
    for column in schema.values():  # a column read from must be named once
        if named[column] != 1:
            raise ValidationError(f"column {column!r} appears {named[column]} times in header")

    records, rejects = [], []
    lo_year, hi_year = year_range
    for row_num, row in enumerate(reader, start=1):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            rejects.append(Reject(row_num, f"row: {len(row)} fields, need {len(header)}"))
            continue

        def cell(logical):
            idx = positions.get(logical)
            return "" if idx is None else row[idx]

        try:
            zcta = normalize_zip_reference(cell("zip"))
        except ValidationError as exc:
            rejects.append(Reject(row_num, f"zip: {exc}"))
            continue
        try:
            year_value = _plain_float(cell("year"))
        except ValueError:
            year_value = math.nan
        if not year_value.is_integer():
            rejects.append(Reject(row_num, f"year: not an integer: {cell('year')!r}"))
            continue
        year = int(year_value)
        if not lo_year <= year <= hi_year:
            rejects.append(Reject(row_num, f"year: {year} outside {lo_year}-{hi_year}"))
            continue

        values, flags, bad_field = {}, set(), None
        for name in NUMERIC_FIELDS:
            if name not in positions:
                values[name] = None
                continue
            try:
                value, sentinel = _parse_number(cell(name))
            except ValueError:
                bad_field = (name, cell(name))
                break
            if sentinel and cell(name).strip() != "":
                flags.add(FLAG_SENTINEL_RECODED)
            if value is not None and name in PERCENT_FIELDS and value > 100.0:
                value = 100.0
                flags.add(FLAG_CLIPPED)
            values[name] = value
        if bad_field is not None:
            rejects.append(Reject(row_num, f"{bad_field[0]}: unparseable value {bad_field[1]!r}"))
            continue

        area = Area.UNKNOWN
        if "area" in positions and cell("area").strip():
            try:
                area = Area(cell("area").strip())
            except ValueError:
                rejects.append(Reject(row_num, f"area: unknown value {cell('area')!r}"))
                continue
        if "flags" in positions and cell("flags").strip():
            flags.update(t.strip() for t in cell("flags").split(";") if t.strip())
        pov, snap = values["pov_fam"], values["snap_fam"]
        if pov is not None and snap is not None and pov > 0 and snap > pov:
            flags.add(FLAG_SNAP_EXCEEDS_POVERTY)
        records.append(Record(zip=zcta, year=year, area=area, flags=frozenset(flags), **values))
    return records, rejects


def _mean_or_none(values):
    """Mean of the present values, summed left to right from 0.0, or None."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    total = 0.0
    for v in present:
        total += v
    return total / len(present)


def dedupe_reference(records):
    """At most one Record per (zip, year), in first-appearance order: exact
    duplicates dropped, conflicts averaged and flagged DuplicateAveraged."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.zip, rec.year), []).append(rec)
    out = []
    for group in groups.values():
        distinct = []
        for rec in group:
            if rec not in distinct:
                distinct.append(rec)
        if len(distinct) == 1:
            out.append(distinct[0])
            continue
        merged = {name: _mean_or_none(getattr(r, name) for r in distinct) for name in NUMERIC_FIELDS}
        flags = frozenset().union(*(r.flags for r in distinct)) | {FLAG_DUPLICATE_AVERAGED}
        out.append(replace(distinct[0], **merged, flags=flags))
    return out


def designate_area_reference(rows):
    """One ZIP's area from its (zip, status, res_ratio) rows by the
    0.80/0.20 rule: residential mass summed by tract status, Unknown-status
    mass left out of the denominator. Urban share >= 0.80 -> Urban, <= 0.20
    -> Rural, otherwise Mixed; no urban or rural mass -> Unknown."""
    urban = rural = 0.0
    for _, status, ratio in rows:
        if status is Area.URBAN:
            urban += ratio
        elif status is Area.RURAL:
            rural += ratio
    mass = urban + rural
    if mass <= 0.0:
        return Area.UNKNOWN
    share = urban / mass
    if share >= 0.80:
        return Area.URBAN
    if share <= 0.20:
        return Area.RURAL
    return Area.MIXED


def parse_crosswalk_reference(csv_text):
    """Row-by-row parse of crosswalk text into one (zip, status, res_ratio)
    tuple per accepted row and the Rejects, those rows grouped per ZIP in
    row order, and each group designated: (ZIP -> area name, rejects)."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise ValidationError("crosswalk CSV has no header row") from None
    for col in ("zip", "tract_status", "res_ratio"):
        if col not in header:
            raise ValidationError(f"crosswalk column {col!r} not in header")
    named = Counter(header)
    for col in ("zip", "tract_status", "res_ratio"):  # a column read from must be named once
        if named[col] != 1:
            raise ValidationError(f"column {col!r} appears {named[col]} times in header")
    zi, si, ri = header.index("zip"), header.index("tract_status"), header.index("res_ratio")
    width = max(zi, si, ri) + 1

    rows, rejects = [], []
    for row_num, row in enumerate(reader, start=1):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < width:
            rejects.append(Reject(row_num, f"row: {len(row)} fields, need {width}", "crosswalk"))
            continue
        try:
            zcta = normalize_zip_reference(row[zi])
        except ValidationError as exc:
            rejects.append(Reject(row_num, f"zip: {exc}", "crosswalk"))
            continue
        status_token = row[si].strip().capitalize()
        status = Area(status_token) if status_token in ("Urban", "Rural") else Area.UNKNOWN
        try:
            ratio = _plain_float(row[ri])
        except ValueError:
            rejects.append(Reject(row_num, f"res_ratio: unparseable {row[ri]!r}", "crosswalk"))
            continue
        if not 0.0 <= ratio <= 1.0:
            rejects.append(Reject(row_num, f"res_ratio: {ratio} outside [0,1]", "crosswalk"))
            continue
        rows.append((zcta, status, ratio))

    by_zip = {}
    for row in rows:
        by_zip.setdefault(row[0], []).append(row)
    return {z: designate_area_reference(group).value for z, group in by_zip.items()}, rejects


def quantile_interp(values, q):
    """Sorted-rank linear interpolation at index h = (n-1) q."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    h = (n - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return xs[lo]
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def prepare_reference(record, cfg):
    """Row-wise poverty rate, raw uptake ratio and eligibility of one record.

    The poverty rate is pov_fam / fam_universe when the universe is
    positive, else pov_rate; the uptake ratio snap_fam / pov_fam needs a
    positive poverty count. Undefined values are None. The returned dict
    also carries `s`, `area` and `predictors_present` for `label_oracle`.
    """
    if record.fam_universe is not None and record.fam_universe > 0:
        p = None if record.pov_fam is None else record.pov_fam / record.fam_universe
    else:
        p = record.pov_rate
    s_raw = None
    if record.pov_fam is not None and record.pov_fam > 0 and record.snap_fam is not None:
        s_raw = record.snap_fam / record.pov_fam
    present = all(getattr(record, name) is not None for name in PREDICTOR_FIELDS)
    eligible = (
        p is not None
        and math.isfinite(p)
        and p > 0
        and not p < cfg.poverty_floor
        and s_raw is not None
        and math.isfinite(s_raw)
        and s_raw > 0
        and present
    )
    return {
        "p": p,
        "s_raw": s_raw,
        "eligible": eligible,
        "s": s_raw,
        "area": record.area.value,
        "predictors_present": present,
    }


def label_oracle(
    rows, poverty_floor=0.15, hi_q=0.70, lo_q=0.10, by_area=False, capped=True, thresholds=None
):
    """Explicit sort-and-threshold labeling.

    `rows` are dicts with keys p, s (raw uptake), area, and optionally
    eligible-blocking fields already resolved: pass p=None or s=None (or
    s<=0, p below floor) for ineligible rows. Uptake is min(s, 1) when
    `capped`. Supplied `thresholds` ({key: (tau_hi, tau_lo)}) replace the
    quantile fit, and eligible rows whose key has no pair stay None.
    Returns a list of 1/0/None.
    """

    def eligible(row):
        p, s = row["p"], row["s"]
        if p is None or not math.isfinite(p) or p <= 0 or p < poverty_floor:
            return False
        if s is None or not math.isfinite(s) or s <= 0:
            return False
        return row.get("predictors_present", True)

    def uptake(row):
        return min(row["s"], 1.0) if capped else row["s"]

    elig = [i for i, r in enumerate(rows) if eligible(r)]
    labels: list = [None] * len(rows)
    if not elig:
        return labels
    groups: dict[str, list[int]] = {}
    for i in elig:
        key = rows[i]["area"] if by_area else "All"
        groups.setdefault(key, []).append(i)
    for key, idxs in groups.items():
        if thresholds is None:
            tau_hi = quantile_interp([rows[i]["p"] for i in idxs], hi_q)
            tau_lo = quantile_interp([uptake(rows[i]) for i in idxs], lo_q)
        elif key in thresholds:
            tau_hi, tau_lo = thresholds[key]
        else:
            continue
        for i in idxs:
            p, s = rows[i]["p"], uptake(rows[i])
            labels[i] = 1 if (p >= tau_hi and s <= tau_lo) else 0
    return labels


def yearly_reference(cfg, panel: Panel) -> list[dict]:
    """The manifest's yearly table, one year of the periods at a time: the
    year's rows sliced out and labeled pooled, and its anomalies (rows whose
    benefit-to-poverty ratio exceeds 1) counted over all of those rows,
    labeled or not."""
    (a, b), (c, d) = cfg.p1_years, cfg.p2_years
    table = []
    for year in [*range(a, b + 1), *range(c, d + 1)]:
        rows = panel.take(panel.year == year)
        entry = {"year": year, "n_rows": len(rows)}
        try:
            labeled = build_labels(rows, cfg.label)
        except CohortError:  # no eligible row, or no row at all
            entry.update(n_eligible=0, tau_hi=None, tau_lo=None, prevalence=None)
        else:
            th = labeled.thresholds["All"]
            entry.update(
                n_eligible=labeled.n_eligible(),
                tau_hi=th.tau_hi,
                tau_lo=th.tau_lo,
                prevalence=labeled.prevalence,
            )
        counts = zip(rows.pov_fam.tolist(), rows.snap_fam.tolist())
        entry["anomaly_rows"] = sum(1 for pov, snap in counts if pov > 0 and snap / pov > 1.0)
        table.append(entry)
    return table


def ols_normal_equations(x, y):
    """Solve the 2x2 normal equations directly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    A = np.array([[n, x.sum()], [x.sum(), (x * x).sum()]])
    b = np.array([y.sum(), (x * y).sum()])
    alpha, beta = np.linalg.solve(A, b)
    return float(alpha), float(beta)


def fd_gradient(f, theta, eps=1e-6):
    """Central finite-difference gradient of scalar f."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


def auc_pairwise(scores, labels):
    """O(n^2) pair enumeration: wins + half-ties over all pos/neg pairs."""
    scores = list(map(float, scores))
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def ap_rank_enum(scores, labels):
    """Rank-by-rank precision sum over positives, stable descending order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    ap = 0.0
    hits = 0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            ap += hits / rank
    return ap / n_pos


def auc_ascending_ranks(scores, labels):
    """ROC AUC as the rank-sum statistic over one ascending stable sort, each
    tie group at its average 1-based rank: the arithmetic `roc_auc` must
    match bit for bit."""
    s, y = np.asarray(scores, dtype=float), np.asarray(labels, dtype=int)
    order = np.argsort(s, kind="stable")
    sorted_s, n = s[order], len(s)
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    return (float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ap_descending_sort(scores, labels):
    """Average precision over one descending stable sort: the arithmetic
    `average_precision` must match bit for bit."""
    s, y = np.asarray(scores, dtype=float), np.asarray(labels, dtype=int)
    y_sorted = y[np.argsort(-s, kind="stable")]
    k = np.arange(1, len(s) + 1)
    return float(np.sum((np.cumsum(y_sorted) / k) * y_sorted) / int(np.sum(y == 1)))


def precision_at_k_oracle(scores, labels, fraction):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    k = math.ceil(fraction * len(scores))
    top = order[:k]
    return sum(labels[i] for i in top) / k


def youden_scan(scores, labels):
    """Best J over every threshold achievable on this data (inclusive >=)."""
    cands = sorted(set(scores))
    cands = [cands[0]] + [(a + b) / 2 for a, b in zip(cands, cands[1:])] + [
        math.nextafter(cands[-1], math.inf)
    ]
    n_pos = sum(1 for l in labels if l == 1)
    n_neg = len(labels) - n_pos
    best = -math.inf
    for t in cands:
        tp = sum(1 for s, l in zip(scores, labels) if l == 1 and s >= t)
        fp = sum(1 for s, l in zip(scores, labels) if l == 0 and s >= t)
        best = max(best, tp / n_pos - fp / n_neg)
    return best


def youden_best_threshold(scores, labels):
    """Highest candidate threshold whose J equals the best J (ties -> fewer flags)."""
    cands = sorted(set(scores))
    cands = [cands[0]] + [(a + b) / 2 for a, b in zip(cands, cands[1:])] + [
        math.nextafter(cands[-1], math.inf)
    ]
    best = youden_scan(scores, labels)
    n_pos = sum(1 for l in labels if l == 1)
    n_neg = len(labels) - n_pos
    for t in reversed(cands):
        tp = sum(1 for s, l in zip(scores, labels) if l == 1 and s >= t)
        fp = sum(1 for s, l in zip(scores, labels) if l == 0 and s >= t)
        if tp / n_pos - fp / n_neg == best:
            return t
    raise AssertionError("best J not attained")


def tree_walk(tree, X):
    """Leaf index per row, following child pointers one row at a time.

    A row goes left when its value is <= the node threshold; NaN is never
    <= anything, so it goes right.
    """
    leaves = []
    for row in np.asarray(X, dtype=float):
        node = 0
        while tree.feature[node] >= 0:
            x = float(row[tree.feature[node]])
            go_left = not math.isnan(x) and x <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        leaves.append(node)
    return leaves


def ensemble_walk_score(model, X):
    """Per-row forest mean or boosting log-odds, summed tree by tree in order."""
    out = []
    for i in range(len(X)):
        total = 0.0 if model.params.kind == "random_forest" else model.base_score
        for tree in model.trees:
            v = tree.value[tree_walk(tree, X[i : i + 1])[0]]
            if model.params.kind == "random_forest":
                total += v
            else:
                total += model.params.learning_rate * v
        out.append(total / len(model.trees) if model.params.kind == "random_forest" else total)
    return np.array(out)


def monotone_sse(fitted, labels):
    return float(np.sum((np.asarray(fitted) - np.asarray(labels)) ** 2))


def pav_perturbations(fitted, eps=1e-3):
    """Monotone neighbors of a fitted vector: single-coordinate and
    contiguous-block moves of +-eps that keep the sequence non-decreasing."""
    fitted = np.asarray(fitted, dtype=float)
    n = len(fitted)
    out = []
    for i in range(n):
        for delta in (-eps, eps):
            cand = fitted.copy()
            cand[i] += delta
            if np.all(np.diff(cand) >= -1e-12):
                out.append(cand)
    for a in range(n):
        for b in range(a + 1, n + 1):
            for delta in (-eps, eps):
                cand = fitted.copy()
                cand[a:b] += delta
                if np.all(np.diff(cand) >= -1e-12):
                    out.append(cand)
    return out


def grid_minimize_2d(objective, center=(0.0, 0.0), half_width=8.0, points=41, rounds=10):
    """Iteratively refined 2-D grid search; a slow, independent minimizer."""
    cx, cy = center
    hw = half_width
    best = (math.inf, cx, cy)
    for _ in range(rounds):
        xs = np.linspace(cx - hw, cx + hw, points)
        ys = np.linspace(cy - hw, cy + hw, points)
        for x in xs:
            for y in ys:
                val = objective(np.array([x, y]))
                if val < best[0]:
                    best = (val, x, y)
        _, cx, cy = best
        hw = hw * 2.2 / (points - 1) * 2  # shrink around the incumbent
    return np.array([best[1], best[2]])


def _reference_split(x, t, w, criterion, min_leaf):
    """(score, threshold) of one feature's best split by a stable sort of the
    node's values, or (inf, nan) when no position is valid."""
    order = np.argsort(x, kind="stable")
    xs, ts, ws = x[order], t[order], w[order]
    n = len(xs)
    cw = np.cumsum(ws)
    cwt = np.cumsum(ws * ts)
    pos = np.arange(n - 1)
    valid = (xs[:-1] < xs[1:]) & (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
    if not valid.any():
        return np.inf, np.nan
    wl = cw[:-1][valid]
    sl = cwt[:-1][valid]
    wr = cw[-1] - wl
    sr = cwt[-1] - sl
    if criterion == "gini":
        gl = wl - (sl**2 + (wl - sl) ** 2) / wl
        gr = wr - (sr**2 + (wr - sr) ** 2) / wr
        score = gl + gr
    else:
        cs2 = np.cumsum(ws * ts * ts)
        s2l = cs2[:-1][valid]
        s2r = cs2[-1] - s2l
        score = (s2l - sl**2 / wl) + (s2r - sr**2 / wr)
    best = int(np.argmin(score))
    at = np.flatnonzero(valid)[best]
    thr = (xs[at] + xs[at + 1]) / 2.0
    if thr >= xs[at + 1]:
        thr = xs[at]
    return float(score[best]), float(thr)


def grow_tree_reference(
    X, targets, weights, *, criterion, max_depth, min_leaf, max_features, rng, leaf_value=None
):
    """Depth-first CART growth that sorts each candidate feature at every node.

    Same contract as `snapgap.models.grow_tree`: preorder nodes, feature
    subsets drawn per split from `rng`, ties to the lowest feature index and
    then the lowest threshold, rows ascending in every node.
    """
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = X.shape[1]
    if leaf_value is None:
        def leaf_value(idx):
            return float(np.sum(weights[idx] * targets[idx]) / np.sum(weights[idx]))

    feature, threshold, left, right, value = [], [], [], [], []
    stack = [(np.arange(X.shape[0]), 0, -1, False)]
    while stack:
        idx, depth, parent_node, is_left = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(np.nan)
        if parent_node >= 0:
            (left if is_left else right)[parent_node] = node
        t, w = targets[idx], weights[idx]
        if (
            (max_depth is not None and depth >= max_depth)
            or len(idx) < 2 * min_leaf
            or np.all(t == t[0])
        ):
            value[node] = leaf_value(idx)
            continue
        if max_features is not None and max_features < d:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)
        total_w = w.sum()
        if criterion == "gini":
            p = (w * t).sum()
            parent = total_w - (p**2 + (total_w - p) ** 2) / total_w
        else:
            mean = (w * t).sum() / total_w
            parent = float(np.sum(w * (t - mean) ** 2))
        best_score, best_feat, best_thr = np.inf, -1, np.nan
        for j in feats:
            score, thr = _reference_split(X[idx, j], t, w, criterion, min_leaf)
            if score < best_score:
                best_score, best_feat, best_thr = score, int(j), thr
        if best_feat < 0 or not best_score < parent - 1e-12 * max(1.0, abs(parent)):
            value[node] = leaf_value(idx)
            continue
        go_left = X[idx, best_feat] <= best_thr
        feature[node] = best_feat
        threshold[node] = best_thr
        stack.append((idx[~go_left], depth + 1, node, False))
        stack.append((idx[go_left], depth + 1, node, True))
    return DecisionTree(tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(value))


def _sigmoid_two_branch(z):
    """1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def fit_tree_ensemble_reference(fm, params):
    """(trees, base_score) of an ensemble grown tree by tree with
    `grow_tree_reference`, which sorts the node's rows for every candidate
    feature at every node.

    Forest tree i grows on the bootstrap drawn from stream (seed, tree, i)
    with the Gini criterion; boosting round m fits the residual y - p by
    squared error, takes the Newton leaf step sum(w r) / sum(w p (1 - p)) and
    adds learning_rate times the value of each row's leaf, found by
    `tree_walk`, to the scores. Weights are class-balanced: n / (2 n_c) for
    class c.
    """
    X, y = fm.X, fm.y.astype(float)
    n, d = X.shape
    n_pos = int(y.sum())
    w = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    if params.max_features is not None:
        max_features = min(params.max_features, d)
    elif params.kind == "random_forest":
        max_features = max(1, int(math.sqrt(d)))
    else:
        max_features = None
    kw = dict(max_depth=params.max_depth, min_leaf=params.min_leaf, max_features=max_features)

    trees = []
    if params.kind == "random_forest":
        for i in range(params.n_trees):
            rng = derive_rng(params.seed, STREAM_TREE, i)
            boot = rng.integers(0, n, size=n)
            tree = grow_tree_reference(X[boot], y[boot], w[boot], criterion="gini", rng=rng, **kw)
            trees.append(tree)
        return tuple(trees), 0.0

    p_base = min(max(float(np.sum(w * y) / np.sum(w)), 1e-12), 1.0 - 1e-12)
    base = math.log(p_base / (1.0 - p_base))
    score = np.full(n, base)
    for m in range(params.n_trees):
        p = _sigmoid_two_branch(score)
        residual = y - p
        curvature = np.maximum(p * (1.0 - p), 1e-12)

        def newton_step(idx, residual=residual, curvature=curvature):
            return float(np.sum(w[idx] * residual[idx])) / float(np.sum(w[idx] * curvature[idx]))

        tree = grow_tree_reference(
            X, residual, w, criterion="mse", rng=derive_rng(params.seed, STREAM_TREE, m),
            leaf_value=newton_step, **kw,
        )
        score += params.learning_rate * np.array([tree.value[i] for i in tree_walk(tree, X)])
        trees.append(tree)
    return tuple(trees), base


def _loss_grad_proba_reference(theta, X, y, weights, c):
    """The penalized loss, its gradient and the probabilities at theta, in
    one pass."""
    beta, b = theta[:-1], theta[-1]
    z = X @ beta + b
    loss = float(np.sum(weights * (np.logaddexp(0.0, z) - y * z)))
    loss += float(beta @ beta) / (2.0 * c)
    p = sigmoid(z)
    wr = weights * (p - y)
    grad = np.empty_like(theta)
    grad[:-1] = X.T @ wr + beta / c
    grad[-1] = np.sum(wr)
    return loss, grad, p


def fit_logistic_reference(fm, c=1.0, counts=None):
    """`fit_logistic` by the loss-first Newton loop: each candidate's loss,
    gradient and probabilities in one pass, then the Armijo test, then the
    gradient-contraction test, with balanced class weights n / (2 * n_c)
    of its own. `counts`, a Counter when given, counts the halved steps
    under "halvings"."""
    logistic.check_l2_strength(c)
    if fm.standardization is None:
        fm = standardize(fm)
    X, y = fm.X, fm.y.astype(float)
    if len(np.unique(fm.y)) < 2:
        raise CohortError("both classes required to fit")
    n_pos = int(np.count_nonzero(fm.y == 1))
    w = np.where(fm.y == 1, fm.n / (2.0 * n_pos), fm.n / (2.0 * (fm.n - n_pos)))

    theta = np.zeros(fm.d + 1)
    pen = np.ones(fm.d + 1) / c
    pen[-1] = 0.0
    loss, grad, p = _loss_grad_proba_reference(theta, X, y, w, c)
    n_iter = 0
    for n_iter in range(1, logistic.MAX_ITER + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= logistic.GRAD_TOL:
            break
        curv = w * p * (1.0 - p)
        H = np.empty((fm.d + 1, fm.d + 1))
        Xw = X * curv[:, None]
        H[:-1, :-1] = X.T @ Xw
        H[:-1, -1] = Xw.sum(axis=0)
        H[-1, :-1] = H[:-1, -1]
        H[-1, -1] = curv.sum()
        H[np.diag_indices_from(H)] += pen
        H[np.diag_indices_from(H)] += 1e-12
        step = np.linalg.solve(H, -grad)

        t = 1.0
        slope = float(grad @ step)
        while True:
            cand = theta + t * step
            cand_loss, cand_grad, cand_p = _loss_grad_proba_reference(cand, X, y, w, c)
            if cand_loss <= loss + 1e-4 * t * slope:
                break
            if np.linalg.norm(cand_grad) <= 0.5 * gnorm:
                break
            if t < 2**-30:
                break
            t *= 0.5
            if counts is not None:
                counts["halvings"] += 1
        theta, loss, grad, p = cand, cand_loss, cand_grad, cand_p
    else:
        gnorm = float(np.linalg.norm(grad))
        if gnorm > logistic.GRAD_TOL:
            raise NonConvergence(
                f"gradient norm {gnorm:.3e} > {logistic.GRAD_TOL:.1e} "
                f"after {logistic.MAX_ITER} iterations"
            )

    return LogisticModel(
        coefficients=theta[:-1].copy(),
        intercept=float(theta[-1]),
        l2_strength=float(c),
        feature_names=fm.feature_names,
        standardization=fm.standardization,
        n_iter=n_iter,
        grad_norm=float(np.linalg.norm(grad)),
    )


def stable_argsort_reference(values):
    """The ascending order of `values`, ties by index: numpy's stable argsort."""
    return np.argsort(values, kind="stable")


def reference_logistic_path(patch):
    """Swap the reference Newton loop and stable argsort into the package
    with `patch(obj, name, value)` (`monkeypatch.setattr`, or `setattr`)."""
    from snapgap import metrics, pipeline
    from snapgap.models import selection

    patch(selection, "fit_logistic", fit_logistic_reference)
    patch(metrics, "stable_argsort", stable_argsort_reference)
    patch(pipeline, "stable_argsort", stable_argsort_reference)


def flagged_rows_reference(zips, years, probs):
    """`[zip, year, p]` rows by descending p, then ZIP, then year, through
    Python's `sorted` on tuples."""
    rows = sorted(zip(zips, years, probs), key=lambda t: (-t[2], t[0], t[1]))
    return [[z, yr, p] for z, yr, p in rows]


def _report_slug(text):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


def render_report_reference(body, flagged_rows, outdir):
    """`manifest.json` through the standard library's `json.dump`, and the
    flagged CSV of each fitted model from its `[zip, year, p]` rows in
    `flagged_rows[(cohort, label)]`, through `csv.writer` with each
    probability written through `repr`, into `outdir`. Returns the written
    file names."""
    names = ["manifest.json"]
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for cohort, cdata in sorted(body.get("cohorts", {}).items()):
        for label, detail in sorted(cdata.get("models", {}).items()):
            if "error" in detail:
                continue
            name = f"flagged_{_report_slug(cohort)}_{_report_slug(label)}.csv"
            with open(outdir / name, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["zip", "year", "calibrated_probability"])
                writer.writerows(
                    [zcta, year, repr(prob)] for zcta, year, prob in flagged_rows[(cohort, label)]
                )
            names.append(name)
    return names
