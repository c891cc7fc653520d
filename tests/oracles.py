"""Independent brute-force oracles used to verify the package's fast paths.

Everything here is written from the definitions, not from the library code:
quantiles by hand-rolled rank interpolation, OLS by normal equations, AUC by
pairwise comparison, AP by rank enumeration, labeling by explicit sort-and-
threshold, gradients by central differences, tree prediction by walking
one row at a time down the node tuples, tree growth by sorting each
candidate feature again at every node.
"""
from __future__ import annotations

import math

import numpy as np

from snapgap.models import DecisionTree


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


def label_oracle(rows, poverty_floor=0.15, hi_q=0.70, lo_q=0.10, by_area=False):
    """Explicit sort-and-threshold labeling.

    `rows` are dicts with keys p, s (capped uptake), area, and optionally
    eligible-blocking fields already resolved: pass p=None or s=None (or
    s<=0, p below floor) for ineligible rows. Returns a list of 1/0/None.
    """

    def eligible(row):
        p, s = row["p"], row["s"]
        if p is None or not math.isfinite(p) or p <= 0 or p < poverty_floor:
            return False
        if s is None or not math.isfinite(s) or s <= 0:
            return False
        return row.get("predictors_present", True)

    elig = [i for i, r in enumerate(rows) if eligible(r)]
    labels: list = [None] * len(rows)
    if not elig:
        return labels
    groups: dict[str, list[int]] = {}
    for i in elig:
        key = rows[i]["area"] if by_area else "All"
        groups.setdefault(key, []).append(i)
    for key, idxs in groups.items():
        tau_hi = quantile_interp([rows[i]["p"] for i in idxs], hi_q)
        tau_lo = quantile_interp([min(rows[i]["s"], 1.0) for i in idxs], lo_q)
        for i in idxs:
            p, s = rows[i]["p"], min(rows[i]["s"], 1.0)
            labels[i] = 1 if (p >= tau_hi and s <= tau_lo) else 0
    return labels


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
        total = 0.0 if model.kind == "random_forest" else model.base_score
        for tree in model.trees:
            v = tree.value[tree_walk(tree, X[i : i + 1])[0]]
            if model.kind == "random_forest":
                total += v
            else:
                total += model.params.learning_rate * v
        out.append(total / len(model.trees) if model.kind == "random_forest" else total)
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
