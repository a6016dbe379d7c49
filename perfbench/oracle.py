"""Reference computations the benchmark checks the program's outputs against.

Everything here works on plain leaf arrays with numpy and the standard
library, and shares no code with treerhi: node averages come from reshaping
the leaf array per level (numpy's pairwise mean, not the program's
child-to-parent sums), prefix quantities from the leaves sorted once.

Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the output agrees with the oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9  # constants, p0 roots, curve ratios, scale invariance
THRESHOLD_REL_TOL = 1e-10  # trace threshold against the sorted-leaf prefix average
TIE_REL_TOL = 1e-12  # maximal-function values this close to the threshold may go either way


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def level_means(leaves: np.ndarray, k: int, depth: int, q: float) -> list[np.ndarray]:
    """means[l][i] = average of leaves**q over node (l, i), root first."""
    powered = leaves if q == 1.0 else leaves ** q
    return [powered.reshape(k ** level, -1).mean(axis=1) for level in range(depth + 1)]


def _node_sup(ratios: list[np.ndarray]) -> tuple[float, tuple[int, int]]:
    best, witness = -math.inf, (0, 0)
    for level, arr in enumerate(ratios):
        i = int(np.argmax(arr))
        if arr[i] > best:
            best, witness = float(arr[i]), (level, i)
    return best, witness


def max_function(leaves: np.ndarray, k: int, depth: int) -> np.ndarray:
    """Per leaf, the largest average over the nodes containing it."""
    running = np.zeros(leaves.size)
    for level, means in enumerate(level_means(leaves, k, depth, 1.0)):
        running = np.maximum(running, np.repeat(means, k ** (depth - level)))
    return running


def prefix_mean(sorted_desc: np.ndarray, t, q: float = 1.0) -> np.ndarray:
    """(1/t) * integral over (0, t] of the rearrangement to the power q.

    The rearrangement takes value sorted_desc[j] on (j/n, (j+1)/n].
    """
    n = sorted_desc.size
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    powered = sorted_desc ** q
    cum = np.concatenate(([0.0], np.cumsum(powered)))
    full = np.minimum(np.floor(t * n).astype(np.int64), n)
    part = t * n - full
    extra = np.where(full < n, powered[np.minimum(full, n - 1)] * part, 0.0)
    return (cum[full] + extra) / (t * n)


def p0_root(p: float, big_c: float) -> float:
    """Root q > p of ((q-p)/q) * (q/(q-1))**p * C = 1, by bisection.

    The left side increases in q (its log-derivative is
    p(p-1)/(q(q-1)(q-p)) > 0), so bisection on a doubling bracket finds the
    unique root.  Returns inf when C == 1.
    """
    if big_c <= 1.0:
        return math.inf

    def g(q: float) -> float:
        return math.log(q - p) - math.log(q) + p * (math.log(q) - math.log(q - 1.0)) + math.log(big_c)

    lo, hi = p, 2.0 * p
    while g(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid == p or g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AnalyzeOracle:
    """Reference values for ``analyze`` of one weight at one exponent."""

    k: int
    p: float
    rhi: float
    rhi_ratios: list
    prefix_rhi_lb: float
    muck: float
    muck_ratios: list
    prefix_muck_lb: float


def analyze_oracle(leaves: np.ndarray, k: int, depth: int, p: float) -> AnalyzeOracle:
    """Both tree constants from per-level reshape averages, and lower bounds
    for both prefix constants from the sorted leaves at every breakpoint."""
    m = -1.0 / (p - 1.0)
    a1 = level_means(leaves, k, depth, 1.0)
    ap = level_means(leaves, k, depth, p)
    am = level_means(leaves, k, depth, m)
    rhi_ratios = [x / y ** p for x, y in zip(ap, a1)]
    muck_ratios = [x * y ** (p - 1.0) for x, y in zip(a1, am)]

    s = np.sort(leaves)[::-1]
    j = np.arange(1, s.size + 1, dtype=np.float64)
    c1 = np.cumsum(s) / j
    cp = np.cumsum(s ** p) / j
    cm = np.cumsum(s ** m) / j
    return AnalyzeOracle(
        k=k,
        p=p,
        rhi=_node_sup(rhi_ratios)[0],
        rhi_ratios=rhi_ratios,
        prefix_rhi_lb=float(np.max(cp / c1 ** p)),
        muck=_node_sup(muck_ratios)[0],
        muck_ratios=muck_ratios,
        prefix_muck_lb=float(np.max(c1 * cm ** (p - 1.0))),
    )


def _check_sup(label: str, value, witness, ratios, expected: float) -> list[str]:
    bad = []
    if not _close(float(value), expected):
        bad.append(f"{label} {value!r} != oracle {expected!r}")
    level, index = witness
    if not (0 <= level < len(ratios) and 0 <= index < ratios[level].size):
        bad.append(f"{label} witness {witness} is not a node")
    elif not _close(float(ratios[level][index]), expected):
        bad.append(f"{label} witness {witness} does not attain the constant")
    return bad


def _check_prefix(label: str, value: float, lower: float, tree_constant: float, k: int) -> list[str]:
    bound = k * tree_constant - k + 1.0
    bad = []
    if not value >= lower * (1.0 - REL_TOL):
        bad.append(f"{label} {value!r} below the breakpoint maximum {lower!r}")
    if not value <= bound * (1.0 + REL_TOL):
        bad.append(f"{label} {value!r} above k*c-k+1 = {bound!r}")
    return bad


def check_analyze(report: dict, ref: AnalyzeOracle) -> list[str]:
    """Compare an ``analyze_weight`` report with the oracle of the same weight
    (or of its unscaled original: every checked value is scale invariant)."""
    k, p = ref.k, ref.p
    bad = _check_sup("dyadic_constant", report["dyadic_constant"], report["dyadic_witness"],
                     ref.rhi_ratios, ref.rhi)
    bad += _check_prefix("prefix_constant", report["prefix_constant"], ref.prefix_rhi_lb, ref.rhi, k)
    bound = k * ref.rhi - k + 1.0
    if not _close(report["bound"], bound):
        bad.append(f"bound {report['bound']!r} != k*c-k+1 = {bound!r}")
    for key, big_c in (("p0_dyadic", ref.rhi), ("p0_bound", bound)):
        if not _close(report[key], p0_root(p, big_c)):
            bad.append(f"{key} {report[key]!r} != oracle root {p0_root(p, big_c)!r}")
    if "muckenhoupt_constant" not in report:
        return bad + ["Muckenhoupt constants missing for a positive weight"]
    bad += _check_sup("muckenhoupt_constant", report["muckenhoupt_constant"],
                      report["muckenhoupt_witness"], ref.muck_ratios, ref.muck)
    bad += _check_prefix("prefix_muckenhoupt_constant", report["prefix_muckenhoupt_constant"],
                         ref.prefix_muck_lb, ref.muck, k)
    return bad


def check_trace(threshold: float, stopping, all_hold: bool, leaves: np.ndarray,
                k: int, depth: int, t: float) -> list[str]:
    """Threshold against the prefix average, stopping leaves against the
    exceedance set of the maximal function, and every assertion holding."""
    bad = []
    expected = float(prefix_mean(np.sort(leaves)[::-1], t)[0])
    if not _close(threshold, expected, THRESHOLD_REL_TOL):
        bad.append(f"threshold {threshold!r} != oracle prefix average {expected!r}")
    covered = np.zeros(leaves.size, dtype=bool)
    for level, index in stopping:
        span = k ** (depth - level)
        covered[index * span:(index + 1) * span] = True
    maximal = max_function(leaves, k, depth)
    differ = covered != (maximal > threshold)
    if np.any(differ & (np.abs(maximal - threshold) > TIE_REL_TOL * threshold)):
        bad.append(f"stopping leaves differ from the exceedance set at "
                   f"{int(np.count_nonzero(differ))} leaves")
    if not all_hold:
        bad.append("trace assertions do not all hold")
    return bad


def check_curve(rows: np.ndarray, leaves: np.ndarray, p: float) -> list[str]:
    """Every (t, R(t)) row against the ratio from the sorted leaves."""
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != 2:
        return ["curve has no rows"]
    s = np.sort(leaves)[::-1]
    t = rows[:, 0]
    expected = prefix_mean(s, t, p) / prefix_mean(s, t, 1.0) ** p
    ok = np.isfinite(rows[:, 1]) & (np.abs(rows[:, 1] - expected) <= REL_TOL * np.abs(expected))
    if not np.all(ok):
        return [f"curve ratio differs from the oracle at {int(np.count_nonzero(~ok))} of {t.size} rows"]
    return []


def check_p0(p0: float, p: float, c: float, k: int) -> list[str]:
    expected = p0_root(p, k * c - k + 1.0)
    if not _close(p0, expected):
        return [f"p0 {p0!r} != oracle root {expected!r}"]
    return []
