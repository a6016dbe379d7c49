"""Non-increasing rearrangement and prefix-interval constants.

The rearrangement of a tree weight is an exact step function on (0, 1]
whose breakpoints are integer multiples of the leaf measure.  Prefix
averages over (0, t] are exact piecewise-constant integrals, and the
reverse-Holder / Muckenhoupt constants over prefix intervals are computed
as a sup over t of a power-mean ratio: every breakpoint is evaluated, and
inside each step the single interior stationary point of the ratio is
solved in closed form (the log-derivative equation there is linear in t).
The power integrals are running sums over the steps, so at the breakpoints
the means are read straight off them; only the interior stationary points,
and the arbitrary grid of ratio_curve, are gathered back to their steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weight import _RANGE_ERROR, _RESOLVED, DyadicWeight, _power_pair, _scalings

T_SLACK = 1e-12


@dataclass(frozen=True)
class StepFunction:
    """Left-continuous, non-increasing step function on (0, 1].

    values[i] is taken on (breakpoints[i-1], breakpoints[i]], with an
    implicit leading breakpoint at 0; the last breakpoint is 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=np.float64)
        vals = np.array(self.values, dtype=np.float64)
        if bp.ndim != 1 or bp.shape != vals.shape or bp.size == 0:
            raise ValueError("breakpoints and values must be equal-length 1-d arrays")
        if bp[0] <= 0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing and positive")
        if abs(bp[-1] - 1.0) > T_SLACK:
            raise ValueError(f"last breakpoint must be 1, got {bp[-1]}")
        if np.any(vals < 0) or np.any(np.diff(vals) > 0):
            raise ValueError("values must be non-negative and non-increasing")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, t: float) -> float:
        """Value at t in (0, 1] (left-continuous)."""
        t = _check_t(t)
        i = int(np.searchsorted(self.breakpoints, t, side="left"))
        return float(self.values[i])


@dataclass(frozen=True)
class PrefixReport:
    """A sup-over-prefixes constant with the t attaining it.

    Ties are broken toward the largest t.
    """

    exponent: float
    constant: float
    witness_t: float


def _check_t(t: float) -> float:
    if not 0.0 < t <= 1.0 + T_SLACK:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    return min(float(t), 1.0)


def rearrangement(weight: DyadicWeight) -> StepFunction:
    """Leaf values sorted descending, merged into maximal constant steps.

    Breakpoints are cumulative leaf counts divided by the leaf count, so
    level-set lengths of the result match level-set measures of the weight
    exactly.  Computed once per weight and kept on it.
    """
    if weight._rearranged is None:
        n = weight.space.n_leaves
        sorted_vals = np.sort(weight.values)[::-1]
        ends = np.append(np.flatnonzero(np.diff(sorted_vals) != 0), n - 1)
        breakpoints = (ends + 1).astype(np.float64) / n
        weight._rearranged = StepFunction(breakpoints=breakpoints, values=sorted_vals[ends])
    return weight._rearranged


def prefix_average(h: StepFunction, t: float, q: float = 1.0) -> float:
    """(1/t) * integral of h**q over (0, t], by exact step integration."""
    t = _check_t(t)
    if q < 0 and np.any(h.values == 0):
        raise ValueError("negative exponent requires strictly positive values")
    if t <= h.breakpoints[0]:
        # constant on (0, t]: avoid the v*t/t round trip, which can land an
        # ulp below v and make the prefix average undercut the top value
        return float((h.values[:1] ** q)[0])
    left = np.concatenate(([0.0], h.breakpoints[:-1]))
    seg = np.clip(np.minimum(h.breakpoints, t) - left, 0.0, None)
    powered = h.values if q == 1.0 else h.values ** q
    return float(np.dot(powered, seg)) / t


def _prefix_ratios(
    h: StepFunction, p: float, dual: bool, ts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(t, ratio): the power-mean ratio (M_a / M_b)**a of _power_pair over
    (0, t], at ts or, by default, at every breakpoint and every stationary
    point inside a step.  Values out of range are rescaled (see _RANGE_ERROR).
    """
    a, b = _power_pair(p, dual)
    if h.values[0] == 0:
        raise ValueError("function is identically zero")
    if min(a, b) < 0 and h.values[-1] == 0:
        raise ValueError(f"a negative power at p={p} needs strictly positive values")
    for values in _scalings(h.values):
        found = _ratios_at(h.breakpoints, values, a, b, ts)
        if found is not None:
            return found
    raise ValueError(_RANGE_ERROR.format(p=p))


def _ratios_at(
    right: np.ndarray, v: np.ndarray, a: float, b: float, ts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """_prefix_ratios on the step values v, or None when out of double range."""
    left = np.concatenate(([0.0], right[:-1]))
    width = right - left
    with np.errstate(all="ignore"):
        va, vb = _power(v, a), _power(v, b)
        # N and D, the integrals of h**a and h**b: n[i] up to the start of
        # step i, n[i + 1] up to its end.  cumsum adds in order, so n[i + 1]
        # is n[i] + va[i]*width[i] bit for bit.
        n = np.concatenate(([0.0], np.cumsum(va * width)))
        d = np.concatenate(([0.0], np.cumsum(vb * width)))
        n0, d0 = n[:-1], d[:-1]
        if ts is None:
            # Within a step N = alpha + va*t and D = gamma + vb*t.  The ratio
            # is N * D**y * t**z with 1 + y + z = 0, so the quadratic term of
            # its log-derivative equation cancels and leaves one linear root.
            y = -a / b
            z = -1.0 - y
            alpha, gamma = n0 - va * left, d0 - vb * left
            t_in = z * alpha * gamma / (y * va * gamma + alpha * vb)
            step = np.flatnonzero((t_in > left) & (t_in < right))
            t_in = t_in[step]
            ts = np.concatenate([right, t_in])
            # At breakpoint i, n0 + va*width is n[i + 1] itself, so the means
            # there are read off n and d; only interior points are gathered.
            mean_a = np.concatenate([n[1:] / right, _mean_in(n0, va, left, step, t_in)])
            mean_b = np.concatenate([d[1:] / right, _mean_in(d0, vb, left, step, t_in)])
        else:
            step = np.minimum(np.searchsorted(right, ts, side="left"), right.size - 1)
            mean_a = _mean_in(n0, va, left, step, ts)
            mean_b = _mean_in(d0, vb, left, step, ts)
        ratio = _power(_power(mean_a, 1.0 / a) / _power(mean_b, 1.0 / b), a)
        lowest = np.minimum(mean_a.min(), mean_b.min())
    if not (np.isfinite(ratio.max()) and lowest >= _RESOLVED):
        return None
    return ts, ratio


def _power(x: np.ndarray, q: float) -> np.ndarray:
    """x**q, with q = 1 left out: it is exact and would only copy x."""
    return x if q == 1.0 else x ** q


def _mean_in(n0: np.ndarray, vq: np.ndarray, left: np.ndarray,
             step: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Average of h**q over (0, ts] with ts inside the steps `step`."""
    return (n0[step] + vq[step] * (ts - left[step])) / ts


def _prefix_sup(h: StepFunction, p: float, dual: bool) -> PrefixReport:
    """Max of _prefix_ratios with ties resolved toward the largest t."""
    ts, vals = _prefix_ratios(h, p, dual)
    best = np.max(vals)
    witness = np.max(ts[vals == best])
    return PrefixReport(exponent=p, constant=float(best), witness_t=float(witness))


def prefix_rhi_constant(h: StepFunction, q: float) -> PrefixReport:
    """sup over t of prefix_average(h, t, q) / prefix_average(h, t, 1)**q."""
    return _prefix_sup(h, q, dual=False)


def prefix_muckenhoupt_constant(h: StepFunction, p: float) -> PrefixReport:
    """sup over t of avg(h) * avg(h**(-1/(p-1)))**(p-1) over prefixes (0, t]."""
    return _prefix_sup(h, p, dual=True)


def ratio_curve(h: StepFunction, q: float, n_samples: int) -> np.ndarray:
    """Rows (t, R(t)) on a grid of all breakpoints plus a uniform fill."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    grid = np.unique(
        np.concatenate([np.linspace(1.0 / n_samples, 1.0, n_samples), h.breakpoints])
    )
    return np.column_stack(_prefix_ratios(h, q, False, grid))
