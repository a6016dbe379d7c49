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
One loop runs over chunks of steps and carries the running sums from chunk
to chunk, so the sums keep the bits of one pass over all steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weight import _CHUNK, _RANGE_ERROR, _RESOLVED, DyadicWeight, _power_pair, _scalings

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
        bp, vals = _frozen(self.breakpoints), _frozen(self.values)
        if bp.ndim != 1 or bp.shape != vals.shape or bp.size == 0:
            raise ValueError("breakpoints and values must be equal-length 1-d arrays")
        # negated comparisons, so that NaN fails each check
        if not (bp[0] > 0 and (bp[1:] > bp[:-1]).all()):
            raise ValueError("breakpoints must be strictly increasing and positive")
        if not abs(bp[-1] - 1.0) <= T_SLACK:
            raise ValueError(f"last breakpoint must be 1, got {bp[-1]}")
        if not (np.isfinite(vals[0]) and vals[-1] >= 0 and (vals[1:] <= vals[:-1]).all()):
            raise ValueError("values must be finite, non-negative and non-increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)


def _frozen(x) -> np.ndarray:
    """x as a read-only float64 array: x itself when it already is one that
    owns its data (as rearrangement builds them), else a read-only copy, so
    a caller's writable array is never frozen and never shared."""
    if (isinstance(x, np.ndarray) and x.dtype == np.float64
            and not x.flags.writeable and x.flags.owndata):
        return x
    x = np.array(x, dtype=np.float64)
    x.setflags(write=False)
    return x


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
    exactly.  The negated values are sorted in place in one copy, which
    becomes the values when no two leaves tie, so no leaf-sized array is
    made beyond the two outputs.
    """
    n = weight.space.n_leaves
    desc = np.negative(weight.values)
    desc.sort()
    change = desc[1:] != desc[:-1]
    if change.all():
        values, breakpoints = desc, np.arange(1, n + 1, dtype=np.float64)
    else:
        ends = np.append(np.flatnonzero(change), n - 1)
        values, breakpoints = desc[ends], (ends + 1).astype(np.float64)
    np.negative(values, out=values)
    breakpoints /= n
    # frozen here, so that StepFunction keeps them without a copy
    breakpoints.setflags(write=False)
    values.setflags(write=False)
    return StepFunction(breakpoints=breakpoints, values=values)


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


def _prefix_ratios(h: StepFunction, p: float, dual: bool,
                   ts: np.ndarray | None = None) -> tuple[float, float] | np.ndarray:
    """_ratios_at on the values of h as they are or else rescaled (see
    _RANGE_ERROR): the sup over t of the power-mean ratio of _power_pair with
    its witness t, or, given the grid ts, the ratios at ts."""
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


def _ratios_at(right: np.ndarray, v: np.ndarray, a: float, b: float,
               ts: np.ndarray | None) -> tuple[float, float] | np.ndarray | None:
    """Over the chunks of _ratio_chunks: without ts, (sup, t) with ties broken
    toward the largest t; with ts, the ratios at ts.  None when a power mean
    or the ratio leaves the double range."""
    best, witness, curve = -np.inf, 0.0, []
    for t, ratio, lowest in _ratio_chunks(right, v, a, b, ts):
        top = ratio.max()
        if not (np.isfinite(top) and lowest >= _RESOLVED):
            return None
        if ts is not None:
            curve.append(ratio)
        elif top >= best:  # a later chunk's t are all larger, so a tie moves right
            best, witness = top, t[ratio == top].max()
    return (best, witness) if ts is None else np.concatenate(curve)


def _ratio_chunks(right: np.ndarray, v: np.ndarray, a: float, b: float,
                  ts: np.ndarray | None):
    """(t, ratio, lowest mean) for _CHUNK steps at a time: the power-mean ratio
    (M_a / M_b)**a over (0, t] for t at every breakpoint and every stationary
    point inside a step, or at the points of the sorted grid ts (which holds
    every breakpoint) that fall in the chunk's steps.

    A chunk's temporaries stay in cache.  The integrals N and D of h**a and
    h**b are running sums seeded with the previous chunk's totals: add.accumulate
    adds in order, so every N and D, and so every mean and ratio, has the bits
    of one whole-array cumsum.
    """
    y = -a / b
    z = -1.0 - y
    n_end = d_end = end = 0.0  # N, D and the breakpoint where the last chunk ended
    hi = 0
    for s in range(0, right.size, _CHUNK):
        r, vc = right[s:s + _CHUNK], v[s:s + _CHUNK]
        left = np.concatenate(([end], r[:-1]))
        width = r - left
        with np.errstate(all="ignore"):
            va, vb = _power(vc, a), _power(vc, b)
            # n[i] is N up to the start of step i, n[i + 1] up to its end
            n = np.add.accumulate(np.concatenate(([n_end], va * width)))
            d = np.add.accumulate(np.concatenate(([d_end], vb * width)))
            n0, d0 = n[:-1], d[:-1]
            if ts is None:
                # Within a step N = alpha + va*t and D = gamma + vb*t.  The ratio
                # is N * D**y * t**z with 1 + y + z = 0, so the quadratic term of
                # its log-derivative equation cancels and leaves one linear root.
                alpha, gamma = n0 - va * left, d0 - vb * left
                t_in = z * alpha * gamma / (y * va * gamma + alpha * vb)
                step = np.flatnonzero((t_in > left) & (t_in < r))
                t_in = t_in[step]
                t = np.concatenate([r, t_in])
                # At breakpoint i, n0 + va*width is n[i + 1] itself, so the means
                # there are read off n and d; only interior points are gathered.
                mean_a = np.concatenate([n[1:] / r, _mean_in(n0, va, left, step, t_in)])
                mean_b = np.concatenate([d[1:] / r, _mean_in(d0, vb, left, step, t_in)])
            else:
                # the grid points in (end, r[-1]], and the last chunk takes the rest
                lo, hi = hi, (ts.size if s + _CHUNK >= right.size
                              else int(np.searchsorted(ts, r[-1], side="right")))
                t = ts[lo:hi]
                step = np.minimum(np.searchsorted(r, t, side="left"), r.size - 1)
                mean_a = _mean_in(n0, va, left, step, t)
                mean_b = _mean_in(d0, vb, left, step, t)
            ratio = _power(_power(mean_a, 1.0 / a) / _power(mean_b, 1.0 / b), a)
            lowest = np.minimum(mean_a.min(), mean_b.min())
        yield t, ratio, lowest
        n_end, d_end, end = n[-1], d[-1], r[-1]


def _power(x: np.ndarray, q: float) -> np.ndarray:
    """x**q, with q = 1 left out: it is exact and would only copy x."""
    return x if q == 1.0 else x ** q


def _mean_in(n0: np.ndarray, vq: np.ndarray, left: np.ndarray,
             step: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Average of h**q over (0, ts] with ts inside the steps `step`."""
    return (n0[step] + vq[step] * (ts - left[step])) / ts


def _prefix_sup(h: StepFunction, p: float, dual: bool) -> PrefixReport:
    """The sup of the prefix ratio, with ties resolved toward the largest t."""
    best, witness = _prefix_ratios(h, p, dual)
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
    return np.column_stack((grid, _prefix_ratios(h, q, False, grid)))
