"""Non-increasing rearrangement and prefix-interval constants.

The rearrangement of a tree weight is an exact step function on (0, 1]
whose breakpoints are integer multiples of the leaf measure; when no two
leaves tie they are all n of them, formed only when read.  Prefix
averages over (0, t] are exact piecewise-constant integrals, and the
reverse-Holder / Muckenhoupt constants over prefix intervals are computed
as a sup over t of a power-mean ratio, taken over the breakpoints and, inside
each step, the single interior stationary point of the ratio, solved in
closed form (the log-derivative equation there is linear in t).  One loop
over chunks of steps (_ratios_at) serves a list of exponent pairs, with
a running integral per distinct exponent that keeps the bits of one pass
over all steps.  Each pair evaluates a block of steps only where a bound on
its ratio there reaches its largest ratio so far, so its sup and witness are
those of evaluating every point.  The node sups share its range policy.
ratio_curve evaluates a grid in one pass over whole arrays (_curve_at).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .tree import MAX_LEAVES
from .weight import _CHUNK, _MARGIN, _RESOLVED, DyadicWeight, _power_average, _retried

T_SLACK = 1e-12
# Steps per block of the prefix sup's bound (_ratios_at), and the smallest
# normal double.
_BLOCK = 256
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class StepFunction:
    """Left-continuous, non-increasing step function on (0, 1].

    values[i] is taken on (breakpoints[i-1], breakpoints[i]], with an
    implicit leading breakpoint at 0; the last breakpoint is 1.  The
    constructor checks read-only copies of the arrays it is handed, so a
    caller's array is never shared; rearrangement keeps its own (_sorted).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp, vals = (np.array(x, dtype=np.float64) for x in (self.breakpoints, self.values))
        if bp.ndim != 1 or bp.shape != vals.shape or bp.size == 0:
            raise ValueError("breakpoints and values must be equal-length 1-d arrays")
        # negated comparisons, so that NaN fails each check
        if not (bp[0] > 0 and (bp[1:] > bp[:-1]).all()):
            raise ValueError("breakpoints must be strictly increasing and positive")
        if not abs(bp[-1] - 1.0) <= T_SLACK:
            raise ValueError(f"last breakpoint must be 1, got {bp[-1]}")
        if not (np.isfinite(vals[0]) and vals[-1] >= 0 and (vals[1:] <= vals[:-1]).all()):
            raise ValueError("values must be finite, non-negative and non-increasing")
        bp.setflags(write=False)
        vals.setflags(write=False)
        self.__dict__.update(breakpoints=bp, values=vals)

    @classmethod
    def _sorted(cls, values: np.ndarray, breakpoints: np.ndarray | None = None) -> StepFunction:
        """Steps kept as built, read-only, with no copy and no check: finite,
        non-negative, non-increasing float64 values and their breakpoints, or
        None for n unit steps (breakpoints j/n, formed when first read)."""
        h = object.__new__(cls)
        values.setflags(write=False)
        h.__dict__["values"] = values
        if breakpoints is not None:
            breakpoints.setflags(write=False)
            h.__dict__["breakpoints"] = breakpoints
        return h

    def __getattr__(self, name: str):
        """The ``breakpoints`` of unit steps, read for the first time."""
        if name != "breakpoints":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n = self.values.size
        bp = self.__dict__[name] = _right_ends(None, 0, n, n)
        bp.setflags(write=False)
        return bp


def _right_ends(right: np.ndarray | None, s: int, e: int, n: int) -> np.ndarray:
    """breakpoints[s:e] of n steps: a slice of `right`, or for unit steps
    (right None) j/n for j = s + 1, ..., e, formed here with the bits of the
    same slice of the whole."""
    return right[s:e] if right is not None else np.arange(s + 1, e + 1, dtype=np.float64) / n


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
    becomes the values when no two leaves tie.  Then the steps are the n
    unit steps, whose breakpoints are formed only when read, so the values
    are the only leaf-sized array made; with ties, the m distinct steps keep
    explicit breakpoints.  Either way the arrays built here are kept as
    they are (_sorted): the sort made them non-increasing, and the weight
    checked that its values are finite and non-negative.
    """
    n = weight.space.n_leaves
    desc = np.negative(weight.values)
    desc.sort()
    change = desc[1:] != desc[:-1]
    if change.all():
        return StepFunction._sorted(np.negative(desc, out=desc))
    ends = np.append(np.flatnonzero(change), n - 1)
    values, breakpoints = desc[ends], (ends + 1).astype(np.float64)
    breakpoints /= n
    return StepFunction._sorted(np.negative(values, out=values), breakpoints)


def prefix_average(h: StepFunction, t: float, q: float = 1.0) -> float:
    """(1/t) * integral of h**q over (0, t], by exact step integration."""
    t = _check_t(t)
    if t <= h.breakpoints[0]:
        # constant on (0, t]: avoid the v*t/t round trip, which can land an
        # ulp below v and make the prefix average undercut the top value
        return _power_average(q, h.values, lambda: float((h.values[:1] ** q)[0]))
    left = np.concatenate(([0.0], h.breakpoints[:-1]))
    seg = np.clip(np.minimum(h.breakpoints, t) - left, 0.0, None)
    return _power_average(
        q, h.values, lambda: float(np.dot(h.values if q == 1.0 else h.values ** q, seg)) / t)


def _ratios_at(right: np.ndarray | None, v: np.ndarray,
               pairs) -> list[tuple[float, float] | None]:
    """For each pair (a, b), the sup of R = (M_a / M_b)**a over (0, t] and
    the largest t attaining it, taken over the breakpoints `right` (None for
    unit steps) and interior stationary points that can reach the sup,
    _CHUNK steps at a time; None for a pair once a mean falls below
    _RESOLVED or R is not finite, and the loop ends once every pair is None.

    A chunk's temporaries stay in cache, its breakpoints among them
    (_right_ends), so unit steps need no whole array of breakpoints.  The
    integral of h**q, for each exponent q of the pairs still in range (one
    out of range can run in subnormals), is a running sum seeded with the
    last chunk's total: add.accumulate adds in order, so every integral,
    mean and ratio has the bits of one whole-array cumsum.  Each pair keeps its own `top` below.

    A chunk is cut into blocks of _BLOCK steps, and the ratio at each
    block's end is evaluated first; `top` is the largest ratio evaluated
    so far.  A block's other breakpoints and its interior stationary points
    (_stationary) are evaluated only when the block can reach `top`.
    R = N * D**y * t**z, and the computed N and D never decrease in t, so on
    a block (l, r] R <= R(r) * G, with G = (D(r)/D(l))**-y when y < 0
    (reverse Holder) and G = (r/l)**-z when y > 0 (Muckenhoupt); either
    exponent is p.  Without the power, G holds in exact arithmetic, since
    prefix means of h never increase and of h**b (b < 0) never decrease; but
    computed means keep that only up to about n * 2**-53, past the margin at
    2**20 steps.  The first block starts at t = 0, where D and t vanish, so
    its G is infinite.  A block with R(r) * G * margin < top is skipped, with
    margin = 1 + 2**-44 * (1 + |y| + |z|): the computed R(r), G and skipped
    ratio each round by a few ulp per unit of |y| and |z| (a power multiplies
    the relative error of its base by its exponent), and the margin covers
    their sum over ten times.  So a skipped point lies strictly below an
    evaluated one, and the sup, its largest-t tie and the None verdict are
    those of evaluating every point.

    That needs every rounding to be relative.  Computed N and D never
    decrease and correctly rounded division is monotone, so the floor
    fl(min(N, D) at the chunk's first breakpoint / its last breakpoint) is
    below every breakpoint mean of the chunk; an interior mean lies between
    its step's end means, and its M_b = M_a / R is at least lowest / top.
    So when the floor, or a mean carried in from the last chunk, is below
    max(_RESOLVED, top * tiny) * margin, nothing in the chunk is skipped, and
    the exact minimum of all its means is checked.  A block whose N or D
    overflows by its end has a bound that is not finite, so it is never
    skipped.  A step function of one block is evaluated whole, without a
    bound: its only block starts at t = 0.

    No step of this argument uses non-increasing values.  The block bound
    needs only the computed N and D non-decreasing, as running sums of
    non-negative terms are; the floor needs only that and t at most the
    chunk's last breakpoint; and an interior mean lies between its step's
    end means, as (n0 + v * (t - l)) / t is monotone in t.  Only G without
    the power, rejected above, leans on monotone h.
    """
    rows = list(dict.fromkeys(q for pair in pairs for q in pair))
    cols = [(rows.index(a), rows.index(b), a, b, y, -1.0 - y) for a, b in pairs for y in (-a / b,)]
    tops, witness = [-np.inf] * len(pairs), [0.0] * len(pairs)
    ends, end = [0.0] * len(rows), 0.0  # the integrals and breakpoint where the last chunk ended
    for s in range(0, v.size, _CHUNK):
        needed = {e for col, top in zip(cols, tops) if top is not None for e in col[:2]}
        if not needed:
            break
        r, vc = _right_ends(right, s, min(s + _CHUNK, v.size), v.size), v[s:s + _CHUNK]
        left = np.concatenate(([end], r[:-1]))
        width = r - left
        with np.errstate(all="ignore"):
            powers = {e: _power(vc, rows[e]) for e in needed}
            # sums[e][i] integrates h**rows[e] up to the start of step i, sums[e][i + 1] to its end
            sums = {e: np.add.accumulate(np.concatenate(([ends[e]], powers[e] * width)))
                    for e in needed}
            for j, (ia, ib, a, b, y, z) in enumerate(cols):
                before = tops[j]
                if before is None:  # the pair has left the double range
                    continue
                margin = 1.0 + _MARGIN * (1.0 + abs(y) + abs(z))
                va, vb, n, d = powers[ia], powers[ib], sums[ia], sums[ib]
                n0, d0 = n[:-1], d[:-1]
                # at breakpoint i, n0 + va*width is n[i + 1] itself, so the means
                # there are read off n and d.  The breakpoints evaluated and the
                # steps solved are all of them, or the blocks' ends and all of
                # the blocks that can reach `top`.
                n_at, d_at, t = n[1:], d[1:], r
                solve = slice(None)
                if s or r.size > _BLOCK:
                    first = np.arange(0, r.size, _BLOCK)
                    last = np.minimum(first + _BLOCK, r.size) - 1
                    at_ends = _ratio(n[last + 1] / r[last], d[last + 1] / r[last], a, b)
                    tops[j] = max(tops[j], at_ends.max())
                    resolved = max(_RESOLVED, tops[j] * _TINY) * margin
                    # below every breakpoint mean of the chunk, and the one carried in
                    floor = min(n[1], d[1]) / r[-1]
                    if s:
                        floor = min(floor, ends[ia] / end, ends[ib] / end)
                    if floor >= resolved:
                        upper, lower = ((d[last + 1], d[first]) if y < 0
                                        else (r[last], left[first]))
                        live = ~(at_ends * (upper / lower) ** max(-y, -z) * margin < tops[j])
                        if not live.all():
                            solve = (first[live, None] + np.arange(_BLOCK)).ravel()
                            solve = solve[solve < r.size]
                            pts = np.concatenate([last[~live], solve])
                            n_at, d_at, t = n_at[pts], d_at[pts], r[pts]
                mean_a, mean_b = n_at / t, d_at / t
                ratio = _ratio(mean_a, mean_b, a, b)
                lowest = min(mean_a.min(), mean_b.min())
                step, t_in = _stationary(n0, d0, va, vb, left, r, solve, y, z)
                if step.size:
                    mean_a = _mean_in(n0, va, left, step, t_in)
                    mean_b = _mean_in(d0, vb, left, step, t_in)
                    t = np.concatenate([t, t_in])
                    ratio = np.concatenate([ratio, _ratio(mean_a, mean_b, a, b)])
                    lowest = min(lowest, mean_a.min(), mean_b.min())
                top = ratio.max()
                # against the top from before the chunk, which its block ends may have
                # raised; a later chunk's t are all larger, so a tie moves right
                if top >= before:
                    witness[j] = t[ratio == top].max()
                # NaN, like inf, fails the check
                tops[j] = max(tops[j], top) if np.isfinite(top) and lowest >= _RESOLVED else None
        ends, end = {e: x[-1] for e, x in sums.items()}, r[-1]
    return [None if top is None else (top, t) for top, t in zip(tops, witness)]


def _curve_at(right: np.ndarray, grid: np.ndarray, step: np.ndarray,
              v: np.ndarray, pairs) -> list[np.ndarray | None]:
    """For each pair (a, b), R = (M_a / M_b)**a at the points grid, which
    lie in the steps `step`; None when a mean falls below _RESOLVED or R is
    not finite.  One pass over whole arrays, whose add.accumulate adds in
    the order of _ratios_at's seeded chunks, so the sums have their bits."""
    left = np.concatenate(([0.0], right[:-1]))
    width = right - left
    curves = []
    with np.errstate(all="ignore"):
        for a, b in pairs:
            va, vb = _power(v, a), _power(v, b)
            n, d = (np.add.accumulate(np.concatenate(([0.0], vq * width))) for vq in (va, vb))
            mean_a, mean_b = _mean_in(n, va, left, step, grid), _mean_in(d, vb, left, step, grid)
            ratio = _ratio(mean_a, mean_b, a, b)
            lowest = min(mean_a.min(), mean_b.min())
            curves.append(ratio if np.isfinite(ratio.max()) and lowest >= _RESOLVED else None)
    return curves


def _stationary(n0: np.ndarray, d0: np.ndarray, va: np.ndarray, vb: np.ndarray,
                left: np.ndarray, right: np.ndarray, step: np.ndarray | slice,
                y: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """The steps among `step` (indices, or slice(None) for all) that have a
    stationary point of the ratio inside, as indices, and those points.
    Within a step N = alpha + va*t and D = gamma + vb*t.  The ratio is
    N * D**y * t**z with 1 + y + z = 0, so the quadratic term of its
    log-derivative equation cancels and leaves one linear root."""
    lo, va, vb = left[step], va[step], vb[step]
    alpha, gamma = n0[step] - va * lo, d0[step] - vb * lo
    t = z * alpha * gamma / (y * va * gamma + alpha * vb)
    inside = np.flatnonzero((t > lo) & (t < right[step]))
    return (inside if isinstance(step, slice) else step[inside]), t[inside]


def _ratio(mean_a: np.ndarray, mean_b: np.ndarray, a: float, b: float) -> np.ndarray:
    """(M_a / M_b)**a from the power means of h**a and h**b."""
    return _power(_power(mean_a, 1.0 / a) / _power(mean_b, 1.0 / b), a)


def _power(x: np.ndarray, q: float) -> np.ndarray:
    """x**q, with q = 1 left out: it is exact and would only copy x."""
    return x if q == 1.0 else x ** q


def _mean_in(n0: np.ndarray, vq: np.ndarray, left: np.ndarray,
             step: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Average of h**q over (0, ts] with ts inside the steps `step`."""
    return (n0[step] + vq[step] * (ts - left[step])) / ts


def _prefix_sups(h: StepFunction, entries) -> list[PrefixReport]:
    """For each (p, dual) of entries, the sup of the prefix ratio of _power_pair,
    ties to the largest t, from one loop (_ratios_at) under _retried's policy."""
    # unit steps whose breakpoints no one has read yet pass None: not formed here
    found = _retried(h.values, entries, "function",
                     partial(_ratios_at, vars(h).get("breakpoints")))
    return [PrefixReport(p, float(top), float(t)) for (p, _), (top, t) in zip(entries, found)]


def prefix_rhi_constant(h: StepFunction, q: float) -> PrefixReport:
    """sup over t of prefix_average(h, t, q) / prefix_average(h, t, 1)**q."""
    return _prefix_sups(h, [(q, False)])[0]


def prefix_muckenhoupt_constant(h: StepFunction, p: float) -> PrefixReport:
    """sup over t of avg(h) * avg(h**(-1/(p-1)))**(p-1) over prefixes (0, t]."""
    return _prefix_sups(h, [(p, True)])[0]


def ratio_curve(h: StepFunction, q: float, n_samples: int) -> np.ndarray:
    """Rows (t, R(t)) on a grid of all breakpoints plus a uniform fill."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if n_samples > MAX_LEAVES:
        raise ValueError(f"need at most {MAX_LEAVES} samples, got {n_samples}")
    right, samples = h.breakpoints, np.linspace(1.0 / n_samples, 1.0, n_samples)
    # a point's step counts the breakpoints below it; a sample past the last
    # breakpoint, which T_SLACK allows below 1, falls in the last step
    at = right.searchsorted(samples)
    new = right.take(at, mode="clip") != samples  # a sample at a breakpoint is on the grid
    grid = np.insert(right, at[new], samples[new])
    step = np.insert(np.arange(right.size), at[new], np.minimum(at[new], right.size - 1))
    ratios = _retried(h.values, [(q, False)], "function", partial(_curve_at, right, grid, step))[0]
    return np.column_stack((grid, ratios))
