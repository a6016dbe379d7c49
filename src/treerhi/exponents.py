"""Self-improvement exponents for reverse-Holder weights.

Solves for the exponent q > p where ((q-p)/q) * (q/(q-1))**p * C crosses 1,
derives the integrability range [p, p0) with the tree-adjusted constant
k*(c - 1) + 1 (transference_bound), and provides the analytic constant of
the power weight u**(-alpha), used as a sharpness oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

ROOT_CAP = 1e9
NEAR_ONE = 2.0**-20  # below this C - 1, _log_f uses its log1p form


@dataclass(frozen=True)
class ExponentResult:
    """Root of the self-improvement equation.

    p0 is +inf when C == 1 (the crossing never happens at finite q);
    residual is NaN in that case.
    """

    p: float
    C: float
    p0: float
    residual: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.p0)


def _log_f(s: float, p: float, C: float) -> float:
    # log of ((q-p)/q) * (q/(q-1))**p * C at q = p + exp(s).  Working in
    # s = log(q - p) keeps the root resolved when it lies within an ulp of p
    # (large C), and log space keeps (q/(q-1))**p from overflowing near 1.
    gap = math.exp(s)
    if C - 1.0 < NEAR_ONE:
        # The root is far out, where the two logs of about log q below cancel
        # down to p(p-1)/(2q^2) and their rounding swamps it; the log1p terms
        # are each accurate to an ulp of p/q.
        q = p + gap
        return math.log1p(-p / q) - p * math.log1p(-1.0 / q) + math.log(C)
    return s + (p - 1.0) * math.log(p + gap) - p * math.log((p - 1.0) + gap) + math.log(C)


def _brent_root(lo: float, hi: float, p: float, C: float) -> float:
    """Root of _log_f on the sign-changing bracket [lo, hi] by Brent's method.

    Brent (1973), Algorithms for Minimization without Derivatives, ch. 4, in
    the step order of the common ``brentq`` routine with xtol = 1e-15,
    rtol = 8.9e-16 and 200 iterations, so the root is that routine's double
    (tests/test_exponents.py compares them bit for bit): a secant step when
    the previous point is the far end of the bracket, inverse quadratic
    interpolation otherwise, and a bisection whenever the step would not
    shrink the bracket fast enough.  No step is shorter than the tolerance
    delta.
    """
    xtol, rtol = 1e-15, 8.9e-16
    xpre, xcur = lo, hi
    fpre, fcur = _log_f(xpre, p, C), _log_f(xcur, p, C)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(lo) and f(hi) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        # fpre is never zero here; a zero fcur is returned below either way
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre  # xcur and xblk bracket the root
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _log_f(xcur, p, C)
    raise RuntimeError("p0 root did not converge in 200 iterations")


def p0_solve(p: float, C: float) -> ExponentResult:
    """Smallest root q > p of ((q-p)/q) * (q/(q-1))**p * C = 1.

    The left side increases in q: its log-derivative is
    p(p-1) / (q(q-1)(q-p)) > 0.  So the root is unique, and below
    s = log(q-p) = -(log C - log p + p log(p/(p-1))) - 1 the left side is
    under 1.  Bracket expansion doubles the right end until it exceeds 1; a
    root above ROOT_CAP reports p0 = +inf, and so does one above the last
    doubled end below ROOT_CAP (at least ROOT_CAP / 2): at p = 400 that holds
    from about C - 1 = 1e-13 down.  At C = 1 the left side stays below 1 for
    every finite q, so p0 is +inf without a search.  Near C = 1 the gap of
    the left side to 1, about p(p-1)/(2q^2), is below the rounding of the
    plain log form, so _log_f takes its log1p form below C - 1 = NEAR_ONE;
    above that cut the roots are brentq's on the plain form, bit for bit.

    Near the root the log of the left side varies in q by terms of order
    p - 1, summed from terms of order 1, so a p within 2^-26 (half a
    double's bits) of 1 is refused.  At p = 1 + 2^-52 the log1p form rounds q onto p at the
    bracket's low end, and even with that term taken as s - log q its
    rounding moved the root at C = 1 + 2^-51 by a third of q - p.

    Far from 1 the log of the left side is a difference of terms of order
    p log p, so its rounding, and with it the relative error of p0 - p,
    grows in proportion to p: a p above 2^26 (again half a double's bits) is
    refused once C > 1.  Against an 80-digit bisection at C = 1.5, 10 and
    1e6 that error was at most 6.3e-8 at p = 2^26, up to 1.8e-6 at 2^30 and
    up to 0.61 at 2^46.
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"base exponent must be a finite number > 1, got {p}")
    if p - 1.0 < 2.0**-26:
        raise ValueError(f"base exponent p={p} lies within 2^-26 of 1, where p0 is not resolved")
    if not (math.isfinite(C) and C >= 1):
        raise ValueError(f"constant must be a finite number >= 1, got {C}")
    if C == 1:
        return ExponentResult(p=p, C=C, p0=math.inf, residual=math.nan)
    if p > 2.0**26:
        raise ValueError(f"base exponent p={p} exceeds 2^26, where p0 is not resolved")
    lo = -(math.log(C) - math.log(p) + p * math.log(p / (p - 1.0))) - 1.0
    hi = max(2.0 * p, 4.0)
    while _log_f(math.log(hi - p), p, C) <= 0.0:
        hi *= 2.0
        if hi > ROOT_CAP:
            return ExponentResult(p=p, C=C, p0=math.inf, residual=math.nan)
    hi = math.log(hi - p)
    root = _brent_root(lo, hi, p, C)
    residual = abs(math.expm1(_log_f(root, p, C)))
    return ExponentResult(p=p, C=C, p0=p + math.exp(root), residual=residual)


def transference_bound(c: float, k: int) -> float:
    """Theorem 1's bound k*(c - 1) + 1 from the node constant c, in the form
    that rounds closer than k*c - k + 1; refused naming c and k on overflow."""
    try:
        bound = k * (c - 1.0) + 1.0
    except OverflowError:  # an integer k beyond the double range
        bound = math.inf
    if math.isinf(bound):
        raise ValueError(f"effective constant k*c - k + 1 overflows at c={c}, k={k}")
    return bound


def improvement_range(p: float, c: float, k: int) -> ExponentResult:
    """Integrability range [p, p0): p0_solve at transference_bound(c, k).

    The bound is Theorem 1's on the prefix constant, over the intervals
    (0, t] only; Theorem A assumes the reverse-Holder inequality on every
    interval [a, b], so p0_bound rests on the prefix bound alone.  A
    reverse-Holder constant is at least 1 (Jensen), so c < 1 is refused
    here, and so is a c whose bound overflows.
    """
    if k < 2:
        raise ValueError(f"branching factor must be >= 2, got {k}")
    if not (math.isfinite(c) and c >= 1):
        raise ValueError(f"tree constant c must be a finite number >= 1, got {c}")
    return p0_solve(p, transference_bound(c, k))


def power_weight_constant(alpha: float, p: float) -> float:
    """Exact prefix reverse-Holder constant of u**(-alpha) at exponent p.

    The prefix ratio of the power function is t-independent and equals
    (1-alpha)**p / (1-alpha*p); requires alpha*p < 1.
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"exponent must be a finite number > 1, got {p}")
    if not 0 < alpha or not alpha * p < 1:
        raise ValueError(f"need 0 < alpha and alpha*p < 1, got alpha={alpha}, p={p}")
    return (1.0 - alpha) ** p / (1.0 - alpha * p)
