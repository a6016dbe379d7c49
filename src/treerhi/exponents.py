"""Self-improvement exponents for reverse-Holder weights.

Solves for the exponent q > p where ((q-p)/q) * (q/(q-1))**p * C crosses 1,
derives the integrability range [p, p0) with the tree-adjusted constant
k*c - k + 1, and provides the analytic constant of the power weight
u**(-alpha), used as a sharpness oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

ROOT_CAP = 1e9
RESIDUAL_TOL = 1e-12


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
    return s + (p - 1.0) * math.log(p + gap) - p * math.log((p - 1.0) + gap) + math.log(C)


def p0_solve(p: float, C: float) -> ExponentResult:
    """Smallest root q > p of ((q-p)/q) * (q/(q-1))**p * C = 1.

    The left side increases in q: its log-derivative is
    p(p-1) / (q(q-1)(q-p)) > 0.  So the root is unique, and below
    s = log(q-p) = -(log C - log p + p log(p/(p-1))) - 1 the left side is
    under 1.  Bracket expansion doubles the right end until it exceeds 1; past
    ROOT_CAP the root is classified as +inf, which covers C = 1 exactly (the
    function stays below 1 on every finite bracket).
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"base exponent must be a finite number > 1, got {p}")
    if not (math.isfinite(C) and C >= 1):
        raise ValueError(f"constant must be a finite number >= 1, got {C}")
    lo = -(math.log(C) - math.log(p) + p * math.log(p / (p - 1.0))) - 1.0
    hi = max(2.0 * p, 4.0)
    while _log_f(math.log(hi - p), p, C) <= 0.0:
        hi *= 2.0
        if hi > ROOT_CAP:
            return ExponentResult(p=p, C=C, p0=math.inf, residual=math.nan)
    hi = math.log(hi - p)
    root = brentq(_log_f, lo, hi, args=(p, C), xtol=1e-15, rtol=8.9e-16, maxiter=200)
    residual = abs(math.expm1(_log_f(root, p, C)))
    return ExponentResult(p=p, C=C, p0=p + math.exp(root), residual=residual)


def improvement_range(p: float, c: float, k: int) -> ExponentResult:
    """Integrability range [p, p0) for a tree weight: p0_solve at k*c - k + 1.

    A reverse-Holder constant is at least 1 (Jensen), so c < 1 is refused
    here, naming c rather than the effective constant it maps to.
    """
    if k < 2:
        raise ValueError(f"branching factor must be >= 2, got {k}")
    if not (math.isfinite(c) and c >= 1):
        raise ValueError(f"tree constant c must be a finite number >= 1, got {c}")
    return p0_solve(p, k * c - k + 1.0)


def power_weight_constant(alpha: float, p: float) -> float:
    """Exact prefix reverse-Holder constant of u**(-alpha) at exponent p.

    The prefix ratio of the power function is t-independent and equals
    (1-alpha)**p / (1-alpha*p); requires alpha*p < 1.
    """
    if p <= 1:
        raise ValueError(f"exponent must be > 1, got {p}")
    if not 0 < alpha or not alpha * p < 1:
        raise ValueError(f"need 0 < alpha and alpha*p < 1, got alpha={alpha}, p={p}")
    return (1.0 - alpha) ** p / (1.0 - alpha * p)
