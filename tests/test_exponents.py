import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from treerhi import exponents, improvement_range, p0_solve, power_weight_constant
from treerhi.cli import analyze_weight
from treerhi.exponents import transference_bound
from test_analyze_golden import CORPUS, PS
from test_trace_golden import CASES, _traces


def crossing(q, p, C):
    return (q - p) / q * (q / (q - 1.0)) ** p * C


def test_p0_closed_form_sqrt2():
    result = p0_solve(2.0, 2.0)
    assert result.p0 == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    assert result.residual <= 1e-12


def test_p0_closed_form_sqrt5():
    result = p0_solve(2.0, 1.25)
    assert result.p0 == pytest.approx(1.0 + math.sqrt(5.0), rel=1e-14)
    assert result.residual <= 1e-12


def test_p0_infinite_for_constant_one():
    # at p = 3, 400 and 1 + 1e-7 the doubling bracket used to land on a
    # rounding-noise crossing (p0 = 402653184 at p = 3)
    for p in (1.0 + 1e-7, 1.5, 2.0, 3.0, 400.0):
        result = p0_solve(p, 1.0)
        assert math.isinf(result.p0), p
        assert not result.finite
        assert math.isnan(result.residual)


def test_p0_residual_small_on_grid():
    for p in (1.5, 2.0, 3.0, 5.0):
        for C in (1.01, 1.5, 2.0, 10.0, 100.0):
            result = p0_solve(p, C)
            assert result.residual <= 1e-12
            assert crossing(result.p0, p, C) == pytest.approx(1.0, abs=1e-12)


def test_p0_greater_than_p():
    for C in (1.001, 2.0, 50.0):
        assert p0_solve(2.0, C).p0 > 2.0


def test_p0_decreasing_in_constant():
    roots = [p0_solve(2.0, C).p0 for C in np.linspace(1.01, 20.0, 30)]
    assert all(a > b for a, b in zip(roots, roots[1:]))


def test_p0_validation():
    with pytest.raises(ValueError):
        p0_solve(1.0, 2.0)
    with pytest.raises(ValueError):
        p0_solve(2.0, 0.5)
    # p = 1 + 2^-52: at C = 1 + 2^-51 the log1p form raised "math domain
    # error", and at C = 10 the root rounded onto p
    for C in (1.0 + 2.0**-51, 1.0 + 2.0**-40, 10.0, 1.0):
        with pytest.raises(ValueError, match=r"p=1\.0000000000000002 lies within 2\^-26 of 1"):
            p0_solve(1.0 + 2.0**-52, C)
    assert p0_solve(1.0 + 2.0**-26, 10.0).p0 > 1.0 + 2.0**-26


def test_p0_large_p_refused():
    # the relative error of p0 - p grows with p: 6.3e-8 at 2^26, 0.61 at 2^46
    result = p0_solve(2.0**26, 10.0)
    assert result.p0 > 2.0**26 and result.residual <= 1e-6
    above = math.nextafter(2.0**26, math.inf)
    for C in (1.5, 10.0, 1e6):
        with pytest.raises(ValueError, match=r"p=67108864\.00000001 exceeds 2\^26"):
            p0_solve(above, C)
    for p in (above, 1e16, 1e308):  # p0 = +inf at C = 1 needs no root
        assert math.isinf(p0_solve(p, 1.0).p0)


def test_transference_bound_form_and_refusal():
    rng = np.random.default_rng(23)
    for k, gap in zip(rng.choice([2, 3, 4, 5, 8, 32], 2000), 10.0 ** rng.uniform(-8, 3, 2000)):
        c, k = 1.0 + gap, int(k)
        assert transference_bound(c, k).hex() == (k * (c - 1.0) + 1.0).hex()
    with pytest.raises(ValueError, match=r"k\*c - k \+ 1 overflows at c=1e\+308, k=2$"):
        transference_bound(1e308, 2)
    with pytest.raises(ValueError, match=r"overflows at c=2\.0, k=10{400}$"):
        transference_bound(2.0, 10**400)


def test_golden_outputs_take_the_one_bound():
    """analyze's bound and muckenhoupt_bound and the trace's bound_factor
    over both golden corpora, bit for bit: at random-3-4-0, p = 1.5 the form
    k*c - k + 1 gives other bits."""
    checked = 0
    for w in CORPUS.values():
        for p in PS:
            try:
                report = analyze_weight(w, p)
            except ValueError:
                continue
            for bound, c in (("bound", "dyadic_constant"),
                             ("muckenhoupt_bound", "muckenhoupt_constant")):
                if bound in report:
                    assert report[bound].hex() == transference_bound(report[c], w.space.k).hex()
                    checked += 1
    for case in CASES:
        for tr in _traces(case):
            if not isinstance(tr, ValueError):
                assert tr.bound_factor.hex() == transference_bound(tr.rhi_constant, tr.k).hex()
                checked += 1
    assert checked > 400


def test_improvement_range_chains_constant():
    result = improvement_range(2.0, 1.125, 2)
    assert result.C == pytest.approx(1.25, rel=1e-15)
    assert result.p0 == pytest.approx(1.0 + math.sqrt(5.0), rel=1e-14)


def test_improvement_range_constant_one_any_k():
    for k in (2, 4, 8):
        assert math.isinf(improvement_range(2.0, 1.0, k).p0)


def test_improvement_range_k2_c2():
    # effective constant 3; crossing reduces to 2*q**2 - 4*q - 1 = 0
    result = improvement_range(2.0, 2.0, 2)
    assert result.C == 3.0
    assert result.p0 == pytest.approx(1.0 + math.sqrt(6.0) / 2.0, rel=1e-13)
    assert result.residual <= 1e-12


def test_improvement_range_validation():
    with pytest.raises(ValueError):
        improvement_range(2.0, 1.5, 1)
    for c in (0.9, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"tree constant c must be .* got {c}$"):
            improvement_range(2.0, c, 2)


def test_power_weight_constant_values():
    assert power_weight_constant(0.25, 2.0) == pytest.approx(1.125, rel=1e-15)
    assert power_weight_constant(1e-12, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_power_weight_constant_validation():
    with pytest.raises(ValueError):
        power_weight_constant(0.5, 2.0)
    with pytest.raises(ValueError):
        power_weight_constant(0.0, 2.0)
    with pytest.raises(ValueError):
        power_weight_constant(0.25, 1.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.25])
def test_sharpness_identity(p, alpha):
    if alpha * p >= 1:
        pytest.skip("outside the admissible range")
    result = p0_solve(p, power_weight_constant(alpha, p))
    assert result.p0 == pytest.approx(1.0 / alpha, rel=1e-6)


def test_p0_root_within_an_ulp_of_p():
    # the root q lies about 5e-301 above p, so only log(q - p) resolves it;
    # solving in q raised "math domain error"
    result = p0_solve(2.0, 1e300)
    assert result.p0 == 2.0
    assert result.residual <= 1e-12


def test_p0_residual_small_for_large_constant():
    # solving in q left a residual of 8.9e-5 here: q - p is about 2e-12,
    # which q itself resolves to only about four digits
    for C in (1e8, 1e12, 1e100):
        result = p0_solve(2.0, C)
        assert result.residual <= 1e-12
        assert result.p0 >= 2.0


def _decimal_root(p: float, C: float, digits: int = 50) -> float:
    """The root q > p of log((q-p)/q) + p log(q/(q-1)) + log C = 0 by
    bisection in decimal arithmetic of that many digits, from a bracket
    around the asymptote sqrt(p(p-1)/(2 log C))."""
    with localcontext() as ctx:
        ctx.prec = digits
        big_p, log_c = Decimal(p), Decimal(C).ln()

        def f(q):
            return ((q - big_p) / q).ln() + big_p * (q / (q - 1)).ln() + log_c

        asymptote = Decimal(math.sqrt(p * (p - 1) / (2 * math.log(C))))
        lo, hi = big_p + asymptote / 4, big_p + asymptote * 4
        assert f(lo) < 0 < f(hi)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        return float(mid)


# (p, C - 1, the root the roadmap's table gives, to four digits)
NEAR_ONE_TABLE = [(1.5, 2.0**-52, 4.110e7), (1.5, 1e-12, 6.123e5), (3.0, 1e-13, 5.479e6),
                  (400.0, 1e-12, 2.825e8)]


@pytest.mark.parametrize("p, gap, table", NEAR_ONE_TABLE)
def test_p0_near_one_matches_table_and_asymptote(p, gap, table):
    # the plain log form gave 1.678e7, 6.120e5, 5.322e6 and 3.043e8 here
    C = 1.0 + gap
    p0 = p0_solve(p, C).p0
    assert p0 == pytest.approx(table, rel=1e-3)
    assert p0 == pytest.approx(_decimal_root(p, C), rel=1e-8)
    # the asymptote and its next term, (p + 1) / 3
    assert p0 == pytest.approx(math.sqrt(p * (p - 1) / (2 * math.log(C))) + (p + 1) / 3, rel=1e-8)


@pytest.mark.parametrize("p, gap", [(2.0, 2.0**-21), (1.5, 1e-10), (50.0, 1e-9),
                                    (1.0001, 1e-7), (1.0 + 2.0**-10, 2.0**-21)])
def test_p0_near_one_matches_decimal_root(p, gap):
    assert p0_solve(p, 1.0 + gap).p0 == pytest.approx(_decimal_root(p, 1.0 + gap), rel=1e-9)


# (p, C, relative error of p0 against an 80-digit bisection, as recorded in
# CHANGES.md): the log1p form loses digits when both p - 1 and C - 1 are
# small, about 2^-53 * sqrt(p / (2 (p - 1) log C)) of the root
NEAR_ONE_LOSS = [(1.0 + 2.0**-26, 1.0 + 2.0**-52, 7.6e-5), (1.0 + 1e-7, 1.0 + 2.0**-52, 6.3e-6),
                 (1.0001, 1.0 + 2.0**-52, 5.9e-7), (1.0 + 2.0**-26, 1.0 + 1e-15, 1.6e-5),
                 (1.0 + 1e-7, 1.0 + 1e-15, 3.8e-6), (1.0001, 1.0 + 1e-15, 1.3e-7)]


@pytest.mark.parametrize("p, C, loss", NEAR_ONE_LOSS)
def test_p0_near_one_loses_no_more_than_recorded(p, C, loss):
    # pins the known loss: a solver that loses more fails here
    root = _decimal_root(p, C, digits=80)
    assert abs(p0_solve(p, C).p0 - root) / root <= 2 * loss


def test_p0_near_one_beyond_the_bracket_is_infinite():
    # the root, 8.937e8, lies above the last doubled end below ROOT_CAP
    assert _decimal_root(400.0, 1.0 + 1e-13) == pytest.approx(8.937e8, rel=1e-3)
    assert p0_solve(400.0, 1.0 + 1e-13).p0 == math.inf


@pytest.mark.parametrize("p, C", [(math.nan, 2.0), (math.inf, 2.0), (2.0, math.nan), (2.0, math.inf)])
def test_p0_rejects_non_finite(p, C):
    with pytest.raises(ValueError):
        p0_solve(p, C)


# ---------------------------------------------------------------------------
# The in-package Brent iteration against scipy.optimize.brentq
# ---------------------------------------------------------------------------

def _brentq_root(lo, hi, p, C):
    brentq = pytest.importorskip("scipy.optimize").brentq
    return brentq(exponents._log_f, lo, hi, args=(p, C), xtol=1e-15, rtol=8.9e-16, maxiter=200)


def _solve_all(monkeypatch, root, pairs):
    """p0_solve over the pairs with ``root`` as its root finder: the bits of
    every root it returned and of every (p0, residual)."""
    roots = []

    def recording(lo, hi, p, C):
        roots.append(root(lo, hi, p, C))
        return roots[-1]

    monkeypatch.setattr(exponents, "_brent_root", recording)
    results = [p0_solve(p, C) for p, C in pairs]
    return [s.hex() for s in roots], [(r.p0.hex(), r.residual.hex()) for r in results]


def test_p0_bits_match_scipy_brentq(monkeypatch):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(20240)
    n = 20_000
    ps = 1.0 + np.exp(rng.uniform(math.log(1e-7), math.log(399.0), n))
    cs = 1.0 + np.exp(rng.uniform(math.log(1e-15), math.log(1e300), n))
    pairs = list(zip(ps.tolist(), cs.tolist()))
    pairs += [(p, C) for p in (1.0 + 1e-7, 1.5, 2.0, 3.0, 400.0) for C in (1.0, 1.0 + 1e-15, 1e300)]
    ours = _solve_all(monkeypatch, exponents._brent_root, pairs)
    theirs = _solve_all(monkeypatch, _brentq_root, pairs)
    assert len(ours[0]) > 0.99 * len(pairs)  # nearly every pair reaches the root finder
    assert ours == theirs


@pytest.mark.parametrize("f, lo, hi, expected", [
    (lambda s, p, C: s - 0.25, 0.25, 1.0, "root"),  # zero at the low end
    (lambda s, p, C: s - 1.0, 0.25, 1.0, "root"),  # zero at the high end
    (lambda s, p, C: s * s - 2.0, 0.0, 2.0, "root"),
    (lambda s, p, C: s - 3.0, 0.25, 1.0, ValueError),  # equal signs
    # a sign-only function bisects; 200 halvings of 1e300 do not reach xtol
    (lambda s, p, C: math.copysign(1.0, s - 0.3), 0.0, 1e300, RuntimeError),
])
def test_brent_root_ends_and_failures_match_brentq(monkeypatch, f, lo, hi, expected):
    pytest.importorskip("scipy")
    monkeypatch.setattr(exponents, "_log_f", f)
    if expected == "root":
        assert exponents._brent_root(lo, hi, 2.0, 2.0) == _brentq_root(lo, hi, 2.0, 2.0)
    else:
        for root in (exponents._brent_root, _brentq_root):
            with pytest.raises(expected):
                root(lo, hi, 2.0, 2.0)


def test_cli_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, treerhi.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
