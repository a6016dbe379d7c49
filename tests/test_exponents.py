import math

import numpy as np
import pytest

from treerhi import improvement_range, p0_solve, power_weight_constant


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
    result = p0_solve(2.0, 1.0)
    assert math.isinf(result.p0)
    assert not result.finite


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


@pytest.mark.parametrize("p, C", [(math.nan, 2.0), (math.inf, 2.0), (2.0, math.nan), (2.0, math.inf)])
def test_p0_rejects_non_finite(p, C):
    with pytest.raises(ValueError):
        p0_solve(p, C)
