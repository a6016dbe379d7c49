"""Property tests of the four constants and the ratio curve.

Scale invariance over extreme magnitudes, permutation invariance of the
prefix constants, the lower bound 1 and the k*c - k + 1 transference bound,
and an exponent sweep against exact rational references.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerhi import (
    DyadicWeight,
    TreeSpace,
    gen_random,
    prefix_muckenhoupt_constant,
    prefix_rhi_constant,
    ratio_curve,
    rearrangement,
)
from helpers import exact_log_constants

SHAPES = [(2, 1), (2, 3), (3, 2), (4, 2), (2, 5)]
weights = st.builds(
    lambda shape, seed: gen_random(TreeSpace(*shape), seed),
    st.sampled_from(SHAPES),
    st.integers(0, 10_000),
)
exponents = st.sampled_from([1.5, 2.0, 3.0])
scales = st.one_of(
    st.integers(-1000, 1000).map(lambda j: 2.0**j),
    st.sampled_from([1e200, 1e-200]),
)


def constants(w: DyadicWeight, p: float) -> list[float]:
    """Dyadic RH, dyadic A_p, prefix RH, prefix A_p."""
    star = rearrangement(w)
    return [
        w.dyadic_rhi_constant(p).constant,
        w.dyadic_muckenhoupt_constant(p).constant,
        prefix_rhi_constant(star, p).constant,
        prefix_muckenhoupt_constant(star, p).constant,
    ]


@given(w=weights, p=exponents, scale=scales)
@settings(max_examples=60, deadline=None)
def test_scale_invariance(w, p, scale):
    scaled = DyadicWeight(w.space, w.values * scale)
    assert constants(scaled, p) == pytest.approx(constants(w, p), rel=1e-12)
    base = ratio_curve(rearrangement(w), p, 20)
    other = ratio_curve(rearrangement(scaled), p, 20)
    assert np.array_equal(other[:, 0], base[:, 0])
    assert np.allclose(other[:, 1], base[:, 1], rtol=1e-12, atol=0)


@given(w=weights, p=exponents, perm_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prefix_constants_permutation_invariant(w, p, perm_seed):
    shuffled = DyadicWeight(w.space, np.random.default_rng(perm_seed).permutation(w.values))
    for prefix in (prefix_rhi_constant, prefix_muckenhoupt_constant):
        assert prefix(rearrangement(shuffled), p) == prefix(rearrangement(w), p)


@given(w=weights, p=exponents, scale=scales)
@settings(max_examples=60, deadline=None)
def test_lower_bound_and_transference_bound(w, p, scale):
    w = DyadicWeight(w.space, w.values * scale)
    dyadic_rh, dyadic_ap, prefix_rh, prefix_ap = constants(w, p)
    for c in (dyadic_rh, dyadic_ap, prefix_rh, prefix_ap):
        assert c >= 1.0 - 1e-12
    k = w.space.k
    assert prefix_rh <= (k * dyadic_rh - k + 1.0) * (1.0 + 1e-9)
    assert prefix_ap <= (k * dyadic_ap - k + 1.0) * (1.0 + 1e-9)


SWEEP = [1 + 2.0**-10, 1 + 2.0**-6, 1.5, 2.0, 3.0, 10.0, 120.0, 400.0]


def _exact(w: DyadicWeight, p: float, pair: str):
    """Exact log references where the exponents are integers, else None."""
    m = -1.0 / (p - 1.0)
    if pair == "rh" and p == int(p):
        return exact_log_constants(w, int(p), 1, Fraction(-p))
    if pair == "ap" and m == int(m):
        return exact_log_constants(w, 1, int(m), Fraction(p) - 1)
    return None


def _sweep_values(w: DyadicWeight, p: float) -> dict:
    star = rearrangement(w)
    calls = {
        "dyadic_rh": lambda: w.dyadic_rhi_constant(p).constant,
        "dyadic_ap": lambda: w.dyadic_muckenhoupt_constant(p).constant,
        "prefix_rh": lambda: prefix_rhi_constant(star, p).constant,
        "prefix_ap": lambda: prefix_muckenhoupt_constant(star, p).constant,
    }
    values = {}
    for name, call in calls.items():
        try:
            values[name] = call()
        except ValueError as exc:
            assert "double range" in str(exc) and f"p={p}" in str(exc)
            values[name] = None
    return values


@pytest.mark.parametrize("p", SWEEP)
def test_exponent_sweep_exact_or_refused(p):
    w = gen_random(TreeSpace(2, 6), 3)
    refs = {}
    for scale in (1.0, 1e200, 1e-200):
        for name, value in _sweep_values(DyadicWeight(w.space, w.values * scale), p).items():
            if value is None:
                continue
            assert math.isfinite(value) and value >= 1.0 - 1e-12
            side, pair = name.split("_")
            if pair not in refs:  # only when needed: 1/v**1024 sums are slow
                refs[pair] = _exact(w, p, pair)
            if refs[pair] is not None:
                ref = refs[pair][side == "prefix"]
                assert abs(math.log(value) - ref) <= 1e-9, (name, scale)


def test_prefix_rhi_at_p120_is_computed():
    # value**120 overflows for the largest values, so this takes the rescaled
    # retry; the reference is the exact value from integer arithmetic
    star = rearrangement(gen_random(TreeSpace(2, 6), 3))
    assert prefix_rhi_constant(star, 120.0).constant == pytest.approx(
        4.793801260718282e139, rel=1e-9
    )


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_muckenhoupt_near_p1_of_scaled_weight_is_computed(scale):
    # at p = 1 + 2**-6 the dual power is -64: after max-scaling value**-64
    # spans 1e384, so this takes the retry centred on the geometric middle
    p = 1 + 2.0**-6
    w = gen_random(TreeSpace(2, 6), 3)
    scaled = DyadicWeight(w.space, w.values * scale)
    dyadic = scaled.dyadic_muckenhoupt_constant(p).constant
    prefix = prefix_muckenhoupt_constant(rearrangement(scaled), p).constant
    assert dyadic == pytest.approx(335805.8038097311, rel=1e-12)
    assert prefix == pytest.approx(42125.32351549546, rel=1e-12)
    assert dyadic == pytest.approx(w.dyadic_muckenhoupt_constant(p).constant, rel=1e-12)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1.0])
def test_non_finite_exponent_refused(p):
    w = gen_random(TreeSpace(2, 3), 1)
    star = rearrangement(w)
    for call in (
        w.dyadic_rhi_constant,
        w.dyadic_muckenhoupt_constant,
        lambda q: prefix_rhi_constant(star, q),
        lambda q: prefix_muckenhoupt_constant(star, q),
        lambda q: ratio_curve(star, q, 10),
    ):
        with pytest.raises(ValueError):
            call(p)
