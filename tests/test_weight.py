import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerhi import (
    DyadicWeight,
    NodeId,
    TreeSpace,
    gen_constant,
    gen_power,
    gen_random,
    gen_two_value,
    load_weight,
    prefix_average,
    rearrangement,
    save_weight,
    trace_theorem1,
)
from treerhi.cli import analyze_weight
from treerhi.sets import FractionalSet
from helpers import maximal_oracle, muckenhoupt_oracle, rhi_oracle


def w8211():
    return DyadicWeight.from_leaves(2, 2, [8, 2, 1, 1])


# ---------------------------------------------------------------------------
# construction and averages
# ---------------------------------------------------------------------------

def test_from_leaves_total_integral():
    assert DyadicWeight.from_leaves(2, 1, [1, 3]).total_integral == 2.0
    assert w8211().total_integral == 3.0
    assert DyadicWeight.from_leaves(2, 0, [5]).total_integral == 5.0


def test_from_leaves_validation():
    with pytest.raises(ValueError):
        DyadicWeight.from_leaves(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        DyadicWeight.from_leaves(2, 1, [1, -2])
    with pytest.raises(ValueError):
        DyadicWeight.from_leaves(2, 1, [1, float("inf")])


def test_node_average():
    w = DyadicWeight.from_leaves(2, 1, [1, 3])
    assert w.node_average(NodeId(0, 0)) == 2.0
    assert w.node_average(NodeId(0, 0), 2.0) == 5.0
    assert w8211().node_average(NodeId(1, 0)) == 5.0


def test_only_unit_node_sums_are_kept():
    w = gen_random(TreeSpace(2, 6), 0)
    assert w.level_sums(1.0) is w.level_sums()
    first = w.level_sums(2.0)
    for call in (lambda: None, lambda: analyze_weight(w, 2.0),
                 lambda: trace_theorem1(w, 2.0, 0.5)):
        call()
        again = w.level_sums(2.0)
        assert again is not first
        assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
        assert list(w._sums) == [1.0]


def test_analyze_witnesses_are_level_index_lists():
    w = gen_random(TreeSpace(2, 6), 0)
    report = analyze_weight(w, 2.0)
    for key, found in (("dyadic_witness", w.dyadic_rhi_constant(2.0)),
                       ("muckenhoupt_witness", w.dyadic_muckenhoupt_constant(2.0))):
        assert type(report[key]) is list
        assert report[key] == [found.witness.level, found.witness.index]


_RANDOM = gen_random(TreeSpace(2, 4), 0)
_AVERAGES = {
    "prefix": lambda q: prefix_average(rearrangement(_RANDOM), 0.5, q),
    "node": lambda q: _RANDOM.node_average(NodeId(1, 0), q),
    "set": lambda q: FractionalSet.from_node(_RANDOM.space, NodeId(1, 0)).integral(_RANDOM, q),
}


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 1e6, -1e6])
@pytest.mark.parametrize("average", sorted(_AVERAGES))
def test_power_averages_refuse_what_they_cannot_answer(average, q):
    """A non-finite exponent, or an average that overflows or is NaN (values
    1e-3 to 1e3 at q = +-1e6), is refused with a ValueError naming q, never
    returned as NaN or inf or raised as an OverflowError."""
    with pytest.raises(ValueError, match=re.escape(f"at q={q} is not a finite number")):
        _AVERAGES[average](q)
    assert _AVERAGES[average](1.0) > 0


_ZERO_LEAF = DyadicWeight.from_leaves(2, 2, [1.0, 0.0, 2.0, 3.0])
_ZERO_AVERAGES = {
    "prefix": lambda q: prefix_average(rearrangement(_ZERO_LEAF), 0.5, q),
    "node": lambda q: _ZERO_LEAF.node_average(NodeId(1, 1), q),
    "set": lambda q: FractionalSet.from_node(_ZERO_LEAF.space, NodeId(0, 0)).integral(
        _ZERO_LEAF, q),
}


@pytest.mark.parametrize("q", [-2.0, -math.inf])
@pytest.mark.parametrize("average", sorted(_ZERO_AVERAGES))
def test_negative_power_of_a_zero_value_is_refused_with_one_message(average, q):
    """On a weight with a zero leaf, each power average at q < 0, -inf
    included, gives the one refusal of weight._power_average."""
    with pytest.raises(ValueError, match="^negative exponent requires strictly positive values$"):
        _ZERO_AVERAGES[average](q)


def test_weak_type_refuses_an_integral_that_overflows():
    """Leaves scaled to a largest value of 1.5e308: their sum over {M > t}
    overflows, and the check refuses it naming q = 1 instead of returning
    an infinite rhs."""
    v = gen_random(TreeSpace(2, 3), 0).values
    w = DyadicWeight(TreeSpace(2, 3), v / v.max() * 1.5e308)
    with pytest.raises(ValueError, match=re.escape("at q=1.0 is not a finite number")):
        w.weak_type_check(1e300)


def test_negative_exponent_requires_positive_values():
    w = DyadicWeight.from_leaves(2, 1, [0, 3])
    with pytest.raises(ValueError):
        w.node_average(NodeId(0, 0), -1.0)


# ---------------------------------------------------------------------------
# reverse-Holder constant
# ---------------------------------------------------------------------------

def test_rhi_constant_weight_is_one():
    report = DyadicWeight.from_leaves(2, 2, [5, 5, 5, 5]).dyadic_rhi_constant(2.0)
    assert report.constant == pytest.approx(1.0, rel=1e-12)
    assert report.witness == NodeId(0, 0)


def test_rhi_two_leaves():
    report = DyadicWeight.from_leaves(2, 1, [1, 3]).dyadic_rhi_constant(2.0)
    assert report.constant == pytest.approx(1.25, rel=1e-12)
    assert report.witness == NodeId(0, 0)


def test_rhi_8211():
    report = w8211().dyadic_rhi_constant(2.0)
    assert report.constant == pytest.approx(35 / 18, rel=1e-12)
    assert report.witness == NodeId(0, 0)


def test_rhi_identically_zero_errors():
    with pytest.raises(ValueError):
        DyadicWeight.from_leaves(2, 1, [0, 0]).dyadic_rhi_constant(2.0)


def test_rhi_skips_zero_average_nodes():
    w = DyadicWeight.from_leaves(2, 2, [0, 0, 1, 3])
    report = w.dyadic_rhi_constant(2.0)
    oracle_c, oracle_node = rhi_oracle(w, 2.0)
    assert report.constant == oracle_c
    assert report.witness == oracle_node


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_rhi_matches_brute_force_exactly(seed, p):
    k, depth = [(2, 3), (3, 3), (4, 2), (5, 3), (8, 2), (2, 2)][seed]
    w = gen_random(TreeSpace(k, depth), seed)
    report = w.dyadic_rhi_constant(p)
    oracle_c, oracle_node = rhi_oracle(w, p)
    assert report.constant == oracle_c
    assert report.witness == oracle_node


@given(scale=st.floats(min_value=1e-6, max_value=1e6), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_rhi_scale_invariant(scale, seed):
    w = gen_random(TreeSpace(2, 3), seed)
    scaled = DyadicWeight(w.space, w.values * scale)
    base = w.dyadic_rhi_constant(2.0)
    other = scaled.dyadic_rhi_constant(2.0)
    assert other.constant == pytest.approx(base.constant, rel=1e-9)
    assert other.witness == base.witness


def test_rhi_equals_one_iff_constant():
    const = gen_constant(TreeSpace(3, 2), 7.0)
    assert const.dyadic_rhi_constant(2.0).constant == pytest.approx(1.0, rel=1e-12)
    wobble = DyadicWeight.from_leaves(3, 1, [7, 7, 7.001])
    assert wobble.dyadic_rhi_constant(2.0).constant > 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Muckenhoupt constant
# ---------------------------------------------------------------------------

def test_muckenhoupt_constant_weight():
    report = gen_constant(TreeSpace(2, 2), 3.0).dyadic_muckenhoupt_constant(2.0)
    assert report.constant == pytest.approx(1.0, rel=1e-12)


def test_muckenhoupt_two_leaves():
    report = DyadicWeight.from_leaves(2, 1, [1, 3]).dyadic_muckenhoupt_constant(2.0)
    assert report.constant == pytest.approx(4 / 3, rel=1e-12)
    assert report.witness == NodeId(0, 0)


def test_muckenhoupt_p3_flat():
    report = DyadicWeight.from_leaves(2, 1, [1, 1]).dyadic_muckenhoupt_constant(3.0)
    assert report.constant == pytest.approx(1.0, rel=1e-12)


def test_muckenhoupt_rejects_zero():
    with pytest.raises(ValueError):
        DyadicWeight.from_leaves(2, 1, [0, 3]).dyadic_muckenhoupt_constant(2.0)


@pytest.mark.parametrize("seed", range(3))
def test_muckenhoupt_matches_brute_force(seed):
    w = gen_random(TreeSpace(3, 3), seed)
    report = w.dyadic_muckenhoupt_constant(2.0)
    oracle_c, oracle_node = muckenhoupt_oracle(w, 2.0)
    assert report.constant == oracle_c
    assert report.witness == oracle_node


# ---------------------------------------------------------------------------
# maximal operator and weak type
# ---------------------------------------------------------------------------

def test_maximal_examples():
    assert list(DyadicWeight.from_leaves(2, 1, [1, 3]).maximal_function()) == [2, 3]
    assert list(w8211().maximal_function()) == [8, 5, 3, 3]
    const = gen_constant(TreeSpace(2, 2), 4.0)
    assert list(const.maximal_function()) == [4, 4, 4, 4]


@pytest.mark.parametrize("seed", range(4))
def test_maximal_matches_ancestor_walk(seed):
    w = gen_random(TreeSpace(3, 3), seed)
    assert np.array_equal(w.maximal_function(), maximal_oracle(w))


def test_maximal_dominates_leaf_and_root():
    w = gen_random(TreeSpace(2, 4), 11)
    m = w.maximal_function()
    assert np.all(m >= w.values)
    assert np.all(m >= w.total_integral)


def test_maximal_scales():
    w = gen_random(TreeSpace(2, 3), 5)
    doubled = DyadicWeight(w.space, w.values * 2.0)
    assert np.allclose(doubled.maximal_function(), 2.0 * w.maximal_function(), rtol=1e-12)


def test_weak_type_examples():
    r = DyadicWeight.from_leaves(2, 1, [1, 3]).weak_type_check(2.5)
    assert (r.lhs, r.rhs) == (0.5, 0.6)
    assert r.holds
    r = DyadicWeight.from_leaves(2, 1, [1, 3]).weak_type_check(10.0)
    assert (r.lhs, r.rhs) == (0.0, 0.0)
    assert r.holds
    r = w8211().weak_type_check(4.0)
    assert r.lhs == 0.5
    assert r.rhs == pytest.approx(0.625, rel=1e-12)
    assert r.holds


def test_weak_type_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        w8211().weak_type_check(0.0)


def test_weak_type_rejects_nan_threshold():
    # nan <= 0 is false, so a NaN threshold once gave holds=False, rhs=nan
    with pytest.raises(ValueError, match="threshold must be > 0, got nan"):
        w8211().weak_type_check(float("nan"))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_power_integral():
    for alpha in (0.1, 0.25, 0.5, 0.9):
        w = gen_power(TreeSpace(2, 6), alpha)
        assert w.total_integral == pytest.approx(1.0 / (1.0 - alpha), rel=1e-12)


def test_gen_power_first_cell():
    w = gen_power(TreeSpace(2, 1), 0.5)
    # cell average of u**-0.5 on [0, 1/2]: (sqrt(1/2)) / (0.5 * 0.5)
    assert w.values[0] == pytest.approx(np.sqrt(0.5) / 0.25, rel=1e-12)


def test_gen_power_small_alpha_near_flat():
    w = gen_power(TreeSpace(2, 3), 1e-9)
    assert np.allclose(w.values, 1.0, atol=1e-6)


def test_gen_power_rejects_bad_alpha():
    with pytest.raises(ValueError):
        gen_power(TreeSpace(2, 2), 0.0)
    with pytest.raises(ValueError):
        gen_power(TreeSpace(2, 2), 1.0)


def test_gen_random_deterministic():
    a = gen_random(TreeSpace(2, 5), 7)
    b = gen_random(TreeSpace(2, 5), 7)
    assert np.array_equal(a.values, b.values)


def test_gen_random_range_and_degenerate():
    w = gen_random(TreeSpace(2, 10), 3)
    assert np.all((w.values >= 1e-3) & (w.values <= 1e3))
    flat = gen_random(TreeSpace(2, 3), 3, low=1.0, high=1.0)
    assert np.array_equal(flat.values, np.ones(8))
    with pytest.raises(ValueError):
        gen_random(TreeSpace(2, 3), 3, low=2.0, high=1.0)


def test_gen_two_value():
    w = gen_two_value(TreeSpace(2, 2), 3.0, 1.0)
    assert list(w.values) == [3, 3, 1, 1]


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    w = gen_random(TreeSpace(3, 3), 42)
    path = tmp_path / "w.json"
    save_weight(w, path)
    back = load_weight(path)
    assert back.space == w.space
    assert np.array_equal(back.values, w.values)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_weight(path)
    path.write_text('{"k": 2, "depth": 2}')
    with pytest.raises(ValueError):
        load_weight(path)
    path.write_text('{"k": 2, "depth": 2, "leaves": [1, 2]}')
    with pytest.raises(ValueError):
        load_weight(path)
    path.write_text('{"k": 2, "depth": 1, "leaves": [1, -2]}')
    with pytest.raises(ValueError):
        load_weight(path)
    # JSON booleans parse to bool, an int subclass: true once loaded as depth 1
    for doc in ('{"k": 2, "depth": true, "leaves": [1.0, 2.0]}',
                '{"k": true, "depth": 1, "leaves": [1.0]}',
                '{"k": 2, "depth": 1.0, "leaves": [1.0, 2.0]}'):
        path.write_text(doc)
        with pytest.raises(ValueError, match="k and depth must be integers"):
            load_weight(path)
