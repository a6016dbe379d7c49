import json
import math

import numpy as np
import pytest

from treerhi import (
    DyadicWeight,
    FractionalSet,
    NodeId,
    TreeSpace,
    build_gamma,
    build_top_set,
    gen_constant,
    gen_random,
    lemma21_check,
    prefix_average,
    rearrangement,
    select_fathers,
    stopping_decomposition,
    trace_theorem1,
)


def w8211():
    return DyadicWeight.from_leaves(2, 2, [8, 2, 1, 1])


# ---------------------------------------------------------------------------
# FractionalSet
# ---------------------------------------------------------------------------

def test_fractional_set_measure_and_integral():
    w = w8211()
    s = FractionalSet(w.space, 0, [1.0, 0.5])
    assert s.measure == pytest.approx(0.375, rel=1e-15)
    assert s.integral(w) == pytest.approx(8 * 0.25 + 2 * 0.125, rel=1e-15)
    assert s.average(w) == pytest.approx(2.25 / 0.375, rel=1e-15)


def test_fractional_set_validation():
    space = TreeSpace(2, 2)
    with pytest.raises(ValueError):
        FractionalSet(space, 0, [-0.5])
    with pytest.raises(ValueError):
        FractionalSet(space, 0, [1.5])
    with pytest.raises(ValueError):
        FractionalSet(space, 3, [0.5, 0.5])  # leaf 4 is outside the tree
    assert FractionalSet(space, 0, [0.0, 0.5]).fractions == {1: 0.5}


def test_fractional_set_from_node():
    space = TreeSpace(2, 2)
    s = FractionalSet.from_node(space, NodeId(1, 1))
    assert s.fractions == {2: 1.0, 3: 1.0}


def test_fractional_set_windows():
    w = w8211()
    s = FractionalSet(w.space, 1, [0.5, 1.0])
    assert s.fraction_array().tolist() == [0.0, 0.5, 1.0, 0.0]
    assert s.fraction_array(1, 2).tolist() == [0.5, 1.0]
    with pytest.raises(ValueError):
        s.fraction_array(0, 2)  # leaves out leaf 2
    union = FractionalSet.union(w.space, [s, FractionalSet.from_node(w.space, NodeId(2, 3))])
    assert union.fractions == {1: 0.5, 2: 1.0, 3: 1.0}
    assert union.integral(w, 2.0) == pytest.approx((0.5 * 4 + 1 + 1) * 0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# stopping decomposition
# ---------------------------------------------------------------------------

def test_stopping_basic():
    assert stopping_decomposition(w8211(), 5.0) == [NodeId(2, 0)]


def test_stopping_no_strict_exceedance():
    assert stopping_decomposition(w8211(), 8.0) == []
    const = gen_constant(TreeSpace(2, 2), 3.0)
    assert stopping_decomposition(const, 3.0) == []


def test_stopping_root_qualifies_errors():
    with pytest.raises(ValueError):
        stopping_decomposition(w8211(), 2.0)


def test_stopping_covers_exceedance_exactly():
    for seed in range(10):
        w = gen_random(TreeSpace(3, 3), seed)
        m = w.maximal_function()
        threshold = float(w.total_integral) * 1.5
        if float(m.max()) <= threshold:
            continue
        nodes = stopping_decomposition(w, threshold)
        covered = set()
        for node in nodes:
            first, count = w.space.leaf_range(node)
            block = set(range(first, first + count))
            assert not (covered & block)  # pairwise disjoint
            covered |= block
        assert covered == set(np.flatnonzero(m > threshold).tolist())


# ---------------------------------------------------------------------------
# father selection
# ---------------------------------------------------------------------------

def test_select_fathers_single():
    assert select_fathers(TreeSpace(2, 2), [NodeId(2, 0)]) == [NodeId(1, 0)]


def test_select_fathers_distinct():
    got = select_fathers(TreeSpace(2, 2), [NodeId(2, 0), NodeId(2, 2)])
    assert got == [NodeId(1, 0), NodeId(1, 1)]


def test_select_fathers_root_swallows():
    got = select_fathers(TreeSpace(2, 2), [NodeId(2, 0), NodeId(1, 1)])
    assert got == [NodeId(0, 0)]


def test_select_fathers_rejects_root_member():
    with pytest.raises(ValueError):
        select_fathers(TreeSpace(2, 2), [NodeId(0, 0)])
    with pytest.raises(ValueError):
        select_fathers(TreeSpace(2, 2), [])


# ---------------------------------------------------------------------------
# gamma construction
# ---------------------------------------------------------------------------

def test_build_gamma_full_filler():
    w = w8211()
    kernel = FractionalSet(w.space, 0, [1.0])
    gamma, delta = build_gamma(w, NodeId(1, 0), kernel, 5.0)
    assert gamma.fractions == {0: 1.0, 1: 1.0}
    assert delta.fractions == {}
    assert gamma.average(w) == pytest.approx(5.0, rel=1e-12)


def test_build_gamma_boundary_kernel():
    w = w8211()
    kernel = FractionalSet(w.space, 0, [1.0, 1.0])
    gamma, delta = build_gamma(w, NodeId(1, 0), kernel, 5.0)
    assert gamma.fractions == kernel.fractions
    assert delta.fractions == {}


def test_build_gamma_fractional_filler():
    w = DyadicWeight.from_leaves(2, 2, [9, 1, 1, 1])
    kernel = FractionalSet(w.space, 0, [1.0])
    gamma, delta = build_gamma(w, NodeId(1, 0), kernel, 7.0)
    # (9*0.25 + theta*0.25*1) / (0.25 + theta*0.25) = 7  =>  theta = 1/3
    assert gamma.fractions[0] == 1.0
    assert gamma.fractions[1] == pytest.approx(1 / 3, rel=1e-12)
    assert gamma.average(w) == pytest.approx(7.0, rel=1e-12)
    assert delta.fractions[1] == pytest.approx(2 / 3, rel=1e-12)


def test_build_gamma_preconditions():
    w = w8211()
    low_kernel = FractionalSet(w.space, 1, [1.0])
    with pytest.raises(ValueError):
        build_gamma(w, NodeId(1, 0), low_kernel, 5.0)
    kernel = FractionalSet(w.space, 0, [1.0])
    with pytest.raises(ValueError):
        build_gamma(w, NodeId(1, 0), kernel, 4.0)  # father average 5 > threshold


def test_build_gamma_kernel_outside_father():
    w = w8211()
    with pytest.raises(ValueError):
        build_gamma(w, NodeId(1, 1), FractionalSet(w.space, 0, [1.0]), 5.0)


# ---------------------------------------------------------------------------
# top set
# ---------------------------------------------------------------------------

def test_build_top_set_full():
    top = build_top_set(w8211(), 1.0)
    assert top.fractions == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_build_top_set_quarter():
    top = build_top_set(w8211(), 0.25)
    assert top.fractions == {0: 1.0}
    assert top.average(w8211()) == 8.0


def test_build_top_set_fractional():
    w = w8211()
    top = build_top_set(w, 0.375)
    assert top.fractions == {0: 1.0, 1: 0.5}
    assert top.average(w) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("t", [0.05, 0.1, 0.3, 0.5, 0.77, 1.0])
def test_top_set_average_matches_prefix_average(t):
    w = gen_random(TreeSpace(3, 3), 4)
    h = rearrangement(w)
    top = build_top_set(w, t)
    assert top.average(w) == pytest.approx(prefix_average(h, t), rel=1e-12)


def test_build_top_set_validation():
    with pytest.raises(ValueError):
        build_top_set(w8211(), 0.0)
    with pytest.raises(ValueError):
        build_top_set(w8211(), 1.5)


# ---------------------------------------------------------------------------
# two-set power comparison
# ---------------------------------------------------------------------------

def test_lemma_equal_sets():
    w = w8211()
    e = FractionalSet(w.space, 0, [1.0, 1.0])
    result = lemma21_check(w, e, e, 2.0)
    assert result.hypotheses_hold
    assert result.conclusion_holds
    assert result.lhs == result.rhs


def test_lemma_hand_example():
    w = DyadicWeight.from_leaves(2, 2, [4, 2, 1, 1])
    e = FractionalSet(w.space, 0, [1.0, 1.0])
    e_hat = FractionalSet(w.space, 0, [1.0, 0.0, 0.5])
    result = lemma21_check(w, e, e_hat, 2.0)
    assert result.hypotheses_hold
    assert result.average == pytest.approx(3.0, rel=1e-12)
    assert result.lhs == pytest.approx(10.0, rel=1e-12)
    assert result.rhs == pytest.approx(11.0, rel=1e-12)
    assert result.conclusion_holds


def test_lemma_negative_path():
    # value carried by e_hat only (4) above a value carried by e (1)
    w = DyadicWeight.from_leaves(2, 2, [4, 1, 1, 1])
    e = FractionalSet(w.space, 1, [1.0, 1.0])
    e_hat = FractionalSet(w.space, 0, [0.5])
    result = lemma21_check(w, e, e_hat, 2.0)
    assert not result.hypotheses_hold


def test_lemma_rejects_empty():
    w = w8211()
    with pytest.raises(ValueError):
        lemma21_check(w, FractionalSet(w.space, 0, []), FractionalSet(w.space, 0, [1.0]), 2.0)


# ---------------------------------------------------------------------------
# full trace
# ---------------------------------------------------------------------------

def test_trace_8211_half():
    tr = trace_theorem1(w8211(), 2.0, 0.5)
    assert not tr.degenerate
    assert tr.threshold == 5.0
    assert tr.exceedance_leaves == [0]
    assert tr.stopping_nodes == [NodeId(2, 0)]
    assert tr.fathers == [NodeId(1, 0)]
    assert tr.records[0].gamma.fractions == {0: 1.0, 1: 1.0}
    assert tr.records[0].delta.fractions == {}
    assert tr.prefix_power_average == pytest.approx(34.0, rel=1e-12)
    assert tr.gamma_power_average == pytest.approx(34.0, rel=1e-12)
    assert tr.bound_value == pytest.approx((2 * (35 / 18 - 1) + 1) * 25, rel=1e-12)
    assert tr.all_hold


def test_trace_nested_fathers_share_one_record():
    # the father (2, 2) of stopping node (3, 5) lies strictly inside the
    # father (1, 1) of stopping node (2, 3), so both join one record
    w = DyadicWeight.from_leaves(2, 3, [1, 1, 1, 1, 1, 2, 2, 2])
    tr = trace_theorem1(w, 2.0, 0.5)
    assert tr.threshold == 1.75
    assert tr.stopping_nodes == [NodeId(2, 3), NodeId(3, 5)]
    assert {w.space.father(n) for n in tr.stopping_nodes} == {NodeId(1, 1), NodeId(2, 2)}
    assert tr.fathers == [NodeId(1, 1)]
    assert [r.members for r in tr.records] == [(NodeId(2, 3), NodeId(3, 5))]
    assert tr.records[0].kernel.fractions == {5: 1.0, 6: 1.0, 7: 1.0}
    assert tr.all_hold


def test_trace_8211_quarter_degenerate():
    tr = trace_theorem1(w8211(), 2.0, 0.25)
    assert tr.degenerate
    assert tr.threshold == 8.0
    assert tr.all_hold


def test_trace_constant_weight_degenerate():
    tr = trace_theorem1(gen_constant(TreeSpace(2, 3), 4.0), 2.0, 0.6)
    assert tr.degenerate
    assert tr.threshold == 4.0
    assert tr.all_hold


def test_trace_validation():
    with pytest.raises(ValueError):
        trace_theorem1(w8211(), 1.0, 0.5)
    with pytest.raises(ValueError):
        trace_theorem1(w8211(), 2.0, 0.0)
    with pytest.raises(ValueError):
        trace_theorem1(DyadicWeight.from_leaves(2, 1, [0, 0]), 2.0, 0.5)
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError):
            trace_theorem1(w8211(), p, 0.5)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_trace_refuses_powers_out_of_double_range(scale):
    # threshold**2 is about 1e+403 or 1e-397; 1e+200 raised OverflowError
    w = gen_random(TreeSpace(2, 4), 1)
    with pytest.raises(ValueError, match="double range"):
        trace_theorem1(DyadicWeight(w.space, w.values * scale), 2.0, 0.5)
    assert trace_theorem1(DyadicWeight(w.space, w.values * scale**0.5), 2.0, 0.5).all_hold


@pytest.mark.parametrize("seed", range(8))
def test_trace_random_weights_all_assertions(seed):
    w = gen_random(TreeSpace([2, 3, 4][seed % 3], 1 + seed % 4), seed)
    for t in (0.1, 0.35, 0.6, 0.9):
        for p in (1.5, 2.0, 3.0):
            tr = trace_theorem1(w, p, t)
            failed = [a.name for a in tr.assertions if not a.holds]
            assert not failed, failed


def test_trace_gamma_between_exceedance_and_fathers():
    w = gen_random(TreeSpace(2, 4), 13)
    tr = trace_theorem1(w, 2.0, 0.4)
    if tr.degenerate:
        pytest.skip("degenerate draw")
    exceed_measure = len(tr.exceedance_leaves) * w.space.leaf_measure
    assert exceed_measure <= tr.gamma_measure * (1 + 1e-12)
    assert tr.gamma_measure <= tr.father_union_measure * (1 + 1e-12)


def test_trace_serialization_stable():
    tr = trace_theorem1(w8211(), 2.0, 0.5)
    doc = json.loads(tr.to_json())
    assert list(doc)[:6] == ["k", "depth", "p", "t", "threshold", "degenerate"]
    assert doc["stopping_nodes"] == [[2, 0]]
    assert doc["records"][0]["gamma"] == {"0": 1.0, "1": 1.0}
    names = [a["name"] for a in doc["assertions"]]
    assert names[0] == "stopping_family_covers_exceedance"
    assert names[-1] == "prefix_power_le_bound"
    assert all(a["holds"] for a in doc["assertions"])
    # identical run serializes identically
    assert trace_theorem1(w8211(), 2.0, 0.5).to_json() == tr.to_json()
