import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerhi import (
    DyadicWeight,
    FractionalSet,
    NodeId,
    TreeSpace,
    build_gamma,
    build_top_set,
    gen_constant,
    gen_random,
    gen_two_value,
    lemma21_check,
    prefix_average,
    rearrangement,
    select_fathers,
    stopping_decomposition,
    trace_theorem1,
)
from treerhi import save_weight
from treerhi import trace as trace_mod
from treerhi.cli import main
from treerhi.sets import EQ_REL_TOL
from treerhi.trace import (
    ASSERT_REL_TOL,
    GAMMA_REL_TOL,
    Assertion,
    FatherRecord,
    _at_most,
    _fill,
    _isclose,
    _node_ids,
    _traces,
    _walk,
)
from helpers import (
    father,
    fractions,
    greedy_fill,
    maximal_oracle,
    sorted_leaf_prefix_average,
    trace_to_dict,
)
from test_trace_golden import CASES as GOLDEN_CASES, _traces as golden_traces
from test_trace_golden import _weight as golden_weight


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


def test_fractional_set_average_refuses_an_empty_set():
    # a set of measure 0 once raised ZeroDivisionError
    w = gen_random(TreeSpace(2, 2), 0)
    empty = FractionalSet(w.space, 0, [0.0, 0.0])
    assert empty.measure == 0.0 and empty.integral(w) == 0.0
    for q in (1.0, 2.0):
        with pytest.raises(ValueError, match="set is empty"):
            empty.average(w, q)


def test_fractional_set_validation():
    space = TreeSpace(2, 2)
    with pytest.raises(ValueError):
        FractionalSet(space, 0, [-0.5])
    with pytest.raises(ValueError):
        FractionalSet(space, 0, [1.5])
    with pytest.raises(ValueError):
        FractionalSet(space, 3, [0.5, 0.5])  # leaf 4 is outside the tree
    assert fractions(FractionalSet(space, 0, [0.0, 0.5])) == {1: 0.5}
    with_zero = DyadicWeight.from_leaves(2, 2, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="strictly positive"):
        FractionalSet(space, 0, [1.0, 1.0]).integral(with_zero, -1.0)


def test_fractional_set_from_node():
    space = TreeSpace(2, 2)
    s = FractionalSet.from_node(space, NodeId(1, 1))
    assert fractions(s) == {2: 1.0, 3: 1.0}


def test_fractional_set_windows():
    w = w8211()
    s = FractionalSet(w.space, 1, [0.5, 1.0])
    assert s.fraction_array().tolist() == [0.0, 0.5, 1.0, 0.0]
    assert s.fraction_array(1, 2).tolist() == [0.5, 1.0]
    with pytest.raises(ValueError):
        s.fraction_array(0, 2)  # leaves out leaf 2
    union = FractionalSet.union(w.space, [s, FractionalSet.from_node(w.space, NodeId(2, 3))])
    assert fractions(union) == {1: 0.5, 2: 1.0, 3: 1.0}
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
    with pytest.raises(ValueError, match="root average exceeds the threshold"):
        stopping_decomposition(w8211(), 2.0)


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
def test_stopping_refuses_threshold_not_above_zero(threshold):
    # NaN once passed the check and gave an empty family
    with pytest.raises(ValueError, match="threshold must be > 0"):
        stopping_decomposition(w8211(), threshold)


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


@pytest.mark.parametrize("node", [NodeId(2, 4), NodeId(2, -1), NodeId(3, 0)])
def test_select_fathers_rejects_node_outside_tree(node):
    with pytest.raises(ValueError, match="outside the tree"):
        select_fathers(TreeSpace(2, 2), [NodeId(2, 0), node])


def _fathers_reference(space, nodes):
    """The distinct fathers of nodes that no other father contains, root
    first, by TreeSpace.contains alone."""
    parents = sorted({NodeId(n.level - 1, n.index // space.k) for n in nodes})
    return [f for f in parents if not any(g != f and space.contains(g, f) for g in parents)]


def _walk_reference(space, masks):
    """_walk by TreeSpace.contains alone: the marked nodes under no other
    marked node, root first; their maximal fathers; the fathers holding
    each of them; the leaves they cover."""
    marked = _node_ids([np.flatnonzero(mask) for mask in masks])
    picks = [n for n in marked if not any(m != n and space.contains(m, n) for m in marked)]
    fathers = _fathers_reference(space, picks)
    owners = [[s for s, f in enumerate(fathers) if space.contains(f, n)] for n in picks]
    cover = [any(space.contains(n, NodeId(space.depth, leaf)) for n in picks)
             for leaf in range(space.n_leaves)]
    return picks, fathers, owners, cover


SHAPES = [(2, 1), (2, 3), (2, 5), (3, 3), (4, 2), (5, 2)]


def test_walk_matches_containment_reference():
    rng = np.random.default_rng(27)
    for case in range(300):
        space = TreeSpace(*SHAPES[case % len(SHAPES)])
        density = rng.random() * 0.5
        masks = [np.zeros(1, dtype=bool)] + [rng.random(space.k ** level) < density
                                              for level in range(1, space.depth + 1)]
        picks, fathers, owners, cover = _walk(space, masks)
        ref_picks, ref_fathers, ref_owners, ref_cover = _walk_reference(space, masks)
        assert _node_ids(picks) == ref_picks
        assert _node_ids(fathers) == ref_fathers
        assert [[s] for a in owners for s in a.tolist()] == ref_owners  # one holder each
        assert cover.tolist() == ref_cover
        assert len(picks) == len(owners) == space.depth + 1 and len(fathers) == space.depth


def test_select_fathers_matches_containment_reference():
    # node lists with duplicates, ancestors and descendants: a node under
    # another adds no maximal father
    rng = np.random.default_rng(21)
    for case in range(300):
        space = TreeSpace(*SHAPES[case % len(SHAPES)])
        nodes = []
        for _ in range(rng.integers(1, 9)):
            if nodes and rng.random() < 0.4:  # a duplicate, ancestor or descendant
                level, index = nodes[rng.integers(len(nodes))]
                shift = int(rng.integers(-level + 1, space.depth - level + 1))
                index = (index // space.k ** -shift if shift < 0 else
                         index * space.k ** shift + int(rng.integers(space.k ** shift)))
                level += shift
            else:
                level = int(rng.integers(1, space.depth + 1))
                index = int(rng.integers(space.k ** level))
            nodes.append(NodeId(level, index))
        assert select_fathers(space, nodes) == _fathers_reference(space, nodes)


# ---------------------------------------------------------------------------
# gamma construction
# ---------------------------------------------------------------------------

def test_build_gamma_full_filler():
    w = w8211()
    kernel = FractionalSet(w.space, 0, [1.0])
    gamma, delta = build_gamma(w, NodeId(1, 0), kernel, 5.0)
    assert fractions(gamma) == {0: 1.0, 1: 1.0}
    assert fractions(delta) == {}
    assert gamma.average(w) == pytest.approx(5.0, rel=1e-12)


def test_build_gamma_boundary_kernel():
    w = w8211()
    kernel = FractionalSet(w.space, 0, [1.0, 1.0])
    gamma, delta = build_gamma(w, NodeId(1, 0), kernel, 5.0)
    assert fractions(gamma) == fractions(kernel)
    assert fractions(delta) == {}


def test_build_gamma_fractional_filler():
    w = DyadicWeight.from_leaves(2, 2, [9, 1, 1, 1])
    kernel = FractionalSet(w.space, 0, [1.0])
    gamma, delta = build_gamma(w, NodeId(1, 0), kernel, 7.0)
    # (9*0.25 + theta*0.25*1) / (0.25 + theta*0.25) = 7  =>  theta = 1/3
    assert fractions(gamma)[0] == 1.0
    assert fractions(gamma)[1] == pytest.approx(1 / 3, rel=1e-12)
    assert gamma.average(w) == pytest.approx(7.0, rel=1e-12)
    assert fractions(delta)[1] == pytest.approx(2 / 3, rel=1e-12)


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


def _assert_fill_matches_loop(values, kernel, threshold, h, active):
    """The per-level filler equals the scalar loop on every row, bit for bit."""
    values = np.array(values, dtype=np.float64)
    kernel = np.array(kernel, dtype=np.float64)
    mass = [math.fsum(row) * h for row in kernel.tolist()]
    total = [math.fsum(row) * h for row in (kernel * values).tolist()]
    sets = np.zeros((4,) + kernel.shape)
    sets[0] = kernel
    _fill(values, sets, [mass, total], threshold, h, active)
    gamma, filler, delta = sets[2], sets[1], sets[3]
    for i in range(len(kernel)):
        want = greedy_fill(values[i], kernel[i], mass[i], total[i], threshold, h, active[i])
        for g, w in zip((gamma, filler, delta), want):
            assert g[i].tobytes() == w.tobytes(), (i, g[i], w)
    return gamma, filler, delta


def test_fill_level_branches():
    # one level of six fathers at threshold 2, leaf measure 1/16, kernel leaf 0:
    # 0: tied values 1 join in leaf order; the first ends the fill with x = m
    # 1: kernel average exactly 2, so free leaves at or above the threshold
    #    join whole only through threshold - value <= 0
    # 2: kernel average exactly 2 and a free leaf below it: x = 0
    # 3: needs no filler (inactive)
    # 4: every free leaf joins whole
    # 5: two leaves of value 0 tie; the second joins half
    values = [[3, 1, 1, 1], [2, 2, 5, 3], [2, 2, 1, 0], [4, 0, 0, 0], [9, 3, 2, 2], [5, 1, 0, 0]]
    kernel = [[1, 0, 0, 0]] * 6
    active = [True, True, True, False, True, True]
    gamma, filler, delta = _assert_fill_matches_loop(values, kernel, 2.0, 1 / 16, active)
    assert gamma.tolist() == [[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 0],
                              [1, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0.5]]
    assert filler[5].tolist() == [0, 0, 1, 0.5] and delta[5].tolist() == [0, 1, 0, 0.5]
    assert not filler[2].any() and delta[3].tolist() == [0, 1, 1, 1]
    # with leaf 3 joined whole the average is the threshold itself, so that
    # leaf takes the fractional branch (the test is strict), which ends the fill
    h = 0.2
    threshold = (0.3 * h + h * 0.1) / (h + h)
    gamma, _, _ = _assert_fill_matches_loop([[0.3, 2.9, 1.3, 0.1]], [[1, 0, 0, 0]], threshold,
                                            h, [True])
    assert gamma[0, 1:3].tolist() == [0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fill_level_matches_scalar_loop(data):
    f = data.draw(st.integers(2, 5), label="fathers")
    s = data.draw(st.sampled_from([1, 2, 3, 4, 8]), label="span")
    # few distinct values give ties; fractional kernels reach the general case
    value = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.0])
    values = data.draw(st.lists(st.lists(value, min_size=s, max_size=s),
                                min_size=f, max_size=f), label="values")
    share = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0])
    kernel = data.draw(st.lists(st.lists(share, min_size=s, max_size=s)
                                .filter(lambda row: any(row)), min_size=f, max_size=f),
                       label="kernel")
    h = data.draw(st.sampled_from([1.0, 1 / 8, 1 / 27, 2.0**-20]), label="h")
    averages = [sum(k * v for k, v in zip(kr, vr)) / sum(kr) for kr, vr in zip(kernel, values)]
    # thresholds at leaf values and at kernel averages hit the equality cases
    threshold = data.draw(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0] + averages)
                          .filter(lambda x: x > 0), label="threshold")
    active = data.draw(st.lists(st.booleans(), min_size=f, max_size=f), label="active")
    _assert_fill_matches_loop(values, kernel, threshold, h, active)


# ---------------------------------------------------------------------------
# top set
# ---------------------------------------------------------------------------

def test_build_top_set_full():
    top = build_top_set(w8211(), 1.0)
    assert fractions(top) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_build_top_set_quarter():
    top = build_top_set(w8211(), 0.25)
    assert fractions(top) == {0: 1.0}
    assert top.average(w8211()) == 8.0


def test_build_top_set_fractional():
    w = w8211()
    top = build_top_set(w, 0.375)
    assert fractions(top) == {0: 1.0, 1: 0.5}
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


def _tied_random(n: int, seed: int) -> np.ndarray:
    """Random leaves drawn from a few values, so most have ties."""
    rng = np.random.default_rng(seed)
    return rng.choice([0.0, 0.5, 1.0, 3.0], n)


def _stable_top_fractions(w: DyadicWeight, t: float) -> np.ndarray:
    """The top set of measure t as the prefix of the stable descending order."""
    n = w.space.n_leaves
    quotient = t / w.space.leaf_measure
    full = int(round(quotient)) if abs(quotient - round(quotient)) < 1e-9 else int(quotient)
    full = min(full, n)
    order = np.argsort(-w.values, kind="stable")
    fractions = np.zeros(n)
    fractions[order[:full]] = 1.0
    if quotient - full > EQ_REL_TOL and full < n:
        fractions[order[full]] = quotient - full
    return fractions


@pytest.mark.parametrize("w", [
    gen_constant(TreeSpace(2, 12), 2.5),
    gen_two_value(TreeSpace(2, 12), 1.0, 7.0),
    gen_two_value(TreeSpace(4, 3), 7.0, 1.0),
    DyadicWeight(TreeSpace(2, 12), _tied_random(4096, 0)),
    DyadicWeight(TreeSpace(3, 3), _tied_random(27, 1)),
    DyadicWeight(TreeSpace(2, 12), np.concatenate([np.arange(3000.0), np.arange(1096.0)])),
    gen_random(TreeSpace(2, 12), 3),  # no ties: unit steps
    DyadicWeight(TreeSpace(2, 0), np.zeros(1)),
    DyadicWeight(TreeSpace(2, 6), np.tile([0.0, -0.0, 1.0, -0.0], 16)),
], ids=["constant", "two-value", "two-value-rising", "tied-random", "tied-short",
        "tied-runs", "untied", "one-leaf", "signed-zero"])
def test_descending_order_is_the_stable_order(w):
    # the top set read from the rearrangement is the prefix of the stable
    # descending order of the leaves: ties are taken by leaf
    values, n = w.values, w.space.n_leaves
    levels, counts = np.unique(values, return_counts=True)
    above = np.count_nonzero(values > levels[counts.argmax()])
    inside_run = (above + min(counts.max(), 2) - 0.5) / n  # half a leaf into the longest run
    for t in (0.3 / n, min(2 / n, 1.0), 1 / n, 0.3, 0.5, inside_run, 1 - 1e-13, 1.0):
        expected = _stable_top_fractions(w, t)
        assert build_top_set(w, t).window.tobytes() == expected.tobytes(), t


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
    assert fractions(tr.records[0].gamma) == {0: 1.0, 1: 1.0}
    assert fractions(tr.records[0].delta) == {}
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
    assert {father(w.space, n) for n in tr.stopping_nodes} == {NodeId(1, 1), NodeId(2, 2)}
    assert tr.fathers == [NodeId(1, 1)]
    assert [r.members for r in tr.records] == [(NodeId(2, 3), NodeId(3, 5))]
    assert fractions(tr.records[0].kernel) == {5: 1.0, 6: 1.0, 7: 1.0}
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


def _assert_matches_oracles(w, tr):
    """The threshold against the sorted-leaf prefix average, the exceedance
    set against the maximal function by direct walk (a leaf whose maximal
    average ties the threshold to 1e-9 does not exceed it), and every
    assertion holding."""
    assert tr.threshold == pytest.approx(sorted_leaf_prefix_average(w, tr.t), rel=1e-12)
    m = maximal_oracle(w)
    tie = np.isclose(m, tr.threshold, rtol=1e-9, atol=0.0)
    assert tr.exceedance_leaves == np.flatnonzero((m > tr.threshold) & ~tie).tolist()
    assert tr.all_hold, [a.name for a in tr.assertions if not a.holds]


# golden-corpus weights whose t = 1 traces were refused: the prefix average at
# t = 1 landed an ulp or two below the root average
T1_ONCE_REFUSED = [(2, 3, 2), (2, 3, 3), (2, 8, 1), (3, 4, 2), (3, 4, 3), (4, 4, 1)]


@pytest.mark.parametrize("k, depth, seed", T1_ONCE_REFUSED)
def test_trace_at_t1_matches_oracles(k, depth, seed):
    w = gen_random(TreeSpace(k, depth), seed)
    for p in (1.5, 2.0, 3.0):
        tr = trace_theorem1(w, p, 1.0)
        assert not tr.degenerate
        _assert_matches_oracles(w, tr)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_trace_constant_and_two_value_weights_pass(k, t):
    # node averages equal to the threshold in exact arithmetic: rounding once
    # refused the root or put a node above the threshold
    for depth in range(1, 5 if k < 8 else 4):
        space = TreeSpace(k, depth)
        for v in (0.3, 1 / 3, 7.0):
            for w in (gen_constant(space, v), gen_two_value(space, v, 3 * v)):
                _assert_matches_oracles(w, trace_theorem1(w, 2.0, t))


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


# ---------------------------------------------------------------------------
# one decomposition shared by the traces at several exponents
# ---------------------------------------------------------------------------

SHARED_PS = (1.5, 2.0, 3.0)


def test_shared_traces_match_separate_traces():
    # the golden corpus, all its prefix lengths in one run, degenerate traces
    # included
    kinds = set()
    for case in GOLDEN_CASES:
        w, ts = golden_weight(case)
        shared = list(_traces(w, SHARED_PS, ts))
        assert [tr.to_json() for tr in shared] == [
            trace_theorem1(w, p, t).to_json() for t in ts for p in SHARED_PS]
        kinds |= {tr.degenerate for tr in shared}
    assert kinds == {True, False}


def test_shared_traces_refuse_where_separate_calls_do():
    # max is about 2**410: max**1.5 is in range, max**3 is not
    w = gen_random(TreeSpace(2, 4), 1)
    w = DyadicWeight(w.space, np.ldexp(w.values, 400))
    traces = _traces(w, (1.5, 3.0), (0.5,))
    assert next(traces).to_json() == trace_theorem1(w, 1.5, 0.5).to_json()
    with pytest.raises(ValueError) as shared:
        next(traces)
    with pytest.raises(ValueError) as separate:
        trace_theorem1(w, 3.0, 0.5)
    assert str(shared.value) == str(separate.value)
    assert "leaves the double range at p=3.0" in str(shared.value)
    # a first exponent out of range refuses before anything is decomposed
    with pytest.raises(ValueError, match="at p=3.0"):
        next(_traces(w, (3.0, 1.5), (0.5,)))


def test_shared_traces_own_their_lists():
    # records and assertions are tuples, which cannot change; the edited
    # verdicts are in test_failed_checks_read_the_same_from_columns_and_objects
    w = gen_random(TreeSpace(2, 4), 3)
    traces = list(_traces(w, SHARED_PS, (0.5,)))
    assert not traces[0].degenerate
    others = [tr.to_json() for tr in traces[1:]]
    first = traces[0]
    first.stopping_nodes.append(NodeId(0, 0))
    first.fathers.append(NodeId(0, 0))
    first.exceedance_leaves.append(0)
    assert [tr.to_json() for tr in traces[1:]] == others
    assert all(tr.all_hold for tr in traces[1:])
    # the mutated lists are what the trace now writes
    doc = json.loads(first.to_json())
    assert doc["stopping_nodes"][-1] == doc["fathers"][-1] == [0, 0]
    assert doc["exceedance_leaves"][-1] == 0
    assert len(doc["fathers"]) == len(traces[1].fathers) + 1
    assert isinstance(first.records, tuple) and isinstance(first.assertions, tuple)
    with pytest.raises(AttributeError):
        first.assertions.append(Assertion("extra", 0.0, 0.0, False))
    with pytest.raises(AttributeError, match="has no attribute 'record'"):
        first.record  # only records and assertions are built on read


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_json_from_columns_equals_json_from_objects(case):
    # a trace writes from the decomposition's columns before and after its
    # records and assertions are built, and json writes the same text of them
    for tr in golden_traces(case):
        if isinstance(tr, ValueError):
            continue
        table, holds = tr.assertion_table(), tr.all_hold
        text = tr.to_json()
        assert tr.records is tr.records and tr.assertions is tr.assertions  # built once
        assert tr.to_json() == text
        assert json.dumps(trace_to_dict(tr), indent=2) == text
        assert tr.assertion_table() == table
        assert tr.all_hold == holds == all(table["holds"])


def _failed_check(tr, failed: str) -> None:
    """Edit the verdict of one check of the trace to false."""
    d, tail = tr._source
    if failed == "kernel_measure_bounds[1]":
        holds = d.holds.copy()
        holds[2, 1] = False
        tr._source = d._replace(holds=holds), tail
    elif failed == "prefix_power_le_bound":
        tr._source = d, tail[:-1] + (tail[-1][:3] + (False,),)
    else:  # the first check, before the per-father ones
        tr._source = d._replace(checks=(d.checks[0][:3] + (False,),) + d.checks[1:]), tail


def test_failed_checks_read_the_same_from_columns_and_objects():
    # the tracer's checks hold on real weights, so the verdict columns are
    # edited: a per-father check of the second father, a check at p, and the
    # first check of a trace with fathers and of a degenerate one
    many = gen_random(TreeSpace(2, 6), 0)  # with more than one father at t = 0.3
    for w, t, failed in ((many, 0.3, "kernel_measure_bounds[1]"),
                         (many, 0.3, "prefix_power_le_bound"),
                         (many, 0.3, "stopping_family_covers_exceedance"),
                         (w8211(), 0.25, "max_value_le_threshold")):
        tr = trace_theorem1(w, 2.0, t)
        assert tr.all_hold and (len(tr.fathers) > 1 or tr.degenerate)
        _failed_check(tr, failed)
        table = tr.assertion_table()
        assert not tr.all_hold
        assert [n for n, holds in zip(table["name"], table["holds"]) if not holds] == [failed]
        text = tr.to_json()
        assert [a["name"] for a in json.loads(text)["assertions"] if not a["holds"]] == [failed]
        assert [a.name for a in tr.assertions if not a.holds] == [failed]
        assert not tr.all_hold and tr.to_json() == text
        assert len(tr.records) == len(tr.fathers)
    assert tr.degenerate and tr.records == ()


def _up(x):
    return float(np.nextafter(x, math.inf))


def _last_pinned(rhs):
    """The largest float GAMMA_REL_TOL-close to rhs > 0."""
    x = rhs * (1.0 + GAMMA_REL_TOL)
    while math.isclose(_up(x), rhs, rel_tol=GAMMA_REL_TOL):
        x = _up(x)
    while not math.isclose(x, rhs, rel_tol=GAMMA_REL_TOL):
        x = float(np.nextafter(x, -math.inf))
    return x


def _verdict_cases():
    for rhs in (1.0, 3.7, 1e-300, 5e-324, 1e300):
        # the last lhs that holds, then one ulp above it
        edges = [rhs * (1.0 + ASSERT_REL_TOL), _last_pinned(rhs)]
        lhs = [x for edge in edges for x in (edge, _up(edge))]
        lhs += [rhs * (1.0 - GAMMA_REL_TOL), rhs, 0.0, -0.0, math.nan, math.inf, -math.inf]
        yield lhs, rhs, True
    for rhs in (-2.5, 0.0, math.nan, math.inf, -math.inf):
        yield [1.0, -2.5, 0.0, math.inf, -math.inf, math.nan], rhs, False


@pytest.mark.parametrize("lhs, rhs, edges", list(_verdict_cases()))
def test_elementwise_verdicts_match_scalar(lhs, rhs, edges):
    # the per-father families decide on arrays what the other checks decide
    # on floats
    at_most = [_at_most(x, rhs) for x in lhs]
    pinned = [math.isclose(x, rhs, rel_tol=GAMMA_REL_TOL) for x in lhs]
    assert at_most == [x <= rhs * (1.0 + ASSERT_REL_TOL) for x in lhs]
    assert _at_most(np.array(lhs), rhs).tolist() == at_most
    assert _isclose(np.array(lhs), rhs, GAMMA_REL_TOL).tolist() == pinned
    if edges and rhs > 1e-300:  # above the subnormals, where an ulp is large
        assert at_most[:2] == [True, False]
        assert pinned[2:4] == [True, False]


def test_verify_decomposition_decomposes_each_prefix_once(monkeypatch):
    # five prefix lengths x three exponents: one walk per length (the weight,
    # 2 leaves, is degenerate at the first three), where a trace per
    # exponent walked six times
    calls = _count_calls(monkeypatch, trace_mod, "_walk")
    assert main(["verify", "decomposition", "--count", "1"]) == 0
    assert 0 < len(calls) <= 5


def test_each_decomposition_walks_once(monkeypatch):
    # the stopping family, its fathers, owners and cover come from one walk;
    # t = 0.01, below a leaf's measure, is degenerate and walks no levels
    w = gen_random(TreeSpace(2, 6), 0)
    calls = _count_calls(monkeypatch, trace_mod, "_walk")
    assert not trace_theorem1(w, 2.0, 0.3).degenerate
    assert len(calls) == 1
    calls.clear()
    traces = list(_traces(w, (1.5, 2.0, 3.0), (0.01, 0.3, 0.6)))
    decomposed = {tr.t for tr in traces if not tr.degenerate}
    assert len(decomposed) == 2 and len(calls) == 2


def _count_calls(monkeypatch, owner, name):
    """Calls of owner.name from now on, by the arguments after any self."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_verify_decomposition_shares_node_sup_and_rearrangement(monkeypatch):
    # one weight at five prefix lengths x three exponents: one node sup per
    # exponent and one rearrangement, where every trace made its own
    sups = _count_calls(monkeypatch, DyadicWeight, "dyadic_rhi_constant")
    rearranged = _count_calls(monkeypatch, trace_mod, "rearrangement")
    assert main(["verify", "decomposition", "--count", "1"]) == 0
    assert sups == [1.5, 2.0, 3.0]
    assert len(rearranged) == 1
    # a single trace sorts the leaves once too: the rearrangement gives the
    # threshold, the maximum and the top set, degenerate or not
    for t in (0.01, 0.3):
        rearranged.clear()
        trace_theorem1(gen_random(TreeSpace(2, 6), 0), 2.0, t)
        assert len(rearranged) == 1


def test_verify_lemma_computes_no_node_sup(monkeypatch, capsys):
    sups = _count_calls(monkeypatch, DyadicWeight, "dyadic_rhi_constant")
    assert main(["verify", "lemma", "--count", "3"]) == 0
    assert "all conclusions hold" in capsys.readouterr().out
    assert sups == []


def _count_constructions(monkeypatch):
    """Objects of the per-father types made from now on, by type name: every
    constructor call, and every FractionalSet._checked view."""
    made = {}

    def count(cls):
        made[cls.__name__] = made.get(cls.__name__, 0) + 1

    for kind in (Assertion, FatherRecord, FractionalSet):
        def counted(self, *args, _init=kind.__init__, **kwargs):
            count(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(kind, "__init__", counted)
    view = FractionalSet._checked

    def counted_view(cls, *args):
        count(cls)
        return view(*args)

    monkeypatch.setattr(FractionalSet, "_checked", classmethod(counted_view))
    return made


def test_trace_json_and_checks_build_no_per_father_objects(monkeypatch):
    # what trace_mid times and then reads: the trace, its JSON, its verdict
    # and its stopping family
    w = gen_random(TreeSpace(2, 12), 0)
    made = _count_constructions(monkeypatch)
    tr = trace_theorem1(w, 2.0, 0.5)
    text = tr.to_json()
    assert tr.all_hold and len(tr.stopping_nodes) > 100 and len(tr.fathers) > 100
    assert made == {}
    # reading the lists builds them, from the same columns
    assert len(tr.records) == len(tr.fathers)
    assert made == {"FatherRecord": len(tr.fathers), "FractionalSet": 4 * len(tr.fathers)}
    assert len(tr.assertions) == 4 * len(tr.fathers) + 8
    assert tr.to_json() == text


def test_cli_trace_and_verify_build_no_per_father_objects(monkeypatch, tmp_path, capsys):
    path = tmp_path / "w.json"
    save_weight(gen_random(TreeSpace(4, 5), 2), path)
    made = _count_constructions(monkeypatch)
    assert main(["trace", str(path), "--t", "0.4", "-o", str(tmp_path / "t.json")]) == 0
    assert main(["verify", "decomposition", "--count", "12"]) == 0
    out = capsys.readouterr().out
    assert "fathers" in out and "assertions: all hold" in out
    assert made == {}
