"""``DecompositionTrace.to_json`` against its reference encoding.

The reference is ``json.dumps(trace_to_dict(trace), indent=2)``: every trace
of the golden corpus, traces of drawn weights, exponents and prefix lengths,
and traces over hand-built columns for the cases the corpus lacks (non-finite and numpy floats, lemma failures, fathers without
members, all-fractional and empty sets, strings that need escaping) must
give the same text, and a field json cannot encode must raise TypeError
from both.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerhi import (DecompositionTrace, DyadicWeight, NodeId, TreeSpace, gen_random,
                     gen_two_value, trace_theorem1)
from treerhi.trace import Lemma21Result, _Decomposition
from helpers import trace_from_columns, trace_to_dict
from test_trace_golden import CASES, _traces

SPACE = TreeSpace(2, 3)


def reference(trace: DecompositionTrace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2)


@pytest.mark.parametrize("case", CASES)
def test_golden_corpus_matches_reference(case):
    for tr in _traces(case):
        if not isinstance(tr, ValueError):
            assert tr.to_json() == reference(tr)


def _father(index=0, members=(NodeId(2, 0),), kernel=(1.0, 1.0, 0.0, 0.0),
            filler=(0.0, 0.0, 0.5, 0.0), values=(3.0, 4.0, 0.25, 3.5, 0.5)) -> tuple:
    """One father's columns: the father at level 1, its members, its four
    sets over its block of four leaves, its values and its verdicts."""
    gamma = np.add(kernel, filler)
    return (NodeId(1, index), list(members), [kernel, filler, gamma, 1.0 - gamma], values,
            [True] * 4)


def _trace(fathers=(_father(),), checks=(("gamma_measure_le_t", 0.3125, 0.5, True),),
           tail=(), firsts=None, **fields) -> DecompositionTrace:
    """A trace over a decomposition of the given fathers and checks; each
    father's block starts at leaf ``4 * index`` unless ``firsts`` are given."""
    nodes, members, sets, values, holds = zip(*fathers)
    if firsts is None:
        firsts = np.array([node.index * 4 for node in nodes])
    d = _Decomposition(SPACE, 0.5, 3.5, (0, 1, 2), tuple(checks), (NodeId(2, 0), NodeId(3, 2)),
                       nodes, members, firsts, np.full(len(nodes), 4),
                       np.concatenate(sets, axis=1), np.array(values).T, np.array(holds).T)
    base = dict(
        k=2, depth=3, p=2.0, t=0.5, threshold=3.5, degenerate=False,
        rhi_constant=1.25, rhi_witness=NodeId(0, 0), bound_factor=1.5,
        bound_value=18.375, prefix_power_average=14.0,
        exceedance_leaves=[0, 1, 2], stopping_nodes=[NodeId(2, 0), NodeId(3, 2)],
        fathers=list(nodes), gamma_measure=0.3125,
        father_union_measure=0.5, gamma_power_average=13.0,
        lemma=Lemma21Result(True, True, 14.0, 13.0, 3.5),
    )
    base.update(fields)
    return trace_from_columns(d, tail, **base)


HAND_BUILT = {
    "non_finite_assertions": _trace(
        fathers=[_father(values=(3.0, math.inf, -0.0, math.nan, 0.5))],
        checks=[("nan_lhs", math.nan, math.inf, False)],
        tail=[("neg_inf_lhs", -math.inf, -0.0, True), ("inf_rhs", 1e-320, math.inf, True),
              ("signed_zeros", 0.0, -0.0, True)]),
    "numpy_floats": _trace(
        p=np.float64(2.5), t=np.float64(0.1), threshold=np.float64(1 / 3),
        gamma_power_average=np.float64(math.nan), bound_value=np.float64(math.inf),
        lemma=Lemma21Result(True, False, np.float64(2.0), np.float64(-math.inf), 1.5),
        checks=[("np", np.float64(0.1), np.float64(1e300), True)],
    ),
    "lemma_failures": _trace(lemma=Lemma21Result(
        False, True, 1.0, 2.0, 3.0,
        ("averages differ", "value in e_hat minus e above a value in e"))),
    "empty_members": _trace(fathers=[_father(members=()), _father(index=1)]),
    "only_fractional": _trace(fathers=[_father(kernel=(0.25, 0.75, 0.0, 0.0),
                                               filler=(0.0, -0.0, 0.0, 0.0))]),
    "escaped_strings": _trace(
        lemma=Lemma21Result(False, False, 1.0, 2.0, 3.0, ('quote " and \\ and \n', "Γ ∖ E")),
        checks=[("Γ_average[0]\t\"x\"", 1.0, 1.0, True)],
    ),
}


@st.composite
def _drawn_traces(draw):
    """A trace of a random, two-value or tied weight of at most 256 leaves at
    p in [1.1, 6] and t in (0, 1].  The weight and t come from a drawn seed,
    which spreads t over (0, 1] where drawn floats cluster at the ends; one
    trace in five is at a t below one leaf's measure, which is degenerate."""
    k = draw(st.sampled_from([2, 3, 4, 8]))
    space = TreeSpace(k, draw(st.sampled_from(range(1, int(math.log(256, k) + 1e-9) + 1))))
    kind, seed = draw(st.sampled_from(["random", "two-value", "tied"])), draw(st.integers(0, 9999))
    rng = np.random.default_rng(seed)
    if kind == "random":
        w = gen_random(space, seed)
    elif kind == "two-value":
        w = gen_two_value(space, *rng.choice([0.0, 0.5, 3.0, 1e3], 2, replace=False))
    else:
        values = rng.choice([0.0, 1.0, 2.0, 2.0, 7.0], space.n_leaves)
        values[seed % space.n_leaves] = 7.0
        w = DyadicWeight(space, values)
    t = space.leaf_measure / 3 if seed % 5 == 0 else 1.0 - rng.uniform()
    return trace_theorem1(w, draw(st.floats(1.1, 6.0)), t)


@given(tr=_drawn_traces())
@settings(max_examples=80, deadline=None)
def test_drawn_trace_matches_reference(tr):
    assert tr.to_json() == reference(tr)


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_trace_matches_reference(name):
    tr = HAND_BUILT[name]
    assert tr.to_json() == reference(tr)


@pytest.mark.parametrize("fields", [
    {"k": np.int64(2)},
    {"degenerate": np.bool_(False)},
    {"rhi_witness": NodeId(np.int64(0), 0)},
    {"exceedance_leaves": [0, np.int64(1)]},
    {"checks": [("np_bool", 1.0, 2.0, np.bool_(True))]},
    # '%d' spells a numpy int where json refuses it, so the node and leaf
    # templates of the writer must refuse it themselves
    {"fathers": [_father(members=(NodeId(2, 0), NodeId(2, np.int64(1))))]},
    {"fathers": [_father(index=np.int64(0))]},
    {"stopping_nodes": [NodeId(2, 0), NodeId(np.int64(3), 2)]},
    {"firsts": np.array([np.int64(0)], dtype=object)},
], ids=["np_int64_k", "np_bool_degenerate", "np_int64_node", "np_int64_leaf",
        "np_bool_holds", "np_int64_member", "np_int64_father", "np_int64_stopping_node",
        "np_int64_fraction_leaf"])
def test_unencodable_field_raises_type_error(fields):
    tr = _trace(**fields)
    with pytest.raises(TypeError):
        reference(tr)
    with pytest.raises(TypeError):
        tr.to_json()


def test_whole_leaf_items_at_digit_boundaries():
    from treerhi.jsontext import _whole_items

    leaves = [0, 1, 9, 10, 11, 99, 100, 101, 109, 1000, 4095, 99999, 100000, 10**9 + 7]
    for chosen in ([], [0], leaves, leaves[::-1], leaves[:5]):
        assert _whole_items(np.array(chosen, dtype=np.int64)) == [f'"{x}": 1.0' for x in chosen]
