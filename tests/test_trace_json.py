"""``DecompositionTrace.to_json`` against its reference encoding.

The reference is ``json.dumps(trace_to_dict(trace), indent=2)``: every trace
of the golden corpus and hand-built traces for the cases the corpus lacks
(non-finite and numpy floats, lemma failures, empty and all-fractional sets,
strings that need escaping) must give the same text, and a field json cannot
encode must raise TypeError from both.
"""
import json
import math

import numpy as np
import pytest

from treerhi import DecompositionTrace, FractionalSet, NodeId, TreeSpace
from treerhi.trace import Assertion, FatherRecord, Lemma21Result
from helpers import trace_to_dict
from test_trace_golden import CASES, _traces

SPACE = TreeSpace(2, 3)


def reference(trace: DecompositionTrace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2)


@pytest.mark.parametrize("case", CASES)
def test_golden_corpus_matches_reference(case):
    for tr in _traces(case):
        if not isinstance(tr, ValueError):
            assert tr.to_json() == reference(tr)


def _record(members=(NodeId(2, 0),), kernel=(1.0, 1.0), filler=(0.0, 0.0, 0.5),
            average=4.0) -> FatherRecord:
    def fset(fractions):
        return FractionalSet(SPACE, 0, fractions)

    return FatherRecord(
        father=NodeId(1, 0),
        members=tuple(members),
        kernel=fset(kernel),
        filler=fset(filler),
        gamma=fset([1.0, 1.0, 0.5, 0.0]),
        delta=FractionalSet(SPACE, 2, [0.5, 1.0]),
        father_average=3.0,
        kernel_average=average,
        gamma_average=3.5,
    )


def _trace(**fields) -> DecompositionTrace:
    base = dict(
        k=2, depth=3, p=2.0, t=0.5, threshold=3.5, degenerate=False,
        rhi_constant=1.25, rhi_witness=NodeId(0, 0), bound_factor=1.5,
        bound_value=18.375, prefix_power_average=14.0,
        exceedance_leaves=[0, 1, 2], stopping_nodes=[NodeId(2, 0), NodeId(3, 2)],
        fathers=[NodeId(1, 0)], records=[_record()], gamma_measure=0.3125,
        father_union_measure=0.5, gamma_power_average=13.0,
        lemma=Lemma21Result(True, True, 14.0, 13.0, 3.5),
        assertions=[Assertion("gamma_measure_le_t", 0.3125, 0.5, True)],
    )
    base.update(fields)
    return DecompositionTrace(**base)


HAND_BUILT = {
    "non_finite_assertions": _trace(assertions=[
        Assertion("nan_lhs", math.nan, math.inf, False),
        Assertion("neg_inf_lhs", -math.inf, -0.0, True),
        Assertion("inf_rhs", 1e-320, math.inf, True),
    ]),
    "numpy_floats": _trace(
        p=np.float64(2.5), t=np.float64(0.1), threshold=np.float64(1 / 3),
        gamma_power_average=np.float64(math.nan), bound_value=np.float64(math.inf),
        records=[_record(average=np.float64(4.000000000000001))],
        lemma=Lemma21Result(True, False, np.float64(2.0), np.float64(-math.inf), 1.5),
        assertions=[Assertion("np", np.float64(0.1), np.float64(1e300), True)],
    ),
    "lemma_failures": _trace(lemma=Lemma21Result(
        False, True, 1.0, 2.0, 3.0,
        ("averages differ", "value in e_hat minus e above a value in e"))),
    "empty_members": _trace(records=[_record(members=()), _record()]),
    "only_fractional": _trace(records=[_record(kernel=(0.25, 0.75), filler=(0.0, -0.0))]),
    "empty_windows": _trace(records=[_record(kernel=(), filler=()), _record()]),
    "all_windows_empty": _trace(records=[FatherRecord(
        NodeId(1, 0), (), *[FractionalSet(SPACE, 3, [])] * 4, 3.0, 4.0, 3.5)]),
    "escaped_strings": _trace(
        lemma=Lemma21Result(False, False, 1.0, 2.0, 3.0, ('quote " and \\ and \n', "Γ ∖ E")),
        assertions=[Assertion("Γ_average[0]\t\"x\"", 1.0, 1.0, True)],
    ),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_trace_matches_reference(name):
    tr = HAND_BUILT[name]
    assert tr.to_json() == reference(tr)


@pytest.mark.parametrize("fields", [
    {"k": np.int64(2)},
    {"degenerate": np.bool_(False)},
    {"rhi_witness": NodeId(np.int64(0), 0)},
    {"exceedance_leaves": [0, np.int64(1)]},
    {"assertions": [Assertion("np_bool", 1.0, 2.0, np.bool_(True))]},
], ids=["np_int64_k", "np_bool_degenerate", "np_int64_node", "np_int64_leaf",
        "np_bool_holds"])
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
