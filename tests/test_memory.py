"""Peak memory of the analyze stages on a 2^20-leaf weight, from tracemalloc
(numpy reports its array allocations to it).

The node sups stream blocks of leaves and the rearrangement sorts one copy
in place, so above the weight each needs only block-sized temporaries, and
analyze holds the weight, the rearrangement and block-sized temporaries.
Whole trees of node sums (16 MB a tree here) or leaf-sized temporaries of
the rearrangement (8 MB each) break the bounds.
"""
import tracemalloc

import pytest

from treerhi import DyadicWeight, TreeSpace, gen_random, rearrangement
from treerhi.cli import analyze_weight

MB = 2 ** 20
LEAVES = gen_random(TreeSpace(2, 20), 0).values


@pytest.fixture
def traced():
    """Starts tracemalloc unless it already runs; stops only what it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield
    if started:
        tracemalloc.stop()


def _peak_above(f, *args):
    """f(*args) and the traced peak during the call above the memory traced
    before it, in MB."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = f(*args)
    return out, (tracemalloc.get_traced_memory()[1] - before) / MB


def _fresh() -> DyadicWeight:
    return DyadicWeight(TreeSpace(2, 20), LEAVES)


@pytest.mark.parametrize("constant", ["dyadic_rhi_constant", "dyadic_muckenhoupt_constant"])
def test_node_sup_holds_no_tree_of_node_sums(traced, constant):
    w = _fresh()
    _, peak = _peak_above(getattr(w, constant), 2.0)
    assert peak < 3.0


def test_rearrangement_makes_no_leaf_sized_temporaries(traced):
    star, peak = _peak_above(rearrangement, _fresh())
    outputs = (star.breakpoints.nbytes + star.values.nbytes) / MB
    assert outputs == 16.0
    assert peak - outputs < 3.0


def test_analyze_holds_the_weight_and_the_rearrangement(traced):
    w = _fresh()
    _, peak = _peak_above(analyze_weight, w, 2.0)
    assert peak < 24.0
    assert w._sums == {}
