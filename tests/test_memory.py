"""Peak memory of the analyze stages on a 2^20-leaf weight, from tracemalloc
(numpy reports its array allocations to it).

The node sups stream blocks of leaves, the prefix sups chunks of steps, and
the rearrangement sorts one copy in place, so above the weight each needs
only block- or chunk-sized temporaries.  These leaves never tie, so the
rearrangement is unit steps: it holds its values alone, and the prefix sups
form each chunk's breakpoints themselves.  So analyze holds the weight, one
sorted copy of its leaves and block-sized temporaries.  Whole trees of node
sums (16 MB a tree here), a whole array of breakpoints or other leaf-sized
temporaries of the rearrangement (8 MB each) break the bounds.
"""
import tracemalloc

import pytest

from treerhi import (DyadicWeight, TreeSpace, gen_random, prefix_muckenhoupt_constant,
                     prefix_rhi_constant, rearrangement, trace_theorem1)
from treerhi.cli import analyze_weight
from treerhi.weight import _scalings

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


def test_node_sup_retry_makes_one_rescaled_copy(traced):
    # scaled by 1e-200, the sup retries on one rescaled copy of the leaves (8 MB
    # here, 10.0 MB at the peak with the blocks' temporaries); a retry that
    # builds and validates a whole new weight breaks the bound
    w = DyadicWeight(TreeSpace(2, 20), LEAVES * 1e-200)
    _, peak = _peak_above(w.dyadic_rhi_constant, 2.0)
    assert peak < 12.0


def test_rescaling_copies_only_the_rescaled_leaves(traced):
    # the smallest positive leaf is found without copying the positive leaves
    # (8 MB, and a 1 MB mask), so the rescaled copy it yields is the largest
    # array made on the way
    scalings = _scalings(LEAVES * 1e-200)
    next(scalings)
    rescaled, peak = _peak_above(next, scalings)
    assert peak - rescaled.nbytes / MB < 0.5


def test_rearrangement_makes_no_leaf_sized_temporaries(traced):
    # the values (8 MB) and two 1 MB masks; the breakpoints wait for a read
    star, peak = _peak_above(rearrangement, _fresh())
    assert star.values.nbytes / MB == 8.0
    assert peak - star.values.nbytes / MB < 3.0
    assert "breakpoints" not in vars(star)


@pytest.mark.parametrize("constant", [prefix_rhi_constant, prefix_muckenhoupt_constant])
def test_prefix_sup_gathers_only_around_skipped_blocks(traced, constant):
    # the first chunk's blocks all reach its sup here, and it is evaluated on
    # views of its arrays (3.3 MB at the peak); gathering its 2^15 steps by
    # index makes about 2 MB more
    star = rearrangement(_fresh())
    _, peak = _peak_above(constant, star, 2.0)
    assert peak < 4.0


def test_analyze_holds_the_weight_and_the_rearrangement(traced):
    # 12.0 MB: the sorted leaves (8 MB) and the prefix sups' chunk temporaries
    w = _fresh()
    _, peak = _peak_above(analyze_weight, w, 2.0)
    assert peak < 13.0
    assert w._sums == {}


def test_trace_stays_below_160_bytes_per_leaf(traced):
    # 152.4 B/leaf at 2^16 leaves, set by the stages after the walk: the
    # walk's masks, formed a level at a time, do not reach the peak, and
    # neither would whole trees of node averages and masks (18 B/leaf).
    # Exact sums as Python lists of the terms (32 B/leaf, 163.3 B/leaf at
    # the peak) or a second sort of the leaves for the top set (8 B/leaf)
    # break the bound
    w = gen_random(TreeSpace(2, 16), 0)
    _, peak = _peak_above(trace_theorem1, w, 2.0, 0.5)
    assert peak * MB / w.space.n_leaves < 160.0


def test_trace_config_adds_no_copy_of_the_text(traced):
    # the config is a key of the template, so the text is formed once; spliced
    # into a copy of the text, it peaked 67% above the text alone here
    trace = trace_theorem1(gen_random(TreeSpace(2, 14), 0), 2.0, 0.5)
    config = {"command": "trace", "weight": "w.json", "p": 2.0, "t": 0.5, "output": "t.json"}
    plain, peak = _peak_above(trace.to_json)
    del plain
    text, config_peak = _peak_above(trace.to_json, config)
    assert text.endswith('"output": "t.json"\n  }\n}')
    assert config_peak < peak * 1.1
