"""Both constant kernels at the production chunk size against their
whole-array references in tests/helpers.py, bit for bit, on weights of
2^16-2^17 leaves: the deepest levels and the step lists span several chunks.
The node sup also runs on the shapes and weights that its blocks of leaves
can get wrong: many blocks, blocks of one node, ties across blocks and
levels, and dead or underflowing blocks.
"""
import numpy as np
import pytest

from helpers import whole_node_ratio_sup, whole_node_sup, whole_prefix_sup, whole_ratio_curve
from treerhi import (DyadicWeight, NodeId, StepFunction, TreeSpace, gen_constant, gen_random,
                     gen_two_value, rearrangement)
from treerhi.rearrange import _prefix_sup, _ratio_chunks, ratio_curve
from treerhi.weight import _CHUNK, _power_pair

PS = (1.5, 2.0, 3.0, 120.0)


def _ramp(depth: int) -> DyadicWeight:
    """_CHUNK + 100 slowly falling values, then ones: at p = 1.5 (reverse
    Holder) and p = 3 (Muckenhoupt) the only interior stationary point of the
    prefix ratio, and its sup, lie in the wide last step, in the second chunk."""
    n = 2 ** depth
    head = 2.0 - np.arange(_CHUNK + 100) * 1e-9
    return DyadicWeight.from_leaves(2, depth, np.concatenate([head, np.ones(n - head.size)]))


def _weights() -> dict[str, DyadicWeight]:
    cases = {
        "random-2-16": gen_random(TreeSpace(2, 16), 0),
        "random-2-17": gen_random(TreeSpace(2, 17), 1),
        "random-4-8": gen_random(TreeSpace(4, 8), 2),
        # equal ratios on every node of a level: ties cross chunks
        "constant-2-17": gen_constant(TreeSpace(2, 17), 3.7),
        "two-value-2-16": gen_two_value(TreeSpace(2, 16), 5.0, 0.25),
        # the sup on every other node of level 16, in both of its chunks
        "periodic-2-17": DyadicWeight.from_leaves(2, 17, np.tile([4.0, 1.0, 2.5, 2.5], 2**15)),
        "ramp-2-17": _ramp(17),
    }
    v = gen_random(TreeSpace(2, 16), 3).values.copy()
    v[: 2 ** 14] = 0.0  # a zero quarter: dead nodes down to level 2
    cases["zeros-2-16"] = DyadicWeight.from_leaves(2, 16, v)
    base = cases["random-2-16"]
    for scale in (1e200, 1e-200):
        cases[f"random-2-16*{scale:g}"] = DyadicWeight(base.space, base.values * scale)
    return cases


WEIGHTS = _weights()


def _blocks(group, at: int, blocks) -> np.ndarray:
    """(2, 18) leaves, _CHUNK to a block of the node sup: 2.5 everywhere but
    for `group` at leaf `at` of each block in `blocks`.  The mean of every
    node holding the group is 2.5 and its other leaves equal it, so the sup
    lies on the smallest nodes that hold the group, on both sides."""
    leaves = np.full(2 ** 18, 2.5)
    for block in blocks:
        start = block * _CHUNK + at
        leaves[start:start + len(group)] = group
    return leaves


def _node_weights() -> dict[str, DyadicWeight]:
    cases = dict(WEIGHTS)
    # many blocks, blocks of one node (k > _CHUNK), and cli_small's one-pass shapes
    for k, depth in ((2, 18), (3, 10), (5, 7), (32, 4), (40000, 1),
                     (2, 3), (2, 6), (4, 2), (4, 3), (8, 2)):
        cases[f"random-{k}-{depth}"] = gen_random(TreeSpace(k, depth), k + depth)
    # the pair's node of level 17 ties in all eight blocks
    cases["same-blocks-2-18"] = DyadicWeight.from_leaves(2, 18, _blocks([4, 1], 6, range(8)))
    # a node of level 16 ties with its two children, in block 2 only
    cases["tied-levels-2-18"] = DyadicWeight.from_leaves(2, 18, _blocks([4, 1, 4, 1], 8, [2]))
    # identical two-value halves: the root ties with both nodes of level 1
    half = gen_two_value(TreeSpace(2, 15), 5.0, 0.25).values
    cases["same-halves-2-16"] = DyadicWeight.from_leaves(2, 16, np.tile(half, 2))
    v = gen_random(TreeSpace(2, 18), 6).values.copy()
    v[3 * _CHUNK:4 * _CHUNK] = 0.0  # block 3 is node (3, 3): it and every node under it are dead
    cases["dead-block-2-18"] = DyadicWeight.from_leaves(2, 18, v)
    v = gen_random(TreeSpace(2, 16), 7).values.copy()
    v[_CHUNK:] *= 1e-200  # the powers of block 1 alone underflow
    cases["underflow-block-2-16"] = DyadicWeight.from_leaves(2, 16, v)
    return cases


NODE_WEIGHTS = _node_weights()


def _outcome(f, *args):
    """f(*args), with arrays as bytes and a refusal as its message."""
    try:
        out = f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return out.tobytes() if isinstance(out, np.ndarray) else out


def _node_sup(w, p, dual):
    report = w._node_sup(p, dual)
    return report.constant, report.witness


def _prefix_sup_pair(star, p, dual):
    report = _prefix_sup(star, p, dual)
    return report.constant, report.witness_t


@pytest.mark.parametrize("name", sorted(NODE_WEIGHTS))
def test_node_sup_matches_whole_levels(name):
    w = NODE_WEIGHTS[name]
    for p in PS:
        for dual in (False, True):
            if dual and np.any(w.values == 0):
                continue
            a, b = _power_pair(p, dual)
            assert w._ratio_sup(a, b) == whole_node_ratio_sup(w, a, b), (p, dual)
            assert _outcome(_node_sup, w, p, dual) == _outcome(whole_node_sup, w, p, dual), \
                (p, dual)


@pytest.mark.parametrize("name, witness", [("same-blocks-2-18", NodeId(17, 3)),
                                           ("tied-levels-2-18", NodeId(16, _CHUNK // 2 + 2)),
                                           ("same-halves-2-16", NodeId(0, 0))])
def test_node_sup_ties_go_to_the_lowest_level_and_index(name, witness):
    w = NODE_WEIGHTS[name]
    for p in PS:
        for dual in (False, True):
            assert w._node_sup(p, dual).witness == witness, (p, dual)


def test_one_underflowing_block_forces_the_retry():
    w = NODE_WEIGHTS["underflow-block-2-16"]
    head = DyadicWeight.from_leaves(2, 15, w.values[:_CHUNK])
    assert head._ratio_sup(2.0, 1.0) is not None
    assert w._ratio_sup(2.0, 1.0) is None
    assert _node_sup(w, 2.0, False) == whole_node_sup(w, 2.0, False)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_prefix_sup_matches_whole_steps(name):
    star = rearrangement(WEIGHTS[name])
    for p in PS:
        for dual in (False, True):
            if dual and star.values[-1] == 0:
                continue
            assert (_outcome(_prefix_sup_pair, star, p, dual)
                    == _outcome(whole_prefix_sup, star, p, dual)), (p, dual)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_ratio_curve_matches_whole_steps(name):
    star = rearrangement(WEIGHTS[name])
    for q in PS:
        assert (_outcome(ratio_curve, star, q, 1000)
                == _outcome(whole_ratio_curve, star, q, 1000)), q


def test_ramp_sup_sits_inside_a_later_chunk():
    star = rearrangement(WEIGHTS["ramp-2-17"])
    assert star.breakpoints.size > _CHUNK
    for p, dual in ((1.5, False), (3.0, True)):
        a, b = _power_pair(p, dual)
        first, *_ = _ratio_chunks(star.breakpoints, star.values, a, b, None)
        assert first[0].size == _CHUNK  # the first chunk has breakpoints only
        t = _prefix_sup(star, p, dual).witness_t
        assert star.breakpoints[_CHUNK] < t < star.breakpoints[-1]
        assert t not in star.breakpoints


def test_prefix_tie_goes_to_the_largest_t_across_chunks():
    """Equal unmerged steps on an exact dyadic grid: the ratio is exactly 1 at
    every breakpoint of every chunk, and the witness is the last one."""
    n = 2 * _CHUNK
    star = StepFunction(np.arange(1, n + 1) / n, np.ones(n))
    for p in PS:
        for dual in (False, True):
            assert _prefix_sup_pair(star, p, dual) == (1.0, 1.0)
            assert whole_prefix_sup(star, p, dual) == (1.0, 1.0)
