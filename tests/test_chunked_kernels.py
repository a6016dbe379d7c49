"""Both constant kernels at the production chunk size against their
whole-array references in tests/helpers.py, bit for bit, on weights of
2^16-2^17 leaves: the deepest levels and the step lists span several chunks.
"""
import numpy as np
import pytest

from helpers import whole_node_sup, whole_prefix_sup, whole_ratio_curve
from treerhi import (DyadicWeight, StepFunction, TreeSpace, gen_constant, gen_random,
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


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_node_sup_matches_whole_levels(name):
    w = WEIGHTS[name]
    for p in PS:
        for dual in (False, True):
            if dual and np.any(w.values == 0):
                continue
            assert _outcome(_node_sup, w, p, dual) == _outcome(whole_node_sup, w, p, dual), \
                (p, dual)


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
