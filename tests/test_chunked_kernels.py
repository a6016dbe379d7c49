"""Both constant kernels at the production chunk size against their
whole-array references in tests/helpers.py, bit for bit, on weights of
2^16-2^17 leaves: the deepest levels and the step lists span several chunks.
The node sup also runs on the shapes and weights that its blocks of leaves
can get wrong: many blocks, blocks of one node, ties across blocks and
levels, and dead or underflowing blocks; the blocks of leaves that it
compares, each decided as it is formed and all again after the pass only
where they must be, are counted.  The prefix sup, which evaluates a block of steps only when a bound
can reach the sup, runs on small step functions at chunks of 1, 3 and 64
steps and blocks of 1 to 8 steps as well.  Each side's kernel takes a list
of exponent pairs: one pass for both pairs must give each the bits of its
own pass, and so must one pass for a list of (p, dual) entries at several
p; analyze and verify theorem1 must make one pass per side.  A tie-free weight's
rearrangement forms each chunk's breakpoints from the step indices, which
must give the bits of explicit breakpoints at every chunk size.
"""
import math
import re

import numpy as np
import pytest

from helpers import whole_node_ratio_sup, whole_node_sup, whole_prefix_sup, whole_ratio_curve
from treerhi import (DyadicWeight, NodeId, StepFunction, TreeSpace, gen_constant, gen_random,
                     gen_two_value, prefix_muckenhoupt_constant, prefix_rhi_constant, rearrange,
                     rearrangement, weight)
from treerhi.cli import analyze_weight, main
from treerhi.rearrange import _BLOCK, _prefix_sups, ratio_curve
from treerhi.weight import _CHUNK, _MAX, _RANGE_ERROR, _RESOLVED, _power_pair

PS = (1.5, 2.0, 3.0, 120.0)


def _ramp(depth: int) -> DyadicWeight:
    """_CHUNK + 100 slowly falling values, then ones: at p = 1.5 (reverse
    Holder) and p = 3 (Muckenhoupt) the only interior stationary point of the
    prefix ratio, and its sup, lie in the wide last step, in the second chunk."""
    n = 2 ** depth
    head = 2.0 - np.arange(_CHUNK + 100) * 1e-9
    return DyadicWeight.from_leaves(2, depth, np.concatenate([head, np.ones(n - head.size)]))


def _spike(depth: int, width: int, head: int) -> np.ndarray:
    """`width` leaves of 40, `head` slowly falling values, then ones: the
    sup of the reverse Holder prefix ratio is an interior point of the wide
    last step at p = 2 for (17, 1024, _CHUNK + 100), in the second chunk, and
    at p = 3 for (9, 1, 100)."""
    n = 2 ** depth
    return np.concatenate([np.full(width, 40.0), 2.0 - np.arange(head) * (0.01 / head),
                           np.ones(n - head - width)])


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
        "spike-2-17": DyadicWeight.from_leaves(2, 17, _spike(17, 1024, _CHUNK + 100)),
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
    # four copies of one block: every node of level >= 2 ties with its twins
    cases["tiled-blocks-2-17"] = DyadicWeight.from_leaves(
        2, 17, np.tile(gen_random(TreeSpace(2, 15), 0).values, 4))
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
    report = (w.dyadic_muckenhoupt_constant if dual else w.dyadic_rhi_constant)(p)
    return report.constant, report.witness


def _prefix_sup_pair(star, p, dual):
    report = (prefix_muckenhoupt_constant if dual else prefix_rhi_constant)(star, p)
    return report.constant, report.witness_t


def _duals(values: np.ndarray) -> tuple[bool, ...]:
    """The pairs that analyze asks for: both on positive values, else the
    reverse Holder pair alone."""
    return (False, True) if values.min() > 0 else (False,)


def _pairs(reports, witness: str) -> list:
    """(constant, witness) of each report of a call for several pairs."""
    return [(report.constant, getattr(report, witness)) for report in reports]


def _shared(singles: list):
    """What one call for several pairs must give, from the outcome of each
    pair's own call: the first refusal when some pair is refused (all refuse
    with one message), else every pair's own answer."""
    return next((single for single in singles if isinstance(single, str)), singles)


def _check_shared_node_pass(w: DyadicWeight, p: float) -> None:
    duals = _duals(w.values)
    entries = [(p, dual) for dual in duals]
    shared = _outcome(lambda: _pairs(w._node_sups(entries), "witness"))
    assert shared == _shared([_outcome(_node_sup, w, p, dual) for dual in duals]), p
    assert shared == _shared([_outcome(whole_node_sup, w, p, dual) for dual in duals]), p


def _check_shared_prefix_loop(star: StepFunction, p: float) -> None:
    duals = _duals(star.values)
    entries = [(p, dual) for dual in duals]
    shared = _outcome(lambda: _pairs(_prefix_sups(star, entries), "witness_t"))
    assert shared == _shared([_outcome(_prefix_sup_pair, star, p, dual) for dual in duals]), p
    assert shared == _shared([_outcome(whole_prefix_sup, star, p, dual) for dual in duals]), p


@pytest.mark.parametrize("name", sorted(NODE_WEIGHTS))
def test_node_sup_matches_whole_levels(name):
    w = NODE_WEIGHTS[name]
    for p in PS:
        pairs = [_power_pair(p, dual) for dual in _duals(w.values)]
        whole = [whole_node_ratio_sup(w, a, b) for a, b in pairs]
        assert w._ratio_sup(w.values, pairs) == whole, p
        assert [w._ratio_sup(w.values, [pair])[0] for pair in pairs] == whole, p
        _check_shared_node_pass(w, p)


@pytest.mark.parametrize("name, witness", [("same-blocks-2-18", NodeId(17, 3)),
                                           ("tied-levels-2-18", NodeId(16, _CHUNK // 2 + 2)),
                                           ("same-halves-2-16", NodeId(0, 0))])
def test_node_sup_ties_go_to_the_lowest_level_and_index(name, witness):
    w = NODE_WEIGHTS[name]
    for p in PS:
        for dual in (False, True):
            assert _node_sup(w, p, dual)[1] == witness, (p, dual)


def test_node_sup_ties_across_blocks_go_to_the_first_block():
    """Each block of the tiled weight is one node of level 2 whose subtree
    has the bits of the other three, so every sup below level 2 ties across
    the blocks; the witness is the twin of the lowest index, in block 0."""
    w = NODE_WEIGHTS["tiled-blocks-2-17"]
    for p in PS:
        for dual in (False, True):
            found = _outcome(_node_sup, w, p, dual)
            assert found == _outcome(whole_node_sup, w, p, dual), (p, dual)
            if isinstance(found, tuple):
                level, index = found[1]
                assert level >= 2 and index < 2 ** (level - 2), (p, dual)


def test_one_underflowing_block_forces_the_retry():
    w = NODE_WEIGHTS["underflow-block-2-16"]
    head = DyadicWeight.from_leaves(2, 15, w.values[:_CHUNK])
    assert head._ratio_sup(head.values, [(2.0, 1.0)])[0] is not None
    assert w._ratio_sup(w.values, [(2.0, 1.0)])[0] is None
    assert _node_sup(w, 2.0, False) == whole_node_sup(w, 2.0, False)


@pytest.mark.parametrize("name", sorted(NODE_WEIGHTS))
def test_prefix_sup_matches_whole_steps(name):
    star = rearrangement(NODE_WEIGHTS[name])
    for p in PS:
        _check_shared_prefix_loop(star, p)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_ratio_curve_matches_whole_steps(name):
    star = rearrangement(WEIGHTS[name])
    for q in PS:
        assert (_outcome(ratio_curve, star, q, 1000)
                == _outcome(whole_ratio_curve, star, q, 1000)), q


def test_ramp_sup_sits_inside_a_later_chunk(monkeypatch):
    """At blocks of 16 steps the second chunk's 101 steps make 7 blocks: the
    ratio is near 1 on the ramp, so only the last block, whose wide step
    holds the sup, can reach it.  The first chunk, where the ratio barely
    moves, evaluates all of its blocks and has no interior stationary point."""
    monkeypatch.setattr(rearrange, "_BLOCK", 16)
    star = rearrangement(WEIGHTS["ramp-2-17"])
    assert star.breakpoints.size == _CHUNK + 101
    log = _solved(monkeypatch)
    for p, dual in ((1.5, False), (3.0, True)):
        log.clear()
        assert _prefix_sup_pair(star, p, dual) == whole_prefix_sup(star, p, dual)
        assert log == [(_CHUNK, list(range(_CHUNK // 16)), [0] * (_CHUNK // 16)),
                       (101, [6], [1])], (p, dual)
        t = _prefix_sup_pair(star, p, dual)[1]
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


def _small_steps() -> dict[str, StepFunction]:
    """Step functions of at most 512 steps, for the prefix sup at small chunks."""
    n = 2 ** 9
    leaves = {
        "random": gen_random(TreeSpace(2, 9), 5).values,
        "ramp": np.concatenate([2.0 - np.arange(300) * 1e-9, np.ones(n - 300)]),
        "spike": _spike(9, 1, 100),
        "constant": np.full(n, 3.7),
        "tied-blocks": np.tile([4.0, 4.0, 1.0, 2.5], n // 4),
    }
    for scale in (1e200, 1e-200):
        leaves[f"random*{scale:g}"] = leaves["random"] * scale
    cases = {name: rearrangement(DyadicWeight.from_leaves(2, 9, v)) for name, v in leaves.items()}
    # unmerged equal steps: ties inside and across chunks
    cases["tied-steps"] = StepFunction(np.arange(1, n + 1) / n, np.repeat([3.0, 2.0, 1.0, 1.0], n // 4))
    cases["near-resolved"] = _near_resolved(1.0)
    for seed in (7, 10):
        cases[f"random-steps-{seed}"] = _random_steps(seed)
    return cases


def _random_steps(seed: int) -> StepFunction:
    """12 log-normal steps of very uneven widths: at seeds 7 and 10 a chunk of
    3 steps holds a step whose growth factor is much larger than the others',
    and its interior point is the sup (reverse Holder at 7, Muckenhoupt at 10)."""
    rng = np.random.default_rng(seed)
    values = np.sort(np.exp(rng.normal(0.0, 3.0, 12)))[::-1]
    breakpoints = np.cumsum(rng.dirichlet(np.full(12, 0.2)))
    breakpoints[-1] = 1.0
    return StepFunction(breakpoints, values)


def _near_resolved(scale: float) -> StepFunction:
    """64 steps of equal width whose mean over (0, 1] is exactly
    _RESOLVED * (1 + 2**-46) * scale: at scale 1 the last chunk of 16 steps
    lies within the pruning margin of _RESOLVED on the Muckenhoupt side at
    p = 2 and 3."""
    values = np.array([16, 8, 4, 4, 1 + 2.0**-40, 1, 1, 1] + [0.5] * 56)
    return StepFunction(np.arange(1, 65) / 64, values * (_RESOLVED * scale))


SMALL_STEPS = _small_steps()


def _solved(monkeypatch) -> list[tuple[int, list[int], list[int]]]:
    """Records, for every chunk of the prefix sup, its steps, the blocks whose
    steps it solves for interior stationary points, and the points found in
    each of those blocks."""
    log = []
    solve = rearrange._stationary

    def counted(n0, d0, va, vb, left, right, step, y, z):
        found = solve(n0, d0, va, vb, left, right, step, y, z)
        blocks = np.unique(np.arange(right.size)[step] // rearrange._BLOCK)
        points = np.bincount(found[0] // rearrange._BLOCK, minlength=right.size)[blocks]
        log.append((right.size, blocks.tolist(), points.tolist()))
        return found

    monkeypatch.setattr(rearrange, "_stationary", counted)
    return log


@pytest.mark.parametrize("chunk", [1, 3, 64, _CHUNK])
@pytest.mark.parametrize("name", sorted(SMALL_STEPS))
def test_pruned_prefix_sup_matches_whole_steps(name, chunk, monkeypatch):
    monkeypatch.setattr(rearrange, "_CHUNK", chunk)
    star = SMALL_STEPS[name]
    # a block of a chunk's size or more is the whole chunk
    for block in sorted({min(block, chunk) for block in (1, 3, 8, _BLOCK)}):
        monkeypatch.setattr(rearrange, "_BLOCK", block)
        for p in PS:
            _check_shared_prefix_loop(star, p)


@pytest.mark.parametrize("star, p, chunk", [(rearrangement(WEIGHTS["spike-2-17"]), 2.0, _CHUNK),
                                           (SMALL_STEPS["spike"], 3.0, 3)])
def test_spike_sup_is_interior_in_a_later_chunk(star, p, chunk, monkeypatch):
    monkeypatch.setattr(rearrange, "_CHUNK", chunk)
    assert star.breakpoints.size > chunk
    t = _prefix_sup_pair(star, p, False)[1]
    assert star.breakpoints[-2] < t < 1.0
    assert _prefix_sup_pair(star, p, False) == whole_prefix_sup(star, p, False)


def test_prefix_sup_solves_few_steps_after_the_first_chunk(monkeypatch):
    """The ratio rises to its sup at t = 1, so each later chunk evaluates only
    its last block, and the first chunk a few blocks, its first (whose growth
    bound is infinite) among them."""
    star = rearrangement(gen_random(TreeSpace(2, 17), 0))
    log = _solved(monkeypatch)
    for p in (1.5, 2.0, 3.0):
        for dual in (False, True):
            log.clear()
            assert _prefix_sup_pair(star, p, dual) == whole_prefix_sup(star, p, dual)
            (steps, blocks, points), *rest = log
            assert steps == _CHUNK and blocks[0] == 0 and len(blocks) <= 8, (p, dual)
            assert 1 <= sum(points) <= 2, (p, dual)
            assert rest == [(_CHUNK, [_CHUNK // _BLOCK - 1], [0])] * 3, (p, dual)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_chunk_near_resolved_is_solved_in_full(p, monkeypatch):
    """At chunks of 16 steps and blocks of 4: scaled by 2**10 the last chunk
    skips every block; at _RESOLVED * (1 + 2**-46) its interior means could
    round below _RESOLVED, so it evaluates all four."""
    monkeypatch.setattr(rearrange, "_CHUNK", 16)
    monkeypatch.setattr(rearrange, "_BLOCK", 4)
    log = _solved(monkeypatch)
    for scale, blocks in ((2.0**10, []), (1.0, [0, 1, 2, 3])):
        star = _near_resolved(scale)
        log.clear()
        assert _prefix_sup_pair(star, p, True) == whole_prefix_sup(star, p, True)
        assert len(log) == 4
        assert log[-1] == (16, blocks, [0] * len(blocks)), scale


def _carried_near_resolved(scale: float) -> StepFunction:
    """Four equal steps, then four falling ones, the last of them wide: at
    chunks of 4 steps the mean of h**-2 carried into the second chunk is
    _RESOLVED * (1 + 2**-49) / scale**2, and the Muckenhoupt ratio at p = 1.5
    rises to its sup in the last step."""
    values = 2.0 ** np.array([485.0] * 4 + [484.0, 483.0, 482.0, 470.0])
    values[:4] *= 1 - 2.0**-50
    return StepFunction(np.array([1, 2, 3, 4, 33, 34, 35, 64]) / 64, values * scale)


@pytest.mark.parametrize("chunk, scale, solved", [
    (4, 2.0**-8, [[0, 1, 2, 3], [3]]), (4, 1.0, [[0, 1, 2, 3], [0, 1, 2, 3]]),
    (8, 2.0**-8, [[0, 7]]), (8, 1.0, [list(range(8))]),
], ids=["carried-far", "carried-near", "first-far", "first-near"])
def test_carried_mean_near_resolved_is_solved_in_full(chunk, scale, solved, monkeypatch):
    """On the Muckenhoupt side at p = 1.5, h**b = h**-2 and its prefix means
    rise with t, so the mean carried into a chunk is the smallest b-mean it
    can reach, and a chunk's b-means at its last breakpoint are its largest.
    At blocks of 1 and chunks of 4 every breakpoint mean of the second chunk
    is far above _RESOLVED.  Scaled by 2**-8 that chunk skips its first three
    blocks; unscaled, the mean carried in lies within the margin of
    _RESOLVED, so it evaluates all four.  In one chunk of 8 the floor is the
    D of the first breakpoint over the last breakpoint, which unscaled lies
    below the margin too, so every block is evaluated."""
    monkeypatch.setattr(rearrange, "_CHUNK", chunk)
    monkeypatch.setattr(rearrange, "_BLOCK", 1)
    log = _solved(monkeypatch)
    star = _carried_near_resolved(scale)
    assert _prefix_sup_pair(star, 1.5, True) == whole_prefix_sup(star, 1.5, True)
    assert [blocks for _, blocks, _ in log] == solved


def _leaf_calls(monkeypatch, w: DyadicWeight) -> list[tuple[float, bool]]:
    """Records, for every block of w's leaves that _best_node compares, the
    pair's y and whether the block holds a dead leaf (b-sum 0)."""
    log = []
    best = weight._best_node

    def counted(num, den, measure, y):
        if measure == w.space.leaf_measure:
            log.append((y, bool((den == 0).any())))
        return best(num, den, measure, y)

    monkeypatch.setattr(weight, "_best_node", counted)
    return log


def _range_checks(monkeypatch) -> list[float]:
    """Records the y of every pair whose leaves _leaves_in_range checks."""
    log = []
    check = weight._leaves_in_range

    def counted(low, high, y, margin):
        log.append(y)
        return check(low, high, y, margin)

    monkeypatch.setattr(weight, "_leaves_in_range", counted)
    return log


def _check_leaves_skipped(w: DyadicWeight, monkeypatch) -> None:
    """At every exponent on both sides, alone and as a pair, each block of
    w's leaves as they are is range-checked once for each pair not yet
    refused, passes, and is not compared, and an upper level reaches the
    leaf bound, so no leaf pass runs.  At p = 120 the reverse Holder pair's
    leaf sums overflow in the first block: it fails the check there, before
    an upper level, and goes alone through _best_node, which refuses the
    pair.  The rescaled retries of that pair may compare the leaves; their
    answers are the whole levels'."""
    calls, checks = _leaf_calls(monkeypatch, w), _range_checks(monkeypatch)
    blocks = -(-w.space.n_leaves // w._layout()[1])
    for p in PS:
        pairs = [_power_pair(p, dual) for dual in (False, True)]
        whole = [whole_node_ratio_sup(w, a, b) for a, b in pairs]
        ys = [-a / b for a, b in pairs]
        live = [y for y, f in zip(ys, whole) if f is not None]
        calls.clear()
        checks.clear()
        assert w._ratio_sup(w.values, pairs) == whole, p
        assert checks == ys + live * (blocks - 1), p
        assert calls == [(y, False) for y, f in zip(ys, whole) if f is None], p
        assert (whole[0] is None) == (p == 120.0), p
        for dual, y in zip((False, True), ys):
            calls.clear()
            checks.clear()
            assert w._ratio_sup(w.values, [pairs[dual]]) == [whole[dual]], (p, dual)
            assert checks == [y] * (blocks if whole[dual] is not None else 1), (p, dual)
            assert calls == ([] if whole[dual] is not None else [(y, False)]), (p, dual)
        for dual in (False, True):
            assert _outcome(_node_sup, w, p, dual) == _outcome(whole_node_sup, w, p, dual)


def test_leaf_level_is_deferred(monkeypatch):
    """A random weight on four blocks: a block of its leaves is compared
    only when it must be, which for it is never on a pair that answers."""
    w = gen_random(TreeSpace(2, 17), 0)
    assert w.space.n_leaves == 4 * w._layout()[1]
    _check_leaves_skipped(w, monkeypatch)


@pytest.mark.parametrize("zero", [5, 3 * _CHUNK + 7])
def test_a_zero_leaf_sends_no_block_to_the_leaf_pass(zero, monkeypatch):
    """One zero leaf, in the first block or the last of four: the reverse
    Holder pair's b-row minimum is 0 there, so that block alone fails the
    range check and goes through _best_node in the pass, which skips the
    dead leaf; every block is checked, and an upper level reaches the leaf
    bound, so no leaf pass runs.  The sup is the whole levels' bit for bit."""
    v = gen_random(TreeSpace(2, 17), 0).values.copy()
    v[zero] = 0.0
    w = DyadicWeight(TreeSpace(2, 17), v)
    calls, checks = _leaf_calls(monkeypatch, w), _range_checks(monkeypatch)
    report, = w._node_sups([(2.0, False)])
    assert calls == [(-2.0, True)]
    assert checks == [-2.0] * 4
    assert (report.constant, report.witness) == whole_node_sup(w, 2.0, False)


@pytest.mark.parametrize("k, depth", [(2, 17), (3, 10), (2, 6)])
def test_constant_leaves_run_in_a_second_pass(k, depth, monkeypatch):
    """Every ratio of a constant weight is 1 up to rounding, below the leaf
    bound, so the leaf level runs after the pass, once per block, on one
    block as on several."""
    w = gen_constant(TreeSpace(k, depth), 3.7)
    blocks = -(-w.space.n_leaves // w._layout()[1])
    assert (blocks > 1) == (depth > 6)
    log = _leaf_calls(monkeypatch, w)
    for p in PS:
        for dual in (False, True):
            a, b = _power_pair(p, dual)
            log.clear()
            assert w._ratio_sup(w.values, [(a, b)])[0] == whole_node_ratio_sup(w, a, b), (p, dual)
            assert log == [(-a / b, False)] * blocks, (p, dual)
            assert _node_sup(w, p, dual) == whole_node_sup(w, p, dual), (p, dual)


def _edge_leaves(value: float) -> DyadicWeight:
    """gen_random at (2, 16) with one leaf of block 1 set to `value`."""
    v = gen_random(TreeSpace(2, 16), 11).values.copy()
    v[_CHUNK + 5] = value
    return DyadicWeight.from_leaves(2, 16, v)


@pytest.mark.parametrize("value, p, dual, answered", [
    (np.sqrt(_RESOLVED) * (1 + 2.0**-48), 2.0, False, True),
    (np.sqrt(_RESOLVED) * (1 - 2.0**-20), 2.0, False, False),
    (np.sqrt(_MAX) * (1 - 2.0**-48), 2.0, False, True),
    (np.sqrt(_MAX) * (1 + 2.0**-20), 2.0, False, False),
    (1 / _RESOLVED * (1 - 2.0**-48), 3.0, True, True),
    (2 / _RESOLVED, 3.0, True, False),
], ids=["square-above-resolved", "square-below-resolved", "square-below-max", "square-overflows",
        "inverse-above-resolved", "inverse-below-resolved"])
def test_leaves_near_the_range_ends_run_as_before(value, p, dual, answered, monkeypatch):
    """One leaf of the second of two blocks whose power (its square at
    p = 2, its inverse on the Muckenhoupt side at p = 3, where its b-average
    is in range) sits within the check's margin of an end of the double
    range, or beyond it.  Both blocks are checked; the first passes, and the
    second fails and goes alone through _best_node, which refuses the pair
    when the leaf's power is out of range, an overflowing square before the
    upper level whose sum it overflows too.  The verdict, retry and answer
    are those of the whole levels, at every exponent on both sides."""
    w = _edge_leaves(value)
    calls, checks = _leaf_calls(monkeypatch, w), _range_checks(monkeypatch)
    a, b = _power_pair(p, dual)
    found = w._ratio_sup(w.values, [(a, b)])[0]
    assert found == whole_node_ratio_sup(w, a, b)
    assert (found is not None) == answered
    assert calls == [(-a / b, False)]
    assert checks == [-a / b] * 2
    for p in PS:
        for dual in (False, True):
            assert _outcome(_node_sup, w, p, dual) == _outcome(whole_node_sup, w, p, dual), \
                (p, dual)


def _small_block_weights() -> dict[str, DyadicWeight]:
    space = TreeSpace(3, 5)
    v = gen_random(space, 8).values
    cases = {"random": v, "constant": np.full(v.size, 3.7), "zeros": np.where(v < 1.0, 0.0, v)}
    for scale in (1e-300, 1e300):
        cases[f"half*{scale:g}"] = np.concatenate([v[:81], v[81:] * scale])
    return {name: DyadicWeight(space, leaves) for name, leaves in cases.items()}


@pytest.mark.parametrize("chunk", [1, 4, 16])
@pytest.mark.parametrize("name, w", sorted(_small_block_weights().items()))
def test_deferred_leaves_match_whole_levels_at_small_blocks(name, w, chunk, monkeypatch):
    """243 leaves in one block, 3 blocks of 81 or 9 of 27: leaves that pass
    the range check, leaves that fail it, and dead blocks."""
    monkeypatch.setattr(weight, "_CHUNK", chunk)
    for p in PS:
        _check_shared_node_pass(w, p)


@pytest.mark.parametrize("k, depth", [(2, 15), (40000, 1), (2, 6)])
def test_one_block_trees_keep_the_leaf_level(k, depth, monkeypatch):
    """A tree whose leaves fit in one block keeps the rule of several: a
    random weight's leaves are checked once and compared only where the
    reverse Holder pair's sums overflow at p = 120."""
    w = gen_random(TreeSpace(k, depth), 4)
    assert w.space.n_leaves <= w._layout()[1]
    _check_leaves_skipped(w, monkeypatch)


@pytest.mark.parametrize("p, dual", [(2.0, False), (1.5, True)])
def test_rescaled_pass_gets_only_the_pending_pair(p, dual, monkeypatch):
    """Scaled by 1e200, this weight's powers leave the double range for the
    reverse Holder pair at p = 2 and for the Muckenhoupt pair at p = 1.5,
    while the other pair at that p, and the same side's pair at the other of
    the two p, answer unscaled.  For both lists of entries, on each side the
    first rescaled pass is handed the pending pair alone, and each answer is
    that of the whole levels and steps."""
    base = gen_random(TreeSpace(2, 6), 3)
    w = DyadicWeight(base.space, base.values * 1e200)
    star = rearrangement(w)
    calls = []
    ratio_sup, ratios_at = DyadicWeight._ratio_sup, rearrange._ratios_at

    def node_kernel(self, values, pairs):
        calls.append(("node", values is w.values, list(pairs)))
        return ratio_sup(self, values, pairs)

    def prefix_kernel(right, values, pairs):
        calls.append(("prefix", values is star.values, list(pairs)))
        return ratios_at(right, values, pairs)

    monkeypatch.setattr(DyadicWeight, "_ratio_sup", node_kernel)
    monkeypatch.setattr(rearrange, "_ratios_at", prefix_kernel)
    pending = [_power_pair(p, dual)]
    for entries in ([(p, False), (p, True)], [(3.5 - p, dual), (p, dual)]):
        calls.clear()
        nodes = _pairs(w._node_sups(entries), "witness")
        prefixes = _pairs(_prefix_sups(star, entries), "witness_t")
        both = [_power_pair(*entry) for entry in entries]
        assert calls == [("node", True, both), ("node", False, pending),
                         ("prefix", True, both), ("prefix", False, pending)], entries
        assert nodes == [whole_node_sup(w, *entry) for entry in entries], entries
        assert prefixes == [whole_prefix_sup(star, *entry) for entry in entries], entries


def test_a_dead_root_runs_no_leaf_pass(monkeypatch):
    """Scaled by 1e200, every leaf's h**-2 underflows at p = 1.5, so every
    b-sum is 0 and the root is dead: the Muckenhoupt pair is refused without
    the leaf pass, and each scaling makes one pass over the leaf blocks (a
    power sum per row and block).  The answer, from the first rescaling, is
    the pass's on the leaves brought to a maximum in [1/2, 1)."""
    base = gen_random(TreeSpace(2, 16), 5)
    w = DyadicWeight(base.space, base.values * 1e200)
    blocks = -(-w.space.n_leaves // w._layout()[1])
    assert blocks == 2
    calls = []
    leaf_sums = weight._leaf_sums

    def counted(values, q, h, out=None):
        calls.append(q)
        return leaf_sums(values, q, h, out)

    monkeypatch.setattr(weight, "_leaf_sums", counted)
    report, = w._node_sups([(1.5, True)])
    assert sorted(calls) == [-2.0] * 2 * blocks + [1.0] * 2 * blocks  # two scalings
    monkeypatch.undo()
    e = math.frexp(w.values.max())[1]
    scaled = DyadicWeight(w.space, w.values * 2.0**-e)
    assert report == scaled._node_sups([(1.5, True)])[0]


@pytest.mark.parametrize("k", [2, 3])
def test_a_one_leaf_tree_answers_at_its_root(k):
    """At depth 0 the root is the one leaf, in range here: it is compared for
    every pair, so a live root is not taken for a dead one and refused."""
    w = DyadicWeight.from_leaves(k, 0, [7.0])
    for entries in ([(2.0, False), (2.0, True)], [(1.5, True)]):
        found = w._node_sups(entries)
        assert [(r.exponent, r.constant, r.witness) for r in found] == [
            (p, 1.0, NodeId(0, 0)) for p, _ in entries]
    assert w.dyadic_rhi_constant(2.0).constant == 1.0
    for p in (1.5, 2.0):
        report = analyze_weight(w, p)
        assert report["dyadic_constant"] == report["muckenhoupt_constant"] == 1.0


def test_a_refused_pair_leaves_the_chunk_loop(monkeypatch):
    """Scaled by 1e200, at p = 1.5 the Muckenhoupt pair's h**-2 underflows in
    the first of four chunks.  From the second chunk on, the loop forms only
    the reverse Holder pair's two rows and evaluates that pair alone, which
    still gets the sup of the whole steps."""
    base = gen_random(TreeSpace(2, 17), 0)
    star = rearrangement(DyadicWeight(base.space, base.values * 1e200))
    answer = whole_prefix_sup(star, 1.5, False)
    rows, solved = [], []
    power, stationary = rearrange._power, rearrange._stationary

    def counted_power(x, q):
        if x.base is star.values:  # a chunk of the leaves, not a mean
            rows.append(q)
        return power(x, q)

    def counted_stationary(n0, d0, va, vb, left, right, step, y, z):
        solved.append(y)
        return stationary(n0, d0, va, vb, left, right, step, y, z)

    monkeypatch.setattr(rearrange, "_power", counted_power)
    monkeypatch.setattr(rearrange, "_stationary", counted_stationary)
    pairs = [_power_pair(1.5, False), _power_pair(1.5, True)]
    assert rearrange._ratios_at(star.breakpoints, star.values, pairs) == [answer, None]
    assert sorted(rows[:3]) == [-2.0, 1.0, 1.5] and sorted(rows[3:]) == [1.0] * 3 + [1.5] * 3
    assert solved == [-1.5, 0.5] + [-1.5] * 3


def test_analyze_makes_one_pass_per_side(monkeypatch):
    """analyze_weight takes its four constants from one pass over the four
    blocks of leaves and one loop over the four chunks of steps, which forms
    the unit row once per chunk; a pass per constant makes two of each."""
    w = gen_random(TreeSpace(2, 17), 0)
    seen = dict.fromkeys(["leaf passes", "leaf blocks", "prefix passes", "unit rows"], 0)
    leaf_blocks, ratios_at, power = DyadicWeight._leaf_blocks, rearrange._ratios_at, rearrange._power
    steps = []

    def counted_blocks(self, *args):
        seen["leaf passes"] += 1
        for block in leaf_blocks(self, *args):
            seen["leaf blocks"] += 1
            yield block

    def counted_ratios(right, v, pairs):
        seen["prefix passes"] += 1
        steps.append(v)
        return ratios_at(right, v, pairs)

    def counted_power(x, q):
        seen["unit rows"] += q == 1.0 and x.base is steps[-1]  # a chunk of the steps
        return power(x, q)

    monkeypatch.setattr(DyadicWeight, "_leaf_blocks", counted_blocks)
    monkeypatch.setattr(rearrange, "_ratios_at", counted_ratios)
    monkeypatch.setattr(rearrange, "_power", counted_power)
    report = analyze_weight(w, 2.0)
    assert "muckenhoupt_constant" in report
    assert seen == {"leaf passes": 1, "leaf blocks": 4, "prefix passes": 1, "unit rows": 4}


def test_verify_theorem1_makes_one_pass_per_side_per_weight(monkeypatch, capsys):
    """verify theorem1 takes a weight's constants at every --p from one node
    pass and one loop over the steps, each handed the reverse Holder pairs
    of all three exponents; a pass per exponent makes three of each."""
    calls = []
    ratio_sup, ratios_at = DyadicWeight._ratio_sup, rearrange._ratios_at

    def node_kernel(self, values, pairs):
        calls.append(("node", list(pairs)))
        return ratio_sup(self, values, pairs)

    def prefix_kernel(right, values, pairs):
        calls.append(("prefix", list(pairs)))
        return ratios_at(right, values, pairs)

    monkeypatch.setattr(DyadicWeight, "_ratio_sup", node_kernel)
    monkeypatch.setattr(rearrange, "_ratios_at", prefix_kernel)
    assert main(["verify", "theorem1", "--count", "4", "--p", "1.5,2,3"]) == 0
    pairs = [_power_pair(p, False) for p in (1.5, 2.0, 3.0)]
    assert calls == [("node", pairs), ("prefix", pairs)] * 4
    assert capsys.readouterr().out == "theorem1: 4 weights x 3 exponents, all bounded\n"


def test_an_entry_list_is_refused_at_its_first_entry_out_of_range():
    """This weight's node sup leaves the double range at p = 120 and 150 on
    every scaling, while its prefix sup answers: the node pass names the
    first refused entry in list order, and the prefix loop answers each entry
    as its own call does."""
    w = gen_random(TreeSpace(2, 6), 3)
    for entries, p in [([(2.0, False), (120.0, False)], 120.0),
                       ([(150.0, False), (2.0, False), (120.0, False)], 150.0)]:
        with pytest.raises(ValueError, match=re.escape(_RANGE_ERROR.format(p=p)) + "$"):
            w._node_sups(entries)
    star = rearrangement(w)
    reports = _prefix_sups(star, [(2.0, False), (120.0, False)])
    assert reports == [prefix_rhi_constant(star, 2.0), prefix_rhi_constant(star, 120.0)]
    assert reports[1].constant == pytest.approx(4.7938e139, rel=1e-4)


def test_an_entry_list_with_a_zero_leaf_is_refused_at_its_first_dual_entry():
    """A zero leaf refuses the list at its first dual entry, on both sides and
    before any pass, so also before a range refusal of an earlier entry."""
    v = gen_random(TreeSpace(2, 6), 3).values.copy()
    v[5] = 0.0
    w = DyadicWeight(TreeSpace(2, 6), v)
    star = rearrangement(w)
    for entries in ([(2.0, False), (1.5, True)], [(120.0, False), (1.5, True), (3.0, True)]):
        for sups in (w._node_sups, lambda entries: _prefix_sups(star, entries)):
            with pytest.raises(ValueError, match=r"^a negative power at p=1\.5 needs strictly "
                                                 "positive values$"):
                sups(entries)


def _entry_weights() -> dict[str, DyadicWeight]:
    plain = gen_random(TreeSpace(2, 6), 3)
    zero = gen_random(TreeSpace(4, 3), 5).values.copy()
    zero[7] = 0.0
    return {"plain": plain,
            "tied": DyadicWeight.from_leaves(3, 4, np.tile([4.0, 1.0, 2.5], 27)),
            "zero-leaf": DyadicWeight(TreeSpace(4, 3), zero),
            "plain*1e+200": DyadicWeight(plain.space, plain.values * 1e200),
            "plain*1e-200": DyadicWeight(plain.space, plain.values * 1e-200)}


ENTRY_WEIGHTS = _entry_weights()
_ENTRIES = [(p, dual) for p in PS for dual in (False, True)]
ENTRY_LISTS = {
    "all": _ENTRIES,
    "all-reversed": _ENTRIES[::-1],
    "below-120": [entry for entry in _ENTRIES if entry[0] < 120.0],
    "mixed": [(120.0, True), (1.5, False), (3.0, True), (2.0, False)],
    "repeated": [(3.0, False), (1.5, True), (3.0, False)],
    "reverse-holder": [(3.0, False), (1.5, False), (2.0, False)],
}


def _shared_entries(singles: list):
    """What one call for a list of entries must give, from the outcome of
    each entry's own call: the first zero-value refusal, which comes before
    any pass, else the first range refusal, else every entry's own answer."""
    refusals = sorted((single for single in singles if isinstance(single, str)),
                      key=lambda refusal: "strictly positive" not in refusal)
    return refusals[0] if refusals else singles


@pytest.mark.parametrize("entries", sorted(ENTRY_LISTS))
@pytest.mark.parametrize("name", sorted(ENTRY_WEIGHTS))
def test_an_entry_list_gives_each_entry_its_own_call(name, entries):
    """Mixed lists of p and duals: one pass per side gives each entry the
    report of its one-pair call, bit for bit, or the refusal that comes first."""
    w, entries = ENTRY_WEIGHTS[name], ENTRY_LISTS[entries]
    star = rearrangement(w)
    for sups in (w._node_sups, lambda entries: _prefix_sups(star, entries)):
        singles = [_outcome(lambda: sups([entry])[0]) for entry in entries]
        assert _outcome(sups, entries) == _shared_entries(singles), sups


def test_entry_lists_meet_answers_and_both_refusals():
    """The cases above are not all refused: every weight has a list answered
    on both sides, and range and zero-value refusals both occur."""
    answered, refusals = set(), set()
    for name, w in ENTRY_WEIGHTS.items():
        star = rearrangement(w)
        for entries in ENTRY_LISTS.values():
            outcomes = [_outcome(w._node_sups, entries), _outcome(_prefix_sups, star, entries)]
            refused = [outcome for outcome in outcomes if isinstance(outcome, str)]
            refusals.update("zero" if "strictly positive" in r else "range" for r in refused)
            if not refused:
                answered.add(name)
    assert answered == set(ENTRY_WEIGHTS)
    assert refusals == {"range", "zero"}


def _unit_cases() -> dict[str, tuple[StepFunction, bool]]:
    """Tie-free rearrangements of leaf counts that are not powers of two, and
    of 2^12; scaled by 1e+-200, the prefix sup answers only on a rescaled
    copy."""
    cases = {}
    for k, depth, scale in [(3, 7, 1.0), (5, 5, 1e200), (6, 4, 1e-200), (2, 12, 1.0)]:
        w = gen_random(TreeSpace(k, depth), k + depth)
        star = rearrangement(DyadicWeight(w.space, w.values * scale))
        cases[f"{k}-{depth}x{scale:g}"] = star, scale != 1.0
    return cases


UNIT_CASES = _unit_cases()


@pytest.mark.parametrize("chunk", [1, 3, 64, _CHUNK])
@pytest.mark.parametrize("name", sorted(UNIT_CASES))
def test_unit_steps_match_explicit_breakpoints(name, chunk, monkeypatch):
    monkeypatch.setattr(rearrange, "_CHUNK", chunk)
    star, scaled = UNIT_CASES[name]
    n = star.values.size
    assert "breakpoints" not in vars(star)  # not formed, in this test or another
    explicit = StepFunction(np.arange(1, n + 1, dtype=np.float64) / n, star.values.copy())
    pairs = [_power_pair(2.0, dual) for dual in (False, True)]
    assert (None in rearrange._ratios_at(None, star.values, pairs)) == scaled  # retried
    for f in (prefix_rhi_constant, prefix_muckenhoupt_constant):
        assert f(star, 2.0) == f(explicit, 2.0), f.__name__
    both = [(2.0, False), (2.0, True)]
    assert _prefix_sups(star, both) == _prefix_sups(explicit, both)
    assert "breakpoints" not in vars(star)
