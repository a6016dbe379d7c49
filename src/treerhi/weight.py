"""Weights on a homogeneous tree.

Construction and generators, node averages at arbitrary exponents, the
reverse-Holder and Muckenhoupt constants over all tree nodes, the maximal
operator, and the weak-type (1,1) check.

Node integrals of value**q are accumulated child-to-parent, left to right,
so rounding error grows O(depth) per node and a recursive re-summation
reproduces every node sum bit for bit.  A node sup is one max over nodes of
(ratio, -level, -index) (_ratio_sup), in one bottom-up pass over blocks of
leaves shared by all exponent pairs; a block of leaves, whose ratio is 1 up
to rounding, is compared only where a range check fails, and all again only
where no upper level reaches the leaf bound.  Every constant is a ratio of
power means, which no scaling changes, so the node and prefix kernels share
one range policy, _retried, per pair; every other sum over leaf values
goes through one guard, _power_average.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tree import NodeId, TreeSpace

REL_TOL = 1e-12
# Smallest power average trusted to full precision: underflow drops less than
# tiny from any average, which is under one ulp of a value this large.
_RESOLVED = np.finfo(np.float64).tiny * 2.0**52
# _retried tries the values as they are, then rescaled by exact powers of two
# (_scalings); a power average out of range in all is refused with this.
_RANGE_ERROR = "power averages at p={p} leave the double range even after rescaling"
# Leaves per block of the node sups' bottom-up pass, and steps of the
# rearrangement per pass of the prefix kernel: a pass's temporaries then stay
# in a core's L2 cache.
_CHUNK = 1 << 15
# Rounding margin per unit exponent of the node sups' leaf bound (_ratio_sup)
# and of the prefix sups' block bound (rearrange._ratios_at), and the
# largest double.
_MARGIN = 2.0**-44
_MAX = np.finfo(np.float64).max


def _check_exponent(p: float) -> float:
    """The exponent of every constant: a finite number > 1."""
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"exponent must be a finite number > 1, got {p}")
    return float(p)


def _power_average(q: float, values: np.ndarray, average):
    """average(), a power average or integral at exponent q of `values`, or
    an array or tuple of them: the guard of every sum over leaf values.
    Refuses a zero value when q < 0, and names q when q or a result is not
    finite (an OverflowError of Python's pow or math.fsum counts as inf)."""
    if q < 0 and not values.all():
        raise ValueError("negative exponent requires strictly positive values")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            found = average() if math.isfinite(q) else math.nan
    except OverflowError:
        found = math.inf
    # a float by math.isfinite: np.isfinite costs over a microsecond per call
    if (math.isfinite(found) if isinstance(found, float) else np.isfinite(found).all()):
        return found
    raise ValueError(f"the power average at q={q} is not a finite number")


def _power_pair(p: float, dual: bool) -> tuple[float, float]:
    """Exponents (a, b) whose power-mean ratio (M_a / M_b)**a is the constant:
    (p, 1) for reverse Holder, (1, -1/(p-1)) for Muckenhoupt."""
    p = _check_exponent(p)
    return (1.0, -1.0 / (p - 1.0)) if dual else (p, 1.0)


def _scalings(values: np.ndarray):
    """values as they are, then times exact powers of two 2**-e: first with
    the largest value brought into [1/2, 1), then with the geometric middle
    of the smallest positive value and the largest brought near 1, which
    keeps large negative powers of small values in range.  A scaling that
    would send a positive value to 0 or the largest value past the double
    range is skipped: a negative power of that 0 would be infinite."""
    yield values
    smallest = np.min(values, where=values > 0, initial=np.inf)
    largest = values.max()
    top = np.frexp(largest)[1]
    for e in (top, (top + np.frexp(smallest)[1]) // 2):
        with np.errstate(over="ignore"):
            low, high = np.ldexp([smallest, largest], -e)
        if low > 0 and np.isfinite(high):
            yield np.ldexp(values, -e)


def _retried(values: np.ndarray, p: float, duals, what: str, kernel) -> list:
    """For each dual in duals, kernel(scaled, pairs)'s answer for the pair
    (a, b) of _power_pair at the first of _scalings(values) where it is not
    None; each scaling gets only the pairs with no answer yet.  Refuses a zero
    `what`, a zero value for a dual pair's negative power and (_RANGE_ERROR) a
    pair that no scaling answers."""
    pairs = [_power_pair(p, dual) for dual in duals]
    if not values.any():
        raise ValueError(f"{what} is identically zero")
    if any(duals) and values.min() == 0:
        raise ValueError(f"a negative power at p={p} needs strictly positive values")
    found = [None] * len(pairs)
    for scaled in _scalings(values):
        pending = [i for i, f in enumerate(found) if f is None]
        for i, f in zip(pending, kernel(scaled, [pairs[i] for i in pending])):
            found[i] = f
        if all(f is not None for f in found):
            return found
    raise ValueError(_RANGE_ERROR.format(p=p))


def _leaf_sums(values: np.ndarray, q: float, h: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Integrals of value**q over leaves of measure h: the power, then times h."""
    return np.multiply(values if q == 1.0 else values ** q, h, out=out)


def _parent_sums(sums: np.ndarray, k: int) -> np.ndarray:
    """Node sums one level up, along the last axis: each node's k children
    added left to right, which keeps the summation order reproducible."""
    children = sums.reshape(sums.shape[:-1] + (-1, k))
    if children.shape[-2] < k:
        # fewer parents than children each: one accumulate, which adds in the
        # same order, beats k - 1 calls; the copy frees the partial sums
        return np.add.accumulate(children, axis=-1)[..., -1].copy()
    acc = children[..., 0].copy()
    for j in range(1, k):
        acc += children[..., j]
    return acc


def _best_node(num: np.ndarray, den: np.ndarray, measure: float,
               y: float) -> tuple[float, int] | None:
    """The largest ratio avg_a * avg_b**y over a run of nodes of one level,
    given their a- and b-power sums, and the first node attaining it;
    (-inf, 0) when no node has a nonzero b-average, None when a live node's
    ratio or power average leaves the double range."""
    num = num / measure
    den = den / measure
    powered = den ** abs(y)
    ratio = num / powered if y < 0 else num * powered
    lowest = den.min()
    if lowest > 0:
        lowest = min(lowest, num.min(), powered.min())
    else:
        live = den > 0
        if not live.any():
            return -np.inf, 0
        ratio = np.where(live, ratio, -np.inf)
        lowest = np.minimum(np.minimum(num, den), powered)
        lowest = np.min(lowest, where=live, initial=np.inf)
    i = int(np.argmax(ratio))
    # argmax returns the first NaN, so this also catches overflow
    if not (np.isfinite(ratio[i]) and lowest >= _RESOLVED):
        return None
    return float(ratio[i]), i


def _leaves_in_range(low: tuple, high: tuple, y: float, margin: float) -> bool:
    """Whether the leaves' a- and b-averages, between the extremes low and high
    of their (a, b) rows, and the |y|-th powers of their b-averages lie a
    factor `margin` (covering the power's rounding) inside [_RESOLVED, _MAX]."""
    powered = (np.array([low[1], high[1]]) ** abs(y)).tolist()
    return bool(min(*low, *powered) >= _RESOLVED * margin
                and max(*high, *powered) <= _MAX / margin)


@dataclass(frozen=True)
class RhiReport:
    """A sup-over-nodes constant with the node attaining it.

    Ties are broken toward the lowest level, then the lowest index.
    """

    exponent: float
    constant: float
    witness: NodeId


@dataclass(frozen=True)
class WeakTypeResult:
    threshold: float
    lhs: float
    rhs: float
    holds: bool


class DyadicWeight:
    """Non-negative leaf values on a TreeSpace.

    Immutable after construction: the value array is marked read-only.  The
    node sums at q = 1 are built on first read and kept (see level_sums); the
    node sups never read them.
    """

    def __init__(self, space: TreeSpace, leaf_values) -> None:
        values = np.array(leaf_values, dtype=np.float64)
        if values.shape != (space.n_leaves,):
            raise ValueError(
                f"expected {space.n_leaves} leaf values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("leaf values must be finite")
        if np.any(values < 0):
            raise ValueError("leaf values must be non-negative")
        values.setflags(write=False)
        self.space = space
        self.values = values
        self._sums: dict[float, list[np.ndarray]] = {}

    @classmethod
    def from_leaves(cls, k: int, depth: int, values) -> "DyadicWeight":
        return cls(TreeSpace(k, depth), values)

    def level_sums(self, q: float = 1.0) -> list[np.ndarray]:
        """sums[level][i] = integral of value**q over node (level, i); kept on
        the weight at q = 1 only, the one exponent that callers read again."""
        key = float(q)
        if key in self._sums:
            return self._sums[key]
        if key < 0 and np.any(self.values == 0):
            raise ValueError("negative exponent requires strictly positive values")
        sums = [_leaf_sums(self.values, key, self.space.leaf_measure)]
        for _ in range(self.space.depth):
            sums.insert(0, _parent_sums(sums[0], self.space.k))
        for arr in sums:
            arr.setflags(write=False)
        if key == 1.0:
            self._sums[key] = sums
        return sums

    def level_averages(self, q: float = 1.0) -> list[np.ndarray]:
        """avgs[level][i] = average of value**q over node (level, i)."""
        k = float(self.space.k)
        return [s / k ** (-level) for level, s in enumerate(self.level_sums(q))]

    @property
    def total_integral(self) -> float:
        return float(self.level_sums(1.0)[0][0])

    def node_average(self, node: NodeId, q: float = 1.0) -> float:
        measure = self.space.node_measure(node)  # validates the node
        return _power_average(
            q, self.values, lambda: float(self.level_sums(q)[node.level][node.index]) / measure)

    def _node_sups(self, p: float, duals) -> list[RhiReport]:
        """For each dual in duals, the sup over all nodes of the power-mean
        ratio (M_a / M_b)**a of _power_pair, under _retried's range policy.
        Nodes with zero b-average are skipped, not taken as 0/0."""
        found = _retried(self.values, p, duals, "weight", self._ratio_sup)
        return [RhiReport(p, *f) for f in found]

    def _ratio_sup(self, values: np.ndarray, pairs) -> list[tuple[float, NodeId] | None]:
        """Sup and witness of _node_sups for each pair (a, b) on values, this
        tree's leaves as they are or rescaled, or None when out of range.

        One max over nodes: each pair keeps one running best (ratio, -level,
        -index), so ties go to the lowest level, then the lowest index.  Each
        run of nodes (_node_sums, a row per distinct exponent) is compared
        (_best_node, which skips a dead node, of b-sum 0) for each pair as it
        is formed, a block of leaves only for the pairs whose extremes there
        fail _leaves_in_range.  A refused pair's best is None, and the pass
        stops once all are; a dead root leaves the best at -inf, also refused.

        At a leaf both averages are powers of one value v, so the ratio is
        v**(a + b*y) up to a few ulp per unit of |y|; a + b*y is 0 on the
        reverse Holder side and, with y = -a/b rounded, within 2**-53 of it on
        the Muckenhoupt side (a = 1), where |ln v| < 710 once the averages are
        in range.  So a block that passes has no None verdict and every ratio
        strictly below bound = 1 + 2**-44 * (2 + |y|), over ten times wider.
        The leaves lose every tie and a best only grows, so no such block
        holds the sup of a pair whose best reaches bound; for any other pair,
        as on a constant weight, one leaf pass (_leaf_blocks) compares every
        block (one compared twice changes no max).
        """
        k, depth, h = self.space.k, self.space.depth, self.space.leaf_measure
        rows = list(dict.fromkeys(q for pair in pairs for q in pair))
        cols = [(rows.index(a), rows.index(b), y, 1.0 + _MARGIN * (2.0 + abs(y)))
                for a, b in pairs for y in (-a / b,)]  # rows, y and leaf bound per pair
        best = [(-np.inf, 0, 0)] * len(pairs)  # per pair: (ratio, -level, -index), None if refused

        def compare(level: int, first: int, sums: np.ndarray, js) -> None:
            for j in js:
                if best[j] is not None:
                    a, b, y, _ = cols[j]
                    found = _best_node(sums[a], sums[b], float(k) ** (-level), y)
                    best[j] = None if found is None else max(
                        best[j], (found[0], -level, -first - found[1]))

        top, block = self._layout()
        with np.errstate(all="ignore"):
            for level, first, sums in self._node_sums(values, rows, top, block):
                js = range(len(pairs))
                if level == depth:  # leaves: only the pairs whose extremes fail the range check
                    low, high = sums.min(axis=1).tolist(), sums.max(axis=1).tolist()
                    js = [j for j, (a, b, y, bound) in enumerate(cols) if best[j] is not None
                          and not _leaves_in_range([low[a] / h, low[b] / h],
                                                   [high[a] / h, high[b] / h], y, bound)]
                compare(level, first, sums, js)
                if not any(best):  # every pair refused
                    break
            leaves = [j for j, (*_, bound) in enumerate(cols)
                      if best[j] is not None and best[j][0] < bound]
            for first, sums in self._leaf_blocks(values, rows, block) if leaves else ():
                compare(depth, first, sums, leaves)
        return [None if found is None or found[0] == -np.inf
                else (found[0], NodeId(-found[1], -found[2])) for found in best]

    def _layout(self) -> tuple[int, int]:
        """(L, leaves per block) of _node_sums: L is the deepest level of at
        most _CHUNK nodes, and a block holds the most whole nodes of level L
        that fit in _CHUNK leaves, and at least one."""
        k, depth = self.space.k, self.space.depth
        top = depth
        while k ** top > _CHUNK:
            top -= 1
        span = k ** (depth - top)  # leaves under a node of level top
        return top, max(1, _CHUNK // span) * span

    def _leaf_blocks(self, values: np.ndarray, rows, block: int):
        """(index of its first leaf, E x m array of the power sums of values,
        a row per exponent of rows) for each block of m leaves."""
        h = self.space.leaf_measure
        for start in range(0, values.size, block):
            leaves = values[start:start + block]
            sums = np.empty((len(rows), leaves.size))
            for q, row in zip(rows, sums):
                _leaf_sums(leaves, q, h, row)
            yield start, sums

    def _node_sums(self, values: np.ndarray, rows, top: int, block: int):
        """(level, index of its first node, E x m array of the power sums of
        values, a row per exponent of rows) for each run of m nodes of one
        bottom-up pass, with (top, block) of _layout.  The levels below top are
        formed a block of leaves at a time; the blocks fill level top, and top
        and the levels above it are formed whole."""
        k, depth = self.space.k, self.space.depth
        heads = []
        for start, sums in self._leaf_blocks(values, rows, block):
            for level in range(depth, top, -1):
                yield level, start // k ** (depth - level), sums
                sums = _parent_sums(sums, k)
            heads.append(sums)
        sums = np.concatenate(heads, axis=1)
        for level in range(top, -1, -1):
            yield level, 0, sums
            if level:
                sums = _parent_sums(sums, k)

    def dyadic_rhi_constant(self, p: float) -> RhiReport:
        """sup over all nodes I of avg(value**p, I) / avg(value, I)**p."""
        return self._node_sups(p, (False,))[0]

    def dyadic_muckenhoupt_constant(self, p: float) -> RhiReport:
        """sup over all nodes of avg(value) * avg(value**(-1/(p-1)))**(p-1)."""
        return self._node_sups(p, (True,))[0]

    def maximal_function(self) -> np.ndarray:
        """Per leaf, the maximum average over all nodes containing it."""
        avgs = self.level_averages(1.0)
        running = avgs[0].copy()
        for level in range(1, self.space.depth + 1):
            running = np.maximum(running.repeat(self.space.k), avgs[level])
        return running

    def weak_type_check(self, threshold: float) -> WeakTypeResult:
        """mu({M > t}) against (1/t) * integral of the weight over {M > t}."""
        if not threshold > 0:  # negated, so that NaN is refused
            raise ValueError(f"threshold must be > 0, got {threshold}")
        mask = self.maximal_function() > threshold
        lhs = float(np.count_nonzero(mask)) * self.space.leaf_measure
        rhs = _power_average(1.0, self.values, lambda: float(self.values[mask].sum())
                             * self.space.leaf_measure) / threshold
        holds = lhs <= rhs + REL_TOL * max(1.0, rhs)
        return WeakTypeResult(threshold=threshold, lhs=lhs, rhs=rhs, holds=holds)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_constant(space: TreeSpace, value: float) -> DyadicWeight:
    if value < 0 or not np.isfinite(value):
        raise ValueError(f"value must be finite and non-negative, got {value}")
    return DyadicWeight(space, np.full(space.n_leaves, float(value)))


def gen_two_value(space: TreeSpace, first: float, second: float) -> DyadicWeight:
    """First half of the leaves at one value, the rest at the other."""
    n = space.n_leaves
    values = np.full(n, float(second))
    values[: n // 2] = float(first)
    return DyadicWeight(space, values)


def gen_power(space: TreeSpace, alpha: float) -> DyadicWeight:
    """Exact cell averages of u**(-alpha) over the leaf cells of [0, 1].

    The closed-form antiderivative u**(1-alpha)/(1-alpha) makes each cell
    average exact, and the cell integrals telescope to 1/(1-alpha).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = space.n_leaves
    h = space.leaf_measure
    edges = np.arange(n + 1, dtype=np.float64) * h
    primitives = edges ** (1.0 - alpha)
    values = np.diff(primitives) / ((1.0 - alpha) * h)
    return DyadicWeight(space, values)


def gen_random(
    space: TreeSpace,
    seed: int,
    low: float = 1e-3,
    high: float = 1e3,
) -> DyadicWeight:
    """Log-uniform leaf values; deterministic for a fixed seed."""
    if not 0 < low <= high < math.inf:
        raise ValueError(f"need 0 < low <= high < inf, got [{low}, {high}]")
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(np.log(low), np.log(high), space.n_leaves))
    return DyadicWeight(space, values)


# ---------------------------------------------------------------------------
# Weight file format: {"k": int, "depth": int, "leaves": [reals]}
# ---------------------------------------------------------------------------

def weight_doc(weight: DyadicWeight) -> dict:
    return {"k": weight.space.k, "depth": weight.space.depth, "leaves": weight.values.tolist()}


def save_weight(weight: DyadicWeight, path: str | Path) -> None:
    Path(path).write_text(json.dumps(weight_doc(weight)) + "\n")


def load_weight(path: str | Path) -> DyadicWeight:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed weight file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"weight file {path} must hold an object")
    for field in ("k", "depth", "leaves"):
        if field not in doc:
            raise ValueError(f"weight file {path} is missing {field!r}")
    k, depth, leaves = doc["k"], doc["depth"], doc["leaves"]
    # exact types: a JSON number parses to int or float, but true to bool, an int subclass
    if not (type(k) is int and type(depth) is int):
        raise ValueError("k and depth must be integers")
    if not (isinstance(leaves, list) and all(type(v) in (int, float) for v in leaves)):
        raise ValueError("leaves must be a list of JSON numbers")
    try:
        return DyadicWeight.from_leaves(k, depth, leaves)
    except OverflowError as exc:  # an integer leaf beyond the double range
        raise ValueError(f"leaf values must be finite: {exc}") from exc
