"""Weights on a homogeneous tree.

Construction and generators, node averages at arbitrary exponents, the
reverse-Holder and Muckenhoupt constants over all tree nodes, the maximal
operator, and the weak-type (1,1) check.

Node integrals of value**q are accumulated child-to-parent, left to right,
so rounding error grows O(depth) per node and a recursive re-summation
reproduces every node sum bit for bit.  The node sups sum their two
exponents' node sums in one bottom-up pass over blocks of leaves and compare
each level as it is formed, so they hold no whole tree of node sums.
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
# Constants are tried on the values as they are, then rescaled by exact powers
# of two (_scalings); a power average out of range in all is refused with this.
_RANGE_ERROR = "power averages at p={p} leave the double range even after rescaling"
# Leaves per block of the node sups' bottom-up pass, and steps of the
# rearrangement per pass of the prefix kernel: a pass's temporaries then stay
# in a core's L2 cache.
_CHUNK = 1 << 15


def _check_exponent(p: float) -> float:
    """The exponent of every constant: a finite number > 1."""
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"exponent must be a finite number > 1, got {p}")
    return float(p)


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
    smallest, largest = values[values > 0].min(), values.max()
    top = np.frexp(largest)[1]
    for e in (top, (top + np.frexp(smallest)[1]) // 2):
        with np.errstate(over="ignore"):
            low, high = np.ldexp([smallest, largest], -e)
        if low > 0 and np.isfinite(high):
            yield np.ldexp(values, -e)


def _leaf_sums(values: np.ndarray, q: float, h: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Integrals of value**q over leaves of measure h: the power, then times h."""
    return np.multiply(values if q == 1.0 else values ** q, h, out=out)


def _parent_sums(sums: np.ndarray, k: int) -> np.ndarray:
    """Node sums one level up, along the last axis: each node's k children
    added left to right, which keeps the summation order reproducible."""
    children = sums.reshape(sums.shape[:-1] + (-1, k))
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
        return float(self.level_sums(q)[node.level][node.index]) / measure

    def _node_sup(self, p: float, dual: bool) -> RhiReport:
        """sup over all nodes of avg(value**a) * avg(value**b)**(-a/b), the
        power-mean ratio (M_a / M_b)**a of _power_pair, on the values as they
        are or else rescaled (see _RANGE_ERROR).  Nodes with zero b-average
        carry an identically zero weight and are skipped, not taken as 0/0.
        """
        a, b = _power_pair(p, dual)
        if not self.values.any():
            raise ValueError("weight is identically zero")
        if min(a, b) < 0 and np.any(self.values == 0):
            raise ValueError(f"a negative power at p={p} needs strictly positive values")
        for values in _scalings(self.values):
            scaled = self if values is self.values else DyadicWeight(self.space, values)
            found = scaled._ratio_sup(a, b)
            if found is not None:
                return RhiReport(exponent=p, constant=found[0], witness=found[1])
        raise ValueError(_RANGE_ERROR.format(p=p))

    def _ratio_sup(self, a: float, b: float) -> tuple[float, NodeId] | None:
        """Sup and witness of _node_sup, or None when out of double range.

        Each run of nodes is compared (_best_node) as _node_sums forms it.
        Every level needs a live node (nonzero b-average).  A level's best
        ratio goes to its lowest index, and the sup to the lowest level.
        """
        k, depth = self.space.k, self.space.depth
        y = -a / b
        best, index = [-np.inf] * (depth + 1), [0] * (depth + 1)
        with np.errstate(all="ignore"):
            for level, first, (num, den) in self._node_sums(a, b):
                found = _best_node(num, den, float(k) ** (-level), y)
                if found is None:
                    return None
                if found[0] > best[level]:
                    best[level], index[level] = found[0], first + found[1]
        if -np.inf in best:
            return None
        level = best.index(max(best))
        return best[level], NodeId(level, index[level])

    def _node_sums(self, a: float, b: float):
        """(level, index of its first node, 2 x m array of the a- and b-power
        sums) for each run of m nodes of one bottom-up pass.  Let L be the
        deepest level of at most _CHUNK nodes: the levels below it are formed
        a block of leaves at a time, a block holding the most whole nodes of
        level L that fit in _CHUNK leaves, and at least one.  The blocks fill
        level L, and L and the levels above it are formed whole."""
        space = self.space
        k, depth, h = space.k, space.depth, space.leaf_measure
        top = depth
        while k ** top > _CHUNK:
            top -= 1
        span = k ** (depth - top)  # leaves under a node of level top
        block = max(1, _CHUNK // span) * span
        heads = []
        for start in range(0, space.n_leaves, block):
            leaves = self.values[start:start + block]
            sums = np.empty((2, leaves.size))
            _leaf_sums(leaves, a, h, sums[0])
            _leaf_sums(leaves, b, h, sums[1])
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
        return self._node_sup(p, dual=False)

    def dyadic_muckenhoupt_constant(self, p: float) -> RhiReport:
        """sup over all nodes of avg(value) * avg(value**(-1/(p-1)))**(p-1)."""
        return self._node_sup(p, dual=True)

    def maximal_function(self) -> np.ndarray:
        """Per leaf, the maximum average over all nodes containing it."""
        avgs = self.level_averages(1.0)
        running = avgs[0].copy()
        for level in range(1, self.space.depth + 1):
            running = np.maximum(running.repeat(self.space.k), avgs[level])
        return running

    def weak_type_check(self, threshold: float) -> WeakTypeResult:
        """mu({M > t}) against (1/t) * integral of the weight over {M > t}."""
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        mask = self.maximal_function() > threshold
        lhs = float(np.count_nonzero(mask)) * self.space.leaf_measure
        rhs = float(self.values[mask].sum()) * self.space.leaf_measure / threshold
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
    if not 0 < low <= high:
        raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(np.log(low), np.log(high), space.n_leaves))
    return DyadicWeight(space, values)


# ---------------------------------------------------------------------------
# Weight file format: {"k": int, "depth": int, "leaves": [reals]}
# ---------------------------------------------------------------------------

def save_weight(weight: DyadicWeight, path: str | Path) -> None:
    doc = {
        "k": weight.space.k,
        "depth": weight.space.depth,
        "leaves": [float(v) for v in weight.values],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


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
    if not isinstance(k, int) or not isinstance(depth, int):
        raise ValueError("k and depth must be integers")
    # a JSON number parses to int or float; bool, str, null, list and object do not
    if not (isinstance(leaves, list) and all(type(v) in (int, float) for v in leaves)):
        raise ValueError("leaves must be a list of JSON numbers")
    try:
        return DyadicWeight.from_leaves(k, depth, leaves)
    except OverflowError as exc:  # an integer leaf beyond the double range
        raise ValueError(f"leaf values must be finite: {exc}") from exc
