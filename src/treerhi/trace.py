"""Stopping-time decomposition of a tree weight, executed as an algorithm.

Given a weight, an exponent p and a prefix length t, the tracer computes the
prefix-average threshold, the maximal nodes whose average exceeds it, their
fathers, the per-father kernels, the fractional fillers that pin each union's
average exactly at the threshold, and the top set of measure t.  Every
inequality the construction relies on is evaluated numerically and recorded,
ending with the bound k*(c-1)+1 on the power average, where c is the
reverse-Holder constant over the tree nodes.  Everything up to the power
averages is built from the threshold alone, so a caller tracing one weight
at several exponents decomposes each prefix length once (_traces).

Sets are fraction arrays over contiguous leaf windows: a father's block for
the per-father sets, the whole tree for the top set and the union of the
Gamma sets.  Maximal fathers are disjoint, so a trace stores O(n) fractions
for n leaves and costs O(n log n): the stopping family is picked level by
level, the fathers are walked as (level, index) pairs root first and kept
while their first leaf is unclaimed, and each stopping node joins the father
labelled at its first leaf.  The per-father stage runs once per level of
fathers: maximal fathers at one level have equal blocks, so their kernels,
fillers, Gamma and delta sets are F x span arrays, filled by a fixed number
of numpy calls per level (one stable sort per row; the greedy filler's
running sums are seeded cumsums, which add in the filler's own order).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .rearrange import _check_t, prefix_average, rearrangement
from .tree import NodeId, TreeSpace
from .weight import _RESOLVED, DyadicWeight, RhiReport, _check_exponent

GAMMA_REL_TOL = 1e-10
ASSERT_REL_TOL = 1e-9
EQ_REL_TOL = 1e-12


class FractionalSet:
    """Measurable subset as per-leaf fractions in [0, 1] over a leaf window.

    ``window[i]`` is the share of leaf ``first + i`` in the set; a leaf with
    share 0, or outside the window, is not in the set.  Models
    non-atomicity: a leaf may contribute any fraction of its measure,
    carrying the leaf's value on that fraction.
    """

    def __init__(self, space: TreeSpace, first: int, fractions) -> None:
        window = np.array(fractions, dtype=np.float64)
        if window.ndim != 1 or not 0 <= first <= space.n_leaves - window.size:
            raise ValueError(f"window of {window.size} leaves at leaf {first} out of range")
        _check_fractions(window)
        window.setflags(write=False)
        self.space = space
        self.first = first
        self.window = window

    @classmethod
    def _checked(cls, space: TreeSpace, first: int, window: np.ndarray) -> "FractionalSet":
        """A set over a read-only window whose range the caller has checked."""
        s = cls.__new__(cls)
        s.space, s.first, s.window = space, first, window
        return s

    @classmethod
    def from_node(cls, space: TreeSpace, node: NodeId) -> "FractionalSet":
        first, count = space.leaf_range(node)
        return cls(space, first, np.ones(count))

    @classmethod
    def union(cls, space: TreeSpace, parts) -> "FractionalSet":
        """Union of pairwise disjoint parts over the whole tree (fractions capped at 1)."""
        fractions = np.zeros(space.n_leaves)
        for part in parts:
            block = fractions[part.first:part.first + part.window.size]
            np.minimum(block + part.window, 1.0, out=block)
        return cls(space, 0, fractions)

    @property
    def measure(self) -> float:
        return math.fsum(self.window.tolist()) * self.space.leaf_measure

    def integral(self, weight: DyadicWeight, q: float = 1.0) -> float:
        if q == 1.0:
            values = weight.values[self.first:self.first + self.window.size]
            return math.fsum((self.window * values).tolist()) * self.space.leaf_measure
        inside = self.window.nonzero()[0]  # value**q only where the set has mass
        values = weight.values[inside + self.first]
        if q < 0 and (values == 0).any():
            raise ValueError("negative exponent requires strictly positive values")
        # Python's float power: np.power can differ from it in the last bit
        terms = [f * v ** q for f, v in zip(self.window[inside].tolist(), values.tolist())]
        return math.fsum(terms) * self.space.leaf_measure

    def average(self, weight: DyadicWeight, q: float = 1.0) -> float:
        return self.integral(weight, q) / self.measure

    def fraction_array(self, first: int = 0, count: int | None = None) -> np.ndarray:
        """Fractions over leaves [first, first + count), by default the whole
        tree; a window that leaves out part of the set is refused."""
        if count is None:
            count = self.space.n_leaves - first
        out = np.zeros(count)
        end = self.first + self.window.size
        lo = max(first, self.first)
        hi = min(first + count, end)
        if lo < hi:
            out[lo - first:hi - first] = self.window[lo - self.first:hi - self.first]
        # a window that sticks out must have nothing in the part cut off
        if (lo, hi) != (self.first, end) and np.count_nonzero(out) < np.count_nonzero(self.window):
            raise ValueError(f"set reaches outside leaves [{first}, {first + count})")
        return out


def _check_fractions(window: np.ndarray) -> None:
    if not (np.minimum.reduce(window, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(window, axis=None, initial=0.0) <= 1.0 + EQ_REL_TOL):
        raise ValueError("fractions must lie in [0, 1]")


@dataclass(frozen=True)
class Assertion:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class Lemma21Result:
    hypotheses_hold: bool
    conclusion_holds: bool
    lhs: float
    rhs: float
    average: float
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class FatherRecord:
    father: NodeId
    members: tuple[NodeId, ...]
    kernel: FractionalSet
    filler: FractionalSet
    gamma: FractionalSet
    delta: FractionalSet
    father_average: float
    kernel_average: float
    gamma_average: float


@dataclass
class DecompositionTrace:
    # the field order is the key order of to_json
    k: int
    depth: int
    p: float
    t: float
    threshold: float
    degenerate: bool
    rhi_constant: float
    rhi_witness: NodeId
    bound_factor: float
    bound_value: float
    prefix_power_average: float
    gamma_power_average: float = math.nan
    gamma_measure: float = 0.0
    father_union_measure: float = 0.0
    exceedance_leaves: list[int] = field(default_factory=list)
    stopping_nodes: list[NodeId] = field(default_factory=list)
    fathers: list[NodeId] = field(default_factory=list)
    records: list[FatherRecord] = field(default_factory=list)
    lemma: Lemma21Result | None = None
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(a.holds for a in self.assertions)

    def to_json(self, config: dict | None = None) -> str:
        """The text ``json.dumps(..., indent=2)`` writes for this trace as a
        dict: its fields in declaration order, then ``config`` when given."""
        text = _items([self], 0)[0]
        if config is None:
            return text
        config_text = json.dumps(config, indent=2).replace("\n", _NL[1])
        return f'{text[:-2]},{_NL[1]}"config": {config_text}\n}}'  # before the final "\n}"


# ---------------------------------------------------------------------------
# JSON text.  json.dumps with an indent runs the pure-Python encoder, which
# costs more than the trace itself; here each list is written a column at a
# time, so numbers and strings go through C-level maps.
# ---------------------------------------------------------------------------

_NL = tuple("\n" + "  " * d for d in range(8))  # line break and indent at depth d
_BOOL = {True: "true", False: "false"}


@functools.cache
def _template(kind: type, d: int) -> tuple[tuple[str, ...], str]:
    """Field names of a dataclass and a %-template of its JSON at depth d:
    [level, index] for a NodeId, an object of the fields otherwise."""
    names = tuple(f.name for f in fields(kind))
    if issubclass(kind, NodeId):
        return names, "[" + ",".join(_NL[d + 1] + "%s" for _ in names) + _NL[d] + "]"
    keys = [_NL[d + 1] + encode_basestring_ascii(n) + ": %s" for n in names]
    return names, "{" + ",".join(keys) + _NL[d] + "}"


def _container(open_: str, items: list[str], close: str, d: int) -> str:
    if not items:
        return open_ + close
    return open_ + _NL[d + 1] + ("," + _NL[d + 1]).join(items) + _NL[d] + close


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _fractions(s: FractionalSet, d: int) -> str:
    # the constructor keeps fractions in [0, 1], so each is finite; most are 1
    items = [f'"{s.first + i}": {"1.0" if f == 1.0 else float.__repr__(f)}'
             for i, f in enumerate(s.window.tolist()) if f]
    return _container("{", items, "}", d)


def _items(values: list, d: int) -> list[str]:
    """Each value as ``json.dumps(..., indent=2)`` writes it at nesting depth d.

    A dataclass is an object of its fields in declaration order, a NodeId is
    [level, index] and a FractionalSet maps each leaf in the set to its
    fraction.  Numbers are spelled by float.__repr__ and int.__repr__, as json
    spells them; repr() would spell a numpy float as np.float64(...).  Other
    types, such as numpy integers and bools, raise TypeError as in json.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return [_items([v], d)[0] for v in values]
    kind = kinds.pop()
    if kind is bool:
        return list(map(_BOOL.__getitem__, values))
    if kind is type(None):
        return ["null"] * len(values)
    if issubclass(kind, int):
        return list(map(int.__repr__, values))
    if issubclass(kind, float):
        if math.isfinite(sum(values)):  # else some value is NaN or infinite
            return list(map(float.__repr__, values))
        return list(map(_float, values))
    if issubclass(kind, str):
        return list(map(encode_basestring_ascii, values))
    if issubclass(kind, (list, tuple)):  # all lists at once, then split
        flat = _items([x for v in values for x in v], d + 1)
        ends = list(itertools.accumulate(map(len, values)))
        return [_container("[", flat[end - len(v):end], "]", d) for v, end in zip(values, ends)]
    if issubclass(kind, FractionalSet):
        return [_fractions(s, d) for s in values]
    if is_dataclass(kind):
        names, template = _template(kind, d)
        columns = [_items([getattr(v, n) for v in values], d + 1) for n in names]
        return list(map(template.__mod__, zip(*columns)))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Construction steps
# ---------------------------------------------------------------------------

def _exceeds(average, threshold: float):
    """Whether a node average (or an array of them) exceeds the threshold.

    The threshold is a prefix average of the rearrangement, summed in another
    order than the node sums, so an average equal to it in exact arithmetic
    may land a few ulp either side; only an excess beyond EQ_REL_TOL counts.
    The stopping rule and the exceedance set both use this test.
    """
    return average > threshold * (1.0 + EQ_REL_TOL)


def stopping_decomposition(weight: DyadicWeight, threshold: float) -> list[NodeId]:
    """Maximal nodes whose average exceeds the threshold (see _exceeds).

    The result is pairwise disjoint and its leaves are exactly the set where
    the maximal function exceeds the threshold.  The root must not qualify.
    Nodes are picked level by level; the mask of nodes under an earlier pick
    is repeated k-fold from each level to the next.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    avgs = weight.level_averages(1.0)
    if _exceeds(avgs[0][0], threshold):
        raise ValueError("root average exceeds the threshold")
    blocked = np.zeros(1, dtype=bool)
    selected: list[NodeId] = []
    for level, avg in enumerate(avgs):
        if level:
            blocked = blocked.repeat(weight.space.k)
        picked = _exceeds(avg, threshold) > blocked  # above the threshold and not blocked
        selected += [NodeId(level, i) for i in picked.nonzero()[0].tolist()]
        blocked |= picked
    return selected


def select_fathers(space: TreeSpace, stopping_nodes: list[NodeId]) -> list[NodeId]:
    """Fathers of the stopping family, deduplicated and reduced to maximal ones.

    Walks the fathers as (level, index) pairs, root first, and keeps one
    when no kept father has claimed its first leaf yet.
    """
    if not stopping_nodes:
        raise ValueError("stopping family is empty")
    if any(n.level == 0 for n in stopping_nodes):
        raise ValueError("stopping family contains the root, which has no father")
    k, depth = space.k, space.depth
    claimed = bytearray(space.n_leaves)  # 1 on the blocks of the kept fathers
    kept: list[NodeId] = []
    for level, index in sorted({(n.level - 1, n.index // k) for n in stopping_nodes}):
        # a father inside the tree above the leaves means its child is a valid node
        if not (0 <= level < depth and 0 <= index < k ** level):
            raise ValueError(f"a stopping node at level {level + 1} lies outside the tree")
        span = k ** (depth - level)
        if not claimed[index * span]:
            claimed[index * span:(index + 1) * span] = b"\1" * span
            kept.append(NodeId(level, index))
    return kept


def _check_fill(kernel_average: float, father_average: float, threshold: float) -> None:
    if kernel_average < threshold * (1.0 - EQ_REL_TOL):
        raise ValueError("kernel average must be at least the threshold")
    if father_average > threshold * (1.0 + EQ_REL_TOL):
        raise ValueError("father average must not exceed the threshold")


def _fill(values: np.ndarray, sets: np.ndarray, seed, threshold: float, h: float,
          active: list[bool]) -> None:
    """Greedy fillers of F equal father blocks at once.

    ``sets`` is a 4 x F x S array whose ``sets[0]`` holds F kernels' leaf
    fractions over blocks with leaf values ``values``; ``seed`` holds their
    measures and integrals.  In the rows where ``active``, the free share of
    the leaves joins in ascending value order (ties by leaf): each leaf whole
    while the running average stays above the threshold or the leaf is not
    below it, then the next one fractionally, by the one-variable linear
    equation that lands the average on the threshold.  The running mass and
    integral are cumsums seeded with the kernel's; cumsum adds in order, so
    they equal a sequential ``total + m * value`` bit for bit.  Writes the
    filler, gamma (kernel plus filler) and delta (the rest of the block) to
    ``sets[1:]``.
    """
    kernel = sets[0]
    f, s = kernel.shape
    rem = 1.0 - kernel
    if not all(active):
        rem[~np.array(active)] = 0.0
    free = rem > 0
    # NaN for the leaves that are not free: they sort last, and every sum and
    # comparison they enter stays NaN or false
    key = np.where(free, values, np.nan)
    flat = key.argsort(axis=1, kind="stable")
    if f > 1:
        flat += np.arange(0, f * s, s)[:, None]  # sorted position -> flat leaf index
    v = key.take(flat)
    r = rem.take(flat)
    m = r * h
    run = np.empty((2, f, s + 1))
    run[:, :, 0] = seed
    run[0, :, 1:] = m
    np.multiply(m, v, out=run[1, :, 1:])
    mass, total = np.add.accumulate(run, axis=2, out=run)
    # a leaf joins whole while the average with it stays above the threshold,
    # or when it is not below the threshold; the first free leaf that fails
    # joins by the share x with total + x*value = threshold * (mass + x)
    below = threshold - v
    joined = np.empty((f, s + 1), dtype=bool)  # column j + 1: leaves up to j join whole
    joined[:, 0] = True
    np.greater(total[:, 1:] / mass[:, 1:], threshold, out=joined[:, 1:])
    joined[:, 1:] |= below <= 0
    np.logical_and.accumulate(joined, axis=1, out=joined)
    whole = joined[:, 1:]
    x = np.divide(total[:, :-1] - threshold * mass[:, :-1], below,
                  out=np.zeros((f, s)), where=joined[:, :-1] > whole)
    # fmin and fmax drop the NaN of a leaf that is not free, whose m is at most 0
    np.fmax(np.fmin(x, m, out=x), 0.0, out=x)
    x /= h
    np.copyto(x, r, where=whole)
    gamma = sets[2]
    gamma.put(flat, x)
    gamma += kernel
    np.subtract(gamma, kernel, out=sets[1])
    np.subtract(1.0, gamma, out=sets[3])
    rest = sets[1::2]  # filler and delta: shares at most EQ_REL_TOL are dropped
    rest[rest <= EQ_REL_TOL] = 0.0


def build_gamma(
    weight: DyadicWeight,
    father: NodeId,
    kernel: FractionalSet,
    threshold: float,
) -> tuple[FractionalSet, FractionalSet]:
    """Extend the kernel inside the father until its average equals the threshold.

    The filler is chosen greedily from the complement leaves in ascending value
    order, the last one fractionally (see _fill); requires avg(kernel) >
    threshold >= avg(father).  Returns (gamma, delta) with delta the remainder
    of the father, both over the father's block.
    """
    space = weight.space
    mass, total = kernel.measure, kernel.integral(weight)
    kernel_avg = total / mass
    _check_fill(kernel_avg, weight.node_average(father), threshold)
    first, count = space.leaf_range(father)
    sets = np.zeros((4, 1, count))
    sets[0, 0] = kernel.fraction_array(first, count)
    active = [not math.isclose(kernel_avg, threshold, rel_tol=EQ_REL_TOL)]
    _fill(weight.values[None, first:first + count], sets, [[mass], [total]], threshold,
          space.leaf_measure, active)
    return FractionalSet(space, first, sets[2, 0]), FractionalSet(space, first, sets[3, 0])


def build_top_set(weight: DyadicWeight, t: float) -> FractionalSet:
    """Greedy top set of measure t: leaves by descending value, one fractional.

    Its average equals the prefix average of the rearrangement over (0, t].
    """
    t = _check_t(t)
    space = weight.space
    h = space.leaf_measure
    order = np.argsort(-weight.values, kind="stable")
    quotient = t / h
    full = int(round(quotient)) if abs(quotient - round(quotient)) < 1e-9 else int(quotient)
    full = min(full, space.n_leaves)
    fractions = np.zeros(space.n_leaves)
    fractions[order[:full]] = 1.0
    rest = quotient - full
    if rest > EQ_REL_TOL and full < space.n_leaves:
        fractions[order[full]] = rest
    fractions.setflags(write=False)
    return FractionalSet._checked(space, 0, fractions)  # shares 1 and rest < 1


def lemma21_check(
    weight: DyadicWeight,
    e: FractionalSet,
    e_hat: FractionalSet,
    p: float,
) -> Lemma21Result:
    """Check the two-set power-average comparison and its three hypotheses.

    Hypotheses: equal averages; values outside the overlap at most that
    average; values carried by e_hat minus e at most every value carried
    by e.  The conclusion compares the power averages over e and e_hat.
    Leaf overlaps are aligned maximally (fraction-wise minimum), which is
    attainable since fractions model non-atomic portions.
    """
    _check_exponent(p)
    sides = _lemma_sides(weight, e, e.fraction_array(), e_hat, e_hat.fraction_array())
    return _lemma_conclusion(weight, sides, p)


class _LemmaSides(NamedTuple):
    """The half of lemma21_check that does not depend on p."""
    e: FractionalSet
    e_hat: FractionalSet
    measure_e: float
    measure_hat: float
    average: float
    failures: tuple[str, ...]


def _lemma_sides(weight: DyadicWeight, e: FractionalSet, fe: np.ndarray,
                 e_hat: FractionalSet, fh: np.ndarray,
                 hat_sums: tuple[float, float] | None = None) -> _LemmaSides:
    """The common average and the failed hypotheses of lemma21_check, from
    the sets' fractions over the whole tree, fe and fh.  ``hat_sums`` is
    e_hat's (measure, integral) when the caller has summed them already."""
    if not (fe.any() and fh.any()):
        raise ValueError("both sets must be nonempty")
    measure_e = e.measure  # average = integral / measure
    measure_hat, integral_hat = hat_sums or (e_hat.measure, e_hat.integral(weight))
    avg_e = e.integral(weight) / measure_e
    avg_hat = integral_hat / measure_hat
    common = avg_e
    failures: list[str] = []
    if not math.isclose(avg_e, avg_hat, rel_tol=ASSERT_REL_TOL, abs_tol=1e-12):
        failures.append("averages differ")

    values = weight.values
    outside = np.minimum(fe, fh) < 1.0 - EQ_REL_TOL
    if (values[outside] > common * (1.0 + ASSERT_REL_TOL) + 1e-300).any():
        failures.append("value above the common average outside the overlap")
    only_hat = fh - fe > EQ_REL_TOL
    if only_hat.any():  # e is nonempty, checked above
        if values[only_hat].max() > values[fe > 0].min() * (1.0 + ASSERT_REL_TOL):
            failures.append("value in e_hat minus e above a value in e")
    return _LemmaSides(e, e_hat, measure_e, measure_hat, common, tuple(failures))


def _lemma_conclusion(weight: DyadicWeight, sides: _LemmaSides, p: float) -> Lemma21Result:
    """The power averages over e and e_hat at p, compared."""
    lhs = sides.e.integral(weight, p) / sides.measure_e
    rhs = sides.e_hat.integral(weight, p) / sides.measure_hat
    return Lemma21Result(
        hypotheses_hold=not sides.failures,
        conclusion_holds=lhs <= rhs * (1.0 + EQ_REL_TOL) + 1e-300,
        lhs=lhs,
        rhs=rhs,
        average=sides.average,
        failures=sides.failures,
    )


# ---------------------------------------------------------------------------
# Full trace
# ---------------------------------------------------------------------------

def _at_most(name: str, lhs: float, rhs: float) -> Assertion:
    return Assertion(name, lhs, rhs, lhs <= rhs * (1.0 + ASSERT_REL_TOL))


def _pinned(name: str, average: float, threshold: float) -> Assertion:
    return Assertion(name, average, threshold,
                     math.isclose(average, threshold, rel_tol=GAMMA_REL_TOL))


def trace_theorem1(weight: DyadicWeight, p: float, t: float) -> DecompositionTrace:
    """Run the whole decomposition at prefix length t and record every check."""
    return next(_traces(weight, (p,), t))


@dataclass(frozen=True)
class _Decomposition:
    """The part of a trace at prefix length t that does not depend on p: it
    is built from the threshold alone.  ``lemma`` is None when the trace is
    degenerate (nothing exceeds the threshold)."""
    exceedance_leaves: tuple[int, ...]
    stopping_nodes: tuple[NodeId, ...] = ()
    fathers: tuple[NodeId, ...] = ()
    records: tuple[FatherRecord, ...] = ()
    assertions: tuple[Assertion, ...] = ()  # the first ones of every trace, in order
    gamma_measure: float = 0.0
    father_union_measure: float = 0.0
    lemma: _LemmaSides | None = None


def _traces(weight: DyadicWeight, ps, t: float):
    """trace_theorem1(weight, p, t) for each p of ps in turn.

    The decomposition is built once, after the first exponent's range check,
    and shared: each exponent adds its power averages, its bound and the
    checks that read them.  Each trace owns its lists.  A refusal comes where
    separate calls would raise it, and ends the traces.
    """
    threshold = decomposition = None
    for p in ps:
        _check_exponent(p)
        if threshold is None:
            t = _check_t(t)
            if weight.total_integral == 0 and not weight.values.any():  # see _node_sup
                raise ValueError("weight is identically zero")
            star = rearrangement(weight)
            threshold = prefix_average(star, t, 1.0)
        # every power average the trace sums from leaf powers lies in [A**p, max**p]
        for v in (threshold, star.values[0]):
            if not (v > 0 and math.log2(_RESOLVED) <= p * math.log2(v) < 1024):
                raise ValueError(f"threshold**p or max**p leaves the double range at p={p}")
        prefix_power = prefix_average(star, t, p)
        rhi = weight.dyadic_rhi_constant(p)
        if decomposition is None:
            decomposition = _decompose(weight, t, threshold)
        yield _trace_at(decomposition, weight, p, t, threshold, prefix_power, rhi)


def _trace_at(d: _Decomposition, weight: DyadicWeight, p: float, t: float, threshold: float,
              prefix_power: float, rhi: RhiReport) -> DecompositionTrace:
    """The trace at exponent p, from the shared decomposition."""
    k = weight.space.k
    bound_factor = k * (rhi.constant - 1.0) + 1.0
    bound_value = bound_factor * threshold ** p
    trace = DecompositionTrace(
        k=k,
        depth=weight.space.depth,
        p=p,
        t=t,
        threshold=threshold,
        degenerate=d.lemma is None,
        rhi_constant=rhi.constant,
        rhi_witness=rhi.witness,
        bound_factor=bound_factor,
        bound_value=bound_value,
        prefix_power_average=prefix_power,
        gamma_measure=d.gamma_measure,
        father_union_measure=d.father_union_measure,
        exceedance_leaves=list(d.exceedance_leaves),
        stopping_nodes=list(d.stopping_nodes),
        fathers=list(d.fathers),
        records=list(d.records),
        assertions=list(d.assertions),
    )
    push = trace.assertions.append
    if d.lemma is None:
        push(_at_most("prefix_power_le_bound", prefix_power, bound_value))
        return trace

    lemma = _lemma_conclusion(weight, d.lemma, p)
    trace.lemma = lemma
    push(Assertion("lemma_hypotheses_hold", float(lemma.hypotheses_hold), 1.0,
                   lemma.hypotheses_hold))
    trace.gamma_power_average = lemma.rhs  # the power average over Gamma
    push(_at_most("prefix_power_le_gamma_power", prefix_power, trace.gamma_power_average))
    push(_at_most("father_union_measure_le_k_gamma", trace.father_union_measure,
                  k * trace.gamma_measure))
    push(_at_most("gamma_power_le_bound", trace.gamma_power_average, bound_value))
    push(_at_most("prefix_power_le_bound", prefix_power, bound_value))
    return trace


def _decompose(weight: DyadicWeight, t: float, threshold: float) -> _Decomposition:
    """Stopping family, fathers, fills, Gamma and top set at this threshold,
    with the checks that do not read p."""
    space = weight.space
    k = space.k
    exceeds = _exceeds(weight.maximal_function(), threshold)
    exceedance_leaves = tuple(exceeds.nonzero()[0].tolist())

    if not exceedance_leaves:
        # Nothing exceeds the threshold, so the rearrangement is at most the
        # threshold on (0, t] and the bound follows directly.
        return _Decomposition(exceedance_leaves, assertions=(
            _at_most("max_value_le_threshold", float(weight.values.max()), threshold),))

    assertions: list[Assertion] = []
    push = assertions.append
    stopping = stopping_decomposition(weight, threshold)
    fathers = select_fathers(space, stopping)
    n, depth = space.n_leaves, space.depth
    spans = [k ** (depth - level) for level in range(depth + 1)]
    firsts = [node.index * spans[node.level] for node in stopping]
    covered = np.zeros(n)
    for node, first in zip(stopping, firsts):
        covered[first:first + spans[node.level]] = 1.0
    mismatch = int(np.count_nonzero((covered > 0) != exceeds))
    push(Assertion("stopping_family_covers_exceedance", float(mismatch), 0.0, not mismatch))

    # Maximal fathers at one level have equal blocks of `span` leaves, so each
    # level is one F x span array.  Every leaf of a father's block is labelled
    # with the father, and each stopping node joins the father labelled at
    # its first leaf.
    label = np.empty(n, dtype=np.intp)
    levels: dict[int, list[int]] = {}
    in_blocks = 0
    for s, father in enumerate(fathers):
        span = spans[father.level]
        label[father.index * span:(father.index + 1) * span] = s
        levels.setdefault(father.level, []).append(father.index)
        in_blocks += span
    members: list[list[NodeId]] = [[] for _ in fathers]
    for node, s in zip(stopping, label.take(firsts).tolist()):
        members[s].append(node)

    h = space.leaf_measure
    sums = weight.level_sums(1.0)
    # the fsum of each father's kernel integral runs over its block of these
    kernel_terms = (covered * weight.values).tolist()
    # kernel, filler, gamma and delta of every father over its block: a
    # 4 x F x span slice of one buffer per level, range-checked once
    buf = np.empty((4, in_blocks))
    union = np.zeros(n)
    per_father = []  # (first, span, father measure and average, kernel average and measure, sets)
    s = start = 0
    for level, indices in levels.items():
        span, count = spans[level], len(indices)
        index = np.array(indices)
        sets = buf[:, start:start + count * span].reshape(4, count, span)
        covered.reshape(-1, span).take(index, axis=0, out=sets[0])
        starts = [i * span for i in indices]
        # the stopping nodes in a maximal father's block are its members, so
        # the kernel is their 0/1 cover and its fsum is their leaf count
        kernel_measure = [sum(spans[node.level] for node in members[i]) * h
                          for i in range(s, s + count)]
        kernel_integral = [math.fsum(kernel_terms[a:a + span]) * h for a in starts]
        kernel_avg = [a / m for a, m in zip(kernel_integral, kernel_measure)]
        father_measure = space.node_measure(fathers[s])
        # level_averages(1.0)[level] at the fathers
        father_avg = [a / father_measure for a in sums[level].take(index).tolist()]
        _fill(weight.values.reshape(-1, span).take(index, axis=0), sets,
              [kernel_measure, kernel_integral], threshold, h,
              [not math.isclose(ka, threshold, rel_tol=EQ_REL_TOL) for ka in kernel_avg])
        # the blocks are disjoint and gamma is at most 1 (a kernel leaf is 1, a
        # free one gets at most its share 1), so the union's fractions are gamma's
        union.reshape(-1, span)[index] = sets[2]
        per_father += zip(starts, [span] * count, [father_measure] * count, father_avg,
                          kernel_avg, kernel_measure, zip(*sets))
        s += count
        start += count * span
    _check_fractions(buf)
    buf.setflags(write=False)
    union.setflags(write=False)
    # the fsums of gamma's measure and integral, per father and over the union
    gamma_fractions = union.tolist()
    gamma_terms = (union * weight.values).tolist()

    checked = FractionalSet._checked
    records = []
    for s, (first, span, fm, fa, ka, km, windows) in enumerate(per_father):
        kernel, filler, gamma_s, delta = windows
        ga = (math.fsum(gamma_terms[first:first + span]) * h
              / (math.fsum(gamma_fractions[first:first + span]) * h))
        push(_at_most(f"father_average_le_threshold[{s}]", fa, threshold))
        push(Assertion(f"kernel_average_gt_threshold[{s}]", ka, threshold,
                       ka > threshold * (1.0 - ASSERT_REL_TOL)))
        lower_ok = km >= fm / k * (1.0 - ASSERT_REL_TOL)
        upper_ok = km < fm * (1.0 + ASSERT_REL_TOL)
        push(Assertion(f"kernel_measure_bounds[{s}]", km, fm, lower_ok and upper_ok))
        push(_pinned(f"gamma_average_matches_threshold[{s}]", ga, threshold))
        records.append(FatherRecord(
            father=fathers[s],
            members=tuple(members[s]),
            kernel=checked(space, first, kernel),
            filler=checked(space, first, filler),
            gamma=checked(space, first, gamma_s),
            delta=checked(space, first, delta),
            father_average=fa,
            kernel_average=ka,
            gamma_average=ga,
        ))

    gamma_measure = math.fsum(gamma_fractions) * h  # gamma.measure
    gamma_integral = math.fsum(gamma_terms) * h  # gamma.integral(weight)
    push(_pinned("gamma_average_matches_threshold", gamma_integral / gamma_measure, threshold))
    push(_at_most("gamma_measure_le_t", gamma_measure, t))
    # both sets span the whole tree, so their windows are their fraction arrays
    top = build_top_set(weight, t)
    lemma = _lemma_sides(weight, top, top.window, checked(space, 0, union), union,
                         (gamma_measure, gamma_integral))
    return _Decomposition(
        exceedance_leaves=exceedance_leaves,
        stopping_nodes=tuple(stopping),
        fathers=tuple(fathers),
        records=tuple(records),
        assertions=tuple(assertions),
        gamma_measure=gamma_measure,
        father_union_measure=math.fsum(fm for _, _, fm, *_ in per_father),
        lemma=lemma,
    )
