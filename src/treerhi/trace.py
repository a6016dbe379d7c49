"""Stopping-time decomposition of a tree weight, executed as an algorithm.

Given a weight, an exponent p and a prefix length t, the tracer computes the
prefix-average threshold, the maximal nodes whose average exceeds it, their
fathers, the per-father kernels, the fractional fillers that pin each union's
average exactly at the threshold, and the top set of measure t.  Every
inequality the construction relies on is evaluated numerically and recorded,
ending with the bound k*(c-1)+1 on the power average, where c is the
reverse-Holder constant over the tree nodes.

Sets are fraction arrays over contiguous leaf windows: a father's block for
the per-father sets, the whole tree for the top set and the union of the
Gamma sets.  Maximal fathers are disjoint, so a trace stores O(n) fractions
for n leaves and costs O(n log n): the stopping family is picked level by
level, a father is kept while its first leaf is unclaimed, each stopping node
joins the father labelled at its first leaf, and each filler is one sort and
one greedy pass over its father's block.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .rearrange import _check_t, prefix_average, rearrangement
from .tree import NodeId, TreeSpace
from .weight import _RESOLVED, DyadicWeight, _check_exponent

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
        if not (np.minimum.reduce(window, initial=0.0) >= 0.0
                and np.maximum.reduce(window, initial=0.0) <= 1.0 + EQ_REL_TOL):
            raise ValueError("fractions must lie in [0, 1]")
        window.setflags(write=False)
        self.space = space
        self.first = first
        self.window = window

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
    def fractions(self) -> dict[int, float]:
        """Leaf -> fraction for the leaves in the set, in leaf order."""
        return {self.first + i: f for i, f in enumerate(self.window.tolist()) if f}

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
        lo = max(first, self.first)
        hi = min(first + count, self.first + self.window.size)
        if lo < hi:
            out[lo - first:hi - first] = self.window[lo - self.first:hi - self.first]
        if np.count_nonzero(out) < np.count_nonzero(self.window):
            raise ValueError(f"set reaches outside leaves [{first}, {first + count})")
        return out


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

def stopping_decomposition(weight: DyadicWeight, threshold: float) -> list[NodeId]:
    """Maximal nodes whose average strictly exceeds the threshold.

    The result is pairwise disjoint and its leaves are exactly the set where
    the maximal function exceeds the threshold.  The root must not qualify.
    Nodes are picked level by level; the mask of nodes under an earlier pick
    is repeated k-fold from each level to the next.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    avgs = weight.level_averages(1.0)
    if avgs[0][0] > threshold:
        raise ValueError("root average exceeds the threshold")
    blocked = np.zeros(1, dtype=bool)
    selected: list[NodeId] = []
    for level, avg in enumerate(avgs):
        if level:
            blocked = np.repeat(blocked, weight.space.k)
        picked = (avg > threshold) & ~blocked
        selected += [NodeId(level, i) for i in picked.nonzero()[0].tolist()]
        blocked |= picked
    return selected


def select_fathers(space: TreeSpace, stopping_nodes: list[NodeId]) -> list[NodeId]:
    """Fathers of the stopping family, deduplicated and reduced to maximal ones.

    Walks the fathers root first and keeps one when no kept father has
    claimed its first leaf yet.
    """
    if not stopping_nodes:
        raise ValueError("stopping family is empty")
    if any(n.level == 0 for n in stopping_nodes):
        raise ValueError("stopping family contains the root, which has no father")
    claimed = np.zeros(space.n_leaves, dtype=bool)
    kept: list[NodeId] = []
    for father in sorted({space.father(n) for n in stopping_nodes}):
        first, count = space.leaf_range(father)
        if not claimed[first]:
            claimed[first:first + count] = True
            kept.append(father)
    return kept


def build_gamma(
    weight: DyadicWeight,
    father: NodeId,
    kernel: FractionalSet,
    threshold: float,
) -> tuple[FractionalSet, FractionalSet]:
    """Extend the kernel inside the father until its average equals the threshold.

    The filler is chosen greedily from the complement leaves in ascending value
    order, the last one fractionally by solving the one-variable linear
    equation; requires avg(kernel) > threshold >= avg(father).  Returns
    (gamma, delta) with delta the remainder of the father, both over the
    father's block.
    """
    space = weight.space
    h = space.leaf_measure
    mass, total = kernel.measure, kernel.integral(weight)
    kernel_avg = total / mass
    father_avg = weight.node_average(father)
    if kernel_avg < threshold * (1.0 - EQ_REL_TOL):
        raise ValueError("kernel average must be at least the threshold")
    if father_avg > threshold * (1.0 + EQ_REL_TOL):
        raise ValueError("father average must not exceed the threshold")
    first, count = space.leaf_range(father)
    gamma = kernel.fraction_array(first, count)

    if not math.isclose(kernel_avg, threshold, rel_tol=EQ_REL_TOL):
        block = weight.values[first:first + count]
        rem = 1.0 - gamma
        free = (rem > 0).nonzero()[0]
        free = free[block[free].argsort(kind="stable")]
        for leaf, value, r in zip(free.tolist(), block[free].tolist(), rem[free].tolist()):
            m = r * h
            if (total + m * value) / (mass + m) > threshold or threshold - value <= 0:
                gamma[leaf] += r
                mass += m
                total += m * value
                continue
            x = (total - threshold * mass) / (threshold - value)
            x = min(max(x, 0.0), m)
            if x > 0:
                gamma[leaf] += x / h
            break

    rem = 1.0 - gamma
    delta = np.where(rem > EQ_REL_TOL, rem, 0.0)
    return FractionalSet(space, first, gamma), FractionalSet(space, first, delta)


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
    return FractionalSet(space, 0, fractions)


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
    fe = e.fraction_array()
    fh = e_hat.fraction_array()
    if not (fe.any() and fh.any()):
        raise ValueError("both sets must be nonempty")
    avg_e = e.average(weight)
    avg_hat = e_hat.average(weight)
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

    lhs = e.average(weight, p)
    rhs = e_hat.average(weight, p)
    conclusion = lhs <= rhs * (1.0 + EQ_REL_TOL) + 1e-300
    return Lemma21Result(
        hypotheses_hold=not failures,
        conclusion_holds=conclusion,
        lhs=lhs,
        rhs=rhs,
        average=common,
        failures=tuple(failures),
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
    _check_exponent(p)
    t = _check_t(t)
    if weight.total_integral == 0:
        raise ValueError("weight is identically zero")

    space = weight.space
    k = space.k
    star = rearrangement(weight)
    threshold = prefix_average(star, t, 1.0)
    # every power average the trace sums from leaf powers lies in [A**p, max**p]
    for v in (threshold, star.values[0]):
        if not math.log2(_RESOLVED) <= p * math.log2(v) < 1024:
            raise ValueError(f"threshold**p or max**p leaves the double range at p={p}")
    prefix_power = prefix_average(star, t, p)
    rhi = weight.dyadic_rhi_constant(p)
    bound_factor = k * (rhi.constant - 1.0) + 1.0
    bound_value = bound_factor * threshold ** p

    trace = DecompositionTrace(
        k=k,
        depth=space.depth,
        p=p,
        t=t,
        threshold=threshold,
        degenerate=False,
        rhi_constant=rhi.constant,
        rhi_witness=rhi.witness,
        bound_factor=bound_factor,
        bound_value=bound_value,
        prefix_power_average=prefix_power,
    )
    push = trace.assertions.append

    exceeds = weight.maximal_function() > threshold
    trace.exceedance_leaves = exceeds.nonzero()[0].tolist()

    if not trace.exceedance_leaves:
        # Nothing exceeds the threshold, so the rearrangement is at most the
        # threshold on (0, t] and the bound follows directly.
        trace.degenerate = True
        push(_at_most("max_value_le_threshold", float(weight.values.max()), threshold))
        push(_at_most("prefix_power_le_bound", prefix_power, bound_value))
        return trace

    stopping = stopping_decomposition(weight, threshold)
    trace.stopping_nodes = stopping
    fathers = select_fathers(space, stopping)
    trace.fathers = fathers
    label = np.empty(space.n_leaves, dtype=np.intp)
    for s, father in enumerate(fathers):
        first, count = space.leaf_range(father)
        label[first:first + count] = s
    # each stopping node joins the maximal father labelled at its first leaf
    members: list[list[NodeId]] = [[] for _ in fathers]
    covered = np.zeros(space.n_leaves)
    for node in stopping:
        first, count = space.leaf_range(node)
        covered[first:first + count] = 1.0
        members[label[first]].append(node)
    mismatch = int(np.count_nonzero((covered > 0) != exceeds))
    push(Assertion("stopping_family_covers_exceedance", float(mismatch), 0.0, not mismatch))

    for s, father in enumerate(fathers):
        first, count = space.leaf_range(father)
        # the stopping nodes inside a maximal father's block are its members
        kernel = FractionalSet(space, first, covered[first:first + count])
        father_avg = weight.node_average(father)
        father_measure = space.node_measure(father)
        kernel_measure = kernel.measure
        kernel_avg = kernel.integral(weight) / kernel_measure
        push(_at_most(f"father_average_le_threshold[{s}]", father_avg, threshold))
        push(Assertion(f"kernel_average_gt_threshold[{s}]", kernel_avg, threshold,
                       kernel_avg > threshold * (1.0 - ASSERT_REL_TOL)))
        lower_ok = kernel_measure >= father_measure / k * (1.0 - ASSERT_REL_TOL)
        upper_ok = kernel_measure < father_measure * (1.0 + ASSERT_REL_TOL)
        push(Assertion(f"kernel_measure_bounds[{s}]", kernel_measure, father_measure,
                       lower_ok and upper_ok))
        gamma_s, delta_s = build_gamma(weight, father, kernel, threshold)
        gamma_avg = gamma_s.average(weight)
        push(_pinned(f"gamma_average_matches_threshold[{s}]", gamma_avg, threshold))
        added = gamma_s.window - kernel.window
        filler = FractionalSet(space, first, np.where(added > EQ_REL_TOL, added, 0.0))
        trace.records.append(FatherRecord(
            father=father,
            members=tuple(members[s]),
            kernel=kernel,
            filler=filler,
            gamma=gamma_s,
            delta=delta_s,
            father_average=father_avg,
            kernel_average=kernel_avg,
            gamma_average=gamma_avg,
        ))

    gamma = FractionalSet.union(space, [r.gamma for r in trace.records])
    trace.gamma_measure = gamma.measure
    trace.father_union_measure = math.fsum(space.node_measure(f) for f in fathers)
    push(_pinned("gamma_average_matches_threshold", gamma.average(weight), threshold))
    push(_at_most("gamma_measure_le_t", trace.gamma_measure, t))

    lemma = lemma21_check(weight, build_top_set(weight, t), gamma, p)
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
