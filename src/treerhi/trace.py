"""Stopping-time decomposition of a tree weight, executed as an algorithm.

Given a weight, an exponent p and a prefix length t, the tracer computes the
prefix-average threshold, the maximal nodes whose average exceeds it, their
fathers, the per-father kernels, the fractional fillers that pin each union's
average exactly at the threshold, and the top set of measure t.  Every
inequality the construction relies on is evaluated numerically and recorded,
ending with the bound k*(c-1)+1 on the power average, where c is the
reverse-Holder constant over the tree nodes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rearrange import prefix_average, rearrangement
from .tree import NodeId, TreeSpace
from .weight import _RESOLVED, DyadicWeight, _check_exponent

GAMMA_REL_TOL = 1e-10
ASSERT_REL_TOL = 1e-9
EQ_REL_TOL = 1e-12


@dataclass(frozen=True)
class FractionalSet:
    """Measurable subset as per-leaf fractions in (0, 1].

    Models non-atomicity: a leaf may contribute any fraction of its measure,
    carrying the leaf's value on that fraction.
    """

    space: TreeSpace
    fractions: dict[int, float]

    def __post_init__(self) -> None:
        for leaf, frac in self.fractions.items():
            if not 0 <= leaf < self.space.n_leaves:
                raise ValueError(f"leaf {leaf} out of range")
            if not 0.0 < frac <= 1.0 + EQ_REL_TOL:
                raise ValueError(f"fraction {frac} for leaf {leaf} outside (0, 1]")

    @classmethod
    def from_node(cls, space: TreeSpace, node: NodeId) -> "FractionalSet":
        first, count = space.leaf_range(node)
        return cls(space, {leaf: 1.0 for leaf in range(first, first + count)})

    @classmethod
    def union(cls, space: TreeSpace, parts) -> "FractionalSet":
        """Union of pairwise disjoint parts (fractions capped at 1)."""
        fractions: dict[int, float] = {}
        for part in parts:
            for leaf, frac in part.fractions.items():
                fractions[leaf] = min(fractions.get(leaf, 0.0) + frac, 1.0)
        return cls(space, fractions)

    @property
    def measure(self) -> float:
        return math.fsum(self.fractions.values()) * self.space.leaf_measure

    def integral(self, weight: DyadicWeight, q: float = 1.0) -> float:
        terms = []
        for leaf in sorted(self.fractions):
            value = float(weight.values[leaf])
            if q < 0 and value == 0:
                raise ValueError("negative exponent requires strictly positive values")
            terms.append(self.fractions[leaf] * value ** q)
        return math.fsum(terms) * self.space.leaf_measure

    def average(self, weight: DyadicWeight, q: float = 1.0) -> float:
        return self.integral(weight, q) / self.measure

    def fraction_array(self, n_leaves: int) -> np.ndarray:
        arr = np.zeros(n_leaves)
        for leaf, frac in self.fractions.items():
            arr[leaf] = frac
        return arr


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
    exceedance_leaves: list[int] = field(default_factory=list)
    stopping_nodes: list[NodeId] = field(default_factory=list)
    fathers: list[NodeId] = field(default_factory=list)
    records: list[FatherRecord] = field(default_factory=list)
    gamma_measure: float = 0.0
    father_union_measure: float = 0.0
    gamma_power_average: float = math.nan
    lemma: Lemma21Result | None = None
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(a.holds for a in self.assertions)

    def to_dict(self) -> dict:
        def node(n: NodeId) -> list[int]:
            return [n.level, n.index]

        def fset(s: FractionalSet) -> dict:
            return {str(leaf): s.fractions[leaf] for leaf in sorted(s.fractions)}

        return {
            "k": self.k,
            "depth": self.depth,
            "p": self.p,
            "t": self.t,
            "threshold": self.threshold,
            "degenerate": self.degenerate,
            "rhi_constant": self.rhi_constant,
            "rhi_witness": node(self.rhi_witness),
            "bound_factor": self.bound_factor,
            "bound_value": self.bound_value,
            "prefix_power_average": self.prefix_power_average,
            "gamma_power_average": self.gamma_power_average,
            "gamma_measure": self.gamma_measure,
            "father_union_measure": self.father_union_measure,
            "exceedance_leaves": list(self.exceedance_leaves),
            "stopping_nodes": [node(n) for n in self.stopping_nodes],
            "fathers": [node(n) for n in self.fathers],
            "records": [
                {
                    "father": node(r.father),
                    "members": [node(n) for n in r.members],
                    "kernel": fset(r.kernel),
                    "filler": fset(r.filler),
                    "gamma": fset(r.gamma),
                    "delta": fset(r.delta),
                    "father_average": r.father_average,
                    "kernel_average": r.kernel_average,
                    "gamma_average": r.gamma_average,
                }
                for r in self.records
            ],
            "lemma": None
            if self.lemma is None
            else {
                "hypotheses_hold": self.lemma.hypotheses_hold,
                "conclusion_holds": self.lemma.conclusion_holds,
                "lhs": self.lemma.lhs,
                "rhs": self.lemma.rhs,
                "average": self.lemma.average,
                "failures": list(self.lemma.failures),
            },
            "assertions": [
                {"name": a.name, "lhs": a.lhs, "rhs": a.rhs, "holds": a.holds}
                for a in self.assertions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# Construction steps
# ---------------------------------------------------------------------------

def stopping_decomposition(weight: DyadicWeight, threshold: float) -> list[NodeId]:
    """Maximal nodes whose average strictly exceeds the threshold.

    The result is pairwise disjoint and its leaves are exactly the set where
    the maximal function exceeds the threshold.  The root must not qualify.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    space = weight.space
    avgs = weight.level_averages(1.0)
    if avgs[0][0] > threshold:
        raise ValueError("root average exceeds the threshold")
    selected: list[NodeId] = []
    stack = [space.root]
    while stack:
        node = stack.pop()
        if avgs[node.level][node.index] > threshold:
            selected.append(node)
        elif node.level < space.depth:
            stack.extend(space.children(node))
    return sorted(selected)


def select_fathers(space: TreeSpace, stopping_nodes: list[NodeId]) -> list[NodeId]:
    """Fathers of the stopping family, deduplicated and reduced to maximal ones."""
    if not stopping_nodes:
        raise ValueError("stopping family is empty")
    if any(n.level == 0 for n in stopping_nodes):
        raise ValueError("stopping family contains the root, which has no father")
    fathers = sorted({space.father(n) for n in stopping_nodes})
    maximal: list[NodeId] = []
    for candidate in fathers:  # level-ascending order: ancestors come first
        if not any(space.contains(kept, candidate) for kept in maximal):
            maximal.append(candidate)
    return maximal


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
    (gamma, delta) with delta the remainder of the father.
    """
    space = weight.space
    h = space.leaf_measure
    kernel_avg = kernel.average(weight)
    father_avg = weight.node_average(father)
    if kernel_avg < threshold * (1.0 - EQ_REL_TOL):
        raise ValueError("kernel average must be at least the threshold")
    if father_avg > threshold * (1.0 + EQ_REL_TOL):
        raise ValueError("father average must not exceed the threshold")
    first, count = space.leaf_range(father)
    for leaf in kernel.fractions:
        if not first <= leaf < first + count:
            raise ValueError("kernel is not contained in the father")

    fractions = dict(kernel.fractions)
    if not math.isclose(kernel_avg, threshold, rel_tol=EQ_REL_TOL):
        complement = []
        for leaf in range(first, first + count):
            rem = 1.0 - kernel.fractions.get(leaf, 0.0)
            if rem > 0:
                complement.append((float(weight.values[leaf]), leaf, rem))
        complement.sort()
        mass = kernel.measure
        total = kernel.integral(weight)
        for value, leaf, rem in complement:
            m = rem * h
            if (total + m * value) / (mass + m) > threshold or threshold - value <= 0:
                fractions[leaf] = fractions.get(leaf, 0.0) + rem
                mass += m
                total += m * value
                continue
            x = (total - threshold * mass) / (threshold - value)
            x = min(max(x, 0.0), m)
            if x > 0:
                fractions[leaf] = fractions.get(leaf, 0.0) + x / h
            break

    gamma = FractionalSet(space, fractions)
    delta_fracs = {}
    for leaf in range(first, first + count):
        rem = 1.0 - fractions.get(leaf, 0.0)
        if rem > EQ_REL_TOL:
            delta_fracs[leaf] = rem
    delta = FractionalSet(space, delta_fracs)
    return gamma, delta


def build_top_set(weight: DyadicWeight, t: float) -> FractionalSet:
    """Greedy top set of measure t: leaves by descending value, one fractional.

    Its average equals the prefix average of the rearrangement over (0, t].
    """
    if not 0.0 < t <= 1.0 + EQ_REL_TOL:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    t = min(float(t), 1.0)
    space = weight.space
    h = space.leaf_measure
    order = np.argsort(-weight.values, kind="stable")
    quotient = t / h
    full = int(round(quotient)) if abs(quotient - round(quotient)) < 1e-9 else int(quotient)
    full = min(full, space.n_leaves)
    fractions = {int(leaf): 1.0 for leaf in order[:full]}
    rest = quotient - full
    if rest > EQ_REL_TOL and full < space.n_leaves:
        fractions[int(order[full])] = rest
    return FractionalSet(space, fractions)


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
    if not e.fractions or not e_hat.fractions:
        raise ValueError("both sets must be nonempty")
    avg_e = e.average(weight)
    avg_hat = e_hat.average(weight)
    common = avg_e
    failures: list[str] = []
    if not math.isclose(avg_e, avg_hat, rel_tol=ASSERT_REL_TOL, abs_tol=1e-12):
        failures.append("averages differ")

    n = weight.space.n_leaves
    fe = e.fraction_array(n)
    fh = e_hat.fraction_array(n)
    values = weight.values
    outside = np.minimum(fe, fh) < 1.0 - EQ_REL_TOL
    if np.any(values[outside] > common * (1.0 + ASSERT_REL_TOL) + 1e-300):
        failures.append("value above the common average outside the overlap")
    only_hat = fh - fe > EQ_REL_TOL
    in_e = fe > 0
    if np.any(only_hat) and np.any(in_e):
        if values[only_hat].max() > values[in_e].min() * (1.0 + ASSERT_REL_TOL):
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

def trace_theorem1(weight: DyadicWeight, p: float, t: float) -> DecompositionTrace:
    """Run the whole decomposition at prefix length t and record every check."""
    _check_exponent(p)
    if not 0.0 < t <= 1.0 + EQ_REL_TOL:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    t = min(float(t), 1.0)
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

    maximal = weight.maximal_function()
    exceed = np.flatnonzero(maximal > threshold)
    trace.exceedance_leaves = [int(i) for i in exceed]

    if exceed.size == 0:
        # Nothing exceeds the threshold, so the rearrangement is at most the
        # threshold on (0, t] and the bound follows directly.
        trace.degenerate = True
        vmax = float(weight.values.max())
        push(
            Assertion(
                "max_value_le_threshold",
                vmax,
                threshold,
                vmax <= threshold * (1.0 + ASSERT_REL_TOL),
            )
        )
        push(
            Assertion(
                "prefix_power_le_bound",
                prefix_power,
                bound_value,
                prefix_power <= bound_value * (1.0 + ASSERT_REL_TOL),
            )
        )
        return trace

    stopping = stopping_decomposition(weight, threshold)
    trace.stopping_nodes = stopping
    covered: set[int] = set()
    for node in stopping:
        first, count = space.leaf_range(node)
        covered.update(range(first, first + count))
    mismatch = covered.symmetric_difference(int(i) for i in exceed)
    push(Assertion("stopping_family_covers_exceedance", float(len(mismatch)), 0.0, not mismatch))

    fathers = select_fathers(space, stopping)
    trace.fathers = fathers
    gamma_parts: list[FractionalSet] = []
    for s, father in enumerate(fathers):
        members = tuple(
            n for n in stopping if space.contains(father, space.father(n))
        )
        kernel = FractionalSet.union(
            space, [FractionalSet.from_node(space, n) for n in members]
        )
        father_avg = weight.node_average(father)
        kernel_avg = kernel.average(weight)
        father_measure = space.node_measure(father)
        kernel_measure = kernel.measure
        push(
            Assertion(
                f"father_average_le_threshold[{s}]",
                father_avg,
                threshold,
                father_avg <= threshold * (1.0 + ASSERT_REL_TOL),
            )
        )
        push(
            Assertion(
                f"kernel_average_gt_threshold[{s}]",
                kernel_avg,
                threshold,
                kernel_avg > threshold * (1.0 - ASSERT_REL_TOL),
            )
        )
        lower_ok = kernel_measure >= father_measure / k * (1.0 - ASSERT_REL_TOL)
        upper_ok = kernel_measure < father_measure * (1.0 + ASSERT_REL_TOL)
        push(
            Assertion(
                f"kernel_measure_bounds[{s}]",
                kernel_measure,
                father_measure,
                lower_ok and upper_ok,
            )
        )
        gamma_s, delta_s = build_gamma(weight, father, kernel, threshold)
        gamma_avg = gamma_s.average(weight)
        push(
            Assertion(
                f"gamma_average_matches_threshold[{s}]",
                gamma_avg,
                threshold,
                math.isclose(gamma_avg, threshold, rel_tol=GAMMA_REL_TOL),
            )
        )
        filler = FractionalSet(
            space,
            {
                leaf: frac - kernel.fractions.get(leaf, 0.0)
                for leaf, frac in gamma_s.fractions.items()
                if frac - kernel.fractions.get(leaf, 0.0) > EQ_REL_TOL
            },
        )
        trace.records.append(
            FatherRecord(
                father=father,
                members=members,
                kernel=kernel,
                filler=filler,
                gamma=gamma_s,
                delta=delta_s,
                father_average=father_avg,
                kernel_average=kernel_avg,
                gamma_average=gamma_avg,
            )
        )
        gamma_parts.append(gamma_s)

    gamma = FractionalSet.union(space, gamma_parts)
    gamma_measure = gamma.measure
    trace.gamma_measure = gamma_measure
    trace.father_union_measure = math.fsum(
        space.node_measure(f) for f in fathers
    )
    gamma_avg = gamma.average(weight)
    push(
        Assertion(
            "gamma_average_matches_threshold",
            gamma_avg,
            threshold,
            math.isclose(gamma_avg, threshold, rel_tol=GAMMA_REL_TOL),
        )
    )
    push(
        Assertion(
            "gamma_measure_le_t",
            gamma_measure,
            t,
            gamma_measure <= t * (1.0 + ASSERT_REL_TOL),
        )
    )

    top = build_top_set(weight, t)
    lemma = lemma21_check(weight, top, gamma, p)
    trace.lemma = lemma
    push(
        Assertion(
            "lemma_hypotheses_hold",
            float(lemma.hypotheses_hold),
            1.0,
            lemma.hypotheses_hold,
        )
    )
    gamma_power = gamma.average(weight, p)
    trace.gamma_power_average = gamma_power
    push(
        Assertion(
            "prefix_power_le_gamma_power",
            prefix_power,
            gamma_power,
            prefix_power <= gamma_power * (1.0 + ASSERT_REL_TOL),
        )
    )
    push(
        Assertion(
            "father_union_measure_le_k_gamma",
            trace.father_union_measure,
            k * gamma_measure,
            trace.father_union_measure <= k * gamma_measure * (1.0 + ASSERT_REL_TOL),
        )
    )
    push(
        Assertion(
            "gamma_power_le_bound",
            gamma_power,
            bound_value,
            gamma_power <= bound_value * (1.0 + ASSERT_REL_TOL),
        )
    )
    push(
        Assertion(
            "prefix_power_le_bound",
            prefix_power,
            bound_value,
            prefix_power <= bound_value * (1.0 + ASSERT_REL_TOL),
        )
    )
    return trace
