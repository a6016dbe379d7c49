"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles: recursive
per-node summation, plain enumeration over nodes, dense-grid sup searches
and exact rational arithmetic.  Powers and divisions go through numpy
elementwise ops, which are value-deterministic, so the node-enumeration
oracle reproduces the library's cached results bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from treerhi import DyadicWeight, NodeId, StepFunction, TreeSpace
from treerhi.rearrange import prefix_average


def node_sum_oracle(leaf_integrals: np.ndarray, space: TreeSpace, node: NodeId):
    """Recursive left-to-right sum of leaf integrals under a node."""
    if node.level == space.depth:
        return leaf_integrals[node.index]
    acc = None
    for child in space.children(node):
        part = node_sum_oracle(leaf_integrals, space, child)
        acc = part if acc is None else acc + part
    return acc


def rhi_oracle(weight: DyadicWeight, p: float) -> tuple[float, NodeId]:
    """Brute-force sup of avg(phi**p)/avg(phi)**p over every node."""
    space = weight.space
    leaf1 = weight.values * space.leaf_measure
    leafp = (weight.values ** p) * space.leaf_measure
    best, witness = -np.inf, None
    for node in space.iter_nodes():
        measure = space.node_measure(node)
        a1 = node_sum_oracle(leaf1, space, node) / measure
        if a1 <= 0:
            continue
        ap = node_sum_oracle(leafp, space, node) / measure
        ratio = ap / (np.array([a1]) ** p)[0]
        if ratio > best:
            best, witness = ratio, node
    return float(best), witness


def muckenhoupt_oracle(weight: DyadicWeight, p: float) -> tuple[float, NodeId]:
    space = weight.space
    m = -1.0 / (p - 1.0)
    leaf1 = weight.values * space.leaf_measure
    leafm = (weight.values ** m) * space.leaf_measure
    best, witness = -np.inf, None
    for node in space.iter_nodes():
        measure = space.node_measure(node)
        a1 = node_sum_oracle(leaf1, space, node) / measure
        am = node_sum_oracle(leafm, space, node) / measure
        ratio = a1 * (np.array([am]) ** (p - 1.0))[0]
        if ratio > best:
            best, witness = ratio, node
    return float(best), witness


def maximal_oracle(weight: DyadicWeight) -> np.ndarray:
    """Per leaf, the max average over the ancestor chain, by direct walk."""
    space = weight.space
    out = np.empty(space.n_leaves)
    for leaf in range(space.n_leaves):
        node = NodeId(space.depth, leaf)
        best = -np.inf
        while True:
            best = max(best, weight.node_average(node))
            if node.level == 0:
                break
            node = space.father(node)
        out[leaf] = best
    return out


def step_leaf_values(h: StepFunction, n_leaves: int) -> np.ndarray:
    """Expand a step function whose breakpoints sit on the grid j/n_leaves."""
    counts = np.rint(h.breakpoints * n_leaves).astype(int)
    if not np.allclose(counts / n_leaves, h.breakpoints, rtol=0, atol=1e-12):
        raise ValueError("breakpoints are not multiples of 1/n_leaves")
    return np.repeat(h.values, np.diff(counts, prepend=0))


def dense_grid_prefix_sup(h: StepFunction, q: float, n: int = 100_000) -> float:
    """Dense-grid sup of the prefix reverse-Holder ratio."""
    grid = np.unique(np.concatenate([np.linspace(1.0 / n, 1.0, n), h.breakpoints]))
    best = -np.inf
    for t in grid:
        ratio = prefix_average(h, t, q) / prefix_average(h, t, 1.0) ** q
        best = max(best, ratio)
    return best


def dense_grid_muckenhoupt_sup(h: StepFunction, p: float, n: int = 100_000) -> float:
    m = -1.0 / (p - 1.0)
    grid = np.unique(np.concatenate([np.linspace(1.0 / n, 1.0, n), h.breakpoints]))
    best = -np.inf
    for t in grid:
        ratio = prefix_average(h, t, 1.0) * prefix_average(h, t, m) ** (p - 1.0)
        best = max(best, ratio)
    return best


def _integer_powers(values, q: int) -> tuple[list[int], int]:
    """Integers P and D with P[i] / D == values[i]**q exactly."""
    powers = [Fraction(float(v)) ** q for v in values]
    den = math.lcm(*(x.denominator for x in powers))
    return [x.numerator * (den // x.denominator) for x in powers], den


def exact_log_constants(weight: DyadicWeight, a: int, b: int, y: Fraction):
    """Natural logs of the dyadic and prefix sups of avg(v**a) * avg(v**b)**y.

    Integer exponents make every average a ratio of exact integers (over a
    common denominator, so no fraction is ever reduced); only the final
    logarithms round.  The prefix sup runs over every breakpoint and the
    stationary point inside each step, all exact.
    """
    pa, den_a = _integer_powers(weight.values, a)
    pb, den_b = _integer_powers(weight.values, b)
    yf = float(y)
    log_den = math.log(den_a) + yf * math.log(den_b)

    space = weight.space
    dyadic = -math.inf
    sums_a, sums_b = pa, pb
    for level in range(space.depth, -1, -1):
        count = space.k ** (space.depth - level)
        for sa, sb in zip(sums_a, sums_b):
            if sb > 0:
                dyadic = max(dyadic, math.log(sa) + yf * math.log(sb)
                             - (1 + yf) * math.log(count) - log_den)
        sums_a = [sum(sums_a[i:i + space.k]) for i in range(0, len(sums_a), space.k)]
        sums_b = [sum(sums_b[i:i + space.k]) for i in range(0, len(sums_b), space.k)]

    # In units tau = n*t, step j is (j, j+1], and n*den*N = alpha + P[j]*tau.
    order = np.argsort(-weight.values, kind="stable")
    z = -1 - y
    prefix = -math.inf
    cum_a = cum_b = 0
    for j, leaf in enumerate(order):
        va, vb = pa[leaf], pb[leaf]
        alpha, gamma = cum_a - va * j, cum_b - vb * j
        taus = [(j + 1, 1)]
        num = z.numerator * y.denominator * alpha * gamma
        den = z.denominator * (y.numerator * va * gamma + y.denominator * alpha * vb)
        if den < 0:
            num, den = -num, -den
        if den > 0 and j * den < num < (j + 1) * den:
            taus.append((num, den))
        for u, v in taus:  # tau = u / v; the mean of h**a is (alpha*v + va*u) / (den_a*u)
            mean_a, mean_b = alpha * v + va * u, gamma * v + vb * u
            prefix = max(prefix, math.log(mean_a) + yf * math.log(mean_b)
                         - (1 + yf) * math.log(u) - log_den)
        cum_a += va
        cum_b += vb
    return dyadic, prefix


def trace_to_dict(trace) -> dict:
    """A trace as plain JSON values; ``json.dumps(..., indent=2)`` of this
    dict is the reference for ``DecompositionTrace.to_json``."""
    def node(n: NodeId) -> list[int]:
        return [n.level, n.index]

    def fset(s) -> dict:
        return {str(leaf): frac for leaf, frac in s.fractions.items()}

    return {
        "k": trace.k,
        "depth": trace.depth,
        "p": trace.p,
        "t": trace.t,
        "threshold": trace.threshold,
        "degenerate": trace.degenerate,
        "rhi_constant": trace.rhi_constant,
        "rhi_witness": node(trace.rhi_witness),
        "bound_factor": trace.bound_factor,
        "bound_value": trace.bound_value,
        "prefix_power_average": trace.prefix_power_average,
        "gamma_power_average": trace.gamma_power_average,
        "gamma_measure": trace.gamma_measure,
        "father_union_measure": trace.father_union_measure,
        "exceedance_leaves": list(trace.exceedance_leaves),
        "stopping_nodes": [node(n) for n in trace.stopping_nodes],
        "fathers": [node(n) for n in trace.fathers],
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
            for r in trace.records
        ],
        "lemma": None
        if trace.lemma is None
        else {
            "hypotheses_hold": trace.lemma.hypotheses_hold,
            "conclusion_holds": trace.lemma.conclusion_holds,
            "lhs": trace.lemma.lhs,
            "rhs": trace.lemma.rhs,
            "average": trace.lemma.average,
            "failures": list(trace.lemma.failures),
        },
        "assertions": [
            {"name": a.name, "lhs": a.lhs, "rhs": a.rhs, "holds": a.holds}
            for a in trace.assertions
        ],
    }
