"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles: node
children and fathers by index arithmetic, recursive per-node summation,
plain enumeration over nodes, dense-grid sup searches,
exact rational arithmetic, the tracer's greedy filler as a plain loop per
father, both constant kernels as single passes over whole arrays, and the
rearrangement as a descending copy merged at each change of value.
Powers and divisions go through numpy elementwise ops, which are
value-deterministic, so the node-enumeration oracle reproduces the
library's cached results bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from treerhi import DecompositionTrace, DyadicWeight, NodeId, StepFunction, TreeSpace
from treerhi.trace import EQ_REL_TOL, _Decomposition
from treerhi.weight import _RANGE_ERROR, _RESOLVED, _power_pair, _scalings


def children(space: TreeSpace, node: NodeId) -> list[NodeId]:
    """The k disjoint children of a non-leaf node, in index order."""
    space.validate(node)
    if node.level >= space.depth:
        raise ValueError(f"{node} is a leaf and has no children")
    base = space.k * node.index
    return [NodeId(node.level + 1, base + j) for j in range(space.k)]


def father(space: TreeSpace, node: NodeId) -> NodeId:
    """The unique node whose children contain the given node."""
    space.validate(node)
    if node.level == 0:
        raise ValueError("the root has no father")
    return NodeId(node.level - 1, node.index // space.k)


def iter_nodes(space: TreeSpace):
    """All nodes of the tree in (level, index) order."""
    for level in range(space.depth + 1):
        for index in range(space.k ** level):
            yield NodeId(level, index)


def node_sum_oracle(leaf_integrals: np.ndarray, space: TreeSpace, node: NodeId):
    """Recursive left-to-right sum of leaf integrals under a node."""
    if node.level == space.depth:
        return leaf_integrals[node.index]
    acc = None
    for child in children(space, node):
        part = node_sum_oracle(leaf_integrals, space, child)
        acc = part if acc is None else acc + part
    return acc


def rhi_oracle(weight: DyadicWeight, p: float) -> tuple[float, NodeId]:
    """Brute-force sup of avg(phi**p)/avg(phi)**p over every node."""
    space = weight.space
    leaf1 = weight.values * space.leaf_measure
    leafp = (weight.values ** p) * space.leaf_measure
    best, witness = -np.inf, None
    for node in iter_nodes(space):
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
    for node in iter_nodes(space):
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
            node = father(space, node)
        out[leaf] = best
    return out


def sorted_leaf_prefix_average(weight: DyadicWeight, t: float) -> float:
    """Average over (0, t] of the leaf values sorted in descending order:
    whole leaves while they fit, then the share of the next one, by fsum."""
    h = weight.space.leaf_measure
    values = sorted(weight.values.tolist(), reverse=True)
    whole = min(int(t / h), len(values))
    terms = [v * h for v in values[:whole]]
    if whole < len(values):
        terms.append(values[whole] * (t - whole * h))
    return math.fsum(terms) / t


def sorted_merge_rearrangement(weight: DyadicWeight) -> tuple[np.ndarray, np.ndarray]:
    """(breakpoints, values) of the rearrangement from a descending copy of
    the leaves, merged at every change of value: the reference for
    rearrangement, which sorts the negated leaves in place."""
    n = weight.space.n_leaves
    desc = np.sort(weight.values)[::-1]
    ends = np.append(np.flatnonzero(desc[1:] != desc[:-1]), n - 1)
    return (ends + 1).astype(np.float64) / n, desc[ends]


def step_leaf_values(h: StepFunction, n_leaves: int) -> np.ndarray:
    """Expand a step function whose breakpoints sit on the grid j/n_leaves."""
    counts = np.rint(h.breakpoints * n_leaves).astype(int)
    if not np.allclose(counts / n_leaves, h.breakpoints, rtol=0, atol=1e-12):
        raise ValueError("breakpoints are not multiples of 1/n_leaves")
    return np.repeat(h.values, np.diff(counts, prepend=0))


def _dense_grid(h: StepFunction, n: int) -> np.ndarray:
    return np.unique(np.concatenate([np.linspace(1.0 / n, 1.0, n), h.breakpoints]))


def _prefix_averages(h: StepFunction, ts: np.ndarray, q: float) -> np.ndarray:
    """prefix_average(h, t, q) at every t of ts, by its own step integrals
    clip(min(bp, t) - left) * v**q, a chunk of grid points at a time."""
    bp = h.breakpoints
    left = np.concatenate(([0.0], bp[:-1]))
    powered = h.values ** q
    out = np.empty(ts.size)
    rows = max(1, 2**20 // bp.size)
    for start in range(0, ts.size, rows):
        t = ts[start:start + rows]
        seg = np.clip(np.minimum(bp, t[:, None]) - left, 0.0, None)
        out[start:start + rows] = seg @ powered / t
    out[ts <= bp[0]] = powered[0]  # constant on (0, t], as prefix_average returns it
    return out


def dense_grid_prefix_sup(h: StepFunction, q: float, n: int = 100_000) -> float:
    """Dense-grid sup of the prefix reverse-Holder ratio."""
    grid = _dense_grid(h, n)
    return float(np.max(_prefix_averages(h, grid, q) / _prefix_averages(h, grid, 1.0) ** q))


def dense_grid_muckenhoupt_sup(h: StepFunction, p: float, n: int = 100_000) -> float:
    m = -1.0 / (p - 1.0)
    grid = _dense_grid(h, n)
    return float(np.max(_prefix_averages(h, grid, 1.0)
                        * _prefix_averages(h, grid, m) ** (p - 1.0)))


def _power(x: np.ndarray, q: float) -> np.ndarray:
    return x if q == 1.0 else x ** q


def whole_prefix_ratios(right: np.ndarray, v: np.ndarray, a: float, b: float,
                        ts: np.ndarray | None):
    """(t, ratio) of the prefix kernel in one pass over all steps, or None out
    of double range: at every breakpoint and interior stationary point, or at
    ts.  The reference for rearrange._ratios_at, which runs in chunks."""
    left = np.concatenate(([0.0], right[:-1]))
    width = right - left

    def mean_in(n0, vq, step, t):
        return (n0[step] + vq[step] * (t - left[step])) / t

    with np.errstate(all="ignore"):
        va, vb = _power(v, a), _power(v, b)
        n = np.concatenate(([0.0], np.cumsum(va * width)))
        d = np.concatenate(([0.0], np.cumsum(vb * width)))
        n0, d0 = n[:-1], d[:-1]
        if ts is None:
            y = -a / b
            z = -1.0 - y
            alpha, gamma = n0 - va * left, d0 - vb * left
            t_in = z * alpha * gamma / (y * va * gamma + alpha * vb)
            step = np.flatnonzero((t_in > left) & (t_in < right))
            t_in = t_in[step]
            ts = np.concatenate([right, t_in])
            mean_a = np.concatenate([n[1:] / right, mean_in(n0, va, step, t_in)])
            mean_b = np.concatenate([d[1:] / right, mean_in(d0, vb, step, t_in)])
        else:
            step = np.minimum(np.searchsorted(right, ts, side="left"), right.size - 1)
            mean_a = mean_in(n0, va, step, ts)
            mean_b = mean_in(d0, vb, step, ts)
        ratio = _power(_power(mean_a, 1.0 / a) / _power(mean_b, 1.0 / b), a)
        lowest = np.minimum(mean_a.min(), mean_b.min())
    if not (np.isfinite(ratio.max()) and lowest >= _RESOLVED):
        return None
    return ts, ratio


def _whole_prefix_retried(h: StepFunction, p: float, dual: bool, ts=None):
    a, b = _power_pair(p, dual)
    for values in _scalings(h.values):
        found = whole_prefix_ratios(h.breakpoints, values, a, b, ts)
        if found is not None:
            return found
    raise ValueError(_RANGE_ERROR.format(p=p))


def whole_prefix_sup(h: StepFunction, p: float, dual: bool) -> tuple[float, float]:
    """(constant, witness t) of the prefix sup from whole_prefix_ratios."""
    ts, vals = _whole_prefix_retried(h, p, dual)
    best = np.max(vals)
    return float(best), float(np.max(ts[vals == best]))


def whole_ratio_curve(h: StepFunction, q: float, n_samples: int) -> np.ndarray:
    """rearrange.ratio_curve from whole_prefix_ratios."""
    grid = np.unique(
        np.concatenate([np.linspace(1.0 / n_samples, 1.0, n_samples), h.breakpoints]))
    return np.column_stack(_whole_prefix_retried(h, q, False, grid))


def whole_node_ratio_sup(weight: DyadicWeight, a: float, b: float):
    """Sup and witness of the node kernel, one whole level at a time over
    level_averages, or None out of double range.  The reference for
    DyadicWeight._ratio_sup, which sums and compares blocks of leaves."""
    y = -a / b
    best = -np.inf
    witness = weight.space.root
    with np.errstate(all="ignore"):
        nums, dens = weight.level_averages(a), weight.level_averages(b)
        for level in range(weight.space.depth + 1):
            num, den = nums[level], dens[level]
            powered = den ** abs(y)
            ratio = num / powered if y < 0 else num * powered
            lowest = den.min()
            if lowest > 0:
                lowest = min(lowest, num.min(), powered.min())
            else:
                live = den > 0
                ratio = np.where(live, ratio, -np.inf)
                lowest = np.minimum(np.minimum(num, den), powered)
                lowest = np.min(lowest, where=live, initial=np.inf)
            i = int(np.argmax(ratio))
            if not (np.isfinite(ratio[i]) and lowest >= _RESOLVED):
                return None
            if ratio[i] > best:
                best = float(ratio[i])
                witness = NodeId(level, i)
    return best, witness


def whole_node_sup(weight: DyadicWeight, p: float, dual: bool) -> tuple[float, NodeId]:
    """(constant, witness) of the node sup from whole_node_ratio_sup, with
    DyadicWeight._node_sup's rescaled retries."""
    a, b = _power_pair(p, dual)
    for values in _scalings(weight.values):
        found = whole_node_ratio_sup(DyadicWeight(weight.space, values), a, b)
        if found is not None:
            return found
    raise ValueError(_RANGE_ERROR.format(p=p))


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


def fractions(s) -> dict[int, float]:
    """Leaf -> fraction for the leaves in a FractionalSet, in leaf order."""
    return {s.first + i: f for i, f in enumerate(s.window.tolist()) if f}


def greedy_fill(values, kernel, mass: float, total: float, threshold: float, h: float,
                active: bool):
    """One father's filler by the scalar greedy loop, as (gamma, filler, delta).

    The free share of each leaf joins in ascending value order (stable, so
    ties go by leaf): whole while the running average stays above the
    threshold or the leaf is not below it, then the next leaf fractionally so
    that the average equals the threshold.  The reference for the tracer's
    per-level filler.
    """
    values = np.asarray(values, dtype=np.float64)
    gamma = np.array(kernel, dtype=np.float64)
    if active:
        rem = 1.0 - gamma
        free = (rem > 0).nonzero()[0]
        free = free[values[free].argsort(kind="stable")]
        for leaf, value, r in zip(free.tolist(), values[free].tolist(), rem[free].tolist()):
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
    added = gamma - np.asarray(kernel, dtype=np.float64)
    rest = 1.0 - gamma
    return (gamma, np.where(added > EQ_REL_TOL, added, 0.0),
            np.where(rest > EQ_REL_TOL, rest, 0.0))


def trace_from_columns(decomposition: _Decomposition, tail, **fields) -> DecompositionTrace:
    """A trace of the given fields over a hand-built decomposition and the
    rows (name, lhs, rhs, holds) of its checks at p, ``tail``: it reads them
    as the tracer's traces read theirs."""
    trace = DecompositionTrace(**fields)
    trace._source = decomposition, tuple(tail)
    return trace


def trace_to_dict(trace) -> dict:
    """A trace as plain JSON values; ``json.dumps(..., indent=2)`` of this
    dict is the reference for ``DecompositionTrace.to_json``."""
    def node(n: NodeId) -> list[int]:
        return [n.level, n.index]

    def fset(s) -> dict:
        return {str(leaf): frac for leaf, frac in fractions(s).items()}

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
