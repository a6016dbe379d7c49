"""Stopping-time decomposition of a tree weight, executed as an algorithm.

Given a weight, an exponent p and a prefix length t, the tracer computes the
prefix-average threshold, the maximal nodes whose average exceeds it, their
fathers, the per-father kernels, the fractional fillers that pin each union's
average exactly at the threshold, and the top set of measure t.  Every
inequality the construction relies on is evaluated numerically and recorded,
ending with the bound k*(c-1)+1 on the power average, where c is the
reverse-Holder constant over the tree nodes.  Everything up to the power
averages is built from the threshold alone, so a caller tracing one weight
at several prefix lengths and exponents decomposes each length once and
computes the rearrangement, the one sort of the leaves, and each exponent's
node sup once (_traces); the rearrangement gives the threshold, the maximum
and every top set.

The stopping family and its maximal fathers, owners and cover come from one
top-down walk over the levels (_walk).  Maximal fathers are disjoint, so a
trace stores O(n) fractions for n leaves and costs O(n log n).  The
decomposition is kept as columns: each level of fathers, whose blocks are
equal, fills its kernels, fillers, Gamma and delta sets as F x span rows of
one frozen array, with a fixed number of numpy calls (one stable sort per
row; the greedy filler's running sums are seeded cumsums, which add in the
filler's own order), and the four per-father checks are decided on whole
columns of averages and measures (a degenerate trace's have no fathers).
``to_json`` (through the writer in jsontext.py), ``all_hold`` and
``assertion_table`` read only the columns, so tracing, checking and writing a
trace make no per-father objects; ``records`` and ``assertions`` are
read-only tuples built from them on first read.  The sets are
sets.FractionalSet.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import ClassVar, NamedTuple

import numpy as np

from .exponents import transference_bound
from .jsontext import _NL, _table, _template, _Writer
from .rearrange import StepFunction, _check_t, prefix_average, rearrangement
from .sets import EQ_REL_TOL, FractionalSet, _check_fractions, _powers
from .tree import NodeId, TreeSpace
from .weight import _RESOLVED, DyadicWeight, RhiReport, _check_exponent, _power_average

GAMMA_REL_TOL = 1e-10
ASSERT_REL_TOL = 1e-9


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
    # the field order is the key order of to_json; a trace is made by _trace_at
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
    records: tuple[FatherRecord, ...] = field(init=False)  # built on read: __getattr__
    lemma: Lemma21Result | None = None
    assertions: tuple[Assertion, ...] = field(init=False)
    # the decomposition and the rows of its checks at p
    _source: ClassVar[tuple[_Decomposition, tuple[tuple, ...]]]

    def __getattr__(self, name: str):
        """``records`` or ``assertions``, read for the first time."""
        if name == "records":
            built = self._source[0].father_records()
        elif name == "assertions":
            built = tuple(itertools.starmap(Assertion, zip(*self.assertion_table().values())))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = built
        return built

    @property
    def all_hold(self) -> bool:
        d, tail = self._source
        return all(row[3] for row in d.checks + tail) and bool(d.holds.all())

    def assertion_table(self) -> dict[str, list]:
        """The assertions as the columns name, lhs, rhs and holds."""
        return self._source[0].assertion_table(self._source[1])

    def to_json(self, config: dict | None = None) -> str:
        """The text ``json.dumps(..., indent=2)`` writes for this trace as a
        dict: its fields in declaration order, then ``config`` when given."""
        d, tail = self._source
        w = _Writer()
        f = len(d.fathers)
        # the records and the per-father assertions share the texts of the
        # averages and measures
        texts = w.items(d.values.ravel().tolist(), 3)
        values = [texts[i * f:(i + 1) * f] for i in range(5)]
        texts = w.items(d.holds.ravel().tolist(), 3)
        family = _family_columns(values, w.floats([float(d.threshold)])[0],
                                 [texts[i * f:(i + 1) * f] for i in range(4)])
        fa, ka, _, ga, _ = values
        # a table's columns are dropped once it is written: kept, the texts of
        # the sets and checks would sit beside the whole trace's text at its peak
        fields = {"records": _table(FatherRecord, [
            w.items(d.fathers, 3), w.lists(d.members, 3),
            *w.set_maps(d.firsts, d.sizes, d.sets, 3), fa, ka, ga], 1)}
        assertions = []
        for before, after, per_father in zip(*d.check_columns(tail),
                                             [_family_names(f, encode_basestring_ascii), *family]):
            texts = w.items(before + after, 3)
            assertions.append(texts[:len(before)] + per_father + texts[len(before):])
        fields["assertions"] = _table(Assertion, assertions, 1)
        del values, family, assertions, texts
        if self.lemma is not None:  # an object, as the tables write theirs
            keys, form = _template(Lemma21Result, 1)
            fields["lemma"] = form % tuple(w.items([getattr(self.lemma, n) for n in keys], 2))
        names, template = _template(DecompositionTrace, 0, () if config is None else ("config",))
        if config is not None:  # one more key of the template: the text is formed once
            fields["config"] = json.dumps(config, indent=2).replace("\n", _NL[1])
        scalars = [n for n in names if n not in fields]
        fields.update(zip(scalars, w.items([getattr(self, n) for n in scalars], 1)))
        return template % tuple(map(fields.__getitem__, names))


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


def _at_most(lhs, rhs):
    """Whether lhs is at most rhs up to ASSERT_REL_TOL, for floats or arrays."""
    return lhs <= rhs * (1.0 + ASSERT_REL_TOL)


def _isclose(a: np.ndarray, b: float, rel_tol: float) -> np.ndarray:
    """math.isclose(x, b, rel_tol=rel_tol) for each x of a: a finite
    difference within rel_tol of either side; an infinite b is close only
    to itself."""
    if not math.isfinite(b):
        return a == b
    diff = abs(b - a)  # infinite or NaN when x is
    return np.isfinite(diff) & (diff <= np.maximum(abs(rel_tol * b), abs(rel_tol * a)))


def stopping_decomposition(weight: DyadicWeight, threshold: float) -> list[NodeId]:
    """Maximal nodes whose average exceeds the threshold (_exceeds): the picks
    of _walk.  They are pairwise disjoint, their leaves are exactly the set
    where the maximal function exceeds the threshold, and the root must not
    qualify."""
    if not threshold > 0:  # negated, so that NaN is refused too
        raise ValueError(f"threshold must be > 0, got {threshold}")
    return _node_ids(_walk(weight.space, _exceeding(weight, threshold))[0])


def select_fathers(space: TreeSpace, stopping_nodes: list[NodeId]) -> list[NodeId]:
    """Fathers of the stopping family, deduplicated and reduced to maximal
    ones, root first (see _walk).  A node under another is left out of the
    walk: its father lies under the other's, so it adds no maximal father."""
    if not stopping_nodes:
        raise ValueError("stopping family is empty")
    if any(n.level == 0 for n in stopping_nodes):
        raise ValueError("stopping family contains the root, which has no father")
    outside = [n for n in stopping_nodes
               if not (0 < n.level <= space.depth and 0 <= n.index < space.k ** n.level)]
    if outside:
        raise ValueError(f"a stopping node at level {min(outside).level} lies outside the tree")
    levels, indices = np.array(stopping_nodes, dtype=np.int64).reshape(-1, 2).T
    masks = (np.bincount(indices[levels == level], minlength=space.k ** level) > 0
             for level in range(space.depth + 1))
    return _node_ids(_walk(space, masks)[1])


def _exceeding(weight: DyadicWeight, threshold: float):
    """Per level, root first, whether each node's average exceeds the threshold."""
    k = float(weight.space.k)  # level_averages(1.0), a level at a time
    return (_exceeds(s / k ** -level, threshold) for level, s in enumerate(weight.level_sums(1.0)))


def _walk(space: TreeSpace, masks) -> tuple[list, list, list, np.ndarray]:
    """One top-down walk over ``masks``, a bool array per level, root first:
    per level, the indices of the maximal nodes of the masks (the picks), of
    their maximal fathers (none at the leaves) and of the father holding each
    pick, counted root first; and the picks' cover of the leaves.  A pick is
    a node of its mask under no earlier pick (``blocked``); a pick's parent
    that no kept father holds (``held``, -1 if none) is kept.  Both are
    repeated k-fold from level to level.  A root in its mask is refused."""
    masks = iter(masks)
    if next(masks).any():
        raise ValueError("root average exceeds the threshold")
    blocked, held, none = np.zeros(1, dtype=bool), np.full(1, -1), np.zeros(0, dtype=np.intp)
    picks, fathers, owners, k = [none], [], [none], space.k
    for mask in masks:
        blocked = blocked.repeat(k)
        picked = mask > blocked
        index = picked.nonzero()[0]
        kept = parents = none
        if index.size:
            parents = index // k
            kept = ((np.bincount(parents, minlength=held.size) > 0) & (held < 0)).nonzero()[0]
            held[kept] = np.arange(kept.size) + sum(map(len, fathers))
            blocked |= picked
        picks.append(index)
        fathers.append(kept)
        owners.append(held[parents])  # each pick's father is kept or held
        held = held.repeat(k)
    return picks, fathers, owners, blocked


def _node_ids(levels: list[np.ndarray]) -> list[NodeId]:
    """The nodes of per-level index arrays, root first."""
    return [NodeId(level, i) for level, index in enumerate(levels) for i in index.tolist()]


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
    kernel_avg, father_avg = total / mass, weight.node_average(father)
    if kernel_avg < threshold * (1.0 - EQ_REL_TOL):
        raise ValueError("kernel average must be at least the threshold")
    if father_avg > threshold * (1.0 + EQ_REL_TOL):
        raise ValueError("father average must not exceed the threshold")
    first, count = space.leaf_range(father)
    sets = np.zeros((4, 1, count))
    sets[0, 0] = kernel.fraction_array(first, count)
    active = [not math.isclose(kernel_avg, threshold, rel_tol=EQ_REL_TOL)]
    _fill(weight.values[None, first:first + count], sets, [[mass], [total]], threshold,
          space.leaf_measure, active)
    return FractionalSet(space, first, sets[2, 0]), FractionalSet(space, first, sets[3, 0])


def _top_fractions(weight: DyadicWeight, star: StepFunction, t: float) -> np.ndarray:
    """Read-only fractions of the greedy top set of measure t over the tree:
    by descending value, ties by leaf, ``full`` leaves whole and the next by
    ``rest``.  So every leaf above the level, star's value at rank ``full``,
    is whole, and so are the first leaves at it up to that rank."""
    n, values = weight.space.n_leaves, weight.values
    quotient = t / weight.space.leaf_measure
    full = int(round(quotient)) if abs(quotient - round(quotient)) < 1e-9 else int(quotient)
    if full >= n:
        fractions = np.ones(n)
    else:
        level = star.values[star.breakpoints.searchsorted((full + 0.5) / n)]
        fractions = (values > level).astype(np.float64)
        at = np.flatnonzero(values == level)
        whole = full - np.count_nonzero(fractions)  # the leaves at the level taken whole
        fractions[at[:whole]] = 1.0
        rest = quotient - full
        if rest > EQ_REL_TOL:
            fractions[at[whole]] = rest
    fractions.setflags(write=False)
    return fractions


def build_top_set(weight: DyadicWeight, t: float) -> FractionalSet:
    """Greedy top set of measure t: leaves by descending value, one fractional,
    read from the rearrangement.  Its average equals the rearrangement's
    prefix average over (0, t]."""
    fractions = _top_fractions(weight, rearrangement(weight), _check_t(t))
    return FractionalSet._checked(weight.space, 0, fractions)  # shares 1 and rest < 1


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
    sides = _lemma_sides(weight, e.fraction_array(), e_hat.fraction_array(),
                         e_hat.measure, e_hat.integral(weight))
    return _lemma_conclusion(weight, sides, p)


class _LemmaSides(NamedTuple):
    """The half of lemma21_check that does not depend on p; ``fe`` and
    ``fh`` are the sets' fractions at the leaves either set holds,
    ``support``."""
    support: np.ndarray
    fe: np.ndarray
    fh: np.ndarray
    measure_e: float
    measure_hat: float
    average: float
    failures: tuple[str, ...]


def _lemma_sides(weight: DyadicWeight, fe: np.ndarray, fh: np.ndarray,
                 measure_hat: float, integral_hat: float) -> _LemmaSides:
    """The common average and the failed hypotheses of lemma21_check, from
    the sets' fractions over the whole tree, fe and fh, and e_hat's measure
    and integral.  Every check compares values of degree 1, relatively."""
    if not (fe.any() and fh.any()):
        raise ValueError("both sets must be nonempty")
    values = weight.values
    h = weight.space.leaf_measure
    support = np.logical_or(fe, fh).nonzero()[0]
    fe_in = fe[support]
    # fsum is correctly rounded, so the leaves outside e change no bit
    measure_e = math.fsum(fe_in.tolist()) * h  # average = integral / measure
    common = _power_average(  # e's average
        1.0, values, lambda: math.fsum((fe_in * values[support]).tolist()) * h / measure_e)
    failures: list[str] = []
    if not math.isclose(common, integral_hat / measure_hat, rel_tol=ASSERT_REL_TOL):
        failures.append("averages differ")

    outside = np.minimum(fe, fh) < 1.0 - EQ_REL_TOL
    if (values[outside] > common * (1.0 + ASSERT_REL_TOL)).any():
        failures.append("value above the common average outside the overlap")
    only_hat = fh - fe > EQ_REL_TOL
    if only_hat.any():  # e is nonempty, checked above
        if values[only_hat].max() > values[fe > 0].min() * (1.0 + ASSERT_REL_TOL):
            failures.append("value in e_hat minus e above a value in e")
    return _LemmaSides(support, fe_in, fh[support], measure_e, measure_hat, common,
                       tuple(failures))


def _lemma_conclusion(weight: DyadicWeight, sides: _LemmaSides, p: float) -> Lemma21Result:
    """The power averages over e and e_hat at p, compared."""
    values, h = weight.values[sides.support], weight.space.leaf_measure

    def averages() -> tuple[float, float]:
        vp = _powers(values, p)
        return (math.fsum((sides.fe * vp).tolist()) * h / sides.measure_e,
                math.fsum((sides.fh * vp).tolist()) * h / sides.measure_hat)

    lhs, rhs = _power_average(p, values, averages)
    return Lemma21Result(
        hypotheses_hold=not sides.failures,
        conclusion_holds=lhs <= rhs * (1.0 + EQ_REL_TOL),
        lhs=lhs,
        rhs=rhs,
        average=sides.average,
        failures=sides.failures,
    )


# ---------------------------------------------------------------------------
# Full trace
# ---------------------------------------------------------------------------

# the checks of each father, in the order of its assertions
FAMILIES = ("father_average_le_threshold", "kernel_average_gt_threshold",
            "kernel_measure_bounds", "gamma_average_matches_threshold")


def _family_names(count: int, spell=str) -> list[str]:
    """The names "name[s]" of the per-father checks, FAMILIES of father 0,
    then of father 1, ... up to count, by one %-format of a block that spell
    writes (encode_basestring_ascii for their JSON strings)."""
    block = "".join(spell(name + "[%d]") + "\n" for name in FAMILIES)
    indices = itertools.chain.from_iterable(zip(*[range(count)] * len(FAMILIES)))
    return (block * count % tuple(indices)).split("\n")[:-1]


def _family_columns(values: list[list], threshold, holds: list[list]) -> list[list]:
    """The columns lhs, rhs and holds of the per-father checks, FAMILIES of
    father 0, then of father 1, ...: from the rows of a decomposition's
    ``values`` and ``holds`` and its threshold, as values or as their texts."""
    fa, ka, km, ga, fm = values
    threshold = itertools.repeat(threshold)
    return [list(itertools.chain.from_iterable(c)) for c in (
        zip(fa, ka, km, ga), zip(threshold, threshold, fm, threshold), zip(*holds))]


def trace_theorem1(weight: DyadicWeight, p: float, t: float) -> DecompositionTrace:
    """Run the whole decomposition at prefix length t and record every check."""
    return next(_traces(weight, (p,), (t,)))


class _Decomposition(NamedTuple):
    """The part of a trace at prefix length t that does not depend on p: it
    is built from the threshold alone.  When the trace is degenerate
    (nothing exceeds the threshold) it has no fathers and ``lemma`` is None.

    ``checks`` are the rows (name, lhs, rhs, holds) of the checks, but for
    the per-father ones, which follow the first row.  Father s owns
    ``sizes[s]`` leaves from ``firsts[s]`` on, and its kernel, filler, Gamma
    and delta are its slices of the rows of ``sets``.  Its FAMILIES compare
    ``values[:4, s]`` (its father average, kernel average, kernel measure and
    Gamma average) with the threshold, the kernel measure with its measure
    ``values[4, s]``; ``holds[:, s]`` are the verdicts.
    """
    space: TreeSpace
    t: float
    threshold: float
    exceedance_leaves: tuple[int, ...]
    checks: tuple[tuple, ...]
    stopping_nodes: tuple[NodeId, ...]
    fathers: tuple[NodeId, ...]
    members: tuple[list[NodeId], ...]
    firsts: np.ndarray
    sizes: np.ndarray
    sets: np.ndarray
    values: np.ndarray
    holds: np.ndarray
    gamma_measure: float = 0.0
    father_union_measure: float = 0.0
    lemma: _LemmaSides | None = None

    def check_columns(self, tail: tuple[tuple, ...]) -> tuple[list, list]:
        """The columns (name, lhs, rhs, holds) of the assertions before the
        per-father ones, the first check, and of those after them, the other
        checks and then the rows of tail."""
        return tuple([list(c) for c in zip(*rows)] or [[], [], [], []]
                     for rows in (self.checks[:1], self.checks[1:] + tail))

    def assertion_table(self, tail: tuple[tuple, ...]) -> dict[str, list]:
        """The columns of the assertions: these checks, then the rows of tail."""
        head, rest = self.check_columns(tail)
        names = _family_names(len(self.fathers))
        family = _family_columns(self.values.tolist(), float(self.threshold), self.holds.tolist())
        return dict(zip(_template(Assertion, 0)[0],
                        (a + b + c for a, b, c in zip(head, [names, *family], rest))))

    def father_records(self) -> tuple[FatherRecord, ...]:
        """The father records; each set is a read-only view of ``sets``."""
        fa, ka, _, ga, _ = self.values.tolist()
        return tuple(FatherRecord(father, tuple(members), *[FractionalSet._checked(
                         self.space, first, row[end - size:end]) for row in self.sets], *averages)
                     for father, members, first, size, end, *averages in zip(
                         self.fathers, self.members, self.firsts.tolist(), self.sizes.tolist(),
                         self.sizes.cumsum().tolist(), fa, ka, ga))


# the firsts, sizes, sets, values and holds of a decomposition without fathers
_NO_FATHERS = (np.zeros(0, int), np.zeros(0, int), np.zeros((4, 0)), np.zeros((5, 0)),
               np.zeros((4, 0), bool))
for _column in _NO_FATHERS:
    _column.setflags(write=False)


def _decompositions(weight: DyadicWeight, ps, ts):
    """(p, star, d) for each t of ts and, within it, each p of ps, once p
    passes its checks: d is the decomposition at t, built at t's first p,
    and star the rearrangement, the one sort of the leaves.  A refusal comes
    where separate traces would raise it, and ends the run."""
    star = None
    for t in ts:
        d = None
        for p in ps:
            _check_exponent(p)
            if d is None:
                t = _check_t(t)
                if star is None:
                    if not weight.values.any():
                        raise ValueError("weight is identically zero")
                    star = rearrangement(weight)
                threshold = prefix_average(star, t, 1.0)
            # every power average the trace sums from leaf powers lies in [A**p, max**p]
            for v in (threshold, star.values[0]):
                if not (v > 0 and math.log2(_RESOLVED) <= p * math.log2(v) < 1024):
                    raise ValueError(f"threshold**p or max**p leaves the double range at p={p}")
            if d is None:
                d = _decompose(weight, t, threshold, star)
            yield p, star, d


def _traces(weight: DyadicWeight, ps, ts):
    """trace_theorem1(weight, p, t) for each (t, p) of _decompositions; the
    node sup at p is computed at p's first trace."""
    rhis: dict[float, RhiReport] = {}
    for p, star, d in _decompositions(weight, ps, ts):
        prefix_power = prefix_average(star, d.t, p)
        if p not in rhis:
            rhis[p] = weight.dyadic_rhi_constant(p)
        yield _trace_at(d, weight, p, prefix_power, rhis[p])


def _trace_at(d: _Decomposition, weight: DyadicWeight, p: float, prefix_power: float,
              rhi: RhiReport) -> DecompositionTrace:
    """The trace at exponent p, from the shared decomposition."""
    k = weight.space.k
    bound_factor = transference_bound(rhi.constant, k)
    bound_value = bound_factor * d.threshold ** p
    if math.isinf(bound_value):
        raise ValueError(f"bound_value = bound_factor * threshold**p overflows at p={p}")
    trace = DecompositionTrace(
        k=k, depth=weight.space.depth, p=p, t=d.t, threshold=d.threshold,
        degenerate=d.lemma is None, rhi_constant=rhi.constant, rhi_witness=rhi.witness,
        bound_factor=bound_factor, bound_value=bound_value, prefix_power_average=prefix_power,
        gamma_measure=d.gamma_measure, father_union_measure=d.father_union_measure,
        exceedance_leaves=list(d.exceedance_leaves), stopping_nodes=list(d.stopping_nodes),
        fathers=list(d.fathers))
    tail = []
    if d.lemma is not None:  # else nothing exceeds the threshold
        lemma = trace.lemma = _lemma_conclusion(weight, d.lemma, p)
        trace.gamma_power_average = gamma = lemma.rhs  # the power average over Gamma
        union, k_gamma = d.father_union_measure, k * d.gamma_measure
        tail = [("lemma_hypotheses_hold", float(lemma.hypotheses_hold), 1.0,
                 lemma.hypotheses_hold),
                ("prefix_power_le_gamma_power", prefix_power, gamma,
                 _at_most(prefix_power, gamma)),
                ("father_union_measure_le_k_gamma", union, k_gamma, _at_most(union, k_gamma)),
                ("gamma_power_le_bound", gamma, bound_value, _at_most(gamma, bound_value))]
    tail.append(("prefix_power_le_bound", prefix_power, bound_value,
                 _at_most(prefix_power, bound_value)))
    trace._source = (d, tuple(tail))
    return trace


def _decompose(weight: DyadicWeight, t: float, threshold: float,
               star: StepFunction) -> _Decomposition:
    """Stopping family, fathers, fills, Gamma and top set at this threshold,
    with the checks that do not read p; ``star`` is the rearrangement, which
    gives the maximum and the top set."""
    space = weight.space
    k = space.k
    exceeds = _exceeds(weight.maximal_function(), threshold)
    exceedance_leaves = tuple(exceeds.nonzero()[0].tolist())

    if not exceedance_leaves:
        # Nothing exceeds the threshold, so the rearrangement is at most the
        # threshold on (0, t] and the bound follows directly.
        top = float(star.values[0])
        checks = (("max_value_le_threshold", top, threshold, _at_most(top, threshold)),)
        return _Decomposition(space, t, threshold, exceedance_leaves, checks, (), (), (),
                              *_NO_FATHERS)

    picks, levels, owners, covered = _walk(space, _exceeding(weight, threshold))
    stopping, fathers = _node_ids(picks), _node_ids(levels)
    mismatch = int(np.count_nonzero(covered != exceeds))
    sizes = np.repeat(k ** (space.depth - np.arange(len(levels))), list(map(len, levels)))
    firsts = np.concatenate(levels) * sizes
    members: list[list[NodeId]] = [[] for _ in fathers]
    for node, s in zip(stopping, np.concatenate(owners).tolist()):
        members[s].append(node)

    h = space.leaf_measure
    sums = weight.level_sums(1.0)
    union = np.zeros(space.n_leaves)
    # father average, kernel average, kernel measure, Gamma average and father
    # measure; the kernel is the members' 0/1 cover, so its sum is their leaf count
    values = np.empty((5, len(fathers)))
    fa, ka, km, ga, fm = values
    ends = sizes.cumsum()
    sets = np.empty((4, int(ends[-1])))  # kernel, filler, gamma and delta
    s = 0
    for level, index in itertools.compress(enumerate(levels), map(len, levels)):
        span, count = int(sizes[s]), len(index)
        part = slice(s, s + count)
        start = int(ends[s]) - span
        level_sets = sets[:, start:start + count * span].reshape(4, count, span)
        level_sets[0] = covered.reshape(-1, span)[index]
        np.multiply(level_sets[0].sum(axis=1), h, out=km[part])
        leaf_values = weight.values.reshape(-1, span).take(index, axis=0)
        kernel_integral = _power_average(1.0, leaf_values, lambda: np.fromiter(
            map(math.fsum, (level_sets[0] * leaf_values).tolist()), np.float64, count) * h)
        np.divide(kernel_integral, km[part], out=ka[part])
        fm[part] = space.node_measure(fathers[s])
        np.divide(sums[level].take(index), fm[part], out=fa[part])  # level_averages(1.0)
        _fill(leaf_values, level_sets, [km[part], kernel_integral], threshold, h,
              [not math.isclose(a, threshold, rel_tol=EQ_REL_TOL) for a in ka[part].tolist()])
        # the blocks are disjoint and gamma is at most 1 (a kernel leaf is 1, a
        # free one gets at most its share 1), so the union's fractions are gamma's
        union.reshape(-1, span)[index] = level_sets[2]
        rows, terms = level_sets[2].tolist(), (level_sets[2] * leaf_values).tolist()
        np.divide(_power_average(1.0, leaf_values, lambda: np.fromiter(
                      map(math.fsum, terms), np.float64, count) * h),
                  np.fromiter(map(math.fsum, rows), np.float64, count) * h, out=ga[part])
        s += count
    _check_fractions(sets)
    sets.setflags(write=False)
    union.setflags(write=False)
    holds = np.array([_at_most(fa, threshold), ka > threshold * (1.0 - ASSERT_REL_TOL),
                      (km >= fm / k * (1.0 - ASSERT_REL_TOL)) & (km < fm * (1.0 + ASSERT_REL_TOL)),
                      _isclose(ga, threshold, GAMMA_REL_TOL)])

    # union holds gamma's fractions and zeros elsewhere: fsum is correctly
    # rounded, so the zeros change no bit of these fsums over the fathers' blocks
    gamma_measure = math.fsum(union.tolist()) * h
    gamma_integral = _power_average(
        1.0, weight.values, lambda: math.fsum((union * weight.values).tolist()) * h)
    gamma_average = gamma_integral / gamma_measure
    checks = (("stopping_family_covers_exceedance", float(mismatch), 0.0, not mismatch),
              ("gamma_average_matches_threshold", gamma_average, threshold,
               math.isclose(gamma_average, threshold, rel_tol=GAMMA_REL_TOL)),
              ("gamma_measure_le_t", gamma_measure, t, _at_most(gamma_measure, t)))
    lemma = _lemma_sides(weight, _top_fractions(weight, star, t), union, gamma_measure,
                         gamma_integral)
    return _Decomposition(
        space, t, threshold, exceedance_leaves, checks, tuple(stopping), tuple(fathers),
        tuple(members), firsts, sizes, sets, values, holds, gamma_measure,
        math.fsum(fm.tolist()), lemma)
