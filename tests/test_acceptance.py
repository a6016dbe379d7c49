"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import math
import time

import numpy as np
import pytest

from treerhi import (
    DyadicWeight,
    FractionalSet,
    TreeSpace,
    build_top_set,
    gen_constant,
    gen_power,
    gen_random,
    improvement_range,
    lemma21_check,
    p0_solve,
    power_weight_constant,
    prefix_average,
    prefix_muckenhoupt_constant,
    prefix_rhi_constant,
    rearrangement,
    trace_theorem1,
)
from helpers import rhi_oracle

REL_SLACK = 1e-9

# dyadic reverse-Holder constant of the discretized u**-0.25 at k=2, depth 20,
# p=2, pinned from the high-depth run of the analytic oracle's weight
POWER_WEIGHT_DEPTH20_CONSTANT = 1.1248761466062152


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _corpus(count: int):
    """Seeded weights spanning k in {2,4,8} and depth 1..6."""
    for i in range(count):
        k = (2, 4, 8)[i % 3]
        depth = 1 + (i * 7) % 6
        yield gen_random(TreeSpace(k, depth), seed=i)


def test_criterion_1_theorem_bound():
    start = time.time()
    worst = 0.0
    ok = True
    for w in _corpus(500):
        star = rearrangement(w)
        k = w.space.k
        for p in (1.5, 2.0, 3.0):
            c = w.dyadic_rhi_constant(p).constant
            bound = k * c - k + 1.0
            prefix = prefix_rhi_constant(star, p).constant
            worst = max(worst, prefix / bound)
            if prefix > bound * (1.0 + REL_SLACK):
                ok = False
    elapsed = time.time() - start
    assert _report(
        "1 (rearrangement bound)",
        ok,
        f"500 weights x 3 exponents, worst prefix/bound {worst:.6f}, {elapsed:.1f}s",
    )


def test_criterion_2_muckenhoupt_bound():
    worst = 0.0
    ok = True
    for w in _corpus(500):
        star = rearrangement(w)
        k = w.space.k
        for p in (1.5, 2.0, 3.0):
            c = w.dyadic_muckenhoupt_constant(p).constant
            bound = k * c - k + 1.0
            prefix = prefix_muckenhoupt_constant(star, p).constant
            worst = max(worst, prefix / bound)
            if prefix > bound * (1.0 + REL_SLACK):
                ok = False
    assert _report(
        "2 (Muckenhoupt bound)", ok, f"500 weights x 3 exponents, worst ratio {worst:.6f}"
    )


def test_criterion_3_sharpness_chain():
    ok = True
    details = []
    for p in (2.0, 3.0):
        for alpha in (0.1, 0.2, 0.25):
            if alpha * p >= 1:
                continue
            root = p0_solve(p, power_weight_constant(alpha, p)).p0
            if abs(root - 1.0 / alpha) > 1e-6 * (1.0 / alpha):
                ok = False
                details.append(f"p={p}, alpha={alpha}: {root} != {1/alpha}")

    constants = []
    for depth in range(4, 21):
        w = gen_power(TreeSpace(2, depth), 0.25)
        constants.append(w.dyadic_rhi_constant(2.0).constant)
    monotone = all(a <= b for a, b in zip(constants, constants[1:]))
    final = constants[-1]
    if not monotone:
        ok = False
        details.append("depth sweep not monotone")
    if abs(final - 1.125) > 0.02 * 1.125:
        ok = False
        details.append(f"depth-20 constant {final} not within 2% of 1.125")
    if not math.isclose(final, POWER_WEIGHT_DEPTH20_CONSTANT, rel_tol=1e-12):
        ok = False
        details.append(f"depth-20 constant {final!r} drifted from pinned value")
    assert _report(
        "3 (sharpness chain)",
        ok,
        details[0] if details else f"identity on 6 grid points; depth-20 constant {final:.10f}",
    )


def test_criterion_4_p0_closed_forms():
    a = p0_solve(2.0, 2.0)
    b = improvement_range(2.0, 1.125, 2)
    inf_case = p0_solve(2.0, 1.0)
    ok = (
        math.isclose(a.p0, 1.0 + math.sqrt(2.0), rel_tol=1e-13)
        and a.residual <= 1e-12
        and math.isclose(b.p0, 1.0 + math.sqrt(5.0), rel_tol=1e-13)
        and b.residual <= 1e-12
        and math.isinf(inf_case.p0)
    )
    assert _report(
        "4 (closed forms)",
        ok,
        f"p0(2,2)={a.p0:.12f}, p0(2,1.125,k=2)={b.p0:.12f}, C=1 -> {inf_case.p0}",
    )


def test_criterion_5_proof_tracer():
    ok = True
    degenerate_seen = 0
    traces = 0
    first_failure = ""
    for i in range(200):
        k = (2, 3, 4)[i % 3]
        depth = 1 + i % 4
        w = gen_random(TreeSpace(k, depth), seed=10_000 + i)
        for t in np.arange(0.1, 0.95, 0.1):
            for p in (1.5, 2.0, 3.0):
                tr = trace_theorem1(w, p, float(t))
                traces += 1
                degenerate_seen += tr.degenerate
                if not tr.all_hold and ok:
                    ok = False
                    bad = [a.name for a in tr.assertions if not a.holds]
                    first_failure = f"weight {i}, t={t:.1f}, p={p}: {bad}"
    # constructed degenerate case
    tr = trace_theorem1(gen_constant(TreeSpace(2, 3), 2.0), 2.0, 0.5)
    if not (tr.degenerate and tr.all_hold):
        ok = False
        first_failure = first_failure or "constructed degenerate case failed"
    degenerate_seen += tr.degenerate
    if degenerate_seen == 0:
        ok = False
    assert _report(
        "5 (proof tracer)",
        ok,
        first_failure or f"{traces} traces, all assertions hold, "
        f"{degenerate_seen} degenerate branches",
    )


def test_criterion_6_lemma_instances():
    rng = np.random.default_rng(77)
    checked = 0
    ok = True
    i = 0
    detail = ""
    while checked < 1000:
        k = (2, 3, 4)[i % 3]
        depth = 1 + i % 4
        w = gen_random(TreeSpace(k, depth), seed=20_000 + i)
        t = float(rng.uniform(0.05, 1.0))
        i += 1
        top = build_top_set(w, t)
        tr = trace_theorem1(w, 2.0, t)
        if tr.records:
            e_hat = FractionalSet.union(w.space, [r.gamma for r in tr.records])
        else:
            e_hat = top
        result = lemma21_check(w, top, e_hat, 2.0)
        if not result.hypotheses_hold:
            continue
        checked += 1
        if result.lhs > result.rhs * (1.0 + 1e-12) + 1e-300:
            ok = False
            detail = f"instance {i}: lhs {result.lhs} > rhs {result.rhs}"
            break
    # pinned hand example
    w = DyadicWeight.from_leaves(2, 2, [4, 2, 1, 1])
    hand = lemma21_check(
        w,
        FractionalSet(w.space, 0, [1.0, 1.0]),
        FractionalSet(w.space, 0, [1.0, 0.0, 0.5]),
        2.0,
    )
    if not (
        math.isclose(hand.lhs, 10.0, rel_tol=1e-12)
        and math.isclose(hand.rhs, 11.0, rel_tol=1e-12)
        and hand.hypotheses_hold
        and hand.conclusion_holds
    ):
        ok = False
        detail = detail or f"hand example gave lhs={hand.lhs}, rhs={hand.rhs}"
    assert _report(
        "6 (two-set comparison)", ok, detail or f"{checked} instances, hand example 10 <= 11"
    )


def test_criterion_7_weak_type():
    ok = True
    detail = ""
    for i in range(200):
        k = (2, 4, 8)[i % 3]
        depth = 1 + i % 5
        w = gen_random(TreeSpace(k, depth), seed=30_000 + i)
        lo, hi = float(w.values.min()), float(w.values.max())
        for lam in np.geomspace(lo / 2.0, hi * 2.0, 20):
            result = w.weak_type_check(float(lam))
            if not result.holds:
                ok = False
                detail = f"weight {i}, lambda={lam}: {result.lhs} > {result.rhs}"
                break
        if not ok:
            break
    assert _report("7 (weak type)", ok, detail or "200 weights x 20 thresholds")


def test_criterion_8_rearrangement_oracle():
    ok = True
    detail = ""
    rng = np.random.default_rng(5)
    for i in range(30):
        k = (2, 3, 4)[i % 3]
        depth = 1 + i % 3  # depth <= 3 for the exact node enumeration
        w = gen_random(TreeSpace(k, depth), seed=40_000 + i)
        star = rearrangement(w)
        n = w.space.n_leaves
        for lam in rng.uniform(0, float(w.values.max()) * 1.1, 100):
            weight_side = np.count_nonzero(w.values > lam) / n
            mask = star.values > lam
            star_side = float(star.breakpoints[mask][-1]) if mask.any() else 0.0
            if weight_side != star_side:
                ok = False
                detail = f"level-set mismatch at weight {i}, lambda={lam}"
        for q in (1.0, 2.0, 3.0):
            direct = float(np.mean(w.values**q))
            if not math.isclose(prefix_average(star, 1.0, q), direct, rel_tol=1e-12):
                ok = False
                detail = detail or f"moment q={q} drifts at weight {i}"
        for p in (1.5, 2.0, 3.0):
            report = w.dyadic_rhi_constant(p)
            oracle_c, oracle_node = rhi_oracle(w, p)
            if report.constant != oracle_c or report.witness != oracle_node:
                ok = False
                detail = detail or f"enumeration mismatch at weight {i}, p={p}"
    assert _report(
        "8 (rearrangement oracle)",
        ok,
        detail or "30 weights: level sets exact, moments 1e-12, enumeration exact",
    )
