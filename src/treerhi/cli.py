"""Command-line front end.

Subcommands: gen, analyze, verify, trace, p0, curve.  Exit codes: 0 on
success / all checks passing, 1 when a verification or trace assertion
fails, 2 on usage or input errors (including inputs whose power averages
leave the double range), 3 on an unexpected internal error.  Reports echo
the full run configuration so runs are reproducible from the output alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import exponents, rearrange, trace as trace_mod, weight as weight_mod
from .tree import TreeSpace
from .weight import DyadicWeight

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
LEMMA_ATTEMPTS = 20  # weights tried per requested lemma instance


class UsageError(ValueError):
    pass


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(x) for x in text.split(",") if x)
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split(",") if x)
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return values


def _echo_config(args: argparse.Namespace) -> dict:
    return {k: str(v) if isinstance(v, Path) else v for k, v in sorted(vars(args).items())}


def _write_report(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    space = TreeSpace(args.k, args.depth)
    if args.kind == "constant":
        w = weight_mod.gen_constant(space, args.value)
    elif args.kind == "two-value":
        w = weight_mod.gen_two_value(space, args.first, args.second)
    elif args.kind == "random":
        w = weight_mod.gen_random(space, args.seed, args.low, args.high)
    else:
        w = weight_mod.gen_power(space, args.alpha)
    weight_mod.save_weight(w, args.output)
    print(f"wrote {space.n_leaves} leaves to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_weight(w: DyadicWeight, p: float) -> dict:
    k = w.space.k
    duals = (False, True) if w.values.min() > 0 else (False,)
    rhi, *muck = w._node_sups(p, duals)
    star = rearrange.rearrangement(w)
    prefix, *prefix_muck = rearrange._prefix_sups(star, p, duals)
    bound = exponents.transference_bound(rhi.constant, k)
    report = {
        "k": k,
        "depth": w.space.depth,
        "p": p,
        "dyadic_constant": rhi.constant,
        "dyadic_witness": list(rhi.witness),
        "prefix_constant": prefix.constant,
        "prefix_witness_t": prefix.witness_t,
        "bound": bound,
        "margin": bound - prefix.constant,
        "p0_dyadic": exponents.p0_solve(p, max(rhi.constant, 1.0)).p0,
        "p0_bound": exponents.p0_solve(p, max(bound, 1.0)).p0,
    }
    if muck:
        (muck,), (prefix_muck,) = muck, prefix_muck
        report["muckenhoupt_constant"] = muck.constant
        report["muckenhoupt_witness"] = list(muck.witness)
        report["prefix_muckenhoupt_constant"] = prefix_muck.constant
        report["muckenhoupt_bound"] = exponents.transference_bound(muck.constant, k)
    return report


def cmd_analyze(args: argparse.Namespace) -> int:
    w = weight_mod.load_weight(args.weight)
    report = analyze_weight(w, args.p)
    report["config"] = _echo_config(args)
    print(f"dyadic constant  c = {report['dyadic_constant']:.12g} "
          f"at node {tuple(report['dyadic_witness'])}")
    print(f"prefix constant    = {report['prefix_constant']:.12g} "
          f"at t = {report['prefix_witness_t']:.12g}")
    print(f"bound k*c-k+1      = {report['bound']:.12g}   "
          f"margin = {report['margin']:.12g}")
    print(f"p0 (dyadic c)      = {report['p0_dyadic']:.12g}")
    print(f"p0 (bound)         = {report['p0_bound']:.12g}")
    if "muckenhoupt_constant" in report:
        print(f"Muckenhoupt        = {report['muckenhoupt_constant']:.12g}   "
              f"prefix = {report['prefix_muckenhoupt_constant']:.12g}")
    _write_report(args.output, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _corpus(count: int, seed: int, k_list: tuple[int, ...], depth: int):
    """Deterministic stream of random weights cycling over k and depth."""
    for i in range(count):
        k = k_list[i % len(k_list)]
        d = 1 + (i * 7 + seed) % depth
        yield i, weight_mod.gen_random(TreeSpace(k, d), seed=seed + 1000 * i)


def _fail(args, index: int, w: DyadicWeight, detail: str) -> int:
    doc = {
        "config": _echo_config(args),
        "index": index,
        "weight": weight_mod.weight_doc(w),
        "detail": detail,
    }
    print(f"FAIL at weight {index}: {detail}")
    print(json.dumps(doc))
    return EXIT_FAIL

def verify_theorem1(args) -> int:
    tol = args.tolerance
    for i, w in _corpus(args.count, args.seed, args.k, args.depth):
        star = rearrange.rearrangement(w)
        for p in args.p:
            c = w.dyadic_rhi_constant(p).constant
            bound = exponents.transference_bound(c, w.space.k)
            prefix = rearrange.prefix_rhi_constant(star, p).constant
            if prefix > bound * (1.0 + tol):
                return _fail(args, i, w, f"prefix {prefix} > bound {bound} at p={p}")
    print(f"theorem1: {args.count} weights x {len(args.p)} exponents, all bounded")
    return EXIT_OK


def verify_weaktype(args) -> int:
    for i, w in _corpus(args.count, args.seed, args.k, args.depth):
        lo, hi = float(w.values.min()), float(w.values.max())
        for lam in np.geomspace(max(lo, 1e-12) / 2.0, hi * 2.0, 20):
            result = w.weak_type_check(float(lam))
            if not result.holds:
                return _fail(
                    args, i, w,
                    f"weak type fails at lambda={lam}: {result.lhs} > {result.rhs}",
                )
    print(f"weaktype: {args.count} weights x 20 thresholds, all hold")
    return EXIT_OK


def verify_lemma(args) -> int:
    """The trace's own two-set check (one threshold, one Gamma) at every p,
    from the decomposition alone; degenerate traces and failed hypotheses,
    which do not depend on p, are skipped, up to LEMMA_ATTEMPTS each."""
    rng = np.random.default_rng(args.seed)
    checked = skipped = 0
    for i, w in _corpus(LEMMA_ATTEMPTS * args.count, args.seed, args.k, args.depth):
        t = float(rng.uniform(0.05, 1.0))
        for p, _, d in trace_mod._decompositions(w, args.p, (t,)):
            if d.lemma is None or d.lemma.failures:
                skipped += 1
                break
            lemma = trace_mod._lemma_conclusion(w, d.lemma, p)
            if not lemma.conclusion_holds:
                return _fail(args, i, w, f"lemma conclusion fails: {lemma.lhs} > {lemma.rhs} "
                             f"at t={t}, p={p}")
        else:  # the conclusion held at every p
            checked += 1
            if checked == args.count:
                break
    print(f"lemma: {checked} instances checked at p={','.join(map(str, args.p))}, "
          f"{skipped} skipped, all conclusions hold")
    return EXIT_OK


def verify_decomposition(args) -> int:
    """Traces at five prefix lengths; each length is decomposed once for all p."""
    t_grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    for i, w in _corpus(args.count, args.seed, args.k, args.depth):
        for tr in trace_mod._traces(w, args.p, t_grid):
            if not tr.all_hold:
                table = tr.assertion_table()
                bad = [name for name, holds in zip(table["name"], table["holds"]) if not holds]
                return _fail(args, i, w, f"assertions failed at t={tr.t}, p={tr.p}: {bad}")
    print(
        f"decomposition: {args.count} weights x {len(t_grid)} prefixes x "
        f"{len(args.p)} exponents, all assertions hold"
    )
    return EXIT_OK


VERIFY_SUITES = {
    "theorem1": verify_theorem1,
    "weaktype": verify_weaktype,
    "lemma": verify_lemma,
    "decomposition": verify_decomposition,
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count <= 0:
        raise UsageError("count must be positive")
    for p in args.p:
        weight_mod._check_exponent(p)
    if args.depth < 1:
        raise UsageError("depth must be >= 1")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError(f"tolerance must be a finite number >= 0, got {args.tolerance}")
    for k in args.k:
        TreeSpace(k, args.depth)  # refuses k < 2 and oversized trees up front
    return VERIFY_SUITES[args.suite](args)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace(args: argparse.Namespace) -> int:
    w = weight_mod.load_weight(args.weight)
    tr = trace_mod.trace_theorem1(w, args.p, args.t)
    if args.output:
        Path(args.output).write_text(tr.to_json(_echo_config(args)) + "\n")
    branch = "degenerate" if tr.degenerate else f"{len(tr.fathers)} fathers"
    status = "all hold" if tr.all_hold else "ASSERTION FAILURES"
    table = tr.assertion_table()
    print(f"threshold A = {tr.threshold:.12g}, {branch}, "
          f"{len(table['name'])} assertions: {status}")
    for name, lhs, rhs, holds in zip(*table.values()):
        if not holds:
            print(f"  FAILED {name}: lhs={lhs!r} rhs={rhs!r}")
    return EXIT_OK if tr.all_hold else EXIT_FAIL


# ---------------------------------------------------------------------------
# p0 / curve
# ---------------------------------------------------------------------------

def cmd_p0(args: argparse.Namespace) -> int:
    result = exponents.improvement_range(args.p, args.c, args.k)
    if math.isinf(result.p0):
        print("p0 = infinity (effective constant 1)")
    else:
        print(f"p0 = {result.p0:.12g}  (effective constant {result.C:.12g}, "
              f"residual {result.residual:.3g})")
    return EXIT_OK


def write_curve_csv(path, curve: np.ndarray) -> None:
    rows = "%.17g,%.17g\n" * len(curve) % tuple(curve.ravel().tolist())
    Path(path).write_text("t,ratio\n" + rows)


def cmd_curve(args: argparse.Namespace) -> int:
    w = weight_mod.load_weight(args.weight)
    star = rearrange.rearrangement(w)
    curve = rearrange.ratio_curve(star, args.p, args.samples)
    write_curve_csv(args.output, curve)
    print(f"wrote {len(curve)} samples to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# main looks the command up here at call time, not in functions stored on
# the cached parser, so an entry rebound later (as perfbench's per-layer
# tracer does) is the one called.
COMMANDS = {
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "trace": cmd_trace,
    "p0": cmd_p0,
    "curve": cmd_curve,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The treerhi parser, built once per process.  Parsing leaves it
    unchanged, and its list defaults are tuples, so calls cannot leak state."""
    parser = argparse.ArgumentParser(
        prog="treerhi",
        description="Reverse-Holder constants on homogeneous trees, "
        "rearrangement prefix constants, and traced decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a weight file")
    gen.add_argument("kind", choices=["constant", "two-value", "random", "power"])
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--depth", type=int, default=4)
    gen.add_argument("--value", type=float, default=1.0, help="constant value")
    gen.add_argument("--first", type=float, default=1.0, help="two-value: first half")
    gen.add_argument("--second", type=float, default=2.0, help="two-value: second half")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--low", type=float, default=1e-3)
    gen.add_argument("--high", type=float, default=1e3)
    gen.add_argument("--alpha", type=float, default=0.25)
    gen.add_argument("-o", "--output", required=True)

    analyze = sub.add_parser("analyze", help="constants and bounds for a weight file")
    analyze.add_argument("weight")
    analyze.add_argument("--p", type=float, default=2.0)
    analyze.add_argument("-o", "--output")

    verify = sub.add_parser("verify", help="run a property suite on random weights")
    verify.add_argument("suite", choices=sorted(VERIFY_SUITES))
    verify.add_argument("--count", type=int, default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--k", type=_int_list, default=(2, 4, 8),
                        help="comma-separated branching factors")
    verify.add_argument("--depth", type=int, default=5, help="maximum depth")
    verify.add_argument("--p", type=_float_list, default=(1.5, 2.0, 3.0),
                        help="comma-separated exponents")
    verify.add_argument("--tolerance", type=float, default=1e-9)

    tr = sub.add_parser("trace", help="trace the decomposition for a weight file")
    tr.add_argument("weight")
    tr.add_argument("--p", type=float, default=2.0)
    tr.add_argument("--t", type=float, required=True)
    tr.add_argument("-o", "--output")

    p0 = sub.add_parser("p0", help="self-improvement exponent for (p, c, k)")
    p0.add_argument("--p", type=float, required=True)
    p0.add_argument("--c", type=float, required=True)
    p0.add_argument("--k", type=int, default=2)

    curve = sub.add_parser("curve", help="prefix-ratio curve CSV for a weight file")
    curve.add_argument("weight")
    curve.add_argument("--p", type=float, default=2.0)
    curve.add_argument("--samples", type=int, default=200)
    curve.add_argument("-o", "--output", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
