"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The oracle accepts the program's outputs on a small weight, and rejects
   a constant perturbed by a relative 1e-6 and a trace with one stopping
   node removed.
2. A smoke run of each workload at tiny size, untraced and traced, prints a
   result line whose metric names and units are exactly those in
   BENCHMARK.json.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import oracle  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def oracle_checks() -> None:
    from treerhi import cli, ratio_curve, rearrangement, trace, weight

    k, depth, p, t = 2, 6, 2.0, 0.3
    leaves = np.exp(np.random.default_rng(7).uniform(np.log(1e-3), np.log(1e3), k ** depth))
    w = weight.DyadicWeight.from_leaves(k, depth, leaves)
    report = cli.analyze_weight(w, p)
    ref = oracle.analyze_oracle(leaves, k, depth, p)
    expect(oracle.check_analyze(report, ref) == [], "oracle accepts analyze output")
    for key in ("dyadic_constant", "muckenhoupt_constant", "p0_dyadic", "p0_bound"):
        bad = dict(report, **{key: report[key] * (1.0 + 1e-6)})
        expect(oracle.check_analyze(bad, ref) != [], f"oracle rejects {key} perturbed by 1e-6")
    scaled = weight.DyadicWeight.from_leaves(k, depth, leaves * 1e100)
    expect(oracle.check_analyze(cli.analyze_weight(scaled, p), ref) == [],
           "oracle accepts the 1e100-scaled weight against its original")

    tr = trace.trace_theorem1(w, p, t)
    stopping = [(n.level, n.index) for n in tr.stopping_nodes]
    expect(len(stopping) > 1, "the trace has several stopping nodes")
    expect(oracle.check_trace(tr.threshold, stopping, tr.all_hold, leaves, k, depth, t) == [],
           "oracle accepts the trace")
    expect(oracle.check_trace(tr.threshold, stopping[1:], tr.all_hold, leaves, k, depth, t) != [],
           "oracle rejects the trace with one stopping node removed")
    expect(oracle.check_trace(tr.threshold * (1.0 + 1e-6), stopping, tr.all_hold,
                              leaves, k, depth, t) != [],
           "oracle rejects a threshold perturbed by 1e-6")

    curve = ratio_curve(rearrangement(w), p, 50)
    expect(oracle.check_curve(curve, leaves, p) == [], "oracle accepts the ratio curve")
    curve[7, 1] *= 1.0 + 1e-6
    expect(oracle.check_curve(curve, leaves, p) != [], "oracle rejects a perturbed curve row")


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            name = f"{workload['name']} --trace {trace}"
            out = subprocess.run(
                spec["command"] + ["--workload", workload["name"], "--seed", "3",
                                   "--seconds", "1", "--trace", trace, "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            res = result_line(out.stdout)
            if out.returncode != 0 or res is None:
                expect(False, f"{name}: exit {out.returncode}, stderr {out.stderr[-500:]!r}")
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys")
            expect(res["correct"] is True and res["attempted"] >= 1, f"{name}: correct")
            want = {m["name"]: m["unit"] for m in declared}
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            expect(got == want, f"{name}: every declared metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in res["metrics"].values()), f"{name}: finite values")


def bare_directory() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0 and result_line(out.stdout) is None,
               "without the sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    oracle_checks()
    smoke_runs()
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
