"""treerhi benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload analyze_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/selfcheck.py    # checks the benchmark itself

Run from a checkout that holds ``src/treerhi``.  The parent process spawns
fresh single-threaded child processes one at a time (BLAS threads set to 1
in their environment): with ``--trace 0``, ``SETUP_RUNS - 1`` children that
only set up and exit, then one that sets up and measures; with
``--trace 1``, one child that runs each op untraced and then traced and
writes its spans to ``.bench_build/perfbench/spans-<workload>-seed<n>.jsonl``.  Each
child imports treerhi from ``src``, makes the workload's inputs from the
seed, warms up with one op, then runs whole cycles over the inputs until
``--seconds`` have passed.  Outputs are checked against ``oracle.py`` after
the timed loop.

stdout: a ``record`` line (versions, git sha, nproc, BLAS threads, seed,
output digest, tail percentile, failure reasons, unscaled times), then the
result line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones
(``spans.PER_LAYER``).

- ``setup_s``: process start to first timed op (imports, inputs, weight
  files, warm-up), median over ``SETUP_RUNS`` fresh processes;
- ``op_p50_ms``: median latency of the successful ops;
- ``op_tail_ms``: the highest percentile of successful-op latency with at
  least ten samples above it (the record names which percentile);
- ``ops_per_s``: successful ops per second of time spent in ops, failed
  ones included;
- ``peak_rss_mb``: peak resident memory of the measuring child, read at the
  end of the timed loop, before the oracle runs.

Times are CPU times scaled to a steady machine.  The benchmark was defined
on a shared 2-core box that both deschedules the process and drifts in speed
by up to a third within seconds: five runs of one cli_small seed gave an
op_p50_ms spread (quartile distance over median) of 0.27 in wall time.  So
each op is timed with its thread's CPU time, which leaves out the time the
box ran someone else (the ops are single-threaded and wait on nothing but the
page cache), and ``setup_s`` is the process's CPU time up to the first timed
op.  A fixed kernel owned by the benchmark (``SpeedProbe``, in the mix of
work the workload's ops resemble) is timed the same way before every op, and
each time is multiplied by the mix's ``PROBE_NOMINAL_S`` over the median probe
time around it, which takes out the drift.  Over ten seeds
per workload (25-second runs) the scaled op_p50_ms, op_tail_ms and ops_per_s
then spread by at most 0.071, 0.070 and 0.056.  The record line keeps the unscaled values
(wall-clock setup, op CPU times).

An op fails if it raises, exits non-zero, or its output disagrees with the
oracle or with an earlier op on the same input.  ``attempted`` counts the
workload's cases (the distinct inputs the seed makes, each run once per
cycle) and ``failed`` the cases with a failed op, so both depend on the seed
alone and not on how many cycles fit into ``--seconds``; since the loop runs
whole cycles, failed/attempted equals the share of failed ops.  ``correct``
is false when any output disagreed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("analyze_large", "trace_mid", "cli_small")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
# typical probe time of each mix on the box the benchmark was defined on
PROBE_NOMINAL_S = {"python": 4.5e-3, "array": 20e-3}
PROBE_WINDOW = 5  # probe samples on each side of an op that set its scale


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-check's smoke runs")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child: set up, measure, check
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class _ProbeItem:
    a: int
    b: int


class SpeedProbe:
    """A fixed mix of work timed between ops to track the machine's speed.

    The ``python`` mix is integer arithmetic, small frozen dataclasses in a
    dict, a sort and a JSON dump (like the tracer's), a numpy sort and a
    memory pass.  The ``array`` mix is a numpy sort, a cumulative sum, a power
    and a reshape-sum over arrays as large as analyze_large's (like the weight
    and rearrange kernels).  Each workload uses the mix its ops resemble: on
    the shared box analyze_large's op time moved about half as much as the
    ``python`` mix and about as much as the ``array`` mix.  Neither touches
    treerhi code, so a change to the program cannot move it."""

    def __init__(self, kind: str) -> None:
        import numpy as np

        self._np = np
        self._nominal = PROBE_NOMINAL_S[kind]
        self._mix = self._python if kind == "python" else self._array
        rng = np.random.default_rng(0)
        if kind == "python":
            self._sort = rng.random(100_000)
            self._stream = np.ones(500_000)
        else:
            self._sort = rng.random(1 << 18)
            self._stream = rng.random(1 << 20)
        self.samples: list[float] = []

    def _python(self) -> None:
        acc = 0
        for i in range(10_000):
            acc += i * i
        items = [_ProbeItem(i % 97, i) for i in range(1000)]
        table = {item: float(item.b) for item in items}
        json.dumps({str(item.b): table[item] for item in sorted(items)})
        self._np.sort(self._sort)
        self._stream.sum()

    def _array(self) -> None:
        np = self._np
        np.sort(self._sort)
        np.cumsum(self._stream)
        np.power(self._stream, 1.5)
        self._stream.reshape(-1, 4).sum(axis=1)

    def sample(self) -> int:
        start = thread_time()
        self._mix()
        self.samples.append(thread_time() - start)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for a time measured next to sample ``index``."""
        window = self.samples[max(index - PROBE_WINDOW, 0):index + PROBE_WINDOW + 1]
        return self._nominal / statistics.median(window)


def run_cycles(wl, seconds: float, probe: SpeedProbe, tracer=None) -> tuple[list, dict]:
    """Closed loop over whole cycles of the workload's cases.

    Stops at the cycle boundary nearest to ``seconds``.  With a tracer, each
    case runs untraced and then traced, and the two are timed apart.
    Returns one (case index, traced, seconds, probe sample, failure, output
    sha) per op, and per case the first op's (output sha, oracle payload)."""
    ops: list[tuple] = []
    first: dict[int, tuple] = {}
    start, cycles = perf_counter(), 0
    modes = (False, True) if tracer else (False,)
    while True:
        for case in wl.cases:
            for traced in modes:
                args = wl.prepare(case)
                gc.collect()  # so one op's garbage is not collected on the next op's time
                sample = probe.sample()
                if traced:
                    tracer.install()
                    frame = tracer.begin_op(len(ops))
                t0 = thread_time()
                try:
                    raw, failure = wl.run(args), None
                except Exception as exc:  # the op failed; count it and go on
                    raw, failure = None, type(exc).__name__
                dt = thread_time() - t0
                if traced:
                    tracer.end_op(frame)
                    tracer.uninstall()
                if failure is None:
                    failure, canonical, payload = wl.summarize(case, raw)
                else:
                    canonical, payload = failure, None
                digest = hashlib.sha256(canonical.encode()).hexdigest()
                first.setdefault(case.index, (digest, payload))
                ops.append((case.index, traced, dt, sample, failure, digest))
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return ops, first


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import treerhi
    import treerhi.cli  # noqa: F401  (the workloads reach every module through it)
    from spans import Tracer
    from workloads import WORKLOADS

    src = (ROOT / "src").resolve()
    if Path(treerhi.__file__).resolve().parent.parent != src:
        print(f"treerhi imported from {treerhi.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / "perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](treerhi, args.seed, args.tiny, workdir)
        try:
            wl.run(wl.prepare(wl.cases[0]))
        except Exception:  # warm-up only; the timed loop counts this failure
            pass
        setup_cpu = time.process_time()
        setup_wall = time.monotonic() - args.t0
        probe = SpeedProbe(wl.probe)
        for _ in range(2 * PROBE_WINDOW + 1):
            probe.sample()
        setup_s = setup_cpu * probe.scale(PROBE_WINDOW)
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
            return 0
        tracer = Tracer() if args.trace else None
        ops, first = run_cycles(wl, args.seconds, probe, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.write_spans(workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Oracle checks, once per case, outside the timed loop.
    mismatch = {}
    for case in wl.cases:
        payload = first[case.index][1]
        if payload is not None:
            bad = wl.check(case, payload)
            if bad:
                mismatch[case.index] = bad
    failures: Counter = Counter()
    failed_cases: set[int] = set()
    unstable = 0
    times = {traced: {"ok": [], "ok_raw": [], "all": 0.0, "all_raw": 0.0}
             for traced in (False, True)}
    for index, traced, dt, sample, failure, digest in ops:
        if failure is None and digest != first[index][0]:
            failure = "output differs from an earlier op on the same input"
            unstable += 1
        elif failure is None and index in mismatch:
            failure = "oracle: " + mismatch[index][0]
        if failure is not None and index not in failed_cases:
            failures[failure] += 1
            failed_cases.add(index)
        scaled = dt * probe.scale(sample)
        mode = times[traced]
        mode["all"] += scaled
        mode["all_raw"] += dt
        if failure is None:
            mode["ok"].append(1e3 * scaled)
            mode["ok_raw"].append(1e3 * dt)
    output_digest = hashlib.sha256(
        "".join(f"{i}:{first[i][0]}\n" for i in sorted(first)).encode()).hexdigest()[:16]

    # Counted per case, not per op: how many cycles fit into --seconds varies
    # from run to run, the cases and whether each fails do not.
    attempted, failed = len(wl.cases), len(failed_cases)
    doc = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "peak_rss_mb": peak_rss_mb,
        "times": times[False],
        "probe_ms": 1e3 * statistics.median(probe.samples),
        "attempted": attempted,
        "failed": failed,
        "correct": not mismatch and not unstable,
        "failures": dict(failures.most_common()),
        "digest": output_digest,
        "cases": len(wl.cases),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }
    if tracer:
        rate = {m: len(t["ok"]) / t["all"] if t["all"] else 0.0 for m, t in times.items()}
        doc["per_layer"] = tracer.per_layer(attempted, failed, rate[False], rate[True])
        doc["spans_dropped"] = tracer.dropped
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, aggregate, print
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    j = len(xs) - TAIL_BEYOND - 1
    return xs[j], 100.0 * (j + 1) / len(xs)


def end_to_end(setups: list[float], ok_ms: list[float], op_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ok_ms), "unit": "ms"},
        "op_tail_ms": {"value": tail(ok_ms)[0], "unit": "ms"},
        "ops_per_s": {"value": len(ok_ms) / op_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def spawn(args: argparse.Namespace, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", role, "--t0", repr(time.monotonic())]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=max(deadline - time.monotonic(), 1.0))
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise RuntimeError(f"{role} child exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def parent_main(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into an exception, on which subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "treerhi" / "__init__.py").is_file():
        print(f"no treerhi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
        res = spawn(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res)

    times = res["times"]
    if not times["ok"]:
        print("no op succeeded", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), **res["versions"],
        "blas_threads": res["blas_threads"], "digest": res["digest"], "cases": res["cases"],
        "fail_ratio": res["failed"] / res["attempted"], "failures": res["failures"],
        "ok_ops": len(times["ok"]), "op_tail_percentile": tail(times["ok"])[1],
        "probe_ms": res["probe_ms"],
        "unscaled": end_to_end([s["setup_wall_s"] for s in setups], times["ok_raw"],
                               times["all_raw"], res["peak_rss_mb"]),
    }
    if args.trace:
        metrics = res["per_layer"]
        record["spans_dropped"] = res["spans_dropped"]
    else:
        metrics = end_to_end([s["setup_s"] for s in setups], times["ok"], times["all"],
                             res["peak_rss_mb"])
    print("record " + json.dumps(record))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main() -> int:
    args = parse_args()
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
