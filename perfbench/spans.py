"""Per-layer tracing by rebinding treerhi's public functions from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, op id) and aggregates
per span name: calls, busy time (wall time while at least one span of that
name is open) and self time (span duration minus the time its child spans
cover).  Every name the program looks a function up by is rebound: module
attributes such as ``treerhi.trace.rearrangement`` as well as
``treerhi.rearrange.rearrangement``, dict values such as the CLI's suite
table, and class attributes for methods.  ``uninstall`` restores them all.

Span records are kept in memory up to ``MAX_SPANS`` and written out by
``write_spans``; aggregates cover every span.  A module's ``errors`` count
the exceptions that leave one of its traced functions.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("tree", "weight", "rearrange", "exponents", "trace", "cli")
MAX_SPANS = 50_000

# (module, owner class or None, attribute, span name): what PER_LAYER needs,
# plus the CLI's command functions so that cli.main's self time is its own.
TARGETS = [
    ("tree", "TreeSpace", "contains", "tree.contains"),
    ("weight", "DyadicWeight", "__init__", "weight.construct"),
    ("weight", "DyadicWeight", "from_leaves", "weight.construct"),
    ("weight", "DyadicWeight", "level_sums", "weight.level_sums"),
    ("weight", "DyadicWeight", "dyadic_rhi_constant", "weight.dyadic_rhi_constant"),
    ("weight", "DyadicWeight", "dyadic_muckenhoupt_constant", "weight.dyadic_muckenhoupt_constant"),
    ("weight", "DyadicWeight", "maximal_function", "weight.maximal_function"),
    ("weight", "DyadicWeight", "weak_type_check", "weight.weak_type_check"),
    ("weight", None, "load_weight", "weight.load_weight"),
    ("rearrange", None, "rearrangement", "rearrange.rearrangement"),
    ("rearrange", None, "prefix_average", "rearrange.prefix_average"),
    ("rearrange", None, "prefix_rhi_constant", "rearrange.prefix_rhi_constant"),
    ("rearrange", None, "prefix_muckenhoupt_constant", "rearrange.prefix_muckenhoupt_constant"),
    ("rearrange", None, "ratio_curve", "rearrange.ratio_curve"),
    ("exponents", None, "p0_solve", "exponents.p0_solve"),
    ("trace", None, "trace_theorem1", "trace.trace_theorem1"),
    ("trace", None, "stopping_decomposition", "trace.stopping_decomposition"),
    ("trace", None, "select_fathers", "trace.select_fathers"),
    ("trace", None, "build_gamma", "trace.build_gamma"),
    ("trace", None, "build_top_set", "trace.build_top_set"),
    ("trace", None, "lemma21_check", "trace.lemma21_check"),
    ("trace", "DecompositionTrace", "to_json", "trace.to_json"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "analyze_weight", "cli.analyze_weight"),
    ("cli", None, "cmd_analyze", "cli.cmd_analyze"),
    ("cli", None, "cmd_trace", "cli.cmd_trace"),
    ("cli", None, "cmd_curve", "cli.cmd_curve"),
    ("cli", None, "cmd_p0", "cli.cmd_p0"),
    ("cli", None, "cmd_verify", "cli.cmd_verify"),
]
# Every method of the fractional-set class shares one span name.
FRACTIONAL_SET_MEMBERS = (
    "__init__", "from_node", "union", "measure", "integral", "average", "fraction_array",
)

# Per-layer metrics printed by a traced run: (name, unit).  Times and counts
# are per op; ratios are taken over the whole run and read 0 when their
# layer made no attempt.  The comment above each group names the end-to-end
# metric the layer should move, and where it should not.
PER_LAYER = [
    # moves trace_mid op_p50_ms; no change on analyze_large
    ("tree.contains.calls", "count"),
    # move analyze_large op_p50_ms and peak_rss_mb; no change on trace_mid
    ("weight.construct.busy_ms", "ms"),
    ("weight.level_sums.busy_ms", "ms"),
    ("weight.level_sums.calls", "count"),
    ("weight.level_sums.hit_ratio", "ratio"),
    ("weight.dyadic_rhi_constant.self_ms", "ms"),
    ("weight.dyadic_muckenhoupt_constant.self_ms", "ms"),
    # move cli_small op_p50_ms
    ("weight.maximal_function.busy_ms", "ms"),
    ("weight.weak_type_check.busy_ms", "ms"),
    ("weight.load_weight.busy_ms", "ms"),
    # move analyze_large op_p50_ms
    ("rearrange.rearrangement.busy_ms", "ms"),
    ("rearrange.prefix_rhi_constant.busy_ms", "ms"),
    ("rearrange.prefix_muckenhoupt_constant.busy_ms", "ms"),
    ("rearrange.steps", "count"),
    # move cli_small op_p50_ms
    ("rearrange.prefix_average.calls", "count"),
    ("rearrange.prefix_average.busy_ms", "ms"),
    ("rearrange.ratio_curve.self_ms", "ms"),
    # move cli_small op_p50_ms; under 1% of analyze_large, so no change there
    ("exponents.p0_solve.busy_ms", "ms"),
    ("exponents.p0_solve.calls", "count"),
    # move trace_mid op_p50_ms, op_tail_ms and peak_rss_mb
    ("trace.trace_theorem1.self_ms", "ms"),
    ("trace.select_fathers.busy_ms", "ms"),
    ("trace.stopping_decomposition.busy_ms", "ms"),
    ("trace.build_gamma.busy_ms", "ms"),
    ("trace.build_gamma.calls", "count"),
    ("trace.build_top_set.busy_ms", "ms"),
    ("trace.FractionalSet.busy_ms", "ms"),
    ("trace.to_json.busy_ms", "ms"),
    ("trace.lemma21_check.busy_ms", "ms"),
    # shape of each workload; these repeat exactly for a seed
    ("trace.lemma21_check.hypotheses_ratio", "ratio"),
    ("trace.stopping_nodes", "count"),
    ("trace.fathers", "count"),
    ("trace.assertions", "count"),
    ("trace.degenerate_ratio", "ratio"),
    # move cli_small op_p50_ms and the failed count
    ("cli.main.self_ms", "ms"),
    ("cli.exit_nonzero", "count"),
] + [(f"{module}.errors", "count") for module in MODULES] + [
    # failed / attempted cases of the run, which is the share of failed ops
    ("fail_ratio", "ratio"),
    # untraced minus traced ops_per_s, and that difference over untraced
    ("tracing.overhead_ops_per_s", "1/s"),
    ("tracing.overhead_ratio", "ratio"),
]

RATIOS = {
    "weight.level_sums.hit_ratio": ("level_sums.hits", "weight.level_sums"),
    "trace.lemma21_check.hypotheses_ratio": ("lemma21.hypotheses_hold", "trace.lemma21_check"),
    "trace.degenerate_ratio": ("trace.degenerate", "trace.trace_theorem1"),
}


def _before_level_sums(args, kwargs):
    self = args[0]
    q = args[1] if len(args) > 1 else kwargs.get("q", 1.0)
    return float(q) in getattr(self, "_sums", {})


def _after_level_sums(counts, hit, result):
    counts["level_sums.hits"] += hit


def _after_rearrangement(counts, _, result):
    counts["rearrange.steps"] += len(result.breakpoints)


def _after_trace(counts, _, result):
    counts["trace.stopping_nodes"] += len(result.stopping_nodes)
    counts["trace.fathers"] += len(result.fathers)
    counts["trace.assertions"] += len(result.assertions)
    counts["trace.degenerate"] += result.degenerate


def _after_lemma(counts, _, result):
    counts["lemma21.hypotheses_hold"] += result.hypotheses_hold


def _after_main(counts, _, result):
    counts["cli.exit_nonzero"] += result != 0


HOOKS = {
    "weight.level_sums": (_before_level_sums, _after_level_sums),
    "rearrange.rearrangement": (None, _after_rearrangement),
    "trace.trace_theorem1": (None, _after_trace),
    "trace.lemma21_check": (None, _after_lemma),
    "cli.main": (None, _after_main),
}


class Tracer:
    """Span recorder for one process; install around traced ops only."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.ops = 0
        self._stack: list[list] = []  # [span id, start, child time, name]
        self._open: Counter = Counter()
        self._next_id = 0
        self._op_id = -1
        self._last_error: dict = {}
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, 0.0, 0.0, name]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] += 1
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        span_id, start, child, name = frame
        self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        if self._open[name] == 0:
            self.busy[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self._op_id))
        else:
            self.dropped += 1

    def begin_op(self, op_id: int) -> list:
        self._op_id = op_id
        self._last_error.clear()
        return self._enter("op")

    def end_op(self, frame: list) -> None:
        self._exit(frame)
        self.ops += 1

    def _wrap(self, fn, name: str):
        module = name.split(".", 1)[0]
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if tracer._last_error.get(module) is not exc:
                    tracer._last_error[module] = exc
                    tracer.counts[f"{module}.errors"] += 1
                raise
            finally:
                tracer._exit(frame)
            if after:
                after(tracer.counts, pre, result)
            return result

        return wrapper

    # -- rebinding -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _patch_member(self, cls, attr: str, name: str) -> None:
        member = cls.__dict__[attr]
        if isinstance(member, classmethod):
            wrapped = classmethod(self._wrap(member.__func__, name))
        elif isinstance(member, property):
            wrapped = property(self._wrap(member.fget, name))
        else:
            wrapped = self._wrap(member, name)
        self._patch(cls, attr, wrapped)

    def _patch_function(self, fn, name: str) -> None:
        """Rebind every module attribute and module-level dict value that
        refers to ``fn``, so each lookup path reaches the wrapper."""
        wrapper = self._wrap(fn, name)
        for mod in _treerhi_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._patch(value, key, wrapper)

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _treerhi_modules()}
        for module, owner, attr, name in TARGETS:
            mod = mods[module]
            if owner is None:
                self._patch_function(getattr(mod, attr), name)
            else:
                self._patch_member(getattr(mod, owner), attr, name)
        fset = mods["trace"].FractionalSet
        for attr in FRACTIONAL_SET_MEMBERS:
            self._patch_member(fset, attr, "trace.FractionalSet")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def per_layer(self, attempted: int, failed: int, untraced_rate: float,
                  traced_rate: float) -> dict:
        ops = max(self.ops, 1)
        metrics = {}
        for metric, unit in PER_LAYER:
            if metric in RATIOS:
                num, den = RATIOS[metric]
                value = self.counts[num] / self.calls[den] if self.calls[den] else 0.0
            elif metric.endswith(".busy_ms"):
                value = 1e3 * self.busy[metric[: -len(".busy_ms")]] / ops
            elif metric.endswith(".self_ms"):
                value = 1e3 * self.self_time[metric[: -len(".self_ms")]] / ops
            elif metric.endswith(".calls"):
                value = self.calls[metric[: -len(".calls")]] / ops
            elif metric == "fail_ratio":
                value = failed / attempted if attempted else 0.0
            elif metric == "tracing.overhead_ops_per_s":
                value = untraced_rate - traced_rate
            elif metric == "tracing.overhead_ratio":
                value = (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0
            else:
                value = self.counts[metric] / ops
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")


def _treerhi_modules():
    names = ["treerhi"] + [f"treerhi.{m}" for m in MODULES]
    return [sys.modules[n] for n in names if n in sys.modules]
