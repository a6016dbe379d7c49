"""The names that perfbench/spans.py rebinds for its per-layer spans.

The spans module is read and run here without writing anything next to it.
Its install() raises on the first name that is gone, so a rename in treerhi
breaks every traced benchmark run; this test names the missing entry.  The
hooks' counts are what traced runs report of each trace and rearrangement.
"""
import importlib
import types
from collections import Counter
from pathlib import Path

import treerhi
from treerhi import DyadicWeight, TreeSpace, gen_random, rearrangement, trace_theorem1

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans() -> types.ModuleType:
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _member(cls: type, attr: str):
    """The function spans wraps for a class attribute, which must be the
    class's own: the function of a classmethod, the getter of a property."""
    member = cls.__dict__.get(attr)
    if isinstance(member, classmethod):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    return member


def test_every_traced_name_is_callable():
    spans = _spans()
    missing = []
    for module, owner, attr, name in spans.TARGETS:
        mod = importlib.import_module(f"{treerhi.__name__}.{module}")
        if owner is None:
            found = getattr(mod, attr, None)
        else:
            found = _member(getattr(mod, owner), attr)
        if not callable(found):
            missing.append(name)
    for attr in spans.FRACTIONAL_SET_MEMBERS:
        if not callable(_member(treerhi.FractionalSet, attr)):
            missing.append(f"FractionalSet.{attr}")
    assert missing == []


def test_trace_hook_counts_what_the_trace_holds():
    after_trace = _spans()._after_trace
    traces = [trace_theorem1(gen_random(TreeSpace(2, 6), 0), 2.0, 0.3),
              trace_theorem1(DyadicWeight.from_leaves(2, 2, [8, 2, 1, 1]), 2.0, 0.25)]
    assert [tr.degenerate for tr in traces] == [False, True]
    for tr in traces:
        counts = Counter()
        after_trace(counts, None, tr)
        assert dict(counts) == {
            "trace.stopping_nodes": len(tr.stopping_nodes), "trace.fathers": len(tr.fathers),
            "trace.assertions": len(tr.assertions), "trace.degenerate": tr.degenerate}


def test_rearrangement_hook_counts_the_steps():
    after_rearrangement = _spans()._after_rearrangement
    untied = rearrangement(gen_random(TreeSpace(2, 6), 0))
    tied = rearrangement(DyadicWeight.from_leaves(2, 2, [8, 2, 2, 1]))
    assert (untied.breakpoints.size, tied.breakpoints.size) == (64, 3)
    for star in (untied, tied):
        counts = Counter()
        after_rearrangement(counts, None, star)
        assert dict(counts) == {"rearrange.steps": len(star.breakpoints)}


def test_level_sums_hook_counts_only_unit_sums_as_hits():
    before = _spans()._before_level_sums
    w = gen_random(TreeSpace(2, 6), 0)
    assert before((w,), {}) is False
    w.level_sums()
    assert before((w,), {}) is True and before((w, 1.0), {}) is True
    assert before((w, 2.0), {}) is False
    w.level_sums(2.0)
    assert before((w,), {"q": 2.0}) is False and before((w, 2), {}) is False
