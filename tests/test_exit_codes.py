"""The exit-code contract of every README command, run in process through
cli.main: exit 0 or 2, 1 only when a checked property fails, no traceback,
and an error line on every exit 2.

Arguments are drawn from the edges of their types: floats at 0, the
smallest subnormal, 1 and one ulp either side, 1e+-308, inf and nan;
integers negative, 0, 1 and MAX_LEAVES +- 1; weight files that are zero,
constant, two-valued, scaled by 1e+-300 or missing.  Trees and sample grids
stay at 2^12 leaves or fewer, except where the request is refused before
anything is allocated, and verify counts at 3 or fewer.  An argument written
"@name" is the path of that file in the suite's directory.

An analyze or trace that writes its report writes only finite numbers, but
for analyze's p0 of +inf and a degenerate trace's NaN power average over an
empty Gamma.
"""
import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from treerhi import TreeSpace, gen_random, gen_two_value
from treerhi.cli import main
from treerhi.tree import MAX_LEAVES

LARGEST = 2**12  # leaves or samples that a drawn command may allocate

# half the draws are edges, half the values that commands answer
FLOATS = (st.sampled_from(["0", "-0.0", "5e-324", "1e-308", "0.9999999999999999", "1",
                           "1.0000000000000002", "1e308", "-1e308", "-1", "inf", "-inf", "nan"])
          | st.sampled_from(["0.25", "0.5", "1.5", "2", "3", "120", "1024.5"]))
INTEGERS = st.sampled_from([-1, 0, 1, 2, 3, MAX_LEAVES - 1, MAX_LEAVES + 1])
BRANCHING = st.sampled_from([-1, 0, 1, 2, 3, 4, 8, MAX_LEAVES + 1])
DEPTHS = st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 12, MAX_LEAVES + 1])
COUNTS = st.sampled_from([-1, 0, 1, 2, 3])
SAMPLES = st.sampled_from([-1, 0, 1, 2, 3, 200, LARGEST, MAX_LEAVES + 1])


def _weights() -> dict[str, dict]:
    """Weight documents by name; at p = 1024.5, [1.5, 0] has c = 2**1023.5,
    whose bound k*c - k + 1 overflows.  So does the Muckenhoupt constant's
    of "muckenhoupt-overflow" at p = 1.8, and at p = 600, t = 0.5 the
    bound_value 2^600 * 2^600 of "bound-value-overflow".  The "near-top"
    weights have their largest leaf just inside the range of the trace at
    p = 1 + 2**-52 (the sums of the kernels overflow) and at p = 3 (the
    power averages of the two-set check overflow)."""
    random = gen_random(TreeSpace(2, 6), 7).values
    near_top = {seed: gen_random(TreeSpace(2, 3), seed).values for seed in (0, 9)}
    shapes = {
        "zero": (2, 2, [0.0] * 4),
        "constant": (3, 2, [3.7] * 9),
        "two-value": (4, 2, gen_two_value(TreeSpace(4, 2), 5.0, 0.25).values),
        "random": (2, 6, random),
        "random*1e300": (2, 6, random * 1e300),
        "random*1e-300": (2, 6, random * 1e-300),
        "subnormal": (2, 1, [5e-324, 0.0]),
        "overflow": (2, 1, [1.5, 0.0]),
        "muckenhoupt-overflow": (8, 1, [1e-300] + [1e9] * 7),
        "bound-value-overflow": (2, 1, [2.0, 0.0]),
        "wide": (8, 4, gen_random(TreeSpace(8, 4), 1).values),
        "near-top-a": (2, 3, near_top[0] / near_top[0].max() * 1.5e308),
        "near-top-b": (2, 3, near_top[9] / near_top[9].max() * (0.999 * 2 ** (1023 / 3))),
    }
    return {name: {"k": k, "depth": depth, "leaves": [float(v) for v in leaves]}
            for name, (k, depth, leaves) in shapes.items()}


WEIGHTS = _weights()


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    """"@name" to a path: each weight file, a missing file and the outputs."""
    root = tmp_path_factory.mktemp("exit-codes")
    for name, doc in WEIGHTS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    names = [*WEIGHTS, "missing", "out"]
    return {f"@{name}": str(root / f"{name}.json") for name in names}


def _small_or_refused(k: int, depth: int) -> bool:
    """A tree of at most LARGEST leaves, or one that TreeSpace refuses before
    it forms k**depth or allocates."""
    return (k < 2 or depth < 0 or depth >= MAX_LEAVES.bit_length()
            or not LARGEST < k ** depth <= MAX_LEAVES)


def _argv(*parts):
    """argv from strategies of argument lists, joined in order."""
    return st.tuples(*parts).map(lambda drawn: [arg for part in drawn for arg in part])


def _flag(name: str, values, required: bool = False):
    """["name=value"] with a drawn value, or nothing unless required; joined,
    so that argparse reads a value such as -inf as the flag's value."""
    present = values.map(lambda value: [f"{name}={value}"])
    return present if required else st.just([]) | present


def _joined(values):
    return st.lists(values, max_size=3).map(lambda items: ",".join(map(str, items)))


WEIGHT_FILES = st.sampled_from(sorted(WEIGHTS) + ["missing"]).map(lambda name: [f"@{name}"])
OUTPUT = st.just([]) | st.just(["-o", "@out"])

GEN = _argv(st.sampled_from(["constant", "two-value", "random", "power"]).map(
                lambda kind: ["gen", kind]),
            st.tuples(BRANCHING, DEPTHS).filter(lambda shape: _small_or_refused(*shape)).map(
                lambda shape: [f"--k={shape[0]}", f"--depth={shape[1]}"]),
            *[_flag(f"--{name}", FLOATS) for name in ("value", "first", "second", "low",
                                                      "high", "alpha")],
            _flag("--seed", INTEGERS), st.just(["-o", "@out"]))
ANALYZE = _argv(st.just(["analyze"]), WEIGHT_FILES, _flag("--p", FLOATS), OUTPUT)
VERIFY = _argv(st.sampled_from(["theorem1", "weaktype", "lemma", "decomposition"]).map(
                   lambda suite: ["verify", suite]),
               _flag("--count", COUNTS, required=True), _flag("--seed", INTEGERS),
               st.tuples(st.lists(BRANCHING, max_size=3), DEPTHS).filter(
                   lambda shape: all(_small_or_refused(k, shape[1]) for k in shape[0])).map(
                   lambda shape: [f"--k={','.join(map(str, shape[0]))}", f"--depth={shape[1]}"]),
               _flag("--p", _joined(FLOATS)), _flag("--tolerance", FLOATS))
TRACE = _argv(st.just(["trace"]), WEIGHT_FILES, _flag("--p", FLOATS),
              _flag("--t", FLOATS, required=True), OUTPUT)
P0 = _argv(st.just(["p0"]), _flag("--p", FLOATS, required=True),
           _flag("--c", FLOATS, required=True), _flag("--k", INTEGERS))
CURVE = _argv(st.just(["curve"]), WEIGHT_FILES, _flag("--p", FLOATS),
              _flag("--samples", SAMPLES), st.just(["-o", "@out"]))


def _non_finite(doc, path=()) -> list[tuple]:
    """The key paths of the inf and NaN numbers in a JSON document."""
    if isinstance(doc, dict):
        return [bad for key, value in doc.items() for bad in _non_finite(value, path + (key,))]
    if isinstance(doc, list):
        return [bad for value in doc for bad in _non_finite(value, path)]
    return [path] if isinstance(doc, float) and not math.isfinite(doc) else []


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(argv=GEN | ANALYZE | VERIFY | TRACE | P0 | CURVE)
@example(argv=["analyze", "@overflow", "--p", "1024.5"])
@example(argv=["trace", "@overflow", "--p", "1024.5", "--t", "0.5"])
@example(argv=["p0", "--p=1e308", "--c=1.0000000000000002"])  # exited 3
# each wrote an Infinity: a Muckenhoupt bound, and a bound_value
@example(argv=["analyze", "@muckenhoupt-overflow", "--p", "1.8", "-o", "@out"])
@example(argv=["trace", "@bound-value-overflow", "--p", "600", "--t", "0.5", "-o", "@out"])
@example(argv=["p0", "--p=1e16", "--c=10"])  # the root finder's refusal, naming no input
# each exited 3 with an OverflowError of math.fsum
@example(argv=["trace", "@near-top-a", "--p", "1.0000000000000002", "--t", "0.5"])
@example(argv=["trace", "@near-top-b", "--p", "3", "--t", "1"])
@settings(max_examples=500, deadline=None)
def test_exit_code_contract(argv, paths):
    Path(paths["@out"]).unlink(missing_ok=True)
    code, out, err = _run([paths.get(arg, arg) for arg in argv])
    event(f"{argv[0]} exit {code}")  # --hypothesis-show-statistics tallies these
    assert "Traceback" not in err, argv
    assert code in (0, 1, 2), argv
    if code == 1:  # a verify suite's or a trace's own check failed
        assert argv[0] in ("verify", "trace"), argv
        assert "FAIL at weight" in out or "ASSERTION FAILURES" in out, argv
    if code == 2:
        assert any("error:" in line for line in err.splitlines()), argv
    elif argv[0] in ("analyze", "trace") and "-o" in argv:
        report = json.loads(Path(paths["@out"]).read_text())
        # p0 = +inf is an answer; a degenerate trace averages over an empty Gamma
        allowed = ({("p0_dyadic",), ("p0_bound",)} if argv[0] == "analyze"
                   else {("gamma_power_average",)} if report["degenerate"] else set())
        assert set(_non_finite(report)) <= allowed, argv
