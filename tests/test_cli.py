import argparse
import dataclasses
import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from treerhi import (
    DyadicWeight, PrefixReport, TreeSpace, WeakTypeResult, cli, gen_power, gen_random,
    load_weight, rearrange, save_weight, trace_theorem1,
)
from treerhi import trace as trace_mod
from treerhi.cli import main
from helpers import trace_to_dict


def run(*argv):
    return main(list(argv))


def test_gen_constant(tmp_path):
    out = tmp_path / "w.json"
    assert run("gen", "constant", "--value", "5", "--k", "2", "--depth", "3",
               "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 2 and doc["depth"] == 3
    assert doc["leaves"] == [5.0] * 8


def test_gen_random_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "random", "--seed", "7", "--k", "2", "--depth", "4", "-o", str(a)) == 0
    assert run("gen", "random", "--seed", "7", "--k", "2", "--depth", "4", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_power_integral(tmp_path):
    out = tmp_path / "p.json"
    assert run("gen", "power", "--alpha", "0.25", "--k", "2", "--depth", "10",
               "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["leaves"]) == 1024
    total = sum(doc["leaves"]) / 1024
    assert total == pytest.approx(4 / 3, rel=1e-12)


def test_gen_two_value(tmp_path):
    out = tmp_path / "w.json"
    assert run("gen", "two-value", "--first", "3", "--second", "0.5", "--depth", "2",
               "-o", str(out)) == 0
    assert json.loads(out.read_text()) == {"k": 2, "depth": 2, "leaves": [3.0, 3.0, 0.5, 0.5]}


def test_gen_bad_params(tmp_path, capsys):
    assert run("gen", "power", "--alpha", "1.5", "-o", str(tmp_path / "x.json")) == 2
    assert run("gen", "constant", "--value", "-1", "-o", str(tmp_path / "x.json")) == 2
    # a non-finite bound exited 3 with an OverflowError from the generator
    for bound in (["--high", "inf"], ["--low", "inf", "--high", "inf"], ["--high", "nan"]):
        capsys.readouterr()
        assert run("gen", "random", *bound, "-o", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err.startswith("error: need 0 < low <= high < inf")
    assert not (tmp_path / "x.json").exists()


def test_gen_oversized_tree_refused(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("gen", "random", "--depth", "60", "-o", str(out)) == 2
    assert "at most" in capsys.readouterr().err
    assert not out.exists()
    assert run("verify", "theorem1", "--count", "1", "--depth", "60") == 2


def test_analyze(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [1, 3]}')
    report_file = tmp_path / "report.json"
    assert run("analyze", str(wfile), "--p", "2", "-o", str(report_file)) == 0
    report = json.loads(report_file.read_text())
    assert report["dyadic_constant"] == pytest.approx(1.25, rel=1e-12)
    assert report["bound"] == pytest.approx(1.5, rel=1e-12)
    assert report["prefix_constant"] == pytest.approx(1.25, rel=1e-12)
    assert report["margin"] == pytest.approx(0.25, rel=1e-12)
    assert report["config"]["p"] == 2.0


def test_analyze_constant_weight(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [3, 3, 3, 3]}')
    out = tmp_path / "r.json"
    assert run("analyze", str(wfile), "-o", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["dyadic_constant"] == pytest.approx(1.0, rel=1e-12)
    assert report["p0_bound"] == float("inf")


def test_analyze_constant_weight_p0_infinite_at_p3(tmp_path):
    # p0_solve at C = 1 used to return a rounding-noise root (402653184)
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [3, 3, 3, 3]}')
    out = tmp_path / "r.json"
    assert run("analyze", str(wfile), "--p", "3", "-o", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["p0_dyadic"] == report["p0_bound"] == float("inf")


def test_analyze_subnormal_leaf(tmp_path, capsys):
    # max-scaling halves 5e-324 to 0, so that retry is skipped for the centred one
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [5e-324, 1]}')
    out = tmp_path / "r.json"
    assert run("analyze", str(wfile), "--p", "100", "-o", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["muckenhoupt_constant"] == pytest.approx(1.684720775019316e293, rel=1e-12)
    capsys.readouterr()
    # at p = 2 the constant, about 5e322, is past the double range
    assert run("analyze", str(wfile), "--p", "2") == 2
    assert "at p=2.0 leave the double range" in capsys.readouterr().err
    # centring 5e-324 and 1e300 would push 1e300 past the double range
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [5e-324, 1e300]}')
    assert run("analyze", str(wfile), "--p", "100") == 2
    assert "at p=100.0 leave the double range" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [1.5, 2.0, 100.0])
def test_analyze_subnormal_only_leaf(tmp_path, exponent):
    # the total 5e-324 * 1/2 underflows to 0, which was refused as a zero weight
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [5e-324, 0]}')
    out = tmp_path / "r.json"
    assert run("analyze", str(wfile), "--p", repr(exponent), "-o", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["dyadic_constant"] == pytest.approx(2.0 ** (exponent - 1.0), rel=1e-12)
    assert report["dyadic_witness"] == [0, 0]


@pytest.mark.parametrize("t", ["0.5", "1"])
def test_trace_subnormal_only_leaf_out_of_range(tmp_path, capsys, t):
    # at t = 1 the threshold underflows to 0, whose log2 once raised
    # "math domain error"
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [5e-324, 0]}')
    assert run("trace", str(wfile), "--p", "2", "--t", t) == 2
    assert "threshold**p or max**p leaves the double range at p=2" in capsys.readouterr().err


def test_analyze_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("analyze", str(bad)) == 2
    assert run("analyze", str(tmp_path / "missing.json")) == 2


def test_trace_constant_weight_file(tmp_path, capsys):
    # the prefix average at t = 0.5 lands below the node averages of 0.3
    wfile = tmp_path / "c.json"
    assert run("gen", "constant", "--k", "3", "--depth", "2", "--value", "0.3",
               "-o", str(wfile)) == 0
    assert run("trace", str(wfile), "--t", "0.5") == 0
    assert "degenerate, 2 assertions: all hold" in capsys.readouterr().out


@pytest.mark.parametrize("leaves, message", [
    ("[{}, 1]", "list of JSON numbers"),  # exited 3 with a TypeError
    ('["1", 2]', "list of JSON numbers"),  # was read as [1.0, 2.0]
    ("[true, 1]", "list of JSON numbers"),
    ("[null, 1]", "list of JSON numbers"),
    ("[1" + "0" * 400 + ", 1]", "must be finite"),  # exited 3 with an OverflowError
], ids=["object", "string", "bool", "null", "huge-int"])
@pytest.mark.parametrize("argv", [["analyze", "w.json"], ["trace", "w.json", "--t", "0.5"],
                                  ["curve", "w.json", "-o", "c.csv"]], ids=lambda a: a[0])
def test_non_numeric_leaves_refused(tmp_path, monkeypatch, capsys, leaves, message, argv):
    monkeypatch.chdir(tmp_path)
    Path("w.json").write_text(f'{{"k": 2, "depth": 1, "leaves": {leaves}}}')
    assert run(*argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"k": 2, "depth": true, "leaves": [1.0, 2.0]}', "k and depth must be integers"),
    ("[1.0, 2.0]", "must hold an object"),
], ids=["bool-depth", "list"])
def test_malformed_weight_file_refused(tmp_path, capsys, text, message):
    # depth true once loaded as depth 1 and analyze exited 0
    wfile = tmp_path / "w.json"
    wfile.write_text(text)
    assert run("analyze", str(wfile)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["theorem1", "weaktype", "lemma", "decomposition"])
def test_verify_suites_pass(suite):
    assert run("verify", suite, "--count", "6", "--seed", "1",
               "--k", "2,3", "--depth", "3", "--p", "2") == 0


def test_verify_empty_run_refused():
    assert run("verify", "theorem1", "--count", "0") == 2


def test_verify_bad_params(capsys):
    assert run("verify", "theorem1", "--count", "5", "--p", "0.5") == 2
    assert run("verify", "theorem1", "--count", "5", "--k", "1") == 2
    assert run("verify", "theorem1", "--count", "5", "--depth", "0") == 2
    assert "depth must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_verify_tolerance_must_be_finite_and_nonnegative(tolerance, capsys):
    # nan and inf once checked nothing and passed; -1 reported a failure of
    # a bound that held
    assert run("verify", "theorem1", "--count", "5", "--tolerance", tolerance) == 2
    assert "tolerance must be a finite number >= 0" in capsys.readouterr().err


def test_verify_tolerance_zero_passes(capsys):
    assert run("verify", "theorem1", "--tolerance", "0") == 0
    assert "all bounded" in capsys.readouterr().out


def test_trace_cmd(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [8, 2, 1, 1]}')
    out = tmp_path / "trace.json"
    assert run("trace", str(wfile), "--p", "2", "--t", "0.5", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["threshold"] == 5.0
    assert doc["records"][0]["gamma"] == {"0": 1.0, "1": 1.0}
    assert all(a["holds"] for a in doc["assertions"])


@pytest.mark.parametrize("weight", ["readme", "random"])
def test_trace_output_is_reference_json(tmp_path, weight):
    """The -o file is json.dumps(..., indent=2) of the trace's dict encoding
    with the config echo last."""
    if weight == "readme":
        w = DyadicWeight.from_leaves(2, 2, [8, 2, 1, 1])
    else:
        w = gen_random(TreeSpace(2, 8), 5)
    wfile, out = tmp_path / "w.json", tmp_path / "trace.json"
    save_weight(w, wfile)
    assert run("trace", str(wfile), "--p", "2", "--t", "0.5", "-o", str(out)) == 0
    text = out.read_text()
    doc = trace_to_dict(trace_theorem1(load_weight(wfile), 2.0, 0.5))
    doc["config"] = json.loads(text)["config"]
    assert doc["config"]["weight"] == str(wfile)
    assert text == json.dumps(doc, indent=2) + "\n"


def test_trace_degenerate(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [3, 3, 3, 3]}')
    out = tmp_path / "trace.json"
    assert run("trace", str(wfile), "--t", "0.5", "-o", str(out)) == 0
    assert json.loads(out.read_text())["degenerate"] is True


def test_trace_t_out_of_range(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [1, 3]}')
    assert run("trace", str(wfile), "--t", "0") == 2


def test_p0_cmd(capsys):
    assert run("p0", "--p", "2", "--c", "1.125", "--k", "2") == 0
    out = capsys.readouterr().out
    assert "3.2360679" in out
    for p in ("2", "3", "400"):
        assert run("p0", "--p", p, "--c", "1", "--k", "8") == 0
        assert "infinity" in capsys.readouterr().out
    assert run("p0", "--p", "2", "--c", "0.5") == 2
    assert "c must be a finite number >= 1, got 0.5" in capsys.readouterr().err
    # the effective constant k*c - k + 1 overflows: the refusal names c and k, not inf
    assert run("p0", "--p", "1e308", "--c", "1e308") == 2
    assert capsys.readouterr().err == (
        "error: effective constant k*c - k + 1 overflows at c=1e+308, k=2\n")
    assert run("p0", "--p", "2", "--c", "1", "--k", "1" + "0" * 400) == 2  # exited 3
    assert "overflows at c=1.0, k=1000" in capsys.readouterr().err
    assert run("p0", "--p", "1.0000000000000002", "--c", "10") == 2
    assert "p=1.0000000000000002 lies within 2^-26 of 1" in capsys.readouterr().err


def test_p0_bracket_end_overflow_refused(capsys):
    # 2p overflows, so the root's bracket was (p, inf]: RuntimeError, exit 3;
    # now every p above 2^26 is refused before the bracket is formed
    assert run("p0", "--p", "1e308", "--c", "1.0000000000000002") == 2
    assert capsys.readouterr().err == (
        "error: base exponent p=1e+308 exceeds 2^26, where p0 is not resolved\n")


def test_p0_large_p_refused(capsys):
    # exited 2 with the root finder's "f(lo) and f(hi) must have different
    # signs", which names no input; p = 1e15 answered with residual 0.652
    assert run("p0", "--p", "1e16", "--c", "10") == 2
    assert capsys.readouterr().err == (
        "error: base exponent p=1e+16 exceeds 2^26, where p0 is not resolved\n")


@pytest.mark.parametrize("argv", [["analyze"], ["trace", "--t", "0.5"]])
def test_overflowing_bound_refused_naming_c_and_k(tmp_path, capsys, argv):
    # c = 2**1023.5 at the root, so k*c - k + 1 overflows: analyze refused
    # naming the inf as a given constant, and trace passed against an inf bound
    wfile, out = tmp_path / "w.json", tmp_path / "out.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [1.5, 0]}')
    assert run(argv[0], str(wfile), "--p", "1024.5", *argv[1:], "-o", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: effective constant k*c - k + 1 overflows at c=1.2711610061536464e+308, k=2\n")
    assert not out.exists()


@pytest.mark.parametrize("leaves, argv, err", [
    # the Muckenhoupt constant is 1.66e308, so its bound overflowed to an
    # Infinity in the report
    ([1e-300] + [1e9] * 7, ["analyze", "--p", "1.8"],
     "effective constant k*c - k + 1 overflows at c=1.6578149946207805e+308, k=8"),
    # bound_factor and threshold**p are both 2^600: every check passed
    # against a bound_value of inf
    ([2, 0], ["trace", "--p", "600", "--t", "0.5"],
     "bound_value = bound_factor * threshold**p overflows at p=600.0"),
], ids=["analyze", "trace"])
def test_overflowing_outputs_refused(tmp_path, capsys, leaves, argv, err):
    wfile, out = tmp_path / "w.json", tmp_path / "out.json"
    wfile.write_text(json.dumps({"k": len(leaves), "depth": 1, "leaves": leaves}))
    assert run(argv[0], str(wfile), *argv[1:], "-o", str(out)) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_curve_cmd(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [3, 3, 3, 3]}')
    out = tmp_path / "curve.csv"
    assert run("curve", str(wfile), "--p", "2", "--samples", "10", "-o", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,ratio"
    assert all(float(line.split(",")[1]) == pytest.approx(1.0) for line in lines[1:])



def test_curve_refuses_more_samples_than_leaves(tmp_path, capsys):
    """A sample count past the leaf limit is a usage error, not a grid that
    cannot be allocated."""
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [1, 3]}')
    out = tmp_path / "curve.csv"
    assert run("curve", str(wfile), "--samples", "1000000000000", "-o", str(out)) == 2
    assert "at most 16777216 samples, got 1000000000000" in capsys.readouterr().err
    assert not out.exists()

_BASE = gen_random(TreeSpace(2, 6), 1)
CURVE_CASES = {
    "random": (_BASE, ["--p", "2"]),
    "power": (gen_power(TreeSpace(4, 4), 0.5), ["--p", "3", "--samples", "57"]),
    "scaled_up": (DyadicWeight(_BASE.space, _BASE.values * 1e100), ["--p", "1.5"]),
    "scaled_down": (DyadicWeight(_BASE.space, _BASE.values * 1e-100), ["--p", "1.5"]),
}
CURVE_SHA256 = {
    "random": "174f82a51c7b647ce9beae40ef7fd2f1c12172aa5fc16915bdee223c284cbca9",
    "power": "82730ec044b685b929d8a936c93a9254d23b66efb0ee90ad3bcbf5210072dde9",
    "scaled_up": "8f8a0f8d7bfd4ea38c246bb0ea9f226dd60229e8a73bf4cb9e5561d513d9aaf8",
    "scaled_down": "6b4af17316a69d4dde20ec2a0c017878732843b7f0897e64cb8a46f63e7bd65f",
}


@pytest.mark.parametrize("name", sorted(CURVE_CASES))
def test_curve_csv_bytes_pinned(tmp_path, name):
    """The bytes `treerhi curve` writes: 17 significant digits per number."""
    w, options = CURVE_CASES[name]
    wfile, out = tmp_path / "w.json", tmp_path / "c.csv"
    save_weight(w, wfile)
    assert run("curve", str(wfile), *options, "-o", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVE_SHA256[name]


def test_unknown_command_is_usage_error():
    assert run("frobnicate") == 2


def test_non_finite_exponent_is_usage_error(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [1, 3]}')
    for p in ("nan", "inf", "-inf"):
        # --p nan used to escape cli.main as an IndexError
        assert run("analyze", str(wfile), "--p", p) == 2
        assert run("curve", str(wfile), "--p", p, "-o", str(tmp_path / "c.csv")) == 2
        assert run("verify", "theorem1", "--count", "2", "--p", p) == 2


def test_unexpected_exception_exits_3(tmp_path, monkeypatch, capsys):
    def boom(w, p):
        raise RuntimeError("boom")

    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 1, "leaves": [1, 3]}')
    monkeypatch.setattr(cli, "analyze_weight", boom)
    assert run("analyze", str(wfile)) == 3
    assert "RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e200, 1e-200])
def test_analyze_and_curve_scaled_weight(tmp_path, scale):
    w = gen_random(TreeSpace(2, 6), 3)
    plain, scaled = tmp_path / "plain.json", tmp_path / "scaled.json"
    save_weight(w, plain)
    save_weight(DyadicWeight(w.space, w.values * scale), scaled)
    reports = []
    for f in (plain, scaled):
        out = tmp_path / f"{f.stem}-report.json"
        assert run("analyze", str(f), "-o", str(out)) == 0
        reports.append(json.loads(out.read_text()))
        assert run("curve", str(f), "-o", str(tmp_path / f"{f.stem}.csv")) == 0
    for key in ("dyadic_constant", "prefix_constant", "muckenhoupt_constant",
                "prefix_muckenhoupt_constant", "p0_dyadic", "p0_bound"):
        assert reports[1][key] == pytest.approx(reports[0][key], rel=1e-12)
    assert reports[1]["dyadic_witness"] == reports[0]["dyadic_witness"]
    curves = [np.loadtxt(tmp_path / f"{s}.csv", delimiter=",", skiprows=1)
              for s in ("plain", "scaled")]
    assert np.array_equal(curves[0][:, 0], curves[1][:, 0])
    assert np.allclose(curves[1][:, 1], curves[0][:, 1], rtol=1e-12, atol=0)


def test_verify_lemma_threshold_one_ulp_apart(capsys):
    # Weight 55 of `verify lemma --count 200` (k=4, depth 1, t=0.19276549...):
    # the top-set average and the trace's threshold differ by one ulp, which
    # once sent the check down the degenerate branch with an empty Gamma and
    # exit 2.  --depth 1 reaches the same weight and t quickly (and weight 13,
    # another such case).  Degenerate traces are skipped, so 60 checks run
    # past weight 55.
    assert run("verify", "lemma", "--count", "60", "--depth", "1") == 0
    assert capsys.readouterr().out.startswith("lemma: 60 instances checked at p=1.5,2.0,3.0,")


def test_verify_lemma_checks_every_exponent(monkeypatch, capsys):
    # a conclusion made to fail at the last --p only is reported
    conclude = trace_mod._lemma_conclusion
    seen = []

    def fail_at_3(weight, sides, p):
        seen.append(p)
        result = conclude(weight, sides, p)
        return dataclasses.replace(result, conclusion_holds=p != 3.0)

    monkeypatch.setattr(trace_mod, "_lemma_conclusion", fail_at_3)
    assert run("verify", "lemma", "--count", "3", "--p", "1.5,2,3") == 1
    assert seen == [1.5, 2.0, 3.0]
    out = capsys.readouterr().out
    assert "lemma conclusion fails" in out and "p=3.0" in out


def _fails_every_comparison(lhs, rhs):
    """trace._at_most made to fail: False for a float, all False for an array."""
    return np.asarray(lhs) > np.inf


# per suite, the check made to fail (module, name, replacement) and the start
# of its FAIL detail
FAILED_CHECKS = {
    "theorem1": (rearrange, "prefix_rhi_constant", lambda h, p: PrefixReport(p, 1e300, 1.0),
                 "prefix 1e+300 > bound "),
    "weaktype": (DyadicWeight, "weak_type_check",
                 lambda w, lam: WeakTypeResult(lam, 1.0, 0.5, False),
                 "weak type fails at lambda="),
    "decomposition": (trace_mod, "_at_most", _fails_every_comparison,
                      "assertions failed at t=0.1, p=2.0: "),
}


@pytest.mark.parametrize("suite", sorted(FAILED_CHECKS))
def test_verify_failure_exits_1_with_a_reloadable_weight(tmp_path, monkeypatch, capsys, suite):
    owner, name, replacement, detail = FAILED_CHECKS[suite]
    monkeypatch.setattr(owner, name, replacement)
    argv = ["verify", suite, "--count", "3", "--seed", "1", "--k", "2,3", "--depth", "3",
            "--p", "2"]
    assert run(*argv) == 1
    fail, record = capsys.readouterr().out.splitlines()
    doc = json.loads(record)
    assert fail.startswith(f"FAIL at weight {doc['index']}: {detail}")
    assert doc["detail"] == fail.split(": ", 1)[1]
    assert doc["config"]["suite"] == suite
    wfile = tmp_path / "failed.json"
    wfile.write_text(json.dumps(doc["weight"]))
    failed = load_weight(wfile)
    expected = dict(cli._corpus(3, 1, (2, 3), 3))[doc["index"]]
    assert failed.space == expected.space
    assert np.array_equal(failed.values, expected.values)


def test_trace_failed_assertions_exit_1(tmp_path, monkeypatch, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [8, 2, 1, 1]}')
    monkeypatch.setattr(trace_mod, "_at_most", _fails_every_comparison)
    assert run("trace", str(wfile), "--t", "0.5") == 1
    head, *failed = capsys.readouterr().out.splitlines()
    assert head.endswith("assertions: ASSERTION FAILURES")
    assert "  FAILED gamma_measure_le_t: lhs=0.5 rhs=0.5" in failed
    assert all(line.startswith("  FAILED ") for line in failed)


README_COUNTS = {"decomposition": "2", "lemma": "2"}  # README's take minutes


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("treerhi ")]
    for argv in commands:
        if argv[0] == "verify" and argv[1] in README_COUNTS:
            argv[argv.index("--count") + 1] = README_COUNTS[argv[1]]
    return commands


def test_readme_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert run(*argv) == 0, argv


@pytest.mark.parametrize("flag", ["--k=", "--p=", "--k=,", "--p=,"])
@pytest.mark.parametrize("suite", ["theorem1", "weaktype", "lemma", "decomposition"])
def test_verify_empty_list_is_usage_error(suite, flag, capsys):
    # --k= once exited 3 (ZeroDivisionError in _corpus), lemma --p= exited 3
    # (IndexError), and theorem1 / decomposition --p= passed having checked
    # nothing.
    assert run("verify", suite, "--count", "1", flag) == 2
    assert f"argument {flag.split('=')[0]}: expected a comma-separated list" in (
        capsys.readouterr().err)


def _call(capsys, argv, out_file=None):
    """Exit code, stdout, stderr and output file bytes of one main call."""
    if out_file is not None and out_file.exists():
        out_file.unlink()
    code = main(list(argv))
    captured = capsys.readouterr()
    data = out_file.read_bytes() if out_file is not None else None
    return code, captured.out, captured.err, data


def test_parser_reuse_matches_fresh_parser(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    save_weight(gen_random(TreeSpace(2, 4), 3), wfile)
    out = tmp_path / "out.json"
    calls = [
        (["verify", "theorem1", "--count", "2", "--k="], None),
        (["verify", "theorem1", "--count", "3", "--depth", "2"], None),
        (["verify", "theorem1", "--count", "3", "--depth", "2", "--k", "2", "--p", "3"],
         None),
        # defaults again: the explicit lists above must not have changed them
        (["verify", "theorem1", "--count", "3", "--depth", "2"], None),
        (["analyze", str(wfile), "-o", str(out)], out),
        (["trace", str(wfile), "--t", "0.5", "-o", str(out)], out),
        (["--help"], None),
        (["verify", "--help"], None),
    ]
    cli.build_parser.cache_clear()
    reused = [_call(capsys, argv, f) for argv, f in calls]
    fresh = []
    for argv, f in calls:
        cli.build_parser.cache_clear()
        fresh.append(_call(capsys, argv, f))
    assert reused == fresh
    assert [r[0] for r in reused] == [2, 0, 0, 0, 0, 0, 0, 0]
    assert "usage: treerhi" in reused[6][1]


def test_parser_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run("p0", "--p", "2", "--c", "1.125") == 0
    assert len(built) == 7  # the top parser and its six subcommands
    built.clear()
    assert run("p0", "--p", "2", "--c", "1.125") == 0
    assert run("verify", "theorem1", "--count", "1", "--depth", "1") == 0
    assert run("frobnicate") == 2
    assert built == []


def test_verify_list_defaults_are_immutable():
    args = cli.build_parser().parse_args(["verify", "theorem1"])
    assert args.k == (2, 4, 8) and args.p == (1.5, 2.0, 3.0)


def test_dispatch_follows_rebound_command(monkeypatch):
    # Dispatch reads COMMANDS at call time, so a rebound entry is reached
    # even through a parser built before the rebinding.
    cli.build_parser()
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "p0", lambda args: seen.append(args.c) or 0)
    assert run("p0", "--p", "2", "--c", "1.5") == 0
    assert seen == [1.5]
