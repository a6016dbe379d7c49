import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from treerhi import DyadicWeight, TreeSpace, cli, gen_random, save_weight
from treerhi.cli import main


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


def test_gen_bad_params(tmp_path):
    assert run("gen", "power", "--alpha", "1.5", "-o", str(tmp_path / "x.json")) == 2
    assert run("gen", "constant", "--value", "-1", "-o", str(tmp_path / "x.json")) == 2


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


def test_analyze_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("analyze", str(bad)) == 2
    assert run("analyze", str(tmp_path / "missing.json")) == 2


@pytest.mark.parametrize("suite", ["theorem1", "weaktype", "lemma", "decomposition"])
def test_verify_suites_pass(suite):
    assert run("verify", suite, "--count", "6", "--seed", "1",
               "--k", "2,3", "--depth", "3", "--p", "2") == 0


def test_verify_empty_run_refused():
    assert run("verify", "theorem1", "--count", "0") == 2


def test_verify_bad_params():
    assert run("verify", "theorem1", "--count", "5", "--p", "0.5") == 2
    assert run("verify", "theorem1", "--count", "5", "--k", "1") == 2


def test_trace_cmd(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [8, 2, 1, 1]}')
    out = tmp_path / "trace.json"
    assert run("trace", str(wfile), "--p", "2", "--t", "0.5", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["threshold"] == 5.0
    assert doc["records"][0]["gamma"] == {"0": 1.0, "1": 1.0}
    assert all(a["holds"] for a in doc["assertions"])


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
    assert run("p0", "--p", "2", "--c", "1", "--k", "8") == 0
    assert "infinity" in capsys.readouterr().out


def test_curve_cmd(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"k": 2, "depth": 2, "leaves": [3, 3, 3, 3]}')
    out = tmp_path / "curve.csv"
    assert run("curve", str(wfile), "--p", "2", "--samples", "10", "-o", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,ratio"
    assert all(float(line.split(",")[1]) == pytest.approx(1.0) for line in lines[1:])


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
    assert capsys.readouterr().out.startswith("lemma: 60 instances")


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
