import contextlib
import io
import os
import random
import re
import stat
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superpenner import cli, decorated, fatgraph, spin
from superpenner.checks import CheckResult, random_decorated_state
from superpenner.decorated import default_state, superflip
from superpenner.fileio import load_state, render_state
from superpenner.grassmann import FLOAT, RATIONAL
from superpenner.spin import enumerate_spin_classes

from helpers import prism

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_torus(capsys):
    code, out, _ = run(capsys, "info", str(DATA / "torus.fg"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g=1 s=1 E=3 V=2 even=3 odd=2"
    assert lines[1] == "cycle 0: 0 3 4 1 2 5"


def test_spin_enumerate_torus(capsys):
    code, out, _ = run(capsys, "spin", "enumerate", str(DATA / "torus.fg"))
    assert code == 0
    lines = out.splitlines()
    assert "classes: 4" in lines
    assert "rank_formula: 4" in lines
    class_lines = [l for l in lines if l.startswith("class ")]
    assert len(class_lines) == 4
    assert class_lines[0] == "class 0: +++ punctures: NS"


def test_spin_enumerate_walks_the_boundary_cycles_once(capsys, monkeypatch):
    # the representatives of one graph share its boundary cycles
    calls = []
    cycles = fatgraph.boundary_cycles

    def counted(graph):
        calls.append(graph)
        return cycles(graph)

    for module in (fatgraph, spin, cli):
        monkeypatch.setattr(module, "boundary_cycles", counted)
    for name in ("torus.fg", "genus2_1.fg", "genus1_2.fg"):
        calls.clear()
        code, out, _ = run(capsys, "spin", "enumerate", str(DATA / name))
        assert code == 0
        assert len(calls) == 1
        classes = enumerate_spin_classes(load_state((DATA / name).read_text()).graph)
        assert [line.split("punctures: ")[1] for line in out.splitlines()
                if line.startswith("class ")] == [" ".join(spin.classify_punctures(rep))
                                                  for rep in classes]


def test_info_walks_the_boundary_cycles_once(capsys, monkeypatch):
    # the genus comes from the cycle count by the Euler relation
    calls = []
    cycles = fatgraph.boundary_cycles

    def counted(graph):
        calls.append(graph)
        return cycles(graph)

    for module in (fatgraph, spin, cli):
        monkeypatch.setattr(module, "boundary_cycles", counted)
    for name in ("torus.fg", "genus2_1.fg", "genus1_2.fg", "sphere5.fg"):
        calls.clear()
        code, out, _ = run(capsys, "info", str(DATA / name))
        assert code == 0
        assert len(calls) == 1
        graph = load_state((DATA / name).read_text()).graph
        assert out.splitlines()[0].startswith("g=%d s=%d " % fatgraph.topology(graph)[:2])


def test_spin_classify(capsys):
    code, out, _ = run(capsys, "spin", "classify", str(DATA / "torus_345.fg"))
    assert code == 0
    assert "orientation: -++" in out
    assert "puncture 0: " in out


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "spin", "enumerate", str(DATA / "sphere4.fg"))
    _, second, _ = run(capsys, "spin", "enumerate", str(DATA / "sphere4.fg"))
    assert first == second


def test_spin_enumerate_refuses_2_to_the_33_classes(capsys, tmp_path):
    doc = tmp_path / "prism32.fg"
    doc.write_text(render_state(default_state(prism(32))), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "spin", "enumerate", str(doc))
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert "2^33 spin classes (2^(E-V+1) with E=96, V=64)" in err


def test_flip_output_reloads(capsys, tmp_path):
    code, out, _ = run(capsys, "flip", str(DATA / "sphere4.fg"), "--edges", "0,4")
    assert code == 0
    assert out.count("# flip edge=") == 2
    state = load_state(out, mode="float")
    assert state.graph.num_edges == 6


def test_flip_roundtrip_restores_lambdas(capsys):
    code, out, _ = run(capsys, "flip", str(DATA / "sphere4.fg"),
                       "--edges", "0,0", "--mode", "float")
    assert code == 0
    state = load_state(out, mode="float")
    for x in state.lam.values():
        assert abs(x.body - 1.0) < 1e-9


def test_flip_rational_golden(capsys):
    code, out, _ = run(capsys, "flip", str(DATA / "sphere4_345.fg"),
                       "--edges", "0", "--mode", "rational")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# flip edge=0: a=2 b=1 c=3 d=5 reflections=none"
    assert "lambda 0: 25 - 12*t0^t1" in lines
    assert "mu v0: -3/5*t0 + 4/5*t1" in lines
    assert "mu v1: 4/5*t0 + 3/5*t1" in lines
    # the flip output reloads and flipping back restores the flipped lambda
    state = load_state(out)
    back, _ = superflip(state, 0)
    assert back.lam[0] == state.algebra.scalar(1)


def classical_document(tmp_path):
    """genus2_1.fg with every mu-invariant 0 and the lambdas at their
    default 1: an exact classical state, whose flips are ef = ac + bd."""
    path = tmp_path / "classical.fg"
    path.write_text((DATA / "genus2_1.fg").read_text()
                    + "".join("mu v%d: 0\n" % k for k in range(6)))
    return path


def lambda_values(out):
    return [line.split(": ")[1] for line in out.splitlines() if line.startswith("lambda ")]


def test_exact_classical_flips_give_integer_lambdas(capsys, tmp_path):
    # from all lambdas 1, ac + bd over e stays an integer (Laurent property)
    code, out, _ = run(capsys, "flip", str(classical_document(tmp_path)),
                       "--mode", "rational", "--edges", "0,4,7,2,5")
    assert code == 0
    assert lambda_values(out) == ["2", "1", "4", "1", "3", "13", "1", "5", "1"]
    assert all(line.endswith(": 0") for line in out.splitlines() if line.startswith("mu "))


def test_exact_classical_round_trip_restores_every_lambda(capsys, tmp_path):
    code, out, _ = run(capsys, "flip", str(classical_document(tmp_path)),
                       "--mode", "rational", "--edges", "0,4,7,7,4,0")
    assert code == 0
    assert lambda_values(out) == ["1"] * 9


def test_flip_non_generic_exit_code(capsys):
    code, _, err = run(capsys, "flip", str(DATA / "torus.fg"), "--edges", "0")
    assert code == 3
    assert "non-generic" in err


def test_flip_rejects_malformed_edge_lists(capsys):
    # a malformed list is a bad argument, as a malformed --cases is
    for edges, message in (("1,x", "expects comma-separated integers, got '1,x'"),
                           (",", "lists no edge ids"), ("", "lists no edge ids")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["flip", str(DATA / "sphere4.fg"), "--edges", edges])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--edges: " + message in out.err


def test_flip_edge_list_skips_blank_items(capsys):
    assert run(capsys, "flip", str(DATA / "sphere4.fg"), "--edges", " 0, ,4,") == \
        run(capsys, "flip", str(DATA / "sphere4.fg"), "--edges", "0,4")


def test_flip_of_an_edge_the_graph_lacks_is_a_precondition(capsys):
    code, out, err = run(capsys, "flip", str(DATA / "sphere4.fg"), "--edges", "99")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_shear_reports_residuals(capsys):
    code, out, _ = run(capsys, "shear", str(DATA / "torus_345.fg"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("z 0: ")
    assert any(l.startswith("residual 0: body=") for l in lines)


def test_shear_takes_one_log_per_lambda_length_with_a_soul(capsys, monkeypatch, tmp_path):
    # z_e is the scalar log of its body ratio plus the soul logs of its four
    # lambda-lengths, each taken once, and the residuals sum the reported
    # coordinates instead of computing them again
    logs = []
    glog = decorated.glog
    monkeypatch.setattr(decorated, "glog", lambda x: logs.append(1) or glog(x))
    rng = random.Random(35)
    flipped = tmp_path / "flipped.fg"
    state = random_decorated_state(load_state((DATA / "genus2_1.fg").read_text()).graph, rng,
                                   mode=FLOAT)
    for e in (0, 4, 7):
        state, _ = superflip(state, e)
    flipped.write_text(render_state(state))
    souled = []
    for path in [DATA / name for name in ("torus_345.fg", "sphere5.fg", "genus2_1.fg")] + [flipped]:
        logs.clear()
        code, out, _ = run(capsys, "shear", str(path))
        assert code == 0
        state = load_state(path.read_text(), mode=FLOAT)
        souled.append(sum(len(x.num) > 1 for x in state.lam.values()))
        assert len(logs) == souled[-1]
        assert [line for line in out.splitlines() if line.startswith("residual")] == [
            "residual %d: body=%s soul=%s" % (i, r.body, r.soul)
            for i, r in enumerate(decorated.check_puncture_relation(state))]
    assert souled == [0, 0, 0, 8]   # eight of the flipped document's nine lambda-lengths


def test_parse_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fg"
    bad.write_text("fatgraph v1\nvertex A: 0 1 2 3\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "info", str(tmp_path / "missing.fg"))
    assert code == 2


@pytest.mark.parametrize("text, message", [
    # half-edge -1 is consistent across its vertex and edge lines
    ((DATA / "torus.fg").read_text().replace("vertex A: 0 2 4", "vertex A: -1 2 4")
     .replace("edge 0: 0 1", "edge 0: -1 1"), "line 2: negative half-edge token -1"),
    ("fatgraph v1\nedge 0: -1 1\nedge 1: 2 3\nedge 2: 4 5\n"
     "vertex A: -1 2 4\nvertex B: 1 3 5\n", "line 2: negative half-edge token -1"),
], ids=["vertex-line", "edge-line"])
def test_negative_half_edge_token_is_bad_input_with_line(capsys, tmp_path, text, message):
    bad = tmp_path / "negative.fg"
    bad.write_text(text)
    for argv in (["info"], ["flip", "--edges", "0"]):
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: %s\n" % message


TORUS = (DATA / "torus.fg").read_text()


@pytest.mark.parametrize("text, message", [
    (TORUS.replace("fatgraph v1\n", ""), "missing 'fatgraph v1' header line"),
    (TORUS + "face 0: 1 2\n", "line 7: unknown record kind 'face'"),
    (TORUS + "lambda: 2\n", "line 7: expected '<kind> <key>: ...', got 'lambda: 2'"),
    (TORUS.replace("edge 2: 4 5", "edge 2: 4 6"),
     "dangling half-edge 5 (in a vertex line but no edge line)"),
    (TORUS + "edge 3: 5 6\n", "half-edge appears in more than one edge line"),
    (TORUS + "orient 0: x\n", "line 7: orient value must be + or -, got 'x'"),
    (TORUS + "lambda 9: 2\n", "line 7: unknown edge id 9"),
    (TORUS + "lambda x: 2\n", "line 7: edge id must be an integer, got 'x'"),
    ("fatgraph v1\nvertex A: 0 2 4\n", "document defines no vertices or no edges"),
    # tokens and ids are an optional '-' then ASCII digits, which int() alone
    # does not hold to: it also reads '+4', '0_2' and non-ASCII digits
    (TORUS.replace("vertex A: 0 2 4", "vertex A: 0 2 +4"), "line 2: bad half-edge token"),
    (TORUS.replace("edge 0: 0 1", "edge 0_2: 0 1"), "line 4: bad edge line"),
    (TORUS.replace("vertex B: 1 3 5", "vertex B: 1 3 \u0665")
     .replace("edge 2: 4 5", "edge 2: 4 \u0665"), "line 3: bad half-edge token"),
    (TORUS.replace("edge 2: 4 5", "edge 2: 4 \u0665"), "line 6: bad edge line"),
    (TORUS + "orient +0: -\n", "line 7: edge id must be an integer, got '+0'"),
    (TORUS + "lambda 0_1: 2\n", "line 7: edge id must be an integer, got '0_1'"),
    (TORUS + "lambda 1: \u0662\n",
     "line 7: bad lambda value: expected term at position 0 of '\u0662'"),
    (TORUS + "mu A: t\u0660\n", "line 7: bad mu value: expected term at position 0 of 't\u0660'"),
    (TORUS + "lambda 1: 1/\u0662\n",
     "line 7: bad lambda value: expected term at position 1 of '1/\u0662'"),
], ids=["missing-header", "unknown-kind", "malformed-head", "dangling-half-edge",
        "half-edge-in-two-edges", "bad-orient", "unknown-edge-id", "non-integer-edge-id",
        "no-edges", "plus-token", "underscore-edge-id", "non-ascii-vertex-token",
        "non-ascii-edge-token", "plus-edge-id", "underscore-edge-id-in-lambda",
        "non-ascii-lambda", "non-ascii-generator", "non-ascii-denominator"])
def test_loader_refusals_name_their_line(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.fg"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_a_flip_checks_its_own_lambda_length(capsys, tmp_path):
    # every lambda 1e-200 and every mu 0: a float flip of edge 0 underflows
    # ac + bd to 0, which the flip itself must refuse; exactly, f = 2e-200
    tiny = tmp_path / "tiny.fg"
    tiny.write_text((DATA / "sphere4.fg").read_text()
                    + "".join("lambda %d: 1e-200\n" % e for e in range(6))
                    + "".join("mu v%d: 0\n" % v for v in range(4)))
    message = "lambda-length of edge 0 must be even with positive body, got 0"
    state = load_state(tiny.read_text(), mode="float")
    with pytest.raises(ValueError) as info:
        superflip(state, 0)
    assert type(info.value) is ValueError and str(info.value) == message
    code, out, err = run(capsys, "flip", str(tiny), "--edges", "0", "--mode", "float")
    assert code == 3
    assert out == ""
    assert err == "error: %s\n" % message
    code, out, err = run(capsys, "flip", str(tiny), "--edges", "0", "--mode", "rational")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("command", [["info"], ["check", "spincount"]])
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_output_is_bad_input(capsys, tmp_path, command, target):
    output = tmp_path / "missing" / "out.txt" if target == "missing-parent" else tmp_path
    code, out, err = run(capsys, *command, str(DATA / "torus.fg"), "--output", str(output))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ") and str(output) in err
    assert err.count("\n") == 1


def test_check_spincount(capsys):
    code, out, _ = run(capsys, "check", "spincount", str(DATA / "genus2_1.fg"))
    assert code == 0
    assert out.splitlines()[1].startswith("spincount: pass")
    assert "rank_formula=16" in out


def test_check_ptolemy_rational(capsys):
    code, out, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"),
                       "--seed", "3", "--mode", "rational", "--cases", "60")
    assert code == 0
    assert out.splitlines()[1].startswith("ptolemy: pass")


def test_check_involution_float(capsys):
    code, out, _ = run(capsys, "check", "involution", str(DATA / "genus1_2.fg"),
                       "--seed", "3", "--mode", "float", "--cases", "20")
    assert code == 0
    assert out.splitlines()[1].startswith("involution: pass")


def test_check_pentagon(capsys):
    code, out, _ = run(capsys, "check", "pentagon", str(DATA / "sphere5.fg"),
                       "--seed", "3", "--cases", "10")
    assert code == 0
    assert out.splitlines()[1].startswith("pentagon: pass")


def test_check_pentagon_without_configuration_is_precondition(capsys):
    code, _, err = run(capsys, "check", "pentagon", str(DATA / "torus.fg"),
                       "--cases", "5")
    assert code == 3
    assert "pentagon" in err


def test_check_failure_exit_code(capsys, monkeypatch):
    def failing_suite(graph, seed=0, mode="rational", tol=1e-12, cases=1000):
        return CheckResult("ptolemy", False, 1, "forced failure")
    monkeypatch.setitem(cli.SUITES, "ptolemy", failing_suite)
    code, out, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"))
    assert code == 1
    assert "FAIL" in out


def test_check_reads_each_suites_own_defaults(capsys, monkeypatch):
    # the defaults are read once per suite function, so a replaced suite
    # reports its own even after the original has run
    assert run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"), "--cases", "2")[0] == 0

    def suite(graph, seed=0, mode="float", tol=0.5, cases=3):
        return CheckResult("ptolemy", True, cases, "")
    monkeypatch.setitem(cli.SUITES, "ptolemy", suite)
    code, out, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"))
    assert code == 0
    assert out.splitlines()[0] == "suite=ptolemy seed=0 mode=float tol=0.5 cases=3"


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "info", str(DATA / "theta.fg"),
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("g=0 s=3")


def report(capsys, *argv):
    """The stdout report of one CLI run that exits 0."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return out


@pytest.mark.parametrize("first,second", [
    (["spin", "enumerate", str(DATA / "genus2_1.fg")], ["info", str(DATA / "torus.fg")]),
    (["info", str(DATA / "torus.fg")], ["spin", "enumerate", str(DATA / "genus2_1.fg")]),
])
def test_output_file_holds_exactly_the_last_report(capsys, tmp_path, first, second):
    # a shorter report over a longer file leaves no old tail behind, and a
    # longer one over a shorter file is whole
    target = tmp_path / "report.txt"
    for argv in (first, second):
        assert run(capsys, *argv, "--output", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == report(capsys, *second)


def test_output_file_keeps_its_inode_and_permissions(capsys, tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old report\n" * 200)
    target.chmod(0o640)
    before = target.stat()
    assert run(capsys, "info", str(DATA / "theta.fg"), "--output", str(target))[0] == 0
    after = target.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert target.read_text() == report(capsys, "info", str(DATA / "theta.fg"))


def test_output_through_a_symlink_writes_its_target(capsys, tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old report\n" * 200)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(capsys, "info", str(DATA / "theta.fg"), "--output", str(link))[0] == 0
    assert link.is_symlink()
    assert target.read_text() == report(capsys, "info", str(DATA / "theta.fg"))


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_output_to_dev_null_succeeds(capsys):
    assert run(capsys, "info", str(DATA / "theta.fg"), "--output", "/dev/null") == (0, "", "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_dev_stdout_writes_into_a_pipe():
    # a pipe cannot seek or be truncated, so only a regular file is cut
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "superpenner", "info", str(DATA / "genus2_1.fg")]
    piped = subprocess.run(argv + ["--output", "/dev/stdout"],
                           capture_output=True, text=True, env=env)
    plain = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout == plain.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_to_a_full_device_is_bad_input(capsys):
    code, out, err = run(capsys, "info", str(DATA / "theta.fg"), "--output", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 28] ")
    assert err.count("\n") == 1


_audit_log = None


def _audit(event, args):
    if _audit_log is not None and event in ("open", "os.truncate"):
        _audit_log.append((event, args))


@pytest.fixture
def audit_log():
    """The open and truncate audit events raised while the test runs."""
    global _audit_log
    if not getattr(_audit, "installed", False):
        sys.addaudithook(_audit)   # a hook cannot be removed, so add it once
        _audit.installed = True
    _audit_log = []
    try:
        yield _audit_log
    finally:
        _audit_log = None


def test_output_file_is_never_emptied(capsys, tmp_path, audit_log):
    # no open of the output by name carries O_TRUNC, and the only cuts are
    # to the end of each report, which is never empty
    target = tmp_path / "report.txt"
    target.write_text("x" * 4000 + "\n")
    commands = (["spin", "enumerate", str(DATA / "genus2_1.fg")], ["info", str(DATA / "torus.fg")])
    audit_log.clear()
    for argv in commands:
        assert run(capsys, *argv, "--output", str(target))[0] == 0
    opens = [args[2] for event, args in audit_log if event == "open" and args[0] == str(target)]
    cuts = [args[1] for event, args in audit_log if event == "os.truncate"]
    assert len(opens) == len(commands)
    assert not any(flags & os.O_TRUNC for flags in opens)
    assert cuts == [len(report(capsys, *argv).encode("utf-8")) for argv in commands]


def test_seed_changes_cases_but_not_format(capsys):
    _, out1, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"),
                     "--seed", "1", "--mode", "rational", "--cases", "20")
    _, out2, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"),
                     "--seed", "1", "--mode", "rational", "--cases", "20")
    assert out1 == out2


def test_env_var_overrides_default_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("SUPERPENNER_TOL", "1e-6")
    code, out, _ = run(capsys, "check", "involution", str(DATA / "sphere4.fg"),
                       "--mode", "float", "--cases", "5")
    assert code == 0
    assert "tol=1e-06" in out.splitlines()[0]
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "check", "involution", str(DATA / "sphere4.fg"),
                       "--mode", "float", "--cases", "5", "--tol", "1e-8")
    assert "tol=1e-08" in out.splitlines()[0]


def test_check_rejects_non_positive_cases(capsys):
    for cases in ("0", "-5", "abc"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "ptolemy", str(DATA / "sphere4.fg"), "--cases", cases])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--cases: must be a positive integer" in out.err


@pytest.mark.parametrize("option, value, message", [
    ("--edges", "٥", "expects comma-separated integers, got '٥'"),
    ("--edges", "1_0", "expects comma-separated integers, got '1_0'"),
    ("--edges", "0,+4", "expects comma-separated integers, got '0,+4'"),
    ("--edges", "0,４", "expects comma-separated integers, got '0,４'"),
    ("--cases", "٣", "must be a positive integer, got '٣'"),
    ("--cases", "1_0", "must be a positive integer, got '1_0'"),
    ("--cases", "+3", "must be a positive integer, got '+3'"),
    ("--seed", "٣", "invalid int value: '٣'"),
    ("--seed", "1_0", "invalid int value: '1_0'"),
    ("--seed", "+1", "invalid int value: '+1'"),
])
def test_integer_arguments_are_spelled_as_in_a_document(capsys, option, value, message):
    # an optional '-' then ASCII digits, as fatgraph._integer_tokens reads a
    # document's integers; int() alone takes '+', '_' and non-ASCII digits
    if option == "--edges":
        argv = ["flip", str(DATA / "sphere4.fg"), "--edges", value]
    else:
        argv = ["check", "ptolemy", str(DATA / "sphere4.fg"), "--cases", "1", option, value]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "%s: %s" % (option, message) in out.err


def test_integer_arguments_take_a_minus_sign_and_surrounding_spaces(capsys):
    sphere4 = str(DATA / "sphere4.fg")
    assert run(capsys, "check", "ptolemy", sphere4, "--cases", " 02 ", "--seed", " -3") == \
        run(capsys, "check", "ptolemy", sphere4, "--cases", "2", "--seed", "-3")
    assert run(capsys, "flip", sphere4, "--edges", "-1")[0] == 3


def test_explicit_cases_count_is_used(capsys):
    code, out, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"),
                       "--cases", "1")
    assert code == 0
    assert "cases=1" in out.splitlines()[0]
    assert "pass (1 cases)" in out


def test_malformed_tolerance_env_var_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("SUPERPENNER_TOL", "abc")
    code, out, err = run(capsys, "check", "involution", str(DATA / "sphere4.fg"),
                         "--cases", "1")
    assert code == 2
    assert out == ""
    assert "SUPERPENNER_TOL" in err


def test_zero_denominator_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "zero.fg"
    bad.write_text((DATA / "torus.fg").read_text() + "lambda 0: 1/0\n")
    for mode, reason in (("rational", "zero denominator in '1/0'"),
                         ("float", "zero denominator in '1/0'")):
        code, out, err = run(capsys, "flip", str(bad), "--edges", "1", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err == "error: line 7: bad lambda value: %s\n" % reason


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_rejects_non_finite_or_non_positive_tol(capsys, tol):
    code, out, err = run(capsys, "check", "involution", str(DATA / "sphere4.fg"),
                         "--mode", "float", "--cases", "1", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --tol must be finite and positive")


def test_non_finite_tolerance_env_var_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("SUPERPENNER_TOL", "nan")
    code, out, err = run(capsys, "check", "involution", str(DATA / "sphere4.fg"),
                         "--mode", "float", "--cases", "1")
    assert code == 2
    assert out == ""
    assert err == "error: SUPERPENNER_TOL must be finite and positive, got nan\n"


def test_rational_flip_output_reloads_in_float_mode(capsys, tmp_path):
    code, out, _ = run(capsys, "flip", str(DATA / "sphere4_345.fg"),
                       "--edges", "0", "--mode", "rational")
    assert code == 0
    assert "mu v0: -3/5*t0 + 4/5*t1" in out
    state = load_state(out, mode="float")
    alg = state.algebra
    assert state.mu[0] == alg.parse("-0.6*t0 + 0.8*t1")
    assert state.lam[0] == alg.parse("25 - 12*t0^t1")
    doc = tmp_path / "ninths.fg"
    doc.write_text((DATA / "sphere4.fg").read_text() + "lambda 0: 9/16\n")
    code, out, _ = run(capsys, "flip", str(doc), "--edges", "0,0", "--mode", "float")
    assert code == 0
    assert abs(load_state(out, mode="float").lam[0].body - 0.5625) < 1e-12


@pytest.mark.parametrize("value", ["1e999", "1 + 1e400*t0^t1"])
def test_non_finite_coefficient_is_bad_input(capsys, tmp_path, value):
    bad = tmp_path / "huge.fg"
    bad.write_text((DATA / "torus.fg").read_text() + "lambda 0: %s\n" % value)
    code, out, err = run(capsys, "flip", str(bad), "--edges", "1", "--mode", "float")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 7: bad lambda value: non-finite coefficient")


def test_float_overflow_in_a_flip_is_named(capsys, tmp_path):
    big = tmp_path / "big.fg"
    big.write_text((DATA / "sphere4.fg").read_text()
                   + "".join("lambda %d: 1e200\n" % e for e in range(4)))
    code, out, err = run(capsys, "flip", str(big), "--edges", "0")
    assert code == 3
    assert "nan" not in out and "inf" not in out
    assert err.startswith("error: float overflow in product")


@pytest.mark.parametrize("line", ["mu A: t20000", "mu A: t" + "1" * 5000,
                                  "lambda 0: 1e10000000", "lambda 0: " + "1" * 5000,
                                  "lambda 0: 1 2"],
                         ids=["index", "long-index", "exponent", "long-numeral",
                              "juxtaposed"])
def test_oversized_or_juxtaposed_values_are_bad_input(capsys, tmp_path, line):
    bad = tmp_path / "bad.fg"
    bad.write_text((DATA / "torus.fg").read_text() + line + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "info", str(bad))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 7: bad %s value: " % line.split()[0])


SPARSE_TORUS = """fatgraph v1
vertex A: 0 2 4
vertex B: 1 3 5
edge 10: 0 1
edge 20: 2 3
edge 30: 4 5
"""


@pytest.mark.parametrize("line,message", [
    ("lambda 20: -2", "lambda 20 must be even with positive body, got -2"),
    ("lambda 30: 0", "lambda 30 must be even with positive body, got 0"),
    ("lambda 10: 1 + t0", "lambda 10 must be even with positive body, got 1 + 1*t0"),
    ("mu B: 1 + t0", "mu B must be odd, got 1 + 1*t0"),
    ("mu A: t0^t1", "mu A must be odd, got 1*t0^t1"),
], ids=["negative-lambda", "zero-lambda", "mixed-lambda", "mixed-mu", "even-mu"])
def test_decoration_out_of_domain_is_bad_input_with_line(capsys, tmp_path, line, message):
    bad = tmp_path / "domain.fg"
    bad.write_text(SPARSE_TORUS + "\n" + line + "\n")
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: line 8: %s\n" % message


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    good = subprocess.run([sys.executable, "-m", "superpenner", "info", str(DATA / "torus.fg")],
                          capture_output=True, text=True, env=env)
    assert good.returncode == 0
    assert good.stdout.splitlines()[0] == "g=1 s=1 E=3 V=2 even=3 odd=2"
    bad = tmp_path / "bad.fg"
    bad.write_text((DATA / "torus.fg").read_text() + "lambda 1: -2\n")
    failed = subprocess.run([sys.executable, "-m", "superpenner", "info", str(bad)],
                            capture_output=True, text=True, env=env)
    assert failed.returncode == 2
    assert failed.stderr == "error: line 7: lambda 1 must be even with positive body, got -2\n"


# -- loader fuzzing ----------------------------------------------------------------

FUZZ_DOCUMENTS = tuple(p.read_text() for p in sorted(DATA.glob("*.fg")))
FUZZ_TOKENS = ("", "0", "-1", "7", "99", "100000", "1e999", "nan", "inf", "1/0", "3/4",
               "2.5", "t0", "t99", "t0^t1", "1 + t0", "+", "-", ":", "#", "*", "x",
               "vertex", "edge", "orient", "lambda", "mu", "fatgraph", "v1")


@st.composite
def mutated_documents(draw):
    """A test document with 1 to 4 line or token mutations."""
    lines = draw(st.sampled_from(FUZZ_DOCUMENTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "replace", "perturb")))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            if kind == "replace":
                tokens[k] = draw(st.sampled_from(FUZZ_TOKENS))
            elif re.search(r"\d+", tokens[k]) and draw(st.booleans()):
                delta = draw(st.integers(-3, 3))
                tokens[k] = re.sub(r"\d+", lambda m: str(int(m.group()) + delta),
                                   tokens[k], count=1)
            else:
                at = draw(st.integers(0, len(tokens[k])))
                char = draw(st.sampled_from("0123456789-+:/.^*te# "))
                tokens[k] = tokens[k][:at] + char + tokens[k][at + 1:]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.fg"


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(doc=mutated_documents())
def test_mutated_documents_load_or_exit_cleanly(fuzz_path, doc):
    # the graph-only commands (info, spin, check) build no lambda or mu, yet
    # each must exit 0 exactly when the document loads in rational mode
    fuzz_path.write_text(doc)
    try:
        load_state(fuzz_path.read_text(encoding="utf-8"), RATIONAL)
        loads = True
    except ValueError:
        loads = False
    path = str(fuzz_path)
    for argv in (["info", path], ["spin", "classify", path],
                 ["check", "spincount", path, "--cases", "1"], ["flip", path, "--edges", "0"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv[0], doc)
        assert (code == 0) == (err.getvalue() == ""), (argv[0], doc, err.getvalue())
        if argv[0] != "flip":
            assert (code == 0) == loads, (argv[0], doc, err.getvalue())
