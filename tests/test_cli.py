from pathlib import Path

import pytest

from superpenner import cli
from superpenner.checks import CheckResult
from superpenner.decorated import superflip
from superpenner.fileio import load_state

DATA = Path(__file__).parent / "data"


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


def test_spin_classify(capsys):
    code, out, _ = run(capsys, "spin", "classify", str(DATA / "torus_345.fg"))
    assert code == 0
    assert "orientation: -++" in out
    assert "puncture 0: " in out


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "spin", "enumerate", str(DATA / "sphere4.fg"))
    _, second, _ = run(capsys, "spin", "enumerate", str(DATA / "sphere4.fg"))
    assert first == second


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


def test_flip_non_generic_exit_code(capsys):
    code, _, err = run(capsys, "flip", str(DATA / "torus.fg"), "--edges", "0")
    assert code == 3
    assert "non-generic" in err


def test_shear_reports_residuals(capsys):
    code, out, _ = run(capsys, "shear", str(DATA / "torus_345.fg"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("z 0: ")
    assert any(l.startswith("residual 0: body=") for l in lines)


def test_parse_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fg"
    bad.write_text("fatgraph v1\nvertex A: 0 1 2 3\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "info", str(tmp_path / "missing.fg"))
    assert code == 2


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
    def failing_suite(graph, seed=0, mode="rational", tol=None, cases=None):
        return CheckResult("ptolemy", False, 1, "forced failure")
    monkeypatch.setitem(cli.SUITES, "ptolemy", failing_suite)
    code, out, _ = run(capsys, "check", "ptolemy", str(DATA / "sphere4.fg"))
    assert code == 1
    assert "FAIL" in out


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "info", str(DATA / "theta.fg"),
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("g=0 s=3")


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
