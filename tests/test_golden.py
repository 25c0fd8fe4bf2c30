"""Golden CLI reports: byte-for-byte transcripts of deterministic commands.

Each case runs `superpenner.cli.main` in-process and compares the exit
code, stdout and stderr with a file under tests/golden/.  Only commands
whose output is exact are covered: float `shear`/`flip` text is left out
because `math.log` and `math.sqrt` rounding depends on the platform libm.

Regenerate the files (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from superpenner import cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

SUITES = ("ptolemy", "involution", "pentagon", "spincount")


def golden_cases():
    """(golden file name, argv) for every covered command."""
    cases = []
    for path in sorted(DATA.glob("*.fg")):
        stem = path.stem
        cases.append(("%s.info" % stem, ["info", str(path)]))
        for action in ("enumerate", "classify"):
            cases.append(("%s.spin_%s" % (stem, action), ["spin", action, str(path)]))
        for suite in SUITES:
            cases.append(("%s.check_%s" % (stem, suite),
                          ["check", suite, str(path), "--cases", "5"]))
        cases.append(("%s.shear_rational" % stem,
                      ["shear", str(path), "--mode", "rational"]))
        if stem.endswith("_345"):
            for edges in ("0", "0,0"):
                cases.append(("%s.flip_rational_%s" % (stem, edges.replace(",", "_")),
                              ["flip", str(path), "--edges", edges, "--mode", "rational"]))
    return cases


def transcript(argv):
    """Exit code, stdout and stderr of one CLI run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    # data paths are shown relative to the tests directory
    text = "exit: %d\n--- stdout\n%s--- stderr\n%s" % (code, out.getvalue(), err.getvalue())
    return text.replace(str(DATA), "data")


@pytest.mark.parametrize("name,argv", golden_cases(), ids=[n for n, _ in golden_cases()])
def test_golden_report(name, argv, monkeypatch):
    monkeypatch.delenv("SUPERPENNER_TOL", raising=False)
    expected = (GOLDEN / (name + ".txt")).read_bytes()
    assert transcript(argv).encode("utf-8") == expected


def test_one_parser_serves_a_sequence_of_calls(monkeypatch):
    # main() reuses one parser per process: a run it rejects must leave
    # nothing behind that changes the reports of the runs after it
    monkeypatch.delenv("SUPERPENNER_TOL", raising=False)
    cases = dict(golden_cases())
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()

    def check_golden(name):
        expected = (GOLDEN / (name + ".txt")).read_bytes()
        assert transcript(cases[name]).encode("utf-8") == expected

    check_golden("torus_345.check_ptolemy")
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(["check", "no-such-suite", str(DATA / "torus.fg"), "--cases", "x"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-suite'" in err.getvalue()
    check_golden("genus2_1.info")
    check_golden("genus2_1.spin_enumerate")


if __name__ == "__main__":
    os.environ.pop("SUPERPENNER_TOL", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in golden_cases():
        (GOLDEN / (name + ".txt")).write_bytes(transcript(argv).encode("utf-8"))
