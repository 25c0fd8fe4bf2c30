"""Command line front end.

Subcommands: info, spin enumerate, spin classify, flip, shear, check.
Reports are plain text, one record per line, deterministic for a fixed
(input, seed, mode).  Exit codes: 0 success, 1 property-check failure,
2 input parse failure or unwritable --output, 3 precondition violation
(e.g. non-generic flip).

--output rewrites the file in place: an existing file is overwritten from
its start and then cut to the report's length, never emptied first, and,
as before, not fsynced.  A pipe or device (/dev/stdout, /dev/null) is
written but not truncated.

The default check tolerance can be overridden with SUPERPENNER_TOL; a
tolerance that is not finite and positive is bad input.

main() builds its argparse parser once per process and reuses it, so
in-process callers (the library API, tests, benchmarks) pay for the
parser tree only on their first call; a one-shot process builds it once
either way.  build_parser() still returns a fresh parser, and the check
suite names are those of SUITES at the first main() call.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import stat
import sys

from .checks import SUITES
from .decorated import _puncture_residuals, shear_coordinates, superflip
from .fatgraph import _integer_tokens, boundary_cycles, topology
from .fileio import _load_orientation, load_state, render_state
from .grassmann import FLOAT, RATIONAL
from .spin import classify_punctures, enumerate_spin_classes, spin_class_count

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

def _integer(text):
    """The int of text spelled as a document spells one: an optional '-'
    then ASCII digits, with whitespace around; ValueError otherwise."""
    (value,) = _integer_tokens(text)
    return value


def _seed(text):
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _positive_int(text):
    try:
        value = _integer(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return value


def _edge_list(text):
    """The ints of a comma-separated list; blank items are skipped."""
    try:
        edges = [_integer(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expects comma-separated integers, got %r" % text) from None
    if not edges:
        raise argparse.ArgumentTypeError("lists no edge ids")
    return edges


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superpenner",
        description="Fatgraph spin structures and super Ptolemy coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="topology, coordinate counts, boundary cycles")
    p_info.add_argument("input")
    p_info.add_argument("--output", help="write the report to a file")

    p_spin = sub.add_parser("spin", help="spin structure enumeration / classification")
    p_spin.add_argument("action", choices=("enumerate", "classify"))
    p_spin.add_argument("input")
    p_spin.add_argument("--output")

    p_flip = sub.add_parser("flip", help="apply superflips to the decorated state")
    p_flip.add_argument("input")
    p_flip.add_argument("--edges", required=True, type=_edge_list,
                        help="comma-separated edge ids, flipped left to right")
    p_flip.add_argument("--mode", choices=(RATIONAL, FLOAT), default=FLOAT)
    p_flip.add_argument("--output")

    p_shear = sub.add_parser("shear", help="shear coordinates and puncture residuals")
    p_shear.add_argument("input")
    p_shear.add_argument("--mode", choices=(RATIONAL, FLOAT), default=FLOAT)
    p_shear.add_argument("--output")

    p_check = sub.add_parser("check", help="run a randomized property suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("input")
    p_check.add_argument("--seed", type=_seed, default=0)
    p_check.add_argument("--mode", choices=(RATIONAL, FLOAT), default=None)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--cases", type=_positive_int, default=None)
    p_check.add_argument("--output")
    return parser


@functools.cache
def _parser():
    return build_parser()


class _LoadError(Exception):
    """Bad input: an unreadable or unparsable file, an unwritable output
    file, or a malformed setting."""


def _emit(lines, output):
    """Print the report, or write it over the file output in place.

    The file is opened without O_TRUNC and, when it is a regular file
    longer than the report, cut at the report's end afterwards; a report
    ends in a newline, so the file is never truncated to zero bytes.  On
    ext4, truncating a non-empty file to zero and rewriting it starts
    writeback at close, which cost several times the write itself.
    """
    text = "\n".join(lines) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                end = fh.tell()
                if st.st_size > end:
                    os.ftruncate(fd, end)
    except OSError as exc:
        raise _LoadError(str(exc)) from exc


def _load(path, load, *args):
    """load(text, *args) of the file's text; an unreadable or unparsable
    file is a _LoadError with the error's message.  flip and shear load
    the state with load_state; info, spin and check, which read only the
    graph and its orientation, with fileio._load_orientation: the rational
    load's checks and errors, made on the float bulk read
    (fileio._load_rendered) when the document is laid out as render_state
    writes it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return load(text, *args)
    except (OSError, ValueError) as exc:
        raise _LoadError(str(exc)) from exc


def cmd_info(args):
    graph = _load(args.input, _load_orientation).graph
    g, s, e, v = topology(graph)
    lines = ["g=%d s=%d E=%d V=%d even=%d odd=%d" % (g, s, e, v, e, v)]
    for i, cycle in enumerate(boundary_cycles(graph)):
        lines.append("cycle %d: %s" % (i, " ".join(str(h) for h in cycle)))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_spin(args):
    orientation = _load(args.input, _load_orientation)
    graph = orientation.graph
    lines = []
    if args.action == "enumerate":
        classes = enumerate_spin_classes(graph)
        cycles = boundary_cycles(graph)
        for i, rep in enumerate(classes):
            tags = classify_punctures(rep, cycles)
            lines.append("class %d: %s punctures: %s"
                         % (i, rep.sign_string(), " ".join(tags)))
        lines.append("classes: %d" % len(classes))
        lines.append("rank_formula: %d" % spin_class_count(graph))
    else:
        tags = classify_punctures(orientation)
        lines.append("orientation: %s" % orientation.sign_string())
        for i, tag in enumerate(tags):
            lines.append("puncture %d: %s" % (i, tag))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_flip(args):
    state = _load(args.input, load_state, args.mode)
    lines = []
    for e in args.edges:
        state, record = superflip(state, e)
        lines.append("# flip edge=%d: a=%d b=%d c=%d d=%d reflections=%s"
                     % (record.flipped_edge, record.a, record.b, record.c,
                        record.d, ",".join(str(v) for v in record.reflections_applied) or "none"))
    lines.append(render_state(state).rstrip("\n"))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_shear(args):
    state = _load(args.input, load_state, args.mode)
    z = shear_coordinates(state)
    residuals = _puncture_residuals(state, z)
    lines = []
    for e in sorted(z):
        lines.append("z %d: %s" % (e, z[e]))
    for i, res in enumerate(residuals):
        lines.append("residual %d: body=%s soul=%s" % (i, res.body, res.soul))
    _emit(lines, args.output)
    return EXIT_OK


@functools.cache
def _suite_defaults(suite):
    """The keyword defaults of a suite function, read once per function."""
    return {name: p.default for name, p in inspect.signature(suite).parameters.items()}


def cmd_check(args):
    suite = SUITES[args.suite]
    defaults = _suite_defaults(suite)
    mode = args.mode or defaults["mode"]
    tol, source = args.tol, "--tol"
    if tol is None:
        env = os.environ.get("SUPERPENNER_TOL")
        source = "SUPERPENNER_TOL"
        try:
            tol = float(env) if env else defaults["tol"]
        except ValueError:
            raise _LoadError("SUPERPENNER_TOL must be a number, got %r" % env) from None
    if not (math.isfinite(tol) and tol > 0):
        raise _LoadError("%s must be finite and positive, got %r" % (source, tol))
    cases = args.cases if args.cases is not None else defaults["cases"]
    graph = _load(args.input, _load_orientation).graph
    result = suite(graph, seed=args.seed, mode=mode, tol=tol, cases=cases)
    config = ("suite=%s seed=%d mode=%s tol=%s cases=%d"
              % (args.suite, args.seed, mode, repr(tol), cases))
    _emit([config, result.report()], args.output)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "spin": cmd_spin,
        "flip": cmd_flip,
        "shear": cmd_shear,
        "check": cmd_check,
    }[args.command]
    try:
        return handler(args)
    except _LoadError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # the input parsed fine, so this is an operation precondition (every
        # library error class is a ValueError)
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
