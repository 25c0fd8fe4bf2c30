"""Command line front end.

Subcommands: info, spin enumerate, spin classify, flip, shear, check.
Reports are plain text, one record per line, deterministic for a fixed
(input, seed, mode).  Exit codes: 0 success, 1 property-check failure,
2 input parse failure, 3 precondition violation (e.g. non-generic flip).

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
import sys

from .checks import SUITES, CheckSetupError
from .decorated import check_puncture_relation, shear_coordinates, superflip
from .fatgraph import FatGraphError, NonGenericFlipError, boundary_cycles, topology
from .fileio import load_state, render_state
from .grassmann import FLOAT, RATIONAL, GrassmannError
from .spin import SpinError, classify_punctures, enumerate_spin_classes, spin_class_count

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

def _positive_int(text):
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return int(text)


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
    p_flip.add_argument("--edges", required=True,
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
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--mode", choices=(RATIONAL, FLOAT), default=None)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--cases", type=_positive_int, default=None)
    p_check.add_argument("--output")
    return parser


@functools.cache
def _parser():
    return build_parser()


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _LoadError(Exception):
    """Bad input: an unreadable or unparsable file, or a malformed setting."""


def _load(path, mode=RATIONAL):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return load_state(text, mode=mode)
    except (OSError, FatGraphError, GrassmannError, ValueError) as exc:
        raise _LoadError(str(exc)) from exc


def cmd_info(args):
    state = _load(args.input)
    graph = state.graph
    g, s, e, v = topology(graph)
    lines = ["g=%d s=%d E=%d V=%d even=%d odd=%d" % (g, s, e, v, e, v)]
    for i, cycle in enumerate(boundary_cycles(graph)):
        lines.append("cycle %d: %s" % (i, " ".join(str(h) for h in cycle)))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_spin(args):
    state = _load(args.input)
    graph = state.graph
    lines = []
    if args.action == "enumerate":
        classes = enumerate_spin_classes(graph)
        for i, rep in enumerate(classes):
            tags = classify_punctures(rep)
            lines.append("class %d: %s punctures: %s"
                         % (i, rep.sign_string(), " ".join(tags)))
        lines.append("classes: %d" % len(classes))
        lines.append("rank_formula: %d" % spin_class_count(graph))
    else:
        tags = classify_punctures(state.orientation)
        lines.append("orientation: %s" % state.orientation.sign_string())
        for i, tag in enumerate(tags):
            lines.append("puncture %d: %s" % (i, tag))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_flip(args):
    state = _load(args.input, mode=args.mode)
    try:
        edges = [int(tok) for tok in args.edges.split(",") if tok.strip() != ""]
    except ValueError:
        raise FatGraphError("--edges expects comma-separated integers, got %r"
                            % (args.edges,)) from None
    if not edges:
        raise FatGraphError("--edges lists no edge ids")
    lines = []
    for e in edges:
        state, record = superflip(state, e)
        lines.append("# flip edge=%d: a=%d b=%d c=%d d=%d reflections=%s"
                     % (record.flipped_edge, record.a, record.b, record.c,
                        record.d, ",".join(str(v) for v in record.reflections_applied) or "none"))
    lines.append(render_state(state).rstrip("\n"))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_shear(args):
    state = _load(args.input, mode=args.mode)
    z = shear_coordinates(state)
    residuals = check_puncture_relation(state)
    lines = []
    for e in sorted(z):
        lines.append("z %d: %s" % (e, z[e]))
    for i, res in enumerate(residuals):
        lines.append("residual %d: body=%s soul=%s" % (i, res.body, res.soul))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_check(args):
    suite = SUITES[args.suite]
    defaults = {name: p.default for name, p in inspect.signature(suite).parameters.items()}
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
    state = _load(args.input)
    result = suite(state.graph, seed=args.seed, mode=mode, tol=tol, cases=cases)
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
    except (NonGenericFlipError, CheckSetupError, FatGraphError,
            GrassmannError, SpinError, ValueError) as exc:
        # the input parsed fine, so this is an operation precondition
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
