"""The three benchmark workloads.

Each workload class does its set-up in __init__(seed, workdir) and runs
one round of ops with run_round(index, rec).  A round's inputs depend only
on the seed and the round index, so repeating a round repeats its work.
Ops go through rec.op(fn, *args), which times them; correctness gates go
through rec.gate(name, fn, *args) and measured errors through
rec.error(value), both outside the timed ops.

The package is reached through module attributes at call time
(`decorated.superflip`, not a name imported from it), so that a tracer
that rebinds those attributes sees every call.
"""

from __future__ import annotations

import math
import operator
import os
import random

from superpenner import checks, cli, decorated, fatgraph, fileio, spin
from superpenner.grassmann import FLOAT, RATIONAL

from randgraph import random_fatgraph

# coefficientwise tolerance of the superwalk round-trip gate
ROUND_TRIP_TOL = 1e-9
# bound on |body| of a float puncture residual in the cli shear gate
RESIDUAL_TOL = 1e-9


def graph_pool(tag, seed, num_vertices, count, need_pentagon=False):
    """count random graphs on num_vertices vertices, drawn from sub-seeds of
    seed, each with at least 3 generically flippable edges (and a pentagon
    configuration when need_pentagon is set)."""
    graphs = []
    i = 0
    while len(graphs) < count:
        graph = random_fatgraph(num_vertices, "%s:%s:%d:%d" % (seed, tag, num_vertices, i))
        i += 1
        if len(checks.generic_edges(graph)) >= 3 and (
                not need_pentagon or checks.pentagon_pairs(graph)):
            graphs.append(graph)
    return graphs


def round_trip_walk(rng, rec, start, length, check_flip=None):
    """length random generic flips from start, then the same edges in reverse.

    check_flip(rec, before, after, e) gates every flip.  Returns
    (final state, touched edges), or None when an op failed.
    """
    state = start
    edges = []
    for _ in range(length):
        candidates = checks.generic_edges(state.graph)
        if not candidates:
            break
        edges.append(rng.choice(candidates))
        state = _flip(rec, state, edges[-1], check_flip)
        if state is None:
            return None
    for e in reversed(edges):
        state = _flip(rec, state, e, check_flip)
        if state is None:
            return None
    return state, set(edges)


def warmed_up(state, rng, flips):
    """state after up to `flips` random generic superflips, untimed."""
    for _ in range(flips):
        candidates = checks.generic_edges(state.graph)
        if not candidates:
            break
        state, _ = decorated.superflip(state, rng.choice(candidates))
    return state


def _flip(rec, state, e, check_flip):
    flipped = rec.op(decorated.superflip, state, e)
    if flipped is None:
        return None
    if check_flip is not None:
        check_flip(rec, state, flipped[0], e)
    return flipped[0]


def round_trip_error(initial, final, touched):
    """Largest coefficient deviation of final from initial after alignment.

    Aligns as checks.aligned_equal_mod_sign does (canonical isomorphism,
    orientation reflections, global odd sign) and returns the smallest
    deviation over the admissible alignments, or inf when none exists.
    """
    gi = initial.graph
    fixed = [h for e in range(gi.num_edges) if e not in touched for h in gi.edges[e]]
    best = math.inf
    for phi in fatgraph.find_isomorphisms(final.graph, gi):
        if any(phi[h] != h for h in fixed):
            continue
        moved = checks.transport_state(final, phi, gi)
        refl = spin.reflection_vertices_between(moved.orientation, initial.orientation)
        if refl is None:
            continue
        mu = dict(moved.mu)
        for v in refl:
            mu[v] = -mu[v]
        lam_err = max(_deviation(moved.lam[e], initial.lam[e]) for e in initial.lam)
        mu_err = min(max(_deviation(mu[v], sign * initial.mu[v]) for v in initial.mu)
                     for sign in (1, -1))
        best = min(best, max(lam_err, mu_err))
    return best


def _deviation(x, y):
    return _max_abs(x - y)


def _max_abs(x):
    return max((abs(float(c)) for c in x.terms.values()), default=0.0)


class Superwalk:
    """Float round-trip walks on dense Grassmann data at V = 6 and 8.

    Start states are checks.random_decorated_state after WARMUP flips made
    during set-up, when most lambda-lengths are already dense (32 and 128
    terms), so the timed flips are dominated by the Grassmann product.  A
    round is two walks at V=6 and one at V=8, so that flips at V=6 are two
    thirds of the ops: the median op then lies among V=6 flips and the
    90th percentile among V=8 flips, never on the gap between them.
    """

    WALK_LENGTH = 6
    WARMUP = 8
    SCHEDULE = (6, 6, 8)
    POOL = {6: 8, 8: 4}
    ERROR_MEANING = "largest coefficient deviation after a round trip"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.starts = {}
        for v, count in self.POOL.items():
            rng = random.Random("%s:superwalk-states:%d" % (seed, v))
            self.starts[v] = [warmed_up(checks.random_decorated_state(g, rng, mode=FLOAT),
                                        rng, self.WARMUP)
                              for g in graph_pool("superwalk", seed, v, count)]

    def run_round(self, index, rec):
        rng = random.Random("%s:superwalk:%d" % (self.seed, index))
        for k, v in enumerate(self.SCHEDULE):
            pool = self.starts[v]
            start = pool[(index * self.SCHEDULE.count(v) + k) % len(pool)]
            walked = round_trip_walk(rng, rec, start, self.WALK_LENGTH)
            if walked is None:
                continue
            final, touched = walked
            rec.error(round_trip_error(start, final, touched))
            rec.gate("round_trip", checks.aligned_equal_mod_sign, start, final, touched,
                     ROUND_TRIP_TOL)


class Classical:
    """Exact rational round-trip walks on classical states at V = 32 to 128.

    Every product is a one-term scalar, so the combinatorial layers
    (FatGraph rebuild and validation, topology() in DecoratedState, spin
    bookkeeping) do the work, and the closing comparison runs
    find_isomorphisms at O(E^2).  Each walk is eight flips out, eight back
    and one comparison; a round is one walk per V.  Comparisons are then
    6 % of the ops but about a third of the op time, so they move ops_per_s
    while both latency quantiles fall among flips.  Five vertex counts,
    whose flip costs are about 1.5x apart, make the flip latencies a
    continuum, so that the quantiles move smoothly when the machine's
    speed does.
    """

    WALK_LENGTH = 8
    SCHEDULE = (32, 48, 64, 96, 128)
    POOL = 32
    ERROR_MEANING = "largest coefficient of e*f - (ac + bd) after a flip, exact"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.starts = {}
        for v in self.SCHEDULE:
            rng = random.Random("%s:classical-states:%d" % (seed, v))
            self.starts[v] = [
                decorated.classical_limit(
                    checks.random_decorated_state(g, rng, mode=RATIONAL, odd=False))
                for g in graph_pool("classical", seed, v, self.POOL)]

    def run_round(self, index, rec):
        rng = random.Random("%s:classical:%d" % (self.seed, index))
        for v in self.SCHEDULE:
            pool = self.starts[v]
            start = pool[index % len(pool)]
            walked = round_trip_walk(rng, rec, start, self.WALK_LENGTH, self._ptolemy)
            if walked is None:
                continue
            final, touched = walked
            same = rec.op(checks.aligned_equal_mod_sign, start, final, touched)
            if same is not None:
                rec.gate("round_trip", bool, same)

    @staticmethod
    def _ptolemy(rec, before, after, e):
        """Gate e * f == ac + bd exactly; its residual is the measured error."""
        q = fatgraph.flip_quadrilateral(before.graph, e)
        lam = before.lam
        residual = lam[e] * after.lam[e] - (lam[q.a] * lam[q.c] + lam[q.b] * lam[q.d])
        rec.error(_max_abs(residual))
        rec.gate("ptolemy", residual.is_zero)


# (vertex count, decoration density) of each cli document
CLI_DOCUMENTS = tuple((v, d) for v in (4, 6, 8, 10) for d in ("scalar", "random", "dense")
                      if not (v == 10 and d == "dense"))
# flips that make a "dense" document dense
DENSE_FLIPS = 6
# explicit --cases per suite and vertex count; pentagon is left out at
# V=4, where no graph has a pentagon, and at V=10, where a case costs seconds
CLI_CASES = {
    "ptolemy": {4: 20, 6: 20, 8: 20, 10: 20},
    "involution": {4: 5, 6: 5, 8: 3, 10: 1},
    "pentagon": {6: 2, 8: 1},
    "spincount": {4: 1, 6: 1, 8: 1, 10: 1},
}


class Cli:
    """A fixed mix of CLI commands over generated documents, in process.

    Every document gets info, spin enumerate, spin classify, shear and a
    two-edge flip; the check suites run once per vertex count on the
    scalar document, since they only read its graph.  Documents span V=4
    to 10 and three decoration densities: scalar lambdas with the default
    mu, checks.random_decorated_state, and that state after DENSE_FLIPS
    superflips (V <= 8; dense V=10 documents take seconds per command).
    Set-up writes DOCUMENT_SETS such sets on different random graphs, and
    round i runs the commands of set i mod DOCUMENT_SETS.  Every set runs
    the same commands: scalar documents are drawn on graphs that have a
    pentagon wherever the pentagon suite runs.
    """

    DOCUMENT_SETS = 4
    ERROR_MEANING = "largest |body| of a shear puncture residual"

    def __init__(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        self.out = os.path.join(workdir, "out.txt")
        self.sets = [[] for _ in range(self.DOCUMENT_SETS)]   # (argv, gate, expected)
        for v, density in CLI_DOCUMENTS:
            rng = random.Random("%s:cli:%d:%s" % (seed, v, density))
            graphs = graph_pool("cli-" + density, seed, v, self.DOCUMENT_SETS,
                                need_pentagon=density == "scalar" and v in CLI_CASES["pentagon"])
            for k, graph in enumerate(graphs):
                path = os.path.join(workdir, "v%d_%s_%d.fg" % (v, density, k))
                self.sets[k] += self._commands(self._decorate(graph, density, rng), density,
                                               path, rng)

    def _commands(self, state, density, path, rng):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.render_state(state))
        graph = state.graph
        g, s, e, v = fatgraph.topology(graph)
        info = "g=%d s=%d E=%d V=%d even=%d odd=%d" % (g, s, e, v, e, v)
        first = rng.choice(checks.generic_edges(graph))
        second = rng.choice(checks.generic_edges(fatgraph.whitehead_flip(graph, first)[0]))
        commands = [
            (["info", path], self._gate_info, info),
            (["spin", "enumerate", path], self._gate_classes, 1 << (2 * g + s - 1)),
            (["spin", "classify", path], None, None),
            (["shear", path], self._gate_shear, None),
            (["flip", path, "--edges", "%d,%d" % (first, second)], self._gate_flip, None),
        ]
        if density == "scalar":
            for suite, cases in CLI_CASES.items():
                if v in cases:
                    commands.append((["check", suite, path, "--seed", str(rng.randrange(1000)),
                                      "--cases", str(cases[v])], None, None))
        return commands

    @staticmethod
    def _decorate(graph, density, rng):
        if density == "scalar":
            state = decorated.default_state(graph, mode=FLOAT)
            lam = {e: state.algebra.scalar(rng.uniform(0.5, 4.0)) for e in state.lam}
            return decorated.DecoratedState(graph, state.orientation, state.algebra,
                                            lam, state.mu)
        state = checks.random_decorated_state(graph, rng, mode=FLOAT)
        return warmed_up(state, rng, DENSE_FLIPS) if density == "dense" else state

    def run_round(self, index, rec):
        for argv, gate, expected in self.sets[index % len(self.sets)]:
            code = rec.op(cli.main, argv + ["--output", self.out])
            if code is None or not rec.gate("exit_code", operator.eq, code, 0) or gate is None:
                continue
            rec.gate(argv[0], gate, rec, self.out, expected)

    @staticmethod
    def _read(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    @classmethod
    def _gate_info(cls, rec, path, expected):
        return cls._read(path).splitlines()[0] == expected

    @classmethod
    def _gate_classes(cls, rec, path, expected):
        return "classes: %d" % expected in cls._read(path).splitlines()

    @classmethod
    def _gate_shear(cls, rec, path, expected):
        worst = max(abs(float(line.split("body=")[1].split()[0]))
                    for line in cls._read(path).splitlines() if line.startswith("residual "))
        rec.error(worst)
        return worst <= RESIDUAL_TOL

    @classmethod
    def _gate_flip(cls, rec, path, expected):
        state = fileio.load_state(cls._read(path), mode=FLOAT)
        return len(state.lam) == state.graph.num_edges


WORKLOADS = {"superwalk": Superwalk, "classical": Classical, "cli": Cli}
