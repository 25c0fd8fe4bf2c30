"""Randomized property suites shared by the CLI `check` command and tests.

All randomness flows from one seed; identical (graph, seed, mode) runs
produce identical reports.  The flip suites compare states across flip
sequences by transporting the final state back along the canonical graph
isomorphism (the one fixing every half-edge of untouched edges) and then
asking decorated.states_equal_mod_sign, which aligns the spin-class
representatives by reflections and allows the global odd sign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .decorated import DecoratedState, states_equal_mod_sign, superflip
from .fatgraph import (NonGenericFlipError, find_isomorphisms, flip_quadrilateral,
                       propagate_isomorphism, topology)
from .grassmann import FLOAT, RATIONAL, GrassmannAlgebra, _sort_sign
from .spin import (MAX_BRUTE_FORCE_EDGES, OrientationState, brute_force_spin_classes,
                   enumerate_spin_classes, spin_class_count)


class CheckSetupError(ValueError):
    """The requested suite cannot run on this input (precondition failure)."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str

    def report(self):
        status = "pass" if self.passed else "FAIL"
        return "%s: %s (%d cases)%s" % (
            self.name, status, self.cases,
            " " + self.detail if self.detail else "")


# ---------------------------------------------------------------------------
# state transport along graph isomorphisms


def transport_state(final_state, phi, initial_graph):
    """Pull a decorated state back along a half-edge isomorphism.

    phi maps half-edges of final_state.graph to initial_graph; signs are
    conjugated by whether phi preserves each edge's reference direction.
    The entries are those of a validated state, relabeled, so they are not
    checked again; a phi that misses an edge or a vertex raises.
    """
    gf = final_state.graph
    gi = initial_graph
    lam = {}
    signs = [None] * gi.num_edges
    for ef in range(gf.num_edges):
        t, _ = gf.edges[ef]
        ei = gi.edge_of(phi[t])
        lam[ei] = final_state.lam[ef]
        same_dir = gi.edges[ei][0] == phi[t]
        signs[ei] = final_state.orientation.signs[ef] * (1 if same_dir else -1)
    orientation = OrientationState(gi, signs)   # a missed edge leaves a None sign
    mu = {}
    for vf in range(gf.num_vertices):
        vi = gi.vertex_of(phi[gf.vertices[vf][0]])
        mu[vi] = final_state.mu[vf]
    if len(mu) != gi.num_vertices:
        raise ValueError("phi misses a vertex of the initial graph")
    return DecoratedState._unchecked(orientation, final_state.algebra, lam, mu)


def aligned_equal_mod_sign(initial, final, touched_edges, tol=None):
    """Compare states across a flip sequence that returns the triangulation.

    Finds the isomorphism from the final graph to the initial one that is
    the identity on all half-edges of edges outside touched_edges,
    transports the final state and compares it with the initial one by
    states_equal_mod_sign.  False when no such isomorphism exists or the
    spin classes disagree.  When touched_edges covers every edge, every
    isomorphism is tried.
    """
    gi, gf = initial.graph, final.graph
    fixed = [h for e in range(gi.num_edges) if e not in touched_edges
             for h in gi.edges[e]]
    # the wanted map fixes an untouched half-edge, and that determines it
    isos = ([propagate_isomorphism(gf, gi, fixed[0], fixed[0])] if fixed
            else find_isomorphisms(gf, gi))
    for phi in isos:
        if phi is None or any(phi[h] != h for h in fixed):
            continue
        if states_equal_mod_sign(transport_state(final, phi, gi), initial, tol=tol):
            return True
    return False


# ---------------------------------------------------------------------------
# random decorated states


def _pythagorean_ratio(rng):
    # chi = (m/n)^2 with m^2 + n^2 a perfect square, so that both sqrt(chi)
    # and sqrt(1 + chi) are rational
    p = rng.randint(2, 6)
    q = rng.randint(1, p - 1)
    m, n = p * p - q * q, 2 * p * q
    if rng.random() < 0.5:
        m, n = n, m
    return m, n


def _draws_element(algebra, draws):
    """The element of (indices, coefficient) draws, built in one pass.

    A repeated monomial sums its coefficients in draw order, and a
    monomial whose sum is zero is dropped, as adding the draws one
    monomial at a time would.
    """
    n = algebra.num_generators
    terms = {}
    for indices, c in draws:
        mask, sign = _sort_sign(indices, n)
        terms[mask] = terms.get(mask, 0) + sign * c
    return algebra.element(terms)


def _random_even_soul(algebra, rng, coeff):
    n = algebra.num_generators
    draws = []
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            draws.append(((i, j), coeff(rng)))
    return _draws_element(algebra, draws)


def _random_odd(algebra, rng, coeff):
    n = algebra.num_generators
    draws = [((i,), coeff(rng)) for i in range(n)]
    if n >= 3 and rng.random() < 0.2:
        draws.append((rng.sample(range(n), 3), coeff(rng)))
    return _draws_element(algebra, draws)


def random_decorated_state(graph, rng, mode=RATIONAL, odd=True,
                           square_friendly_edge=None):
    """Random decorated state on graph, one algebra generator per vertex.

    With square_friendly_edge set (rational mode), the quadrilateral of
    that edge gets lambda bodies making chi and 1+chi squares of
    rationals, so a superflip there stays exact.
    """
    algebra = GrassmannAlgebra(graph.num_vertices, mode)
    if mode == RATIONAL:
        def body(r):
            return Fraction(r.randint(1, 9), r.randint(1, 9))

        def coeff(r):
            return r.randint(-3, 3)
    else:
        def body(r):
            return r.uniform(0.5, 4.0)

        def coeff(r):
            return r.uniform(-1.0, 1.0)

    bodies = {e: body(rng) for e in range(graph.num_edges)}
    if square_friendly_edge is not None:
        q = flip_quadrilateral(graph, square_friendly_edge)
        m, n = _pythagorean_ratio(rng)
        w1, w2 = body(rng), body(rng)
        bodies[q.a] = m * w1
        bodies[q.c] = m * w2
        bodies[q.b] = n * w1
        bodies[q.d] = n * w2
    lam = {e: algebra.scalar(bodies[e]) + _random_even_soul(algebra, rng, coeff)
           for e in range(graph.num_edges)}
    if odd:
        mu = {v: _random_odd(algebra, rng, coeff)
              for v in range(graph.num_vertices)}
    else:
        mu = {v: algebra.zero() for v in range(graph.num_vertices)}
    signs = [rng.choice((1, -1)) for _ in range(graph.num_edges)]
    return DecoratedState(graph, OrientationState(graph, signs), algebra, lam, mu)


def generic_edges(graph):
    out = []
    for e in range(graph.num_edges):
        try:
            flip_quadrilateral(graph, e)
        except NonGenericFlipError:
            continue
        out.append(e)
    return out


def pentagon_pairs(graph):
    """Edge pairs (e1, e2) that are the diagonals of an embedded pentagon.

    e1 and e2 share exactly one vertex, their far endpoints are distinct,
    and the five outer sides are five distinct further edges.  On such a
    pair the alternating 5-flip sequence returns the triangulation.
    """
    pairs = []
    for e1 in range(graph.num_edges):
        for e2 in range(graph.num_edges):
            if e1 == e2 or graph.is_loop(e1) or graph.is_loop(e2):
                continue
            end1 = {graph.tail_vertex(e1), graph.head_vertex(e1)}
            end2 = {graph.tail_vertex(e2), graph.head_vertex(e2)}
            shared = end1 & end2
            if len(shared) != 1:
                continue
            v = shared.pop()
            u = (end1 - {v}).pop()
            w = (end2 - {v}).pop()
            if u == w:
                continue
            sides = set(graph.edges_at(v)) - {e1, e2}
            sides |= set(graph.edges_at(u)) - {e1}
            sides |= set(graph.edges_at(w)) - {e2}
            if len(sides) == 5 and not sides & {e1, e2}:
                pairs.append((e1, e2))
    return pairs


# ---------------------------------------------------------------------------
# the suites


def check_ptolemy(graph, seed=0, mode=RATIONAL, tol=1e-12, cases=1000):
    """Classical limit: e*f = ac + bd after every flip of a mu=0 state."""
    edges = generic_edges(graph)
    if not edges:
        raise CheckSetupError("graph has no generically flippable edge")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e = rng.choice(edges)
        state = random_decorated_state(graph, rng, mode=mode, odd=False)
        q = flip_quadrilateral(graph, e)
        flipped, _ = superflip(state, e)
        lhs = state.lam[e] * flipped.lam[e]
        rhs = state.lam[q.a] * state.lam[q.c] + state.lam[q.b] * state.lam[q.d]
        if flipped.lam[e].body <= 0:
            failures += 1
        elif mode == RATIONAL:
            if lhs != rhs:
                failures += 1
        else:
            scale = max(1.0, abs(lhs.body), abs(rhs.body))
            if not lhs.isclose(rhs, tol * scale):
                failures += 1
    return CheckResult("ptolemy", failures == 0, cases,
                       "mode=%s failures=%d" % (mode, failures))


def check_involution(graph, seed=0, mode=RATIONAL, tol=1e-9, cases=500):
    """Double superflip returns the original state modulo global odd sign.

    Exact in rational mode (chi engineered square-friendly), within tol
    coefficientwise in float mode.
    """
    edges = generic_edges(graph)
    if not edges:
        raise CheckSetupError("graph has no generically flippable edge")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e = rng.choice(edges)
        if mode == RATIONAL:
            state = random_decorated_state(graph, rng, mode=mode,
                                           square_friendly_edge=e)
            use_tol = None
        else:
            state = random_decorated_state(graph, rng, mode=mode)
            use_tol = tol
        once, _ = superflip(state, e)
        twice, _ = superflip(once, e)
        if not aligned_equal_mod_sign(state, twice, {e}, tol=use_tol):
            failures += 1
    return CheckResult("involution", failures == 0, cases,
                       "mode=%s failures=%d" % (mode, failures))


def check_pentagon(graph, seed=0, mode=FLOAT, tol=1e-9, cases=100):
    """The alternating 5-flip sequence on pentagon diagonals is the identity."""
    if mode != FLOAT:
        raise CheckSetupError("pentagon check needs float mode (square roots "
                              "along the sequence are irrational)")
    pairs = pentagon_pairs(graph)
    if not pairs:
        raise CheckSetupError("graph contains no generic pentagon configuration")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e1, e2 = pairs[rng.randrange(len(pairs))]
        state = random_decorated_state(graph, rng, mode=mode)
        current = state
        for e in (e1, e2, e1, e2, e1):
            current, _ = superflip(current, e)
        if not aligned_equal_mod_sign(state, current, {e1, e2}, tol=tol):
            failures += 1
    return CheckResult("pentagon", failures == 0, cases,
                       "mode=%s pairs=%d failures=%d" % (mode, len(pairs), failures))


def check_spincount(graph, seed=0, mode=RATIONAL, tol=1e-9, cases=1):
    """Spin class count: forest enumeration vs rank formula vs 2^(2g+s-1).

    The enumeration and the rank formula 2^(E - rank) both come from the
    spanning forest; brute_force_spin_classes partitions the orientations
    into reflection orbits without it.

    The brute-force orbit oracle runs only up to MAX_BRUTE_FORCE_EDGES
    edges; above that the detail reports it as skipped and the other
    three counts decide the pass.
    """
    g, s, _, _ = topology(graph)
    fast = enumerate_spin_classes(graph)
    formula = spin_class_count(graph)
    expected = 1 << (2 * g + s - 1)
    passed = len(fast) == formula == expected
    if graph.num_edges <= MAX_BRUTE_FORCE_EDGES:
        slow = brute_force_spin_classes(graph)
        same_reps = [st.signs for st in fast] == [st.signs for st in slow]
        passed = passed and len(slow) == len(fast) and same_reps
        brute_force = len(slow)
    else:
        brute_force = same_reps = "skipped"
    detail = ("enumerated=%d brute_force=%s rank_formula=%d 2^(2g+s-1)=%d reps_match=%s"
              % (len(fast), brute_force, formula, expected, same_reps))
    return CheckResult("spincount", passed, len(fast), detail)


SUITES = {
    "ptolemy": check_ptolemy,
    "involution": check_involution,
    "pentagon": check_pentagon,
    "spincount": check_spincount,
}
