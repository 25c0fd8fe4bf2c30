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
from itertools import compress
from operator import itemgetter, ne

from .decorated import DecoratedState, states_equal_mod_sign, superflip
from .fatgraph import (NonGenericFlipError, _quadrilateral, find_isomorphisms,
                       flip_quadrilateral, topology)
from .grassmann import FLOAT, RATIONAL, GrassmannAlgebra, _sort_sign
from .spin import (MAX_BRUTE_FORCE_EDGES, OrientationState, SpinError,
                   brute_force_spin_classes, enumerate_spin_classes, spin_class_count)


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


_first = itemgetter(0)


def _gather(table, indices):
    """The tuple of table[i] for i in indices, gathered in C.

    indices holds at least two entries, as every per-edge, per-vertex or
    per-half-edge table of a fatgraph does (V >= 2).
    """
    return itemgetter(*indices)(table)


def transport_state(final_state, phi, initial_graph):
    """Pull a decorated state back along a half-edge isomorphism.

    phi maps half-edges of final_state.graph to initial_graph; signs are
    conjugated by whether phi preserves each edge's reference direction.
    The entries are those of a validated state, relabeled, so they are not
    checked again; a phi that misses an edge (SpinError) or a vertex
    (ValueError) raises.

    An edge whose tail phi sends to the tail of the same edge id keeps its
    lambda-length and sign, and a vertex whose first half-edge phi sends
    into the same vertex id keeps its mu-invariant.  Finding the rest is
    C-level per edge and vertex (gathers over phi and the graphs' tables,
    and copies of the maps); Python work is per edge and vertex that phi
    moves, which after a flip sequence are the touched ones.
    """
    gi = initial_graph
    tails = tuple(map(_first, gi.edges))
    edges_f = final_state.graph.edges
    images = _gather(phi, tails if edges_f is gi.edges else map(_first, edges_f))
    if len(images) != len(tails):
        raise SpinError("phi misses an edge of the initial graph")
    moved = list(compress(range(len(images)), map(ne, images, tails)))
    return _pulled_back(final_state, phi, gi, moved)


def _pulled_back(final_state, phi, gi, moved):
    """transport_state(final_state, phi, gi), given the final edge ids
    (increasing) outside which phi sends every tail to the tail of the
    same edge id; moved may hold edges phi does not move."""
    gf = final_state.graph
    lam_f, mask_f, mu_f = final_state.lam, final_state.orientation.mask, final_state.mu
    edges_f, edges_i = gf.edges, gi.edges
    images = [phi[edges_f[ef][0]] for ef in moved]
    targets = [gi._edge_of[k] for k in images]
    if sorted(targets) != moved:
        raise SpinError("phi misses an edge of the initial graph")
    lam = dict(lam_f)
    mask = mask_f
    for ef, ei, k in zip(moved, targets, images):
        lam[ei] = lam_f[ef]
        reversed_ = mask_f >> ef & 1 ^ (edges_i[ei][0] != k)
        mask = mask & ~(1 << ei) | reversed_ << ei
    orientation = OrientationState._unchecked(gi, mask)
    homes = _gather(gi._vertex_of, _gather(phi, map(_first, gf.vertices)))
    moved = list(compress(range(len(homes)), map(ne, homes, range(gi.num_vertices))))
    if len(homes) != gi.num_vertices or sorted(homes[v] for v in moved) != moved:
        raise ValueError("phi misses a vertex of the initial graph")
    mu = dict(mu_f)
    for vf in moved:
        mu[homes[vf]] = mu_f[vf]
    return DecoratedState._unchecked(orientation, final_state.algebra, lam, mu)


def _local_isomorphism(gf, gi, touched):
    """The half-edge isomorphism from gf to gi that is the identity on
    every half-edge outside the edges touched (ids of gi's edges, not all
    of them), or None.

    phi starts as the identity, and only the touched half-edges are
    filled, each from a known half-edge one sigma or alpha step of gf
    before it, starting at their fixed neighbours.  The isomorphism that
    fixes an untouched half-edge is unique (the graphs are connected), so
    this phi is it whenever it exists.  It is checked over every
    half-edge: phi o sigma_f and sigma_i o phi differ from sigma_f and
    sigma_i only at the touched half-edges and their predecessors, so
    each is a C-level copy of sigma_f or sigma_i patched there, and the
    two copies must be equal; likewise for alpha.  phi is a bijection
    exactly when it permutes the touched half-edges.  Python work is per
    touched half-edge; per half-edge there are only C-level copies and
    comparisons.
    """
    n = len(gi._sigma)
    if len(gf._sigma) != n:
        return None
    sigma_f, alpha_f = gf._sigma, gf._alpha
    sigma_i, alpha_i = gi._sigma, gi._alpha
    phi = list(range(n))
    open_halves = [h for e in touched for h in gi.edges[e]]
    for h in open_halves:
        phi[h] = None
    # fixed half-edges whose sigma or alpha step lands on a touched one
    stack = [p for h in open_halves for p in (sigma_f[sigma_f[h]], alpha_f[h])
             if phi[p] is not None]
    while stack:
        h = stack.pop()
        k = phi[h]
        nxt = sigma_f[h]
        if phi[nxt] is None:
            phi[nxt] = sigma_i[k]
            stack.append(nxt)
        nxt = alpha_f[h]
        if phi[nxt] is None:
            phi[nxt] = alpha_i[k]
            stack.append(nxt)
    images = [phi[h] for h in open_halves]
    if None in images or sorted(images) != sorted(open_halves):
        return None
    # phi o sigma_f and sigma_i o phi, and the same for alpha
    phi_sigma, sigma_phi = list(sigma_f), list(sigma_i)
    phi_alpha, alpha_phi = list(alpha_f), list(alpha_i)
    for h, k in zip(open_halves, images):
        phi_sigma[sigma_f[sigma_f[h]]] = k   # at x = sigma_f^-1(h), phi(sigma_f(x)) = k
        sigma_phi[h] = sigma_i[k]
        phi_alpha[alpha_f[h]] = k
        alpha_phi[h] = alpha_i[k]
    if phi_sigma != sigma_phi or phi_alpha != alpha_phi:
        return None
    return tuple(phi)


def aligned_equal_mod_sign(initial, final, touched_edges, tol=None):
    """Compare states across a flip sequence that returns the triangulation.

    Finds the isomorphism from the final graph to the initial one that is
    the identity on all half-edges of edges outside touched_edges,
    transports the final state and compares it with the initial one by
    states_equal_mod_sign.  False when no such isomorphism exists or the
    spin classes disagree.  Ids in touched_edges that are not edges of the
    initial graph are ignored.  When touched_edges covers every edge,
    every isomorphism is tried (find_isomorphisms).

    Otherwise finding and checking the isomorphism (_local_isomorphism)
    does Python work per touched edge only, and so does the transport
    when the two graphs list the same edges: phi then fixes the tail of
    every untouched edge, so only the touched edges are transported.  Per
    edge there are only C-level gathers, copies and comparisons, as in
    the exact lambda-length comparison and in finding the edges whose
    signs differ; deciding the spin class (reflection_vertices_between)
    is Python work per differing edge and reflected vertex.
    """
    gi, gf = initial.graph, final.graph
    touched = set(touched_edges).intersection(range(gi.num_edges))
    if len(touched) == gi.num_edges:
        return any(states_equal_mod_sign(transport_state(final, phi, gi), initial, tol=tol)
                   for phi in find_isomorphisms(gf, gi))
    phi = _local_isomorphism(gf, gi, touched)
    if phi is None:
        return False
    if gf.edges is gi.edges or gf.edges == gi.edges:
        moved = _pulled_back(final, phi, gi, sorted(touched))
    else:
        moved = transport_state(final, phi, gi)
    return states_equal_mod_sign(moved, initial, tol=tol)


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


def _draws_element(algebra, draws, body=0):
    """body plus the element of (indices, coefficient) draws, in one pass.

    A repeated monomial sums its coefficients in draw order, and a
    monomial whose sum is zero is dropped, as adding the draws one
    monomial at a time would.  A nonzero body is the first term, so the
    result is algebra.scalar(body) plus the draws' element, built with one
    lcm and one reduce instead of an addition.
    """
    n = algebra.num_generators
    terms = {0: body} if body else {}
    for indices, c in draws:
        mask, sign = _sort_sign(indices, n)
        terms[mask] = terms.get(mask, 0) + sign * c
    return algebra.element(terms)


def _random_even_soul(algebra, rng, coeff, body=0):
    """body plus a random soul of at most two weight-2 monomials."""
    n = algebra.num_generators
    draws = []
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            draws.append(((i, j), coeff(rng)))
    return _draws_element(algebra, draws, body)


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
        a, b, c, d = _quadrilateral(graph, square_friendly_edge)[8:]
        m, n = _pythagorean_ratio(rng)
        w1, w2 = body(rng), body(rng)
        bodies[a] = m * w1
        bodies[c] = m * w2
        bodies[b] = n * w1
        bodies[d] = n * w2
    lam = {e: _random_even_soul(algebra, rng, coeff, bodies[e])
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
    """e*f = ac + bd after every flip of a mu = 0 state.

    The states keep even souls on their lambda-lengths, so the identity
    is checked in the whole algebra; body-only states with mu = 0 are
    the classical limit (decorated.classical_limit).
    """
    edges = generic_edges(graph)
    if not edges:
        raise CheckSetupError("graph has no generically flippable edge")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e = rng.choice(edges)
        state = random_decorated_state(graph, rng, mode=mode, odd=False)
        flipped, record = superflip(state, e)
        lhs = state.lam[e] * flipped.lam[e]
        rhs = (state.lam[record.a] * state.lam[record.c]
               + state.lam[record.b] * state.lam[record.d])
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
        same_reps = [st.mask for st in fast] == [st.mask for st in slow]
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
