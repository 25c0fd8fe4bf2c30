"""Randomized property suites shared by the CLI `check` command and tests.

All randomness flows from one seed; identical (graph, seed, mode) runs
produce identical reports.  A suite draws, per case, its edge or pentagon
and then its state, and random_decorated_state draws in a fixed order: a
body per edge, the square-friendly ratio and weights, a soul per edge, a
mu per vertex and a sign per edge.  Every randrange(a, b), randint and
choice of the suites and of random_decorated_state is drawn as CPython's
Random._randbelow draws it (_below): getrandbits(k) for k the bit length
of the range's width n, drawn again while it is n or more.  That reads
the same Mersenne words in the same order as the library call, so the
draws, the generator's state afterwards and a seed's cases are those of
the randrange, randint and choice spelling.  The flip suites compare
states across flip sequences by transporting the final state back along
the canonical graph isomorphism (the one fixing every half-edge of
untouched edges) and then asking decorated.states_equal_mod_sign, which
aligns the spin-class representatives by reflections and allows the
global odd sign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from math import gcd
from operator import itemgetter, ne

from .decorated import DecoratedState, states_equal_mod_sign, superflip
from .fatgraph import (NonGenericFlipError, _quadrilateral, find_isomorphisms,
                       flip_quadrilateral, topology)
from .grassmann import FLOAT, RATIONAL, GrassmannAlgebra, _element
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

# range(m) as a list for the largest m asked so far (_identity_list); it is
# replaced, never mutated, so a thread that reads it sees a whole one
_identity = []


def _identity_list(n):
    """list(range(n)), as a C-level copy of a prefix of a cached list."""
    global _identity
    identity = _identity
    if len(identity) < n:
        identity = _identity = list(range(n))
    return identity[:n]


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
    same edge id; moved may hold edges phi does not move.  The vertices
    phi moves come from _vertex_homes, and a state in which none moves
    shares final_state's mu map."""
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
    homes = _vertex_homes(gf, phi, gi, [h for ef in moved for h in edges_f[ef]])
    if sorted(homes.values()) != sorted(homes):
        raise ValueError("phi misses a vertex of the initial graph")
    mu = mu_f
    if homes:
        mu = dict(mu_f)
        for vf, vi in homes.items():
            mu[vi] = mu_f[vf]
    return DecoratedState._unchecked(orientation, final_state.algebra, lam, mu)


def _vertex_homes(gf, phi, gi, halves):
    """{vf: vi} for every vertex vf of gf whose first half-edge phi sends
    into another vertex vi of gi; ValueError when gi has another vertex
    count.

    halves are the half-edges of the moved edges.  When phi fixes every
    other half-edge (a list equal to the identity patched at halves) and
    gf and gi hold the same triple at every vertex that holds none of
    halves, as after flips of those edges only, each such vertex stays
    where it is, and only the vertices holding one of halves are looked
    up: Python work per moved half-edge, and per vertex and half-edge
    only C-level copies and comparisons.  Otherwise every vertex's home
    is gathered in C.
    """
    vertex_of_i = gi._vertex_of
    near = {gf._vertex_of[h] for h in halves}
    fixed = _identity_list(len(phi))
    for h in halves:
        fixed[h] = phi[h]
    triples_f, triples_i = list(gf.vertices), list(gi.vertices)
    if fixed == phi and len(triples_f) == len(triples_i):
        for v in near:
            triples_f[v] = triples_i[v] = None
        if triples_f == triples_i:
            homes = {v: vertex_of_i[phi[gf.vertices[v][0]]] for v in near}
            return {vf: vi for vf, vi in homes.items() if vf != vi}
    homes = _gather(vertex_of_i, _gather(phi, map(_first, gf.vertices)))
    if len(homes) != gi.num_vertices:
        raise ValueError("phi misses a vertex of the initial graph")
    ids = range(len(homes))
    return {vf: homes[vf] for vf in compress(ids, map(ne, homes, ids))}


def _local_isomorphism(gf, gi, touched):
    """The half-edge isomorphism from gf to gi that is the identity on
    every half-edge outside the edges touched (ids of gi's edges, not all
    of them), as a list, or None.

    phi starts as a copy of the cached identity list, and only the
    touched half-edges are filled, each from a known half-edge one sigma
    or alpha step of gf before it, in passes that start at their fixed
    neighbours.  The isomorphism that fixes an untouched half-edge is
    unique (the graphs are connected), so this phi is it whenever it
    exists.  phi is a bijection exactly when it permutes the touched
    half-edges.

    phi o sigma_f and sigma_i o phi differ from sigma_f and sigma_i only
    at the touched half-edges and their predecessors, so each is a
    C-level copy of sigma_f or sigma_i patched there, and the two copies
    must be equal.  alpha is checked the same way unless both graphs hold
    the same alpha list, as every flip descendant holds its ancestor's (a
    flip never changes alpha): the touched half-edges are then closed
    under alpha and phi fixes every other half-edge, so phi commutes with
    alpha exactly when it does at the touched half-edges.  Python work is
    per touched half-edge; per half-edge there are only C-level copies
    and comparisons.
    """
    n = len(gi._sigma)
    if len(gf._sigma) != n:
        return None
    sigma_f, alpha_f = gf._sigma, gf._alpha
    sigma_i, alpha_i = gi._sigma, gi._alpha
    phi = _identity_list(n)
    open_halves = [h for e in touched for h in gi.edges[e]]
    for h in open_halves:
        phi[h] = None
    # each pass fills the touched half-edges whose sigma_f predecessor or
    # alpha_f partner is known; a pass that fills none leaves phi partial
    pending = open_halves
    while pending:
        left = []
        for h in pending:
            k = phi[sigma_f[sigma_f[h]]]
            if k is not None:
                phi[h] = sigma_i[k]
            elif (k := phi[alpha_f[h]]) is not None:
                phi[h] = alpha_i[k]
            else:
                left.append(h)
        if len(left) == len(pending):
            return None
        pending = left
    images = list(map(phi.__getitem__, open_halves))
    if sorted(images) != sorted(open_halves):
        return None
    phi_sigma, sigma_phi = sigma_f.copy(), sigma_i.copy()
    for h, k in zip(open_halves, images):
        phi_sigma[sigma_f[sigma_f[h]]] = k   # at x = sigma_f^-1(h), phi(sigma_f(x)) = k
        sigma_phi[h] = sigma_i[k]
    if phi_sigma != sigma_phi:
        return None
    if alpha_f is alpha_i:
        if (list(map(phi.__getitem__, map(alpha_f.__getitem__, open_halves)))
                != list(map(alpha_i.__getitem__, images))):
            return None
    else:
        phi_alpha, alpha_phi = alpha_f.copy(), alpha_i.copy()
        for h, k in zip(open_halves, images):
            phi_alpha[alpha_f[h]] = k
            alpha_phi[h] = alpha_i[k]
        if phi_alpha != alpha_phi:
            return None
    return phi


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
    does Python work per touched half-edge only: phi is a copy of a cached
    identity list filled at the touched half-edges, sigma is checked by
    one patched C-level copy and comparison per side, and alpha, when
    both graphs hold the same alpha list (every flip descendant of the
    initial graph does), only at the touched half-edges.  So does the
    transport when the two graphs list the same edges: phi then fixes the
    tail of every untouched edge, so only the touched edges are
    transported, and when the two graphs also hold the same triple at
    every vertex off the touched edges, only the vertices on them are
    (_vertex_homes).  Per edge, vertex and half-edge there are only
    C-level copies and comparisons, as in the exact lambda-length
    comparison and in finding the edges whose signs differ; deciding the
    spin class (reflection_vertices_between) is Python work per differing
    edge and reflected vertex.
    """
    gi, gf = initial.graph, final.graph
    edge_ids = range(gi.num_edges)
    # membership in a range is a comparison for an int, not a pass over it
    touched = sorted({int(e) for e in touched_edges if e in edge_ids})
    if len(touched) == gi.num_edges:
        return any(states_equal_mod_sign(transport_state(final, phi, gi), initial, tol=tol)
                   for phi in find_isomorphisms(gf, gi))
    phi = _local_isomorphism(gf, gi, touched)
    if phi is None:
        return False
    if gf.edges is gi.edges or gf.edges == gi.edges:
        moved = _pulled_back(final, phi, gi, touched)
    else:
        moved = transport_state(final, phi, gi)
    return states_equal_mod_sign(moved, initial, tol=tol)


# ---------------------------------------------------------------------------
# random decorated states


def _below(getrandbits, n):
    """rng.randrange(n) for n >= 1, given rng.getrandbits, drawn as
    CPython's Random._randbelow draws it: getrandbits(k) for k =
    n.bit_length(), drawn again while it is n or more.  So it reads the
    same Mersenne words as randrange(n), and randrange(a, b) is a +
    _below(getrandbits, b - a), without randrange's argument checks."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _pythagorean_ratio(rng):
    # chi = (m/n)^2 with m^2 + n^2 a perfect square, so that both sqrt(chi)
    # and sqrt(1 + chi) are rational
    bits = rng.getrandbits
    p = 2 + _below(bits, 5)       # randrange(2, 7)
    q = 1 + _below(bits, p - 1)   # randrange(1, p)
    m, n = p * p - q * q, 2 * p * q
    if rng.random() < 0.5:
        m, n = n, m
    return m, n


def random_decorated_state(graph, rng, mode=RATIONAL, odd=True,
                           square_friendly_edge=None):
    """Random decorated state on graph, one algebra generator per vertex.

    With square_friendly_edge set (rational mode), the quadrilateral of
    that edge gets lambda bodies making chi and 1+chi squares of
    rationals, so a superflip there stays exact.

    Draws, in this order, which fixes the state of a seed:

    1. a body per edge, in edge order: p/q with p and q each
       randint(1, 9) (rational mode), or uniform(0.5, 4.0) (float mode);
    2. with square_friendly_edge set, the Pythagorean ratio m, n (p =
       randint(2, 6), randint(1, p - 1), and random() for the swap) and
       two weights w1, w2 drawn as bodies, giving bodies m*w1, m*w2,
       n*w1, n*w2 to the sides a, c, b, d;
    3. a soul per edge, in edge order: randint(0, 2) pairs (i, j) of
       randrange(V) each, and for each pair with i != j a coefficient,
       randint(-3, 3) or uniform(-1.0, 1.0), on t_i t_j;
    4. with odd set, a mu per vertex, in vertex order: a coefficient per
       generator, and for V >= 3 a random() that, below 0.2, adds
       sample(range(V), 3) with one more coefficient on their product;
    5. a sign per edge, choice((1, -1)), in edge order.

    Each randint(a, b), randrange and choice is drawn from getrandbits as
    CPython's Random._randbelow draws it (_below): randint(a, b) is a plus
    getrandbits(k) for k the bit length of b - a + 1, drawn again while it
    is above b - a, and choice((1, -1)) draws 2 bits, again while they are
    2 or more.  That reads the same Mersenne words as the library calls,
    so the state and the generator's state afterwards are theirs; uniform,
    random and sample are the library's.  Each element is built once, in
    normal form: a body p/q in lowest terms is the map {0: p, mask: c*q,
    ...} over q, each mu a map over 1; a repeated monomial sums its
    coefficients in draw order, zero sums are dropped and the first draw
    of a monomial fixes its place.  The state is valid by construction
    (bodies > 0, souls of weight 2, mus of weight 1 and 3), so it is not
    checked again.
    """
    num_edges, n = graph.num_edges, graph.num_vertices
    algebra = GrassmannAlgebra(n, mode)
    bits, uniform = rng.getrandbits, rng.uniform
    exact = mode == RATIONAL
    if exact:
        def coeff():   # randint(-3, 3), _below(bits, 7) - 3 inlined
            r = bits(3)
            while r == 7:
                r = bits(3)
            return r - 3

        bodies = []
        for _ in range(num_edges):
            p, q = 1 + _below(bits, 9), 1 + _below(bits, 9)   # randint(1, 9) twice
            g = gcd(p, q)
            bodies.append((p // g, q // g))
    else:
        coeff = partial(uniform, -1.0, 1.0)
        bodies = [(uniform(0.5, 4.0), 1) for _ in range(num_edges)]
    if square_friendly_edge is not None:
        a, b, c, d = _quadrilateral(graph, square_friendly_edge)[8:]
        m, k = _pythagorean_ratio(rng)
        if exact:
            w1 = Fraction(1 + _below(bits, 9), 1 + _below(bits, 9))
            w2 = Fraction(1 + _below(bits, 9), 1 + _below(bits, 9))
        else:
            w1, w2 = uniform(0.5, 4.0), uniform(0.5, 4.0)
        for e, r in ((a, m * w1), (c, m * w2), (b, k * w1), (d, k * w2)):
            bodies[e] = (r.numerator, r.denominator) if exact else (r, 1)
    lam = {}
    for e, (p, q) in enumerate(bodies):
        num = {0: p}
        for _ in range(_below(bits, 3)):   # randint(0, 2)
            i, j = _below(bits, n), _below(bits, n)
            if i != j:
                c = coeff() * q
                mask = 1 << i | 1 << j
                num[mask] = num.get(mask, 0) + (c if i < j else -c)
        if not all(num.values()):
            num = {mask: c for mask, c in num.items() if c}
        lam[e] = _element(algebra, num, q)
    if odd:
        gens = [1 << i for i in range(n)]
        random_ = rng.random
        mu = {}
        for v in range(n):
            num = {bit: c for bit in gens if (c := coeff())}
            if n >= 3 and random_() < 0.2:
                i, j, k = rng.sample(range(n), 3)
                c = coeff()
                if c:
                    # t_i t_j t_k is e_mask times the sign of its inversions
                    odd_order = (i > j) ^ (i > k) ^ (j > k)
                    num[1 << i | 1 << j | 1 << k] = -c if odd_order else c
            mu[v] = _element(algebra, num, 1)
    else:
        mu = dict.fromkeys(range(n), algebra.zero())
    # choice((1, -1)) is -1 when _below(bits, 2) is 1
    mask = sum(1 << e for e in range(num_edges) if _below(bits, 2))
    return DecoratedState._unchecked(OrientationState._unchecked(graph, mask),
                                     algebra, lam, mu)


def generic_edges(graph):
    """The edges whose flip is generic, in increasing order.

    It builds one Quadrilateral per edge only to catch
    NonGenericFlipError, and that is kept on purpose until the bench
    recorder stops keeping one latency per op (ROADMAP item 7).  A copy
    that calls _quadrilateral instead took 99 against 549 us per call at
    V = 128 (CPython 3.11, 2-vCPU Xeon); in 30 s classical bench runs at
    seed 301 it made 276 420 and 283 900 ops against 105 315 and 92 395,
    so its peak_rss_mb read 62.4 and 63.1 against 49.0 and 48.9, past that
    metric's 10 % bound.
    """
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

    e1 and e2 share exactly one vertex v, their far endpoints u and w are
    distinct, and the five outer sides are five distinct further edges.
    On such a pair the alternating 5-flip sequence returns the
    triangulation.  The candidates are, vertex by vertex, the ordered
    pairs of distinct non-loop edges at v with distinct far ends (equal
    ones would make the edges share two vertices); the pairs are returned
    sorted, in the order of a loop over all (e1, e2).
    """
    stars = [set(graph.edges_at(v)) for v in range(graph.num_vertices)]
    pairs = []
    for v, star in enumerate(stars):
        far = {}   # the far end of each non-loop edge at v
        for e in star:
            tail, head = graph.tail_vertex(e), graph.head_vertex(e)
            if tail != head:
                far[e] = head if tail == v else tail
        for e1, u in far.items():
            for e2, w in far.items():
                if e1 == e2 or u == w:   # u == w: both edges join v and u
                    continue
                sides = (star - {e1, e2}) | (stars[u] - {e1}) | (stars[w] - {e2})
                if len(sides) == 5 and not sides & {e1, e2}:
                    pairs.append((e1, e2))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# the suites


def _require_cases(cases):
    """A suite of random cases runs at least one: zero would pass vacuously."""
    if cases < 1:
        raise CheckSetupError("need at least 1 case, got %d" % cases)


def check_ptolemy(graph, seed=0, mode=RATIONAL, tol=1e-12, cases=1000):
    """e*f = ac + bd after every flip of a mu = 0 state.

    The states keep even souls on their lambda-lengths, so the identity
    is checked in the whole algebra; body-only states with mu = 0 are
    the classical limit (decorated.classical_limit).
    """
    _require_cases(cases)
    edges = generic_edges(graph)
    if not edges:
        raise CheckSetupError("graph has no generically flippable edge")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e = edges[_below(rng.getrandbits, len(edges))]   # rng.choice(edges)
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
    _require_cases(cases)
    edges = generic_edges(graph)
    if not edges:
        raise CheckSetupError("graph has no generically flippable edge")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e = edges[_below(rng.getrandbits, len(edges))]   # rng.choice(edges)
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
    _require_cases(cases)
    if mode != FLOAT:
        raise CheckSetupError("pentagon check needs float mode (square roots "
                              "along the sequence are irrational)")
    pairs = pentagon_pairs(graph)
    if not pairs:
        raise CheckSetupError("graph contains no generic pentagon configuration")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        e1, e2 = pairs[_below(rng.getrandbits, len(pairs))]   # rng.randrange(len(pairs))
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
