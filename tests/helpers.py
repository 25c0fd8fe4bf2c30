"""Helpers shared by the test modules."""

import math
import sys
from collections import deque
from itertools import combinations
from fractions import Fraction
from math import gcd

from superpenner.checks import generic_edges
from superpenner.decorated import DecoratedState, _check_lambda, _check_mu, states_equal_mod_sign
from superpenner.fatgraph import (FatGraph, _quadrilateral, boundary_cycles, find_isomorphisms,
                                  flip_quadrilateral, propagate_isomorphism, whitehead_flip)
from superpenner.grassmann import (FLOAT, RATIONAL, _TERM_RE, GrassmannAlgebra,
                                   GrassmannError, _below_parity, _element, _finish, _join,
                                   _monomial, _ptolemy, _reduced, _rules, gdiv, ginvsqrt, glog,
                                   gsqrt)
from superpenner.spin import (OrientationState, SpinError, flip_orientation, reflection_mask,
                              reflection_vertices_between)


def boundary_correspondence(graph1, graph2, skip_halves=()):
    """Match boundary cycles of graph1 to graph2 by shared half-edges.

    Half-edges in skip_halves (those of flipped edges) are ignored when
    matching.  Returns a dict cycle-index -> cycle-index, or None when the
    matching is not a bijection.
    """
    skip = set(skip_halves)
    cycles1 = boundary_cycles(graph1)
    cycles2 = boundary_cycles(graph2)
    if len(cycles1) != len(cycles2):
        return None
    mapping = {}
    for i, cyc in enumerate(cycles1):
        keys = set(cyc) - skip
        matches = [j for j, other in enumerate(cycles2) if keys & set(other)]
        if len(matches) != 1:
            return None
        mapping[i] = matches[0]
    if len(set(mapping.values())) != len(cycles1):
        return None
    return mapping


def prism(n):
    """The prism over an n-cycle: 2n vertices, 3n edges, no loops."""
    vertices = [(3 * v, 3 * v + 1, 3 * v + 2) for v in range(2 * n)]
    edges = [(3 * (ring + i), 3 * (ring + (i + 1) % n) + 1)
             for ring in (0, n) for i in range(n)]
    edges += [(3 * i + 2, 3 * (n + i) + 2) for i in range(n)]
    return FatGraph(vertices, edges)


def dumbbell():
    """A loop at each end of a bridge; genus 0, three punctures."""
    return FatGraph([(0, 1, 2), (3, 4, 5)], [(0, 1), (2, 3), (4, 5)])


def flip_descendants(graph, rng, flips):
    """graph and up to flips graphs after it, each a Whitehead flip of the
    one before at a random generic edge (fewer when none is generic)."""
    out = [graph]
    for _ in range(flips):
        edges = generic_edges(out[-1])
        if not edges:
            break
        out.append(whitehead_flip(out[-1], rng.choice(edges))[0])
    return out


def reference_spin_classes(graph):
    """Sign tuples of the orbit representatives, by a per-mask search.

    Visits all 2^E orientations in lexicographic order (edge 0 first,
    + before -) and runs a breadth-first search over the reflection
    moves from every mask not yet seen, keeping the seen masks in a set.
    The reference for spin.brute_force_spin_classes, which translates one
    orbit instead.
    """
    num_edges = graph.num_edges
    moves = star_matrix(graph)
    seen = set()
    reps = []
    for i in range(1 << num_edges):
        start = int(format(i, "0%db" % num_edges)[::-1], 2)
        if start in seen:
            continue
        reps.append(start)
        seen.add(start)
        queue = deque([start])
        while queue:
            m = queue.popleft()
            for move in moves:
                nxt = m ^ move
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return tuple(tuple(-1 if m >> e & 1 else 1 for e in range(num_edges)) for m in reps)


def reference_reflection_vertices_between(state1, state2):
    """spin.reflection_vertices_between by a walk over the edges.

    X (the set without vertex 0) is found by walking the edges from
    vertex 0, outside X: the far end of e is in X when exactly one of
    "near end in X" and "the signs differ on e" holds.  An edge whose ends
    then disagree, a differing loop included, means no X exists.  The
    reference for the fundamental-cut reading, which never walks.
    """
    if state1.graph != state2.graph:
        raise SpinError("orientation states live on different graphs")
    graph = state1.graph
    differs = [s1 != s2 for s1, s2 in zip(state1.signs, state2.signs)]
    inside = [None] * graph.num_vertices
    inside[0] = False
    stack = [0]
    while stack:
        u = stack.pop()
        for h in graph.vertices[u]:
            w = graph.vertex_of(graph.alpha(h))
            x = inside[u] != differs[graph.edge_of(h)]
            if inside[w] is None:
                inside[w] = x
                stack.append(w)
            elif inside[w] != x:
                return None
    return tuple(v for v, x in enumerate(inside) if x)


def star_matrix(graph):
    """Reflection vectors of all vertices (loops cancel out)."""
    return [reflection_mask(graph, v) for v in range(graph.num_vertices)]


def rref(rows):
    """Reduced row echelon form over GF(2); pivots at lowest set bits.

    Returns (pivot_bit, row) pairs sorted by pivot.  The second oracle for
    spin._spanning_forest, whose edges are these pivots on star_matrix.
    """
    basis = []
    for row in rows:
        for pivot, r in basis:
            if row >> pivot & 1:
                row ^= r
        if row:
            pivot = (row & -row).bit_length() - 1
            basis = [(p, r ^ row) if r >> pivot & 1 else (p, r) for p, r in basis]
            basis.append((pivot, row))
    basis.sort()
    return basis


def canonical_representative(state):
    """Lexicographically smallest orientation in the spin class, by rref.

    Clearing every pivot bit of the orientation's mask leaves the smallest
    coset element for the edge-id order with + before -.
    """
    graph = state.graph
    mask = sum(1 << e for e, s in enumerate(state.signs) if s == -1)
    for pivot, row in rref(star_matrix(graph)):
        if mask >> pivot & 1:
            mask ^= row
    return OrientationState(graph, [-1 if mask >> e & 1 else 1
                                    for e in range(graph.num_edges)])


def reference_sign(s, t):
    """Sign of e_S * e_T: (-1)**#{(i,j) : i in S, j in T, i > j}, bit by bit."""
    count = 0
    while t:
        j = (t & -t).bit_length() - 1
        count += (s >> (j + 1)).bit_count()
        t &= t - 1
    return -1 if count & 1 else 1


def reference_class_sums(n, a, b, x, y):
    """The sums of weight class (a, b) on n generators, for coefficient
    lists x and y of length 2**n.

    For each monomial m of weight a + b, in increasing order, the signed
    products x_s y_t over the submasks s of m of weight a, in lexicographic
    order of their bits, with t = m ^ s, added one by one from the first
    product: the order and grouping of a dense product's runs.
    """
    sums = []
    for m in range(1 << n):
        if m.bit_count() != a + b:
            continue
        total = None
        for chosen in combinations([i for i in range(n) if m >> i & 1], a):
            s = sum(1 << i for i in chosen)
            t = m ^ s
            p = x[s] * y[t]
            if reference_sign(s, t) < 0:
                p = -p
            total = p if total is None else total + p
        sums.append(total)
    return sums


def reference_solve(y, start, factor, divisor):
    """The graded solve on Fraction coefficients, one Fraction per pending sum.

    start is a {mask: Fraction} map; factor(a, c) (None for 1) and
    divisor(w) return Fractions, and each pair is signed bit by bit.  Returns the {mask: Fraction} map of z
    with z_m = (start_m - sum factor(|s|, |t|) e z_s y_t) / divisor(|m|),
    over s | t = m with t in soul(y), by increasing weight.  The oracle
    for grassmann's solve on int numerators.
    """
    souls = [(t, c, t.bit_count()) for t, c in y.terms.items() if t]
    pending = {}
    for m, c in start.items():
        pending.setdefault(m.bit_count(), {})[m] = c
    terms = {}
    while pending:
        w = min(pending)
        d = divisor(w)
        row = [(t, c if factor is None else factor(w, tw) * c, w + tw) for t, c, tw in souls]
        for s, total in pending.pop(w).items():
            v = total / d
            if not v:
                continue
            terms[s] = v
            for t, c, mw in row:
                if s & t:
                    continue
                sums = pending.setdefault(mw, {})
                sums[s | t] = sums.get(s | t, 0) - reference_sign(s, t) * v * c
    return terms


def _rescale(sums, dens, w, scale):
    """The factor that puts a contribution over scale onto the pending sums
    of weight w, after moving those sums onto the lcm of their
    denominator and scale."""
    old = dens.get(w)
    if old is None or not sums:
        dens[w] = scale
        return 1
    g = math.gcd(old, scale)
    if scale != g:
        r = scale // g
        for m in sums:
            sums[m] *= r
        dens[w] = old * r
    return old // g


def reference_scan_solve(y, start, sden, alpha):
    """(num, den) of grassmann's solve by y from start / sden, in push form.

    Pending sums are kept per weight; the lowest weight is finished
    first, and each of its terms subtracts its pairs with the soul of y
    from the sums of higher weight.  In rational mode the sums of one
    weight share a denominator, which grows to the lcm of those of its
    contributions.  For a fixed monomial this adds the same pairs in the
    same order as the solve's scan, so float results must agree bit for
    bit and in dict order, and rational results in normal form.
    """
    n = y.algebra.num_generators
    exact = y.algebra.mode != FLOAT
    factor, divisor, fden = _rules(y, alpha)
    souls = [(t, c, _below_parity(t), t.bit_count()) for t, c in y.num.items() if t]
    pending = {}
    for m, c in start.items():
        pending.setdefault(m.bit_count(), {})[m] = c
    pending_dens = dict.fromkeys(pending, sden)
    terms = {}
    dens = {}
    while pending:
        w = min(pending)
        sums = pending.pop(w)
        if exact:
            den, values = _finish(list(sums.values()), pending_dens.pop(w), *divisor(w))
            values = {s: v for s, v in zip(sums, values) if v}
            dens[w] = den
            scales = {}
        else:
            d = divisor(w)
            values = {}
            for s, total in sums.items():
                v = total / d
                if v:
                    values[s] = v
        if not values:
            continue
        terms.update(values)
        row = []
        for t, c, p, tw in souls:
            mw = w + tw
            if mw > n:
                continue
            target = pending.setdefault(mw, {})
            if factor is not None:
                c = factor(w, tw) * c
            if exact:
                k = scales.get(mw)
                if k is None:
                    k = scales[mw] = _rescale(target, pending_dens, mw, fden * den * y.den)
                c *= k
            row.append((t, c, p, target))
        for s, v in values.items():
            for t, c, p, target in row:
                if s & t:
                    continue
                m = s | t
                if (s & p).bit_count() & 1:
                    target[m] = target.get(m, 0) + v * c
                else:
                    target[m] = target.get(m, 0) - v * c
    return _join(terms, dens)


def fraction_quotient(x, y):
    """The {mask: Fraction} map of x / y, by reference_solve."""
    b = y.body
    return reference_solve(y, x.terms, None, lambda w: b)


def fraction_power(y, alpha, root):
    """The {mask: Fraction} map of y**alpha from root = body**alpha, by reference_solve."""
    b = y.body
    return reference_solve(y, {0: Fraction(root)}, lambda a, c: a - alpha * c,
                           lambda w: b * w if w else 1)


def fraction_log(y):
    """The {mask: Fraction} map of log y for body 1, by reference_solve."""
    b = y.body
    start = {m: m.bit_count() * c for m, c in y.terms.items() if m}
    return reference_solve(y, start, lambda a, c: a, lambda w: b * w if w else 1)


def weight_mask(terms):
    """The weight mask of a {monomial: coefficient} map, counted bit by
    bit: bit k is set iff some monomial has k generators."""
    w = 0
    for m in terms:
        w |= 1 << bin(m).count("1")
    return w


def is_normal(x):
    """Whether a rational element is in normal form: int numerators, none
    zero, over a positive int denominator coprime to all of them."""
    nums = list(x.num.values())
    return (type(x.den) is int and x.den > 0 and all(type(c) is int and c for c in nums)
            and math.gcd(x.den, *nums) == 1)


def reference_random_even_soul(algebra, rng, coeff):
    """The soul of a lambda-length of checks.random_decorated_state, drawn
    as it draws it and built one monomial addition at a time."""
    n = algebra.num_generators
    x = algebra.zero()
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            x = x + algebra.monomial([i, j], coeff(rng))
    return x


def reference_random_odd(algebra, rng, coeff):
    """A mu-invariant of checks.random_decorated_state, drawn as it draws
    it and built one monomial addition at a time."""
    n = algebra.num_generators
    x = algebra.zero()
    for i in range(n):
        c = coeff(rng)
        if c != 0:
            x = x + algebra.monomial([i], c)
    if n >= 3 and rng.random() < 0.2:
        picks = rng.sample(range(n), 3)
        x = x + algebra.monomial(picks, coeff(rng))
    return x


def composed_random_decorated_state(graph, rng, mode=RATIONAL, odd=True,
                                    square_friendly_edge=None):
    """checks.random_decorated_state drawn with rng.randint, each
    lambda-length composed as algebra.scalar(body) plus a soul built one
    monomial at a time, each mu-invariant likewise, the square-friendly
    quadrilateral read from a Quadrilateral, and the state checked by
    DecoratedState(...): the oracle for the one-pass build, drawing from
    rng alike and sharing none of its code."""
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
        p = rng.randint(2, 6)
        r = rng.randint(1, p - 1)
        m, n = p * p - r * r, 2 * p * r
        if rng.random() < 0.5:
            m, n = n, m
        w1, w2 = body(rng), body(rng)
        bodies[q.a] = m * w1
        bodies[q.c] = m * w2
        bodies[q.b] = n * w1
        bodies[q.d] = n * w2
    lam = {e: algebra.scalar(bodies[e]) + reference_random_even_soul(algebra, rng, coeff)
           for e in range(graph.num_edges)}
    if odd:
        mu = {v: reference_random_odd(algebra, rng, coeff)
              for v in range(graph.num_vertices)}
    else:
        mu = {v: algebra.zero() for v in range(graph.num_vertices)}
    signs = [rng.choice((1, -1)) for _ in range(graph.num_edges)]
    return DecoratedState(graph, OrientationState(graph, signs), algebra, lam, mu)


def reference_pythagorean_ratio(rng):
    """checks._pythagorean_ratio drawn with rng.randrange."""
    # chi = (m/n)^2 with m^2 + n^2 a perfect square, so that both sqrt(chi)
    # and sqrt(1 + chi) are rational
    p = rng.randrange(2, 7)
    q = rng.randrange(1, p)
    m, n = p * p - q * q, 2 * p * q
    if rng.random() < 0.5:
        m, n = n, m
    return m, n


def reference_random_decorated_state(graph, rng, mode=RATIONAL, odd=True,
                                     square_friendly_edge=None):
    """checks.random_decorated_state as it was written with the library's
    draws: randint(a, b) spelled rng.randrange(a, b + 1), and
    rng.choice((1, -1)) for the signs.  The oracle that the getrandbits
    draws read the same words: same elements, dict order and generator
    state afterwards."""
    num_edges, n = graph.num_edges, graph.num_vertices
    algebra = GrassmannAlgebra(n, mode)
    randrange, uniform = rng.randrange, rng.uniform
    exact = mode == RATIONAL
    if exact:
        coeff, low, high = randrange, -3, 4
        bodies = []
        for _ in range(num_edges):
            p, q = randrange(1, 10), randrange(1, 10)
            g = gcd(p, q)
            bodies.append((p // g, q // g))
    else:
        coeff, low, high = uniform, -1.0, 1.0
        bodies = [(uniform(0.5, 4.0), 1) for _ in range(num_edges)]
    if square_friendly_edge is not None:
        a, b, c, d = _quadrilateral(graph, square_friendly_edge)[8:]
        m, k = reference_pythagorean_ratio(rng)
        if exact:
            w1 = Fraction(randrange(1, 10), randrange(1, 10))
            w2 = Fraction(randrange(1, 10), randrange(1, 10))
        else:
            w1, w2 = uniform(0.5, 4.0), uniform(0.5, 4.0)
        for e, r in ((a, m * w1), (c, m * w2), (b, k * w1), (d, k * w2)):
            bodies[e] = (r.numerator, r.denominator) if exact else (r, 1)
    lam = {}
    for e, (p, q) in enumerate(bodies):
        num = {0: p}
        for _ in range(randrange(0, 3)):
            i, j = randrange(n), randrange(n)
            if i != j:
                c = coeff(low, high) * q
                mask = 1 << i | 1 << j
                num[mask] = num.get(mask, 0) + (c if i < j else -c)
        if not all(num.values()):
            num = {mask: c for mask, c in num.items() if c}
        lam[e] = _element(algebra, num, q)
    if odd:
        bits = [1 << i for i in range(n)]
        random_ = rng.random
        mu = {}
        for v in range(n):
            num = {bit: c for bit in bits if (c := coeff(low, high))}
            if n >= 3 and random_() < 0.2:
                i, j, k = rng.sample(range(n), 3)
                c = coeff(low, high)
                if c:
                    # t_i t_j t_k is e_mask times the sign of its inversions
                    odd_order = (i > j) ^ (i > k) ^ (j > k)
                    num[1 << i | 1 << j | 1 << k] = -c if odd_order else c
            mu[v] = _element(algebra, num, 1)
    else:
        mu = dict.fromkeys(range(n), algebra.zero())
    choice = rng.choice
    mask = sum(1 << e for e in range(num_edges) if choice((1, -1)) < 0)
    return DecoratedState._unchecked(OrientationState._unchecked(graph, mask),
                                     algebra, lam, mu)


def reference_classical_limit(state):
    """decorated.classical_limit built through algebra.scalar(body) and a
    validating DecoratedState: the oracle for the one-reduce build."""
    algebra = state.algebra
    lam = {e: algebra.scalar(x.body) for e, x in state.lam.items()}
    mu = {v: algebra.zero() for v in state.mu}
    return DecoratedState(state.graph, state.orientation, algebra, lam, mu)


def reference_superflip(state, e):
    """decorated.superflip composed as one path for every flip.

    flip_orientation, then a copy of the mu map with the auto-reflection's
    negation, then the formulas (f alone when theta = sigma = 0), then a
    check of f and of both new mu-invariants and a copy of the lambda map.
    The oracle for the classical path, which shares the parent's mu map
    and checks no mu-invariant.
    """
    new_orientation, record = flip_orientation(state.orientation, e)
    mu = dict(state.mu)
    for v in record.reflections_applied:
        mu[v] = -mu[v]
    theta = mu[record.tail_vertex]
    sigma = mu[record.head_vertex]
    la, lb, lc, ld, le = (state.lam[i] for i in (record.a, record.b, record.c, record.d, e))
    if theta.is_zero() and sigma.is_zero():
        if (state.algebra.mode == RATIONAL
                and len(la.num) == len(lb.num) == len(lc.num) == len(ld.num)
                == len(le.num) == 1):
            f = _ptolemy(la, lb, lc, ld, le)
        else:
            f = gdiv(la * lc + lb * ld, le)
        nu, mu_new = theta, sigma
    else:
        ac = la * lc
        bd = lb * ld
        chi = gdiv(ac, bd)
        sqrt_chi = gsqrt(chi)
        r = ginvsqrt(1 + chi)
        theta_root = theta * sqrt_chi
        f = gdiv(ac + bd + sigma * theta_root * bd, le)
        nu = (sigma - theta_root) * r
        mu_new = (theta + sigma * sqrt_chi) * r
    mu[record.tail_vertex] = nu
    mu[record.head_vertex] = mu_new
    _check_lambda(e, f)
    for v in (record.tail_vertex, record.head_vertex):
        _check_mu(v, mu[v])
    lam = dict(state.lam)
    lam[e] = f
    return DecoratedState._unchecked(new_orientation, state.algebra, lam, mu), record


def reference_transport_state(final_state, phi, initial_graph):
    """checks.transport_state edge by edge and vertex by vertex.

    Each final edge's tail image names the initial edge and whether the
    reference direction is kept; a phi that misses an edge leaves a None
    sign, which OrientationState rejects, and one that misses a vertex
    raises ValueError.
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
    orientation = OrientationState(gi, signs)
    mu = {}
    for vf in range(gf.num_vertices):
        vi = gi.vertex_of(phi[gf.vertices[vf][0]])
        mu[vi] = final_state.mu[vf]
    if len(mu) != gi.num_vertices:
        raise ValueError("phi misses a vertex of the initial graph")
    return DecoratedState._unchecked(orientation, final_state.algebra, lam, mu)


def reference_aligned_equal_mod_sign(initial, final, touched_edges, tol=None):
    """checks.aligned_equal_mod_sign by whole-graph search.

    The isomorphism is propagated from the first fixed half-edge over the
    whole final graph and must fix every half-edge of the untouched edges
    (every isomorphism is tried when all edges are touched); the final
    state is transported edge by edge and compared by
    states_equal_mod_sign.
    """
    gi, gf = initial.graph, final.graph
    fixed = [h for e in range(gi.num_edges) if e not in touched_edges
             for h in gi.edges[e]]
    isos = ([propagate_isomorphism(gf, gi, fixed[0], fixed[0])] if fixed
            else find_isomorphisms(gf, gi))
    for phi in isos:
        if phi is None or any(phi[h] != h for h in fixed):
            continue
        moved = reference_transport_state(final, phi, gi)
        if states_equal_mod_sign(moved, initial, tol=tol):
            return True
    return False


# -- the loops that closed forms replace ----------------------------------------


def reference_shear_coordinates(state):
    """decorated.shear_coordinates by two products, a quotient and a glog
    per edge: z_e = glog(gdiv(ac, bd)), with no closed form."""
    graph, lam = state.graph, state.lam
    out = {}
    for e in range(graph.num_edges):
        a, b, c, d = _quadrilateral(graph, e, require_generic=False)[8:]
        out[e] = glog(gdiv(lam[a] * lam[c], lam[b] * lam[d]))
    return out


def reference_puncture_residuals(state, z):
    """decorated._puncture_residuals by adding the coordinates one by one,
    each sum an element reduced on its own."""
    residuals = []
    for cycle in boundary_cycles(state.graph):
        total = state.algebra.zero()
        for h in cycle:
            total = total + z[state.graph.edge_of(h)]
        residuals.append(total)
    return tuple(residuals)


def reference_classify_punctures(state):
    """spin.classify_punctures by counting the opposing traversals of
    every half-edge of every boundary cycle."""
    graph, mask = state.graph, state.mask
    tags = []
    for cycle in boundary_cycles(graph):
        k = 0
        for h in cycle:
            e = graph.edge_of(h)
            along_reference = graph.edges[e][0] == h
            if along_reference == bool(mask >> e & 1):
                k += 1
        tags.append("R" if k % 2 == 0 else "NS")
    return tuple(tags)


def reference_pentagon_pairs(graph):
    """checks.pentagon_pairs by testing all E^2 ordered edge pairs."""
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
            sides = set(graph.edges_at(v)) - {e1, e2}
            sides |= set(graph.edges_at(u)) - {e1}
            sides |= set(graph.edges_at(w)) - {e2}
            if len(sides) == 5 and not sides & {e1, e2}:
                pairs.append((e1, e2))
    return pairs


def reference_states_equal_mod_sign(state1, state2, tol=None):
    """decorated.states_equal_mod_sign negating the mu-invariants at
    reflection_vertices_between, the side without vertex 0, however large."""
    if state1.graph != state2.graph:
        raise ValueError("decorated states live on different graphs")
    if state1.algebra != state2.algebra:
        raise GrassmannError("decorated states use different algebras")
    reflected = reflection_vertices_between(state1.orientation, state2.orientation)
    if reflected is None:
        return False
    if tol is None:
        if state1.lam != state2.lam:
            return False
    elif not all(state1.lam[e].isclose(state2.lam[e], tol) for e in state1.lam):
        return False
    mu1, mu2 = dict(state1.mu), state2.mu
    for v in reflected:
        mu1[v] = -mu1[v]
    if tol is None:
        return mu1 == mu2 or mu1 == {v: -x for v, x in mu2.items()}
    return (all(mu1[v].isclose(mu2[v], tol) for v in mu1)
            or all(mu1[v].isclose(-mu2[v], tol) for v in mu1))


def horocycle_rescaled(state, factors):
    """state with the horocycle at each puncture moved by its factor u_p
    (one per boundary cycle, in boundary_cycles order): lambda_e times u_p
    once per half-edge of e on p's cycle.  Each corner of a quadrilateral
    is an end of one of a and c and of one of b and d, so every ratio
    ac/bd keeps its value."""
    graph = state.graph
    scale = [1] * graph.num_edges
    for u, cycle in zip(factors, boundary_cycles(graph)):
        for h in cycle:
            scale[graph.edge_of(h)] *= u
    lam = {e: x * scale[e] for e, x in state.lam.items()}
    return DecoratedState(graph, state.orientation, state.algebra, lam, state.mu)


# -- the term loop with its own decimal reader and running lcm ---------------
# The reference for grassmann._parse_terms, which reads literals with
# Fraction and puts the summed terms in normal form with algebra.element.


def reference_parse_number(algebra, num):
    """A coefficient literal as a (numerator, denominator) pair.

    In rational mode both are ints, read straight from the digits as
    Fraction(num) reads them, but not reduced: "2.50" is (250, 100).  In
    float mode the pair is (float, 1).  Exponents and digit runs are held
    to the interpreter's limit on integer digit strings, so no literal
    stalls the parser.
    """
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = num.lower().partition("e")
    if exponent and 0 < limit < abs(float(exponent)):
        raise GrassmannError("exponent of %r is beyond %d" % (num, limit))
    try:
        if algebra.mode == RATIONAL:
            if "/" in mantissa:
                top, _, bottom = mantissa.partition("/")
                n, d = int(top), int(bottom)
                if not d:
                    raise ZeroDivisionError
                return n, d
            whole, _, decimals = mantissa.partition(".")
            n, d = int(whole or "0"), 1
            if decimals:
                d = 10 ** len(decimals)
                n = n * d + int(decimals)
            if exponent:
                e = int(exponent)
                if e >= 0:
                    n *= 10 ** e
                else:
                    d *= 10 ** -e
            return n, d
        value = float(Fraction(num)) if "/" in num else float(num)
    except ZeroDivisionError:
        raise GrassmannError("zero denominator in %r" % (num,)) from None
    except OverflowError:  # a fraction beyond the float range
        raise GrassmannError("non-finite coefficient %r" % (num,)) from None
    except ValueError:  # a digit run longer than the interpreter converts
        raise GrassmannError("numeral of %d characters has a digit run longer than %d"
                             % (len(num), limit)) from None
    if not math.isfinite(value):
        raise GrassmannError("non-finite coefficient %r" % (num,))
    return value, 1


def reference_parse_terms(algebra, text):
    """parse_element's term loop: one regex match per term, any spelling
    the grammar allows, and every error message with its position."""
    s = text.strip()
    if not s:
        raise GrassmannError("empty element text")
    one = (1.0, 1) if algebra.mode == FLOAT else (1, 1)
    terms = {}
    den = 1
    pos = 0
    while pos < len(s):
        term = _TERM_RE.match(s, pos)
        signs, num, star, mono = term.groups()
        if (pos and not signs) or not (num or mono) or bool(num and mono) != bool(star):
            raise GrassmannError("expected term at position %d of %r" % (pos, s))
        c, d = one if num is None else reference_parse_number(algebra, num)
        mask, sign, _ = _monomial(mono or "", algebra.num_generators)
        if signs and signs.count("-") & 1:
            sign = -sign
        if sign:
            if d != den:  # put c, and the terms before it if need be, over the lcm
                g = gcd(den, d)
                if d != g:
                    for m in terms:
                        terms[m] *= d // g
                    den *= d // g
                c *= den // d
            if sign < 0:
                c = -c
            if mask in terms:  # a repeated monomial: only then add
                c += terms[mask]
            terms[mask] = c
        pos = term.end()
    terms = {m: c for m, c in terms.items() if c}
    if algebra.mode == FLOAT and not all(map(math.isfinite, terms.values())):
        raise GrassmannError("coefficient sum overflows in %r" % (text,))
    return _reduced(algebra, terms, den)
