import os
import random
import sys
import time
from types import SimpleNamespace

import pytest

import superpenner
from superpenner import checks, cli
from superpenner.catalog import GRAPHS
from superpenner.checks import (_below, _local_isomorphism, aligned_equal_mod_sign,
                                check_spincount, generic_edges, pentagon_pairs,
                                random_decorated_state, transport_state)
from superpenner.decorated import (DecoratedState, classical_limit, default_state,
                                   states_equal_mod_sign, superflip)
from superpenner.fatgraph import (FatGraph, FatGraphError, boundary_cycles, find_isomorphisms,
                                  propagate_isomorphism, topology, whitehead_flip)
from superpenner.fileio import render_state
from superpenner.grassmann import FLOAT, RATIONAL
from superpenner.spin import (MAX_BRUTE_FORCE_EDGES, OrientationState, SpinError,
                              brute_force_spin_classes, classify_punctures,
                              enumerate_spin_classes, flip_orientation, reflect,
                              reflection_vertices_between, same_spin_class, spin_class_count)

from helpers import (composed_random_decorated_state, dumbbell, flip_descendants, prism,
                     reference_aligned_equal_mod_sign, reference_pentagon_pairs,
                     reference_random_decorated_state, reference_states_equal_mod_sign)


def involution_and_pentagon_sequences(graph, rng, mode):
    """(initial, final, touched) for every flip involution and pentagon
    sequence on graph; both return the triangulation."""
    out = []
    for e in generic_edges(graph):
        state = random_decorated_state(graph, rng, mode=mode, square_friendly_edge=e)
        once, _ = superflip(state, e)
        twice, _ = superflip(once, e)
        out.append((state, twice, {e}))
    for e1, e2 in pentagon_pairs(graph):
        state = random_decorated_state(graph, rng, mode=mode, odd=mode == FLOAT)
        current = state
        for e in (e1, e2, e1, e2, e1):
            current, _ = superflip(current, e)
        out.append((state, current, {e1, e2}))
    return out


def with_lam(state, e, value):
    lam = dict(state.lam)
    lam[e] = value
    return DecoratedState(state.graph, state.orientation, state.algebra, lam, state.mu)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_propagated_isomorphism_matches_filtered_search(name):
    graph = GRAPHS[name]()
    sequences = involution_and_pentagon_sequences(graph, random.Random(name), RATIONAL)
    # the torus and theta graphs have no generic flip
    assert sequences or name in ("torus_1_1", "theta_0_3")
    for initial, final, touched in sequences:
        gi, gf = initial.graph, final.graph
        fixed = [h for e in range(gi.num_edges) if e not in touched for h in gi.edges[e]]
        filtered = [phi for phi in find_isomorphisms(gf, gi)
                    if all(phi[h] == h for h in fixed)]
        assert filtered == [propagate_isomorphism(gf, gi, fixed[0], fixed[0])]
        assert aligned_equal_mod_sign(initial, final, touched)


def test_propagation_rejects_mismatched_graphs():
    a, b = GRAPHS["torus_1_1"](), GRAPHS["theta_0_3"]()
    assert find_isomorphisms(a, b) == []
    assert all(propagate_isomorphism(a, b, 0, t) is None for t in range(6))
    assert propagate_isomorphism(a, GRAPHS["sphere_0_4"](), 0, 0) is None


@pytest.mark.parametrize("mode", (RATIONAL, FLOAT))
def test_aligned_comparison_detects_one_perturbed_lambda(mode):
    graph = GRAPHS["genus1_1_2"]()
    for initial, final, touched in involution_and_pentagon_sequences(
            graph, random.Random(7), mode):
        tol = 1e-9 if mode == FLOAT else None
        assert aligned_equal_mod_sign(initial, final, touched, tol=tol)
        for e in range(graph.num_edges):
            bumped = with_lam(final, e, final.lam[e] + final.algebra.scalar(1) / 1000)
            assert not aligned_equal_mod_sign(initial, bumped, touched, tol=tol)


def test_aligned_comparison_detects_another_spin_class():
    graph = GRAPHS["sphere_0_5"]()
    initial, final, touched = involution_and_pentagon_sequences(
        graph, random.Random(3), RATIONAL)[0]
    moved = 0
    for e in range(graph.num_edges):
        signs = list(final.orientation.signs)
        signs[e] = -signs[e]
        other = OrientationState(final.graph, signs)
        if same_spin_class(other, final.orientation):
            continue
        moved += 1
        changed = DecoratedState(final.graph, other, final.algebra, final.lam, final.mu)
        assert not aligned_equal_mod_sign(initial, changed, touched)
    assert moved


def test_aligned_comparison_with_every_edge_touched():
    graph = GRAPHS["sphere_0_4"]()
    everything = set(range(graph.num_edges))
    for initial, final, _ in involution_and_pentagon_sequences(
            graph, random.Random(11), RATIONAL):
        assert aligned_equal_mod_sign(initial, final, everything)
        bumped = with_lam(final, 0, final.lam[0] + final.algebra.scalar(1))
        assert not aligned_equal_mod_sign(initial, bumped, everything)


ORACLE_GRAPHS = [make() for make in GRAPHS.values()] + [prism(k) for k in range(3, 17)] + [
    dumbbell()]


def oracle_round_trips(graph, rng):
    """(initial, final, touched) round trips on graph in both modes: a
    state with itself, a double flip, a pentagon, and a classical walk of
    four flips out and back.  Up to V = 8 the states carry odd
    mu-invariants where their flips stay exact (rational double flips
    have square-friendly bodies); beyond that they are classical, since
    the soul of a flipped odd state grows with V at every flip."""
    edges, pairs = generic_edges(graph), pentagon_pairs(graph)
    out = []
    for mode in (RATIONAL, FLOAT):
        odd = graph.num_vertices <= 8
        state = random_decorated_state(graph, rng, mode, odd=odd)
        out.append((state, state, set()))
        if edges:
            e = rng.choice(edges)
            state = random_decorated_state(graph, rng, mode, odd=odd,
                                           square_friendly_edge=e if mode == RATIONAL else None)
            out.append((state, superflip(superflip(state, e)[0], e)[0], {e}))
        if pairs:
            e1, e2 = rng.choice(pairs)
            state = current = random_decorated_state(graph, rng, mode,
                                                     odd=odd and mode == FLOAT)
            for e in (e1, e2, e1, e2, e1):
                current, _ = superflip(current, e)
            out.append((state, current, {e1, e2}))
        state = current = random_decorated_state(graph, rng, mode, odd=False)
        walk = []
        for _ in range(4 if edges else 0):
            walk.append(rng.choice(generic_edges(current.graph)))
            current, _ = superflip(current, walk[-1])
        for e in reversed(walk):
            current, _ = superflip(current, e)
        out.append((state, current, set(walk)))
    return out


def vertex_relabelled(state, rng):
    """state on a graph that lists the same vertex triples in a shuffled
    order, with the vertex names and mu-invariants shuffled with them."""
    graph = state.graph
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    relabelled = FatGraph([graph.vertices[v] for v in order], graph.edges,
                          [graph.vertex_names[v] for v in order])
    return DecoratedState(relabelled, OrientationState(relabelled, state.orientation.signs),
                          state.algebra, state.lam, {i: state.mu[v] for i, v in enumerate(order)})


def edge_reversed(state, e):
    """state with edge e's reference direction and sign both reversed: the
    same point on a graph whose edge list differs from state's."""
    graph = state.graph
    edges = list(graph.edges)
    edges[e] = edges[e][::-1]
    reversed_graph = FatGraph(graph.vertices, edges, graph.vertex_names)
    signs = list(state.orientation.signs)
    signs[e] = -signs[e]
    return DecoratedState(reversed_graph, OrientationState(reversed_graph, signs),
                          state.algebra, state.lam, state.mu)


def oracle_variants(final, touched, rng):
    """(final state, touched) pairs around one round trip: the true final
    state, one lambda-length bumped, one mu-invariant negated, one sign
    flipped, the final state on a graph with its vertices listed in
    another order (alone and with a negated mu-invariant) or with one edge
    reversed, a touched set missing an edge, ids outside the graph, and
    every edge touched."""
    graph, alg = final.graph, final.algebra
    e, v = rng.randrange(graph.num_edges), rng.randrange(graph.num_vertices)
    lam, mu, signs = dict(final.lam), dict(final.mu), list(final.orientation.signs)
    lam[e] = lam[e] + alg.scalar(1) / 1000
    mu[v] = -mu[v]
    signs[e] = -signs[e]
    negated_mu = DecoratedState(graph, final.orientation, alg, final.lam, mu)
    out = [(final, touched),
           (DecoratedState(graph, final.orientation, alg, lam, final.mu), touched),
           (negated_mu, touched),
           (DecoratedState(graph, OrientationState(graph, signs), alg, final.lam, final.mu),
            touched),
           (vertex_relabelled(final, rng), touched),
           (vertex_relabelled(negated_mu, rng), touched),
           (vertex_relabelled(final, rng), set(range(graph.num_edges))),
           (edge_reversed(final, e), touched),
           (final, touched | {-1, graph.num_edges, graph.num_edges + 5, 10 ** 6}),
           (final, set(range(graph.num_edges)))]
    if touched:
        out.append((final, touched - {rng.choice(sorted(touched))}))
    return out


def test_pentagon_pairs_match_the_double_loop():
    rng = random.Random(35)
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 13)] + [dumbbell()]
    found = 0
    for base in graphs:
        for graph in flip_descendants(base, rng, 4):
            pairs = pentagon_pairs(graph)
            assert pairs == reference_pentagon_pairs(graph)
            found += bool(pairs)
    assert found > 40


def reflected_at(state, vertices, negated):
    """state with its orientation reflected at vertices and its
    mu-invariants negated at negated."""
    orientation = state.orientation
    for v in vertices:
        orientation = reflect(orientation, v)
    mu = dict(state.mu)
    for v in negated:
        mu[v] = -mu[v]
    return DecoratedState(state.graph, orientation, state.algebra, state.lam, mu)


def test_states_equal_mod_sign_matches_the_reference_on_either_side(monkeypatch):
    # states_equal_mod_sign negates the smaller of the reflection set and
    # its complement; the reference always negates the side without
    # vertex 0.  Round trips reach both through the round-trip comparison
    compared = []

    def both(state1, state2, tol=None):
        got = states_equal_mod_sign(state1, state2, tol)
        assert got == reference_states_equal_mod_sign(state1, state2, tol)
        side = reflection_vertices_between(state1.orientation, state2.orientation)
        compared.append((got, side is not None and 2 * len(side) > state1.graph.num_vertices))
        return got

    monkeypatch.setattr(checks, "states_equal_mod_sign", both)
    rng = random.Random(35)
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 9)] + [dumbbell()]
    for graph in graphs:
        for initial, final, touched in oracle_round_trips(graph, rng):
            for variant, variant_touched in oracle_variants(final, touched, rng):
                for tol in (None, 1e-9):
                    aligned_equal_mod_sign(initial, variant, variant_touched, tol)
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(compared)
    # reflections at random large vertex sets, every vertex but one among them
    large = 0
    for graph in [make() for make in GRAPHS.values()] + [prism(n) for n in (4, 8, 16)]:
        num_vertices = graph.num_vertices
        for mode, tol in ((RATIONAL, None), (FLOAT, None), (FLOAT, 1e-9)):
            state = random_decorated_state(graph, rng, mode, odd=num_vertices <= 8)
            if num_vertices > 8:   # one generator per mu-invariant
                state = DecoratedState(graph, state.orientation, state.algebra, state.lam,
                                       {v: state.algebra.gen(v) for v in range(num_vertices)})
            for size in range(num_vertices // 2, num_vertices + 1):
                vertices = rng.sample(range(num_vertices), size)
                for negated in (vertices, vertices[1:], range(num_vertices), ()):
                    other = reflected_at(state, vertices, negated)
                    got = states_equal_mod_sign(state, other, tol)
                    assert got == reference_states_equal_mod_sign(state, other, tol)
                    assert got == states_equal_mod_sign(other, state, tol)
                    large += 2 * len(reflection_vertices_between(
                        state.orientation, other.orientation)) > num_vertices
    assert large > 100


def test_aligned_comparison_matches_the_whole_graph_oracle():
    rng = random.Random(17)
    verdicts = []
    finals = []
    for graph in ORACLE_GRAPHS:
        for initial, final, touched in oracle_round_trips(graph, rng):
            exact = initial.algebra.mode == RATIONAL
            # the unperturbed round trip holds, exactly in rational mode
            assert aligned_equal_mod_sign(initial, final, touched, None if exact else 1e-9)
            # and so does the same point on a relabelled or edge-reversed graph
            for same in (vertex_relabelled(final, rng),
                         edge_reversed(final, rng.randrange(graph.num_edges))):
                assert aligned_equal_mod_sign(initial, same, touched, None if exact else 1e-9)
            finals.append(final)
            for variant, variant_touched in oracle_variants(final, touched, rng):
                for tol in (None, 1e-9):
                    got = aligned_equal_mod_sign(initial, variant, variant_touched, tol)
                    assert got == reference_aligned_equal_mod_sign(
                        initial, variant, variant_touched, tol), (graph, touched, tol)
                    verdicts.append(got)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100
    # a state never equals one on a graph of another size, nor its own data
    # on a graph with the same vertices whose edges 0 and 1 swap heads while
    # they count as untouched; with every edge touched the two functions agree
    others = []
    for state, other in zip(finals, finals[1:] + finals[:1]):
        if state.graph.num_edges != other.graph.num_edges:
            others.append((state, other))
        (t0, h0), (t1, h1), *rest = state.graph.edges
        try:
            repaired = FatGraph(state.graph.vertices, [(t0, h1), (t1, h0)] + rest)
        except FatGraphError:
            continue
        others.append((state, DecoratedState(
            repaired, OrientationState(repaired, state.orientation.signs),
            state.algebra, state.lam, state.mu)))
    assert len(others) > 20
    for state, other in others:
        everything = set(range(state.graph.num_edges))
        for touched in (set(), {state.graph.num_edges - 1}, everything):
            got = aligned_equal_mod_sign(state, other, touched)
            assert got == reference_aligned_equal_mod_sign(state, other, touched)
            assert not got or touched == everything


def heads_swapped(state):
    """state's data on a graph with the same vertices whose edges 0 and 1
    swap heads, or None when that graph is not connected."""
    (t0, h0), (t1, h1), *rest = state.graph.edges
    try:
        swapped = FatGraph(state.graph.vertices, [(t0, h1), (t1, h0)] + rest)
    except FatGraphError:
        return None
    return DecoratedState(swapped, OrientationState(swapped, state.orientation.signs),
                          state.algebra, state.lam, state.mu)


TABLES = ("vertices", "_sigma", "_alpha", "_edge_of", "_vertex_of")


def tables(graph):
    """Every half-edge table of graph and its vertices, as tuples."""
    return [tuple(getattr(graph, name)) for name in TABLES]


def test_no_operation_writes_a_graph_table():
    # the tables are lists that flipped graphs share or copy: every graph
    # of the flip walks, and the relabelled and edge-reversed finals, must
    # hold the same tables after flips, comparisons, transports and every
    # reader have run on them
    rng = random.Random(23)
    graphs, round_trips = [], []
    for graph in ORACLE_GRAPHS:
        state = initial = random_decorated_state(graph, rng, RATIONAL, odd=False)
        graphs.append(graph)
        walk = []
        for _ in range(4 if generic_edges(graph) else 0):
            walk.append(rng.choice(generic_edges(state.graph)))
            state, _ = superflip(state, walk[-1])
            graphs.append(state.graph)
        for e in reversed(walk):
            state, _ = superflip(state, e)
            graphs.append(state.graph)
        finals = [state, vertex_relabelled(state, rng),
                  edge_reversed(state, rng.randrange(graph.num_edges))]
        graphs += [final.graph for final in finals[1:]]
        round_trips.append((initial, finals, set(walk)))
    before = [tables(graph) for graph in graphs]
    for initial, finals, touched in round_trips:
        everything = set(range(initial.graph.num_edges))
        for final in finals:
            assert aligned_equal_mod_sign(initial, final, touched)
            assert aligned_equal_mod_sign(initial, final, everything)
            for phi in find_isomorphisms(final.graph, initial.graph):
                transport_state(final, phi, initial.graph)
    for graph in graphs:
        for e in generic_edges(graph):
            whitehead_flip(graph, e)
            flip_orientation(OrientationState(graph, [1] * graph.num_edges), e)
        boundary_cycles(graph)
        topology(graph)
        if spin_class_count(graph) <= 1 << 10:
            enumerate_spin_classes(graph)
        if graph.num_edges <= 12:
            brute_force_spin_classes(graph)
        one = OrientationState(graph, [rng.choice((1, -1)) for _ in range(graph.num_edges)])
        other = reflect(one, rng.randrange(graph.num_vertices))
        classify_punctures(one)
        assert reflection_vertices_between(one, other) is not None
    assert [tables(graph) for graph in graphs] == before


def untouched_fixed(phi, gi, touched):
    """phi as a list when it fixes every half-edge of gi's edges outside
    touched, else None."""
    if phi is None or any(phi[h] != h for e in range(gi.num_edges) if e not in touched
                          for h in gi.edges[e]):
        return None
    return list(phi)


def test_local_isomorphism_is_the_propagated_map_that_fixes_untouched_edges():
    # _local_isomorphism against propagate_isomorphism from an untouched
    # half-edge.  The inputs: the walk finals, touched sets that miss an
    # edge, vertex-relabelled and edge-reversed finals (another alpha
    # list, so the general branch), graphs whose edges 0 and 1 swap heads
    # (another alpha), and graphs a few flips away with random touched
    # sets, which share the initial graph's alpha list but often admit no
    # isomorphism, or one that moves an untouched edge
    rng = random.Random(29)
    cases = []
    for graph in ORACLE_GRAPHS:
        for initial, final, touched in oracle_round_trips(graph, rng):
            gi = initial.graph
            finals = [final, vertex_relabelled(final, rng),
                      edge_reversed(final, rng.randrange(gi.num_edges))]
            swapped = heads_swapped(final)
            finals += [swapped] if swapped is not None else []
            subsets = [touched, {gi.num_edges - 1}] + [touched - {e} for e in sorted(touched)]
            cases += [(state.graph, gi, subset) for state in finals for subset in subsets]
        for _ in range(4 if generic_edges(graph) else 0):
            flipped = graph
            for _ in range(rng.randrange(1, 4)):
                flipped, _ = whitehead_flip(flipped, rng.choice(generic_edges(flipped)))
            assert flipped._alpha is graph._alpha
            cases += [(flipped, graph, set(rng.sample(range(graph.num_edges), size)))
                      for size in range(graph.num_edges)]
    found = shared_alpha = 0
    for gf, gi, subset in cases:
        h = next(k for e in range(gi.num_edges) if e not in subset for k in gi.edges[e])
        expected = untouched_fixed(propagate_isomorphism(gf, gi, h, h), gi, subset)
        phi = _local_isomorphism(gf, gi, subset)
        assert phi == expected, (gi, subset)
        assert phi is None or type(phi) is list
        found += phi is not None
        shared_alpha += gf._alpha is gi._alpha
    assert found > 100 and len(cases) - found > 100
    assert 100 < shared_alpha < len(cases) - 100


def package_line_events(call):
    """call() and the number of line events it runs in package frames."""
    package = os.path.dirname(superpenner.__file__) + os.sep
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, count


def test_flip_and_comparison_python_work_does_not_grow_with_the_graph():
    # a classical flip and a round-trip comparison do Python work per
    # touched entry only: a Python loop over the edges, vertices or
    # half-edges of either path would change these counts between prisms
    # of 32, 128 and 512 vertices
    counts = []
    for k in (16, 64, 256):
        initial = classical_limit(default_state(prism(k)))
        walk = (1, 2, 2 * k + 2, 3)
        final = initial
        for e in walk + walk[::-1]:
            final, _ = superflip(final, e)
        # builds the initial graph's cut table and the cached identity
        assert aligned_equal_mod_sign(initial, final, set(walk))
        _, flip = package_line_events(lambda: superflip(initial, 1))
        same, compare = package_line_events(
            lambda: aligned_equal_mod_sign(initial, final, set(walk)))
        assert same
        counts.append((flip, compare))
    assert counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_transport_rejects_a_map_with_holes(name):
    graph = GRAPHS[name]()
    state = random_decorated_state(graph, random.Random(name), RATIONAL)
    identity = list(range(graph.num_half_edges))
    moved = transport_state(state, identity, graph)
    assert (moved.lam, moved.mu, moved.orientation) == (
        state.lam, state.mu, state.orientation)
    # both tails of edges 0 and 1 sent to the tail of edge 0: edge 1 is missed
    misses_edge = list(identity)
    misses_edge[graph.edges[1][0]] = graph.edges[0][0]
    with pytest.raises(SpinError):
        transport_state(state, misses_edge, graph)
    # a vertex's first half-edge sent to the far end of its (non-loop) edge:
    # every edge is still hit, but that vertex is missed
    h = next(hs[0] for v, hs in enumerate(graph.vertices)
             if graph.vertex_of(graph.alpha(hs[0])) != v)
    misses_vertex = list(identity)
    misses_vertex[h] = graph.alpha(h)
    with pytest.raises(ValueError, match="misses a vertex"):
        transport_state(state, misses_vertex, graph)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_reflection_vertices_between_none_across_classes(name):
    graph = GRAPHS[name]()
    reps = enumerate_spin_classes(graph)
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            # a member of y's class that is not its canonical representative
            mate = reflect(y, j % graph.num_vertices)
            verts = reflection_vertices_between(x, mate)
            if i != j:
                assert verts is None
                continue
            moved = x
            for v in verts:
                moved = reflect(moved, v)
            assert moved == mate


def lambda_plus_one(state, e):
    """superflip with 1 added to the flipped lambda-length."""
    flipped, record = superflip(state, e)
    lam = dict(flipped.lam)
    lam[e] = lam[e] + 1
    return DecoratedState(flipped.graph, flipped.orientation, flipped.algebra, lam,
                          flipped.mu), record


def nu_negated(state, e):
    """superflip with the new mu-invariant nu (at the tail vertex) negated."""
    flipped, record = superflip(state, e)
    mu = dict(flipped.mu)
    mu[record.tail_vertex] = -mu[record.tail_vertex]
    return DecoratedState(flipped.graph, flipped.orientation, flipped.algebra, flipped.lam,
                          mu), record


SUITE_RUNS = [(checks.check_ptolemy, RATIONAL, 20), (checks.check_ptolemy, FLOAT, 20),
              (checks.check_involution, RATIONAL, 10), (checks.check_involution, FLOAT, 10),
              (checks.check_pentagon, FLOAT, 5)]


@pytest.mark.parametrize("suite, mode, cases", SUITE_RUNS)
def test_suites_count_every_failed_case(monkeypatch, suite, mode, cases):
    # a flip that is wrong on every case must fail every case of each
    # suite; one that negates nu fails the suites whose states have odd mu,
    # and ptolemy, whose states have mu = 0, still passes
    graph = GRAPHS["genus2_2_1"]()
    assert suite(graph, seed=3, mode=mode, cases=cases).passed
    monkeypatch.setattr(checks, "superflip", lambda_plus_one)
    result = suite(graph, seed=3, mode=mode, cases=cases)
    assert not result.passed
    assert result.detail.endswith(" failures=%d" % cases)
    monkeypatch.setattr(checks, "superflip", nu_negated)
    assert suite(graph, seed=3, mode=mode, cases=cases).passed == (suite is checks.check_ptolemy)


@pytest.mark.parametrize("suite, mode", [run[:2] for run in SUITE_RUNS])
def test_suites_refuse_fewer_than_one_case(suite, mode):
    # zero or negative cases would report a vacuous pass
    graph = GRAPHS["genus2_2_1"]()
    for few in (0, -3):
        with pytest.raises(checks.CheckSetupError, match="need at least 1 case, got %d" % few):
            suite(graph, seed=3, mode=mode, cases=few)
    assert suite(graph, seed=3, mode=mode, cases=1).cases == 1


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_ptolemy_counts_a_flipped_lambda_without_positive_body(monkeypatch, mode):
    # superflip refuses such a lambda, so the mutant builds its state unchecked
    def negated(state, e):
        flipped, record = superflip(state, e)
        lam = dict(flipped.lam)
        lam[e] = -lam[e]
        return DecoratedState._unchecked(flipped.orientation, flipped.algebra, lam,
                                         flipped.mu), record

    monkeypatch.setattr(checks, "superflip", negated)
    result = checks.check_ptolemy(GRAPHS["genus2_2_1"](), seed=3, mode=mode, cases=7)
    assert not result.passed
    assert result.detail.endswith(" failures=7")


def test_check_command_exits_1_on_a_wrong_flip(monkeypatch, capsys):
    monkeypatch.setattr(checks, "superflip", lambda_plus_one)
    path = os.path.join(os.path.dirname(__file__), "data", "genus2_1.fg")
    assert cli.main(["check", "ptolemy", path, "--cases", "3"]) == 1
    assert "failures=3" in capsys.readouterr().out


def test_spincount_skips_the_brute_force_oracle_above_the_edge_limit():
    graph = prism(8)   # E = 24: the 2^24-orientation search would take about 90 s
    assert graph.num_edges > MAX_BRUTE_FORCE_EDGES
    start = time.perf_counter()
    result = check_spincount(graph)
    assert time.perf_counter() - start < 5
    assert result.passed
    assert result.detail == ("enumerated=512 brute_force=skipped rank_formula=512 "
                             "2^(2g+s-1)=512 reps_match=skipped")
    small = check_spincount(GRAPHS["genus2_2_1"]())
    assert small.passed and "brute_force=16 " in small.detail
    assert small.detail.endswith("reps_match=True")


def layout(x):
    """An element's numerators in storage order, and its denominator."""
    return list(x.num.items()), x.den


def state_layout(state):
    """A state's orientation mask, and each element's key, numerators in
    storage order and denominator, in the order of its maps."""
    return (state.orientation.mask,
            [(k, layout(x)) for k, x in state.lam.items()],
            [(k, layout(x)) for k, x in state.mu.items()])


def assert_drawn_as_reference(graph, seed, mode, odd=True, friendly=None):
    """random_decorated_state and the reference give the same state, in
    storage order, from the same draws, and the state passes the checked
    DecoratedState(...)."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    state = random_decorated_state(graph, rng, mode, odd=odd, square_friendly_edge=friendly)
    ref = composed_random_decorated_state(graph, ref_rng, mode, odd=odd,
                                          square_friendly_edge=friendly)
    assert state_layout(state) == state_layout(ref)
    assert rng.getstate() == ref_rng.getstate()
    DecoratedState(state.graph, state.orientation, state.algebra, state.lam, state.mu)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
def test_random_elements_match_monomial_by_monomial_construction(mode, n):
    # random_decorated_state reads only a graph's vertex and edge counts
    # when no edge is square-friendly, so a stand-in with n vertices draws
    # the elements of the algebra on n generators, n = 0, 1 and 3 included,
    # which no trivalent graph has.  n = 2 makes repeated and cancelling
    # monomials common (t0^t1 is the only one of weight 2), and n = 3 draws
    # every triple.  With no vertex there is no draw at all
    counts = SimpleNamespace(num_vertices=n, num_edges=3 * n // 2)
    for seed in range(60):
        for odd in (True, False):
            assert_drawn_as_reference(counts, seed, mode, odd=odd)
    if n == 0:
        rng = random.Random(0)
        before = rng.getstate()
        random_decorated_state(counts, rng, mode)
        assert rng.getstate() == before


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_random_states_match_monomial_by_monomial_construction(mode):
    # square-friendly states on odd seeds, in float mode too; dumbbell()
    # has no generic edge, so its states are never square-friendly
    graphs = ([make() for make in GRAPHS.values()] + [prism(3), prism(5)]
              + [prism(n) for n in range(9, 13)] + [dumbbell()])
    for graph in graphs:
        edges = generic_edges(graph)
        for seed in range(4):
            friendly = edges[0] if edges and seed % 2 else None
            for odd in (True, False):
                assert_drawn_as_reference(graph, seed, mode, odd=odd, friendly=friendly)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_random_states_match_the_composed_reference(mode):
    # each lambda-length is built as one element, and equals
    # algebra.scalar(body) plus the soul in storage order, from the same
    # draws in the same order
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 9)]
    for graph in graphs:
        for odd in (True, False):
            for seed, friendly in enumerate([None, *generic_edges(graph)]):
                assert_drawn_as_reference(graph, seed, mode, odd=odd, friendly=friendly)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_draws_read_the_words_of_the_randrange_spelling(mode):
    # random_decorated_state draws each randrange and choice from
    # getrandbits as CPython's Random._randbelow does; the body that called
    # rng.randrange and rng.choice must give the same rendered state, dict
    # order and generator state afterwards, on every supported CPython
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 13)]
    for graph in graphs:
        edges = generic_edges(graph)
        for seed, friendly in enumerate([None, *edges[:1]]):
            for odd in (True, False):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                state = random_decorated_state(graph, rng, mode, odd=odd,
                                               square_friendly_edge=friendly)
                ref = reference_random_decorated_state(graph, ref_rng, mode, odd=odd,
                                                       square_friendly_edge=friendly)
                assert render_state(state) == render_state(ref)
                assert state_layout(state) == state_layout(ref)
                assert rng.getstate() == ref_rng.getstate()


def test_below_draws_as_randrange():
    # the suites' edge and pentagon draws: _below(getrandbits, n) is
    # randrange(n) and choice of a sequence of n, word for word, n = 1 and
    # powers of two included
    for seed in range(3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for n in [*range(1, 70), 127, 128, 129, 1 << 31, (1 << 32) + 1, 10 ** 12]:
            assert _below(rng.getrandbits, n) == ref_rng.randrange(n)
            assert _below(rng.getrandbits, n) == ref_rng.choice(range(n))
        assert rng.getstate() == ref_rng.getstate()
