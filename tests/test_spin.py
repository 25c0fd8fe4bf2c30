import itertools
import random
import time
import tracemalloc

import pytest

from superpenner.catalog import (GRAPHS, four_punctured_sphere, genus1_two_punctures,
                                 genus2_one_puncture, punctured_torus, theta_graph)
from superpenner import spin
from superpenner.checks import generic_edges
from superpenner.fatgraph import boundary_cycles, flip_quadrilateral, topology
from superpenner.spin import (OrientationState, SpinError,
                              brute_force_spin_classes,
                              classify_punctures, enumerate_spin_classes,
                              flip_orientation, reflect, same_spin_class,
                              reflection_vertices_between, spin_class_count)

from helpers import (boundary_correspondence, canonical_representative, dumbbell,
                     flip_descendants, prism, reference_classify_punctures,
                     reference_reflection_vertices_between, reference_spin_classes, rref,
                     star_matrix)


def all_orientations(graph):
    for signs in itertools.product((1, -1), repeat=graph.num_edges):
        yield OrientationState(graph, signs)


# -- views of a state ---------------------------------------------------------------

VIEW_GRAPHS = dict(GRAPHS, **{"prism_%d" % n: (lambda n=n: prism(n)) for n in range(3, 9)})


@pytest.mark.parametrize("name", sorted(VIEW_GRAPHS))
def test_signs_sign_and_sign_string_read_the_constructor_signs(name):
    graph = VIEW_GRAPHS[name]()
    rng = random.Random(name)
    for _ in range(20):
        signs = [rng.choice((1, -1)) for _ in range(graph.num_edges)]
        state = OrientationState(graph, signs)
        assert state.signs == tuple(signs)
        assert [state.sign(e) for e in range(graph.num_edges)] == signs
        assert state.sign(-1) == signs[-1]
        assert state.sign_string() == "".join("+" if s == 1 else "-" for s in signs)
        assert repr(state) == "OrientationState(%s)" % state.sign_string()
    with pytest.raises(IndexError):
        state.sign(graph.num_edges)
    plus = OrientationState.all_plus(graph)
    assert plus.signs == (1,) * graph.num_edges and plus.sign_string() == "+" * graph.num_edges


@pytest.mark.parametrize("name", sorted(VIEW_GRAPHS))
def test_states_built_any_way_are_equal_and_hash_equal(name):
    graph = VIEW_GRAPHS[name]()
    rng = random.Random(name)
    for _ in range(20):
        state = random_orientation(graph, rng)
        v = rng.randrange(graph.num_vertices)
        twice = reflect(reflect(state, v), v)
        assert twice == state and hash(twice) == hash(state)
        once = reflect(state, v)
        rebuilt = OrientationState(graph, once.signs)
        assert rebuilt == once and hash(rebuilt) == hash(once)
        assert (once == state) == (once.signs == state.signs)
    fast = enumerate_spin_classes(graph)
    for rep in fast:
        rebuilt = OrientationState(graph, rep.signs)
        assert rebuilt == rep and hash(rebuilt) == hash(rep)
    if graph.num_edges <= spin.MAX_BRUTE_FORCE_EDGES:
        slow = brute_force_spin_classes(graph)
        assert slow == fast and list(map(hash, slow)) == list(map(hash, fast))
    assert len(set(fast)) == len(fast)


def test_spin_work_builds_no_sign_tuple(monkeypatch):
    # reflections, comparisons, enumeration, the orbit search, classification
    # and flips all work on the mask; only .signs converts it
    calls = []
    original = spin._mask_to_signs
    monkeypatch.setattr(spin, "_mask_to_signs",
                        lambda *args: calls.append(args) or original(*args))
    rng = random.Random(3)
    for make in list(GRAPHS.values()) + [lambda: prism(5)]:
        graph = make()
        state = random_orientation(graph, rng)
        other = reflect(reflect(state, 0), graph.num_vertices - 1)
        assert reflection_vertices_between(state, other) is not None
        assert same_spin_class(state, other) and state != reflect(state, 0)
        assert enumerate_spin_classes(graph) == brute_force_spin_classes(graph)
        classify_punctures(state)
        for e in generic_edges(graph):
            flip_orientation(state, e)
    assert calls == []
    assert state.signs and len(calls) == 1


# -- reflections ----------------------------------------------------------------

def test_reflect_torus_flips_all_edges():
    g = punctured_torus()
    state = OrientationState.all_plus(g)
    assert reflect(state, 0).signs == (-1, -1, -1)


def test_reflect_is_involution():
    g = four_punctured_sphere()
    state = OrientationState.all_plus(g)
    for v in range(g.num_vertices):
        assert reflect(reflect(state, v), v) == state


def test_reflect_leaves_loop_alone():
    g = dumbbell()
    state = OrientationState.all_plus(g)
    after = reflect(state, 0)  # vertex 0 carries loop edge 0 and bridge edge 1
    assert after.signs == (1, -1, 1)


def test_reflect_unknown_vertex():
    with pytest.raises(SpinError, match="vertex"):
        reflect(OrientationState.all_plus(punctured_torus()), 7)


def test_all_vertex_reflections_compose_to_identity():
    for g in (punctured_torus(), theta_graph(), four_punctured_sphere(), dumbbell()):
        state = OrientationState.all_plus(g)
        for v in range(g.num_vertices):
            state = reflect(state, v)
        assert state == OrientationState.all_plus(g)


# -- class membership -------------------------------------------------------------

def test_same_spin_class_torus():
    g = punctured_torus()
    plus = OrientationState.all_plus(g)
    assert same_spin_class(plus, OrientationState(g, (-1, -1, -1)))
    assert not same_spin_class(plus, OrientationState(g, (1, 1, -1)))
    assert same_spin_class(plus, plus)


def test_same_spin_class_requires_same_graph():
    with pytest.raises(SpinError):
        same_spin_class(OrientationState.all_plus(punctured_torus()),
                        OrientationState.all_plus(theta_graph()))


def test_reflection_vertices_between_recovers_difference():
    g = four_punctured_sphere()
    state = OrientationState.all_plus(g)
    moved = reflect(reflect(state, 1), 3)
    verts = reflection_vertices_between(state, moved)
    assert verts is not None
    back = state
    for v in verts:
        back = reflect(back, v)
    assert back == moved


REFLECTION_GRAPHS = dict(GRAPHS, dumbbell=dumbbell,
                         **{"prism_%d" % n: (lambda n=n: prism(n)) for n in range(3, 17)})


def random_orientation(graph, rng):
    return OrientationState(graph, [rng.choice((1, -1)) for _ in graph.edges])


@pytest.mark.parametrize("name", sorted(REFLECTION_GRAPHS))
def test_reflection_vertices_between_agrees_with_elimination(name):
    graph = REFLECTION_GRAPHS[name]()
    num_vertices = graph.num_vertices
    rng = random.Random(name)
    found = {True: 0, False: 0}
    most = 0
    for trial in range(200):
        state1 = random_orientation(graph, rng)
        if trial % 4 == 0:
            # mostly another class (all classes alike on the smallest graphs)
            state2 = random_orientation(graph, rng)
        else:
            # one class: reflections at about half the vertices, at a few,
            # or at all but a few, where the answer may be the complement
            if trial % 4 == 1:
                chosen = [v for v in range(num_vertices) if rng.random() < 0.5]
            else:
                chosen = rng.sample(range(num_vertices), min(rng.randint(1, 3), num_vertices))
                if trial % 4 == 3:
                    chosen = [v for v in range(num_vertices) if v not in chosen]
            state2 = state1
            for v in chosen:
                state2 = reflect(state2, v)
        verts = reflection_vertices_between(state1, state2)
        # the walk oracle gives the same answer, None included
        assert verts == reference_reflection_vertices_between(state1, state2)
        # the rref oracle: the same class exactly when the canonical forms agree
        same = canonical_representative(state1) == canonical_representative(state2)
        assert (verts is not None) == same
        found[same] += 1
        if verts is not None:
            assert 0 not in verts
            assert list(verts) == sorted(set(verts))
            moved = state1
            for v in verts:
                moved = reflect(moved, v)
            assert moved == state2
            # a set that misses at most three vertices comes out whole
            most += len(verts) >= max(1, num_vertices - 3)
    assert found[True] and found[False] and most


@pytest.mark.parametrize("name", sorted(REFLECTION_GRAPHS))
def test_fundamental_cuts_of_the_forest(name):
    # per forest edge: a side without vertex 0 whose cut holds that one
    # forest edge and is the XOR of its vertices' reflection masks
    graph = REFLECTION_GRAPHS[name]()
    sides, cuts = spin._fundamental_cuts(graph)
    forest = spin._spanning_forest(graph)
    forest_mask = sum(1 << f for f in forest)
    assert len(sides) == len(cuts) == graph.num_edges
    for e in range(graph.num_edges):
        if e not in forest:
            assert sides[e] == cuts[e] == 0
            continue
        assert sides[e] and not sides[e] & 1
        cut = 0
        for v in range(graph.num_vertices):
            if sides[e] >> v & 1:
                cut ^= spin.reflection_mask(graph, v)
        assert cuts[e] == cut and cut & forest_mask == 1 << e


def test_a_differing_loop_edge_gives_none():
    graph = dumbbell()   # edges 0 and 2 are loops, edge 1 the bridge
    for state in all_orientations(graph):
        for loop in (0, 2):
            for reflected in ((), (0,), (1,), (0, 1)):
                other = state
                for v in reflected:
                    other = reflect(other, v)
                signs = list(other.signs)
                signs[loop] = -signs[loop]
                other = OrientationState(graph, signs)
                assert reflection_vertices_between(state, other) is None
                assert reference_reflection_vertices_between(state, other) is None
        # the bridge alone is the cut of vertex 1
        signs = list(state.signs)
        signs[1] = -signs[1]
        assert reflection_vertices_between(state, OrientationState(graph, signs)) == (1,)


def test_the_cut_table_is_built_once_per_graph(monkeypatch):
    builds = []
    build = spin._fundamental_cuts
    monkeypatch.setattr(spin, "_fundamental_cuts", lambda g: builds.append(g) or build(g))
    graph = prism(8)
    rng = random.Random(8)
    for _ in range(50):
        reflection_vertices_between(random_orientation(graph, rng),
                                    random_orientation(graph, rng))
    assert len(builds) == 1 and builds[0] is graph and graph._cuts is not None
    # a graph that is only flipped never builds it
    state = random_orientation(graph, rng)
    for _ in range(30):
        state, _ = flip_orientation(state, rng.choice(generic_edges(state.graph)))
        assert state.graph._cuts is None
    assert len(builds) == 1


# -- enumeration --------------------------------------------------------------

@pytest.mark.parametrize("ctor,count", [
    (punctured_torus, 4),
    (theta_graph, 4),
    (four_punctured_sphere, 8),
    (genus1_two_punctures, 8),
    (genus2_one_puncture, 16),
])
def test_class_counts(ctor, count):
    g = ctor()
    genus, s, _, _ = topology(g)
    assert spin_class_count(g) == count == 1 << (2 * genus + s - 1)
    fast = enumerate_spin_classes(g)
    slow = brute_force_spin_classes(g)
    assert len(fast) == len(slow) == count
    assert [st.signs for st in fast] == [st.signs for st in slow]


ORACLE_GRAPHS = dict(GRAPHS, dumbbell=dumbbell,
                     **{"prism_%d" % n: (lambda n=n: prism(n)) for n in range(3, 7)})


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_brute_force_matches_per_mask_search(name, monkeypatch):
    # the oracle stays independent of the forest it certifies
    monkeypatch.setattr(spin, "_spanning_forest", None)
    g = ORACLE_GRAPHS[name]()
    assert tuple(st.signs for st in brute_force_spin_classes(g)) == reference_spin_classes(g)


def test_brute_force_scans_2_to_the_18_orientations_quickly():
    g = prism(6)
    assert g.num_edges == spin.MAX_BRUTE_FORCE_EDGES == 18
    start = time.perf_counter()
    classes = brute_force_spin_classes(g)
    assert time.perf_counter() - start < 0.3
    assert len(classes) == spin_class_count(g) == 1 << 7


def test_canonical_representative_is_class_minimum():
    g = theta_graph()
    for state in all_orientations(g):
        rep = canonical_representative(state)
        assert same_spin_class(rep, state)
        # minimal over the explicit orbit
        orbit = [s for s in all_orientations(g) if same_spin_class(s, state)]
        lex = min(orbit, key=lambda s: tuple(0 if x == 1 else 1 for x in s.signs))
        assert rep == lex


# -- classification ---------------------------------------------------------------

def test_torus_all_plus_is_ns():
    g = punctured_torus()
    assert classify_punctures(OrientationState.all_plus(g)) == ("NS",)


def test_theta_all_plus_all_ns():
    g = theta_graph()
    assert classify_punctures(OrientationState.all_plus(g)) == ("NS", "NS", "NS")


def test_classification_reflection_invariant_exhaustive():
    for g in (theta_graph(), punctured_torus(), four_punctured_sphere()):
        for state in all_orientations(g):
            tags = classify_punctures(state)
            for v in range(g.num_vertices):
                assert classify_punctures(reflect(state, v)) == tags


def test_classification_constant_on_classes():
    g = four_punctured_sphere()
    table = {}
    for state in all_orientations(g):
        rep = canonical_representative(state)
        tags = classify_punctures(state)
        assert table.setdefault(rep.signs, tags) == tags


def test_classify_punctures_matches_the_reference_walk():
    # random masks, on graphs with cycles that traverse an edge from both
    # halves (the torus, genus 2 with one puncture, the dumbbell's bridge)
    rng = random.Random(35)
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 17)] + [dumbbell()]
    twice = 0
    for base in graphs:
        for graph in flip_descendants(base, rng, 3):
            cycles = boundary_cycles(graph)
            twice += any(len({graph.edge_of(h) for h in cycle}) < len(cycle) for cycle in cycles)
            for mask in [0, (1 << graph.num_edges) - 1] + [
                    rng.getrandbits(graph.num_edges) for _ in range(20)]:
                state = OrientationState(graph, [-1 if mask >> e & 1 else 1
                                                 for e in range(graph.num_edges)])
                want = reference_classify_punctures(state)
                assert classify_punctures(state) == want
    assert twice >= 3


# -- flips --------------------------------------------------------------------

def test_flip_preserves_puncture_types():
    for g in (four_punctured_sphere(), genus1_two_punctures()):
        for state in all_orientations(g):
            before = classify_punctures(state)
            for e in range(g.num_edges):
                new_state, record = flip_orientation(state, e)
                corr = boundary_correspondence(g, new_state.graph, g.edges[e])
                assert corr is not None
                after = classify_punctures(new_state)
                for i, j in corr.items():
                    assert before[i] == after[j]


def test_flip_records_auto_reflection():
    g = four_punctured_sphere()
    plus = OrientationState.all_plus(g)
    new_state, record = flip_orientation(plus, 0)
    # +1 is the non-canonical arrow, so the tail vertex is reflected first
    assert record.reflections_applied == (g.tail_vertex(0),)
    canonical = OrientationState(g, tuple(-1 if e == 0 else 1
                                          for e in range(g.num_edges)))
    _, record2 = flip_orientation(canonical, 0)
    assert record2.reflections_applied == ()


SIGN_RULE_GRAPHS = dict(GRAPHS, **{"prism_%d" % n: (lambda n=n: prism(n)) for n in range(3, 13)})


def test_flip_orientation_is_the_tail_reflection_then_b_reversed():
    # the rule as stated: a +1 edge is first reflected at the tail vertex,
    # then b is reversed and the new edge takes sign +1
    branches = {1: 0, -1: 0}
    for name in sorted(SIGN_RULE_GRAPHS):
        graph = SIGN_RULE_GRAPHS[name]()
        rng = random.Random(name)
        for e in generic_edges(graph):
            q = flip_quadrilateral(graph, e)
            for sign in (1, -1):
                signs = [rng.choice((1, -1)) for _ in range(graph.num_edges)]
                signs[e] = sign
                state = OrientationState(graph, signs)
                flipped, record = flip_orientation(state, e)
                expected = list((reflect(state, q.tail_vertex) if sign == 1 else state).signs)
                expected[q.b] = -expected[q.b]
                expected[e] = 1
                assert flipped.signs == tuple(expected), (name, e, signs)
                assert record.reflections_applied == ((q.tail_vertex,) if sign == 1 else ())
                branches[sign] += 1
    assert min(branches.values()) > 100, branches


def test_flip_class_count_invariant():
    g = genus1_two_punctures()
    flipped, _ = flip_orientation(OrientationState.all_plus(g), 0)
    assert spin_class_count(flipped.graph) == spin_class_count(g)
    assert len(enumerate_spin_classes(flipped.graph)) == len(enumerate_spin_classes(g))


def test_enumeration_refuses_too_many_classes_before_building_any(monkeypatch):
    graph = prism(32)   # E = 96, V = 64: 2^33 classes
    assert spin_class_count(graph) == 1 << 33
    tracemalloc.start()
    try:
        with pytest.raises(SpinError, match=r"2\^33 spin classes "
                                            r"\(2\^\(E-V\+1\) with E=96, V=64\)"):
            enumerate_spin_classes(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 2^14301 has more decimal digits than int-to-str allows: stated as a power
    with pytest.raises(SpinError, match=r"2\^14301 spin classes \(2\^\(E-V\+1\) "
                                        r"with E=42900, V=28600\)"):
        enumerate_spin_classes(prism(14300))
    monkeypatch.setattr(spin, "MAX_ENUMERATED_CLASSES_LOG2", 5)
    assert len(enumerate_spin_classes(prism(4))) == 1 << 5
    with pytest.raises(SpinError, match=r"2\^6 spin classes"):
        enumerate_spin_classes(prism(5))


def test_count_and_refusal_are_near_linear_in_the_edges():
    graph = prism(2000)   # V = 4000, E = 6000
    start = time.perf_counter()
    assert spin_class_count(graph) == 1 << 2001
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    with pytest.raises(SpinError, match=r"2\^2001 spin classes"):
        enumerate_spin_classes(graph)
    assert time.perf_counter() - start < 0.5


FOREST_GRAPHS = dict(GRAPHS, dumbbell=dumbbell,
                     **{"prism_%d" % n: (lambda n=n: prism(n)) for n in range(3, 13)})


@pytest.mark.parametrize("name", sorted(FOREST_GRAPHS))
def test_spanning_forest_is_the_rref_pivots(name):
    graph = FOREST_GRAPHS[name]()
    assert spin._spanning_forest(graph) == [p for p, _ in rref(star_matrix(graph))]


@pytest.mark.parametrize("name", sorted(FOREST_GRAPHS))
def test_enumeration_is_the_sorted_set_of_rref_representatives(name):
    graph = FOREST_GRAPHS[name]()
    classes = enumerate_spin_classes(graph)
    # each class has one canonical representative: the enumeration lists
    # fixed points of the rref reduction, all distinct, as many as classes
    reps = {canonical_representative(st).signs for st in classes}
    assert len(reps) == len(classes) == 1 << (graph.num_edges - len(rref(star_matrix(graph))))
    assert [st.signs for st in classes] == sorted(reps, key=lambda signs: [-s for s in signs])
    rng = random.Random(name)
    for _ in range(50):
        state = OrientationState(graph, [rng.choice((1, -1)) for _ in graph.edges])
        assert canonical_representative(state).signs in reps
