import itertools
import random
import time
import tracemalloc

import pytest

from superpenner.catalog import (GRAPHS, four_punctured_sphere, genus1_two_punctures,
                                 genus2_one_puncture, punctured_torus, theta_graph)
from superpenner import spin
from superpenner.fatgraph import FatGraph, topology
from superpenner.spin import (OrientationState, SpinError,
                              brute_force_spin_classes, canonical_representative,
                              classify_punctures, enumerate_spin_classes,
                              flip_orientation, reflect, same_spin_class,
                              reflection_vertices_between, spin_class_count)

from helpers import boundary_correspondence, prism, reference_spin_classes


def all_orientations(graph):
    for signs in itertools.product((1, -1), repeat=graph.num_edges):
        yield OrientationState(graph, signs)


def dumbbell():
    return FatGraph([(0, 1, 2), (3, 4, 5)], [(0, 1), (2, 3), (4, 5)])


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


REFLECTION_GRAPHS = dict(GRAPHS, prism_8=lambda: prism(8), dumbbell=dumbbell)


@pytest.mark.parametrize("name", sorted(REFLECTION_GRAPHS))
def test_reflection_vertices_between_agrees_with_elimination(name):
    graph = REFLECTION_GRAPHS[name]()
    rng = random.Random(name)
    found = {True: 0, False: 0}
    for _ in range(200):
        state1 = OrientationState(graph, [rng.choice((1, -1)) for _ in graph.edges])
        if rng.random() < 0.5:
            state2 = OrientationState(graph, [rng.choice((1, -1)) for _ in graph.edges])
        else:
            state2 = state1
            for v in range(graph.num_vertices):
                if rng.random() < 0.5:
                    state2 = reflect(state2, v)
        verts = reflection_vertices_between(state1, state2)
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
    assert found[True] and found[False]


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
    # the oracle stays independent of the elimination it certifies
    monkeypatch.setattr(spin, "_rref", None)
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
        with pytest.raises(SpinError, match=r"2\^33 = 8589934592 spin classes "
                                            r"\(2\^\(E-V\+1\) with E=96, V=64\)"):
            enumerate_spin_classes(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(spin, "MAX_ENUMERATED_CLASSES_LOG2", 5)
    assert len(enumerate_spin_classes(prism(4))) == 1 << 5
    with pytest.raises(SpinError, match=r"2\^6 = 64 spin classes"):
        enumerate_spin_classes(prism(5))
