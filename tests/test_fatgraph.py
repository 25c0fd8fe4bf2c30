import random

import pytest

from superpenner.catalog import (GRAPHS, four_punctured_sphere, genus1_two_punctures,
                                 genus2_one_puncture, punctured_torus, theta_graph)
from superpenner.fatgraph import (FatGraph, FatGraphError, FlipRecord, NonGenericFlipError,
                                  _rotated, boundary_cycles, find_isomorphisms,
                                  flip_quadrilateral, graph_from_records,
                                  parse_fatgraph, render_fatgraph, scan_document,
                                  topology, whitehead_flip)
from superpenner.checks import generic_edges
from superpenner.spin import OrientationState, flip_orientation, reflection_vertices_between

from helpers import dumbbell, prism

TORUS_FILE = """\
fatgraph v1
# one-punctured torus: two vertices, three parallel edges
vertex A: 0 2 4
vertex B: 1 3 5
edge 0: 0 1
edge 1: 2 3
edge 2: 4 5
"""

THETA_FILE = """\
fatgraph v1
vertex A: 0 2 4
vertex B: 1 5 3
edge 0: 0 1
edge 1: 2 3
edge 2: 4 5
"""


# -- parsing -----------------------------------------------------------------

TORUS_VERTICES = [(0, 2, 4), (1, 3, 5)]
TORUS_EDGES = [(0, 1), (2, 3), (4, 5)]


@pytest.mark.parametrize("vertices, edges, message", [
    ([(), (1, 3, 5)], TORUS_EDGES, "non-trivalent vertex ()"),
    ([(0, 1, "a"), (2, 3, 5)], TORUS_EDGES, "non-trivalent vertex (0, 1, 'a')"),
    ([(0, 2, 4.0), (1, 3, 5)], TORUS_EDGES, "non-trivalent vertex (0, 2, 4.0)"),
    ([(0, 2), (1, 3, 5, 4)], TORUS_EDGES, "non-trivalent vertex (0, 2)"),
    ([(0, 2, 4, 6), (1, 3, 5)], TORUS_EDGES, "non-trivalent vertex (0, 2, 4, 6)"),
    ([7, (1, 3, 5)], TORUS_EDGES, "non-trivalent vertex 7"),
    ([(0, 2, 2), (1, 3, 5)], TORUS_EDGES, "non-trivalent vertex (0, 2, 2)"),
    (TORUS_VERTICES, [(0, 1), (2,), (4, 5)], "bad edge (2,)"),
    (TORUS_VERTICES, [(0, 1), (2, 3, 4), (4, 5)], "bad edge (2, 3, 4)"),
    (TORUS_VERTICES, [(0, "x"), (2, 3), (4, 5)], "bad edge (0, 'x')"),
    (TORUS_VERTICES, [(0, None), (2, 3), (4, 5)], "bad edge (0, None)"),
    (TORUS_VERTICES, [5, (2, 3), (4, 5)], "bad edge 5"),
])
def test_malformed_entries_are_fatgraph_errors(vertices, edges, message):
    with pytest.raises(FatGraphError) as info:
        FatGraph(vertices, edges)
    assert str(info.value) == message


def test_an_edge_pairing_a_half_edge_with_itself_leaves_a_hole():
    with pytest.raises(FatGraphError) as info:
        FatGraph([(0, 2, 4), (1, 3, 5)], [(0, 0), (2, 3), (4, 5)])
    assert str(info.value) == ("edge half-edges are not exactly 0..5 "
                               "(dangling or duplicated half-edge)")


def test_entries_that_convert_build_the_same_graph():
    # a vertex holds ints in any cyclic rotation (bools are ints); an edge
    # holds anything int() converts
    g = FatGraph([(4, 0, 2), (True, 3, 5)], [("0", 1.0), (2, 3), (4, 5)])
    assert g == FatGraph(TORUS_VERTICES, TORUS_EDGES)
    assert g.vertices == tuple(TORUS_VERTICES) and g.edges == tuple(TORUS_EDGES)
    assert all(type(h) is int for triple in g.vertices for h in triple)


def test_rotation_puts_the_first_minimum_first():
    for x in range(3):
        for y in range(3):
            for z in range(3):
                triple = (x, y, z)
                k = triple.index(min(triple))
                assert _rotated(x, y, z) == triple[k:] + triple[:k], triple


def test_parse_punctured_torus():
    g = parse_fatgraph(TORUS_FILE)
    assert g.num_edges == 3 and g.num_vertices == 2
    assert g == punctured_torus()


def test_parse_theta_variant_has_three_cycles():
    g = parse_fatgraph(THETA_FILE)
    assert len(boundary_cycles(g)) == 3


def test_parse_rejects_four_valent_vertex():
    bad = TORUS_FILE.replace("vertex A: 0 2 4", "vertex A: 0 2 4 6")
    with pytest.raises(FatGraphError, match="trivalent"):
        parse_fatgraph(bad)


def test_parse_rejects_dangling_half_edge():
    bad = TORUS_FILE.replace("edge 2: 4 5", "edge 2: 4 6")
    with pytest.raises(FatGraphError):
        parse_fatgraph(bad)


def test_parse_rejects_missing_header():
    with pytest.raises(FatGraphError, match="header"):
        parse_fatgraph("vertex A: 0 1 2\n")


def test_parse_rejects_disconnected():
    two_tori = TORUS_FILE + """\
vertex C: 6 8 10
vertex D: 7 9 11
edge 3: 6 7
edge 4: 8 9
edge 5: 10 11
"""
    with pytest.raises(FatGraphError, match="disconnected"):
        parse_fatgraph(two_tori)


@pytest.mark.parametrize("line, message", [
    ("vertex A: 6 7 8", "line 8: duplicate vertex 'A'"),
    ("edge 1: 6 7", "line 8: duplicate edge id 1"),
])
def test_parse_rejects_duplicate_lines(line, message):
    with pytest.raises(FatGraphError, match=message):
        parse_fatgraph(TORUS_FILE + line + "\n")


@pytest.mark.parametrize("old, new, message", [
    ("vertex A: 0 2 4", "vertex A: -1 2 4", "line 3: negative half-edge token -1"),
    ("edge 2: 4 5", "edge 2: 4 -5", "line 7: negative half-edge token -5"),
], ids=["vertex-line", "edge-line"])
def test_parse_rejects_negative_half_edge_tokens(old, new, message):
    with pytest.raises(FatGraphError, match=message):
        parse_fatgraph(TORUS_FILE.replace(old, new))


def test_parse_normalizes_sparse_ids():
    sparse = """\
fatgraph v1
vertex A: 10 20 40
vertex B: 11 21 41
edge 7: 10 11
edge 3: 20 21
edge 12: 40 41
"""
    g = parse_fatgraph(sparse)
    # halves 10,11,20,21,40,41 -> 0..5; edge ids ordered 3 < 7 < 12
    assert g.edges == ((2, 3), (0, 1), (4, 5))
    assert topology(g) == (1, 1, 3, 2)
    assert find_isomorphisms(g, punctured_torus())
    assert graph_from_records(scan_document(sparse))[1] == {3: 0, 7: 1, 12: 2}


@pytest.mark.parametrize("names", [
    ["a b", "c"], ["A", "c#d"], ["A", "A"], ["", "B"], ["A:", "B"], ["A", "B\n"],
    ["A", "B\x1c"], ["A", "B\u2028"], ["A", 1], ("A", b"B"),
])
def test_vertex_names_a_document_cannot_carry_are_rejected(names):
    # a name is a record key in a document: render_fatgraph writes it as is
    # and scan_document must read it back unchanged, once per vertex
    with pytest.raises(FatGraphError, match="vertex names must be distinct"):
        FatGraph([(0, 2, 4), (1, 3, 5)], [(0, 1), (2, 3), (4, 5)], names)


@pytest.mark.parametrize("names", [None, ["A", "B"], ["v1", "v0"], ["x.y", "-+é"]])
def test_vertex_names_a_document_carries_round_trip(names):
    graph = FatGraph([(0, 2, 4), (1, 3, 5)], [(0, 1), (2, 3), (4, 5)], names)
    again = parse_fatgraph(render_fatgraph(graph))
    assert (again, again.vertex_names) == (graph, graph.vertex_names)


def test_render_parse_roundtrip():
    for g in (punctured_torus(), theta_graph(), four_punctured_sphere()):
        assert parse_fatgraph(render_fatgraph(g)) == g


# -- boundary cycles and topology ---------------------------------------------

def test_torus_boundary_cycle():
    assert boundary_cycles(punctured_torus()) == ((0, 3, 4, 1, 2, 5),)


def test_theta_boundary_cycles():
    assert boundary_cycles(theta_graph()) == ((0, 5), (1, 2), (3, 4))


def test_cycles_partition_half_edges():
    for g in (punctured_torus(), theta_graph(), four_punctured_sphere(),
              genus1_two_punctures(), genus2_one_puncture(), dumbbell()):
        halves = [h for cycle in boundary_cycles(g) for h in cycle]
        assert sorted(halves) == list(range(g.num_half_edges))


def test_topology_values():
    assert topology(punctured_torus()) == (1, 1, 3, 2)
    assert topology(theta_graph()) == (0, 3, 3, 2)
    assert topology(four_punctured_sphere()) == (0, 4, 6, 4)
    assert topology(genus1_two_punctures()) == (1, 2, 6, 4)
    assert topology(genus2_one_puncture()) == (2, 1, 9, 6)


def test_coordinate_counts_match_genus_and_punctures():
    for g in (punctured_torus(), theta_graph(), four_punctured_sphere(),
              genus1_two_punctures(), genus2_one_puncture()):
        genus, s, e, v = topology(g)
        assert e == 6 * genus - 6 + 3 * s
        assert v == 4 * genus - 4 + 2 * s


# -- flips ---------------------------------------------------------------------

def test_flip_preserves_topology():
    g = four_punctured_sphere()
    for e in range(g.num_edges):
        flipped, record = whitehead_flip(g, e)
        assert topology(flipped) == topology(g)
        assert record.flipped_edge == e
        assert len({record.a, record.b, record.c, record.d, record.flipped_edge}) == 5


def test_flip_rejects_torus_edges():
    g = punctured_torus()
    for e in range(g.num_edges):
        with pytest.raises(NonGenericFlipError, match="non-generic"):
            whitehead_flip(g, e)


def test_flip_rejects_loop():
    g = dumbbell()
    with pytest.raises(NonGenericFlipError, match="loop"):
        whitehead_flip(g, 0)


def test_flip_reads_the_quadrilateral_it_reports():
    # whitehead_flip and flip_quadrilateral share one table reader: the same
    # labels on every edge, and the same errors for bad and non-generic ids
    for g in [make() for make in GRAPHS.values()] + [prism(4), dumbbell()]:
        for e in [-1, g.num_edges, g.num_edges + 3] + list(range(g.num_edges)):
            try:
                q = flip_quadrilateral(g, e)
            except FatGraphError as exc:
                with pytest.raises(type(exc)) as info:
                    whitehead_flip(g, e)
                assert str(info.value) == str(exc)
                continue
            _, record = whitehead_flip(g, e, (q.tail_vertex,))
            assert record == FlipRecord(flipped_edge=e, a=q.a, b=q.b, c=q.c, d=q.d,
                                        tail_vertex=q.tail_vertex,
                                        head_vertex=q.head_vertex,
                                        reflections_applied=(q.tail_vertex,))
    with pytest.raises(FatGraphError, match=r"^no edge -1$"):
        whitehead_flip(prism(3), -1)


def test_flip_record_keeps_its_fields_repr_and_immutability():
    record = FlipRecord(0, 1, 2, 3, 4, 5, 6)
    assert record.reflections_applied == ()
    assert repr(record) == ("FlipRecord(flipped_edge=0, a=1, b=2, c=3, d=4, tail_vertex=5, "
                            "head_vertex=6, reflections_applied=())")
    with pytest.raises(AttributeError):
        record.a = 9


def test_flip_reference_direction():
    # the new edge runs from the vertex holding b and c to the one holding a and d
    g = four_punctured_sphere()
    q = flip_quadrilateral(g, 0)
    flipped, record = whitehead_flip(g, 0)
    t, h = flipped.edges[0]
    tail_edges = set(flipped.edges_at(flipped.vertex_of(t)))
    head_edges = set(flipped.edges_at(flipped.vertex_of(h)))
    assert {record.b, record.c} <= tail_edges
    assert {record.a, record.d} <= head_edges


def test_double_flip_isomorphic_to_original():
    g = four_punctured_sphere()
    for e in range(g.num_edges):
        once, _ = whitehead_flip(g, e)
        twice, _ = whitehead_flip(once, e)
        assert twice != g  # the flipped edge's half-edges trade places
        fixed = [h for other in range(g.num_edges) if other != e
                 for h in g.edges[other]]
        isos = [phi for phi in find_isomorphisms(twice, g)
                if all(phi[h] == h for h in fixed)]
        assert len(isos) == 1
        phi = isos[0]
        t, h = g.edges[e]
        assert phi[t] == h and phi[h] == t


def test_flip_leaves_other_vertices_alone():
    g = genus2_one_puncture()
    q = flip_quadrilateral(g, 0)
    flipped, _ = whitehead_flip(g, 0)
    for v in range(g.num_vertices):
        if v not in (q.tail_vertex, q.head_vertex):
            assert flipped.vertices[v] == g.vertices[v]
    assert flipped.edges == g.edges


def test_quadrilateral_labels_match_convention():
    g = punctured_torus()
    q = flip_quadrilateral(g, 0, require_generic=False)
    # at A = (0, 2, 4): sigma(0) = 2 -> edge 1, sigma(2) = 4 -> edge 2
    assert (q.a, q.b, q.c, q.d) == (1, 2, 1, 2)


def test_isomorphism_finder_counts_automorphisms():
    # the theta graph has a Z/3 rotation and an orientation-preserving swap
    g = theta_graph()
    autos = find_isomorphisms(g, g)
    assert len(autos) >= 3
    identity = tuple(range(g.num_half_edges))
    assert identity in autos


# -- the patched flip against a rebuild ------------------------------------------

def mask_xor_flip_signs(state, e):
    """flip_orientation's signs computed through GF(2) edge masks."""
    graph = state.graph
    q = flip_quadrilateral(graph, e)
    mask = sum(1 << i for i, s in enumerate(state.signs) if s == -1)
    if state.signs[e] == 1:
        for h in graph.vertices[q.tail_vertex]:
            mask ^= 1 << graph.edge_of(h)
    mask ^= 1 << q.b
    mask &= ~(1 << e)
    return tuple(-1 if mask >> i & 1 else 1 for i in range(graph.num_edges))


@pytest.mark.parametrize("name", sorted(GRAPHS) + ["prism_16"])
def test_patched_flip_equals_a_rebuild(name):
    graph = prism(16) if name == "prism_16" else GRAPHS[name]()
    rng = random.Random(name)
    state = OrientationState(graph, [rng.choice((1, -1)) for _ in range(graph.num_edges)])
    flips = 0
    for _ in range(60):
        edges = generic_edges(graph)
        if not edges:
            break
        e = rng.choice(edges)
        expected_signs = mask_xor_flip_signs(state, e)
        reflection_vertices_between(state, state)   # fills the parent's cut cache
        assert graph._cuts is not None
        state, _ = flip_orientation(state, e)
        flipped = state.graph
        rebuilt = FatGraph(flipped.vertices, flipped.edges, flipped.vertex_names)
        # every slot: vertices, edges, vertex_names and the four tables are
        # equal; the cut cache is not inherited, so both graphs start without
        for slot in FatGraph.__slots__:
            if slot == "_cuts":
                assert flipped._cuts is None and rebuilt._cuts is None
            else:
                assert getattr(flipped, slot) == getattr(rebuilt, slot), slot
        assert state.signs == expected_signs
        assert topology(flipped) == topology(graph)
        graph = flipped
        flips += 1
    # the torus and theta graphs have no generic flip; the others walk far
    assert flips == (0 if name in ("torus_1_1", "theta_0_3") else 60)


def test_a_flip_copies_the_two_tables_it_patches_and_shares_the_rest():
    # the alpha shortcut of the round-trip comparison relies on a flip
    # descendant holding its ancestor's alpha list itself
    for graph in [make() for make in GRAPHS.values()] + [prism(5), dumbbell()]:
        tables = (graph._sigma, graph._alpha, graph._edge_of, graph._vertex_of)
        assert all(type(table) is list for table in tables)
        assert type(graph.vertices) is tuple
        for e in generic_edges(graph):
            flipped, _ = whitehead_flip(graph, e)
            for name in ("_alpha", "_edge_of", "edges", "vertex_names"):
                assert getattr(flipped, name) is getattr(graph, name), name
            for name in ("_sigma", "_vertex_of"):
                assert type(getattr(flipped, name)) is list
                assert getattr(flipped, name) is not getattr(graph, name), name
            assert type(flipped.vertices) is tuple
