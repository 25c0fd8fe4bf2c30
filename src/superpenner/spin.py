"""Spin structures as edge-orientation classes on a trivalent fatgraph.

An orientation assigns each edge a sign: +1 means the edge points along
its stored reference direction (tail -> head), -1 the opposite way.  A
fatgraph reflection at a vertex reverses every incident edge (a loop is
reversed twice, hence unchanged); two orientations define the same spin
structure iff they differ by reflections.  Classes number 2^(E-V+1) =
2^(2g+s-1) on a connected graph.

An OrientationState is its GF(2) vector, an int mask with bit e set when
edge e is reversed (sign -1), and a reflection XORs the mask with the
star of its vertex (reflection_mask).  Class counts and canonical
representatives come from one spanning forest, the one Kruskal's greedy
pass picks in edge-id order (_spanning_forest).  Reflecting at a vertex
set reverses the edges of a cut, and a nonempty cut holds a forest edge;
as the cuts are as many as the forest-edge subsets (2^rank), each class
holds exactly one orientation with every forest edge at +1.  That one is
the class's lexicographic minimum (edge 0 first, + before -), because
the lowest edge of a nonempty cut is a forest edge: an edge left out of
the forest closes a cycle of lower forest edges, and a cycle crosses a
cut an even number of times.  Membership and the reflections between
two orientations come from the same forest's fundamental cuts
(reflection_vertices_between): a vertex set without vertex 0 is the XOR
of the sides of the forest edges in its cut, so the forest edges whose
signs differ name the only candidate set, which works when its cut is
exactly the differing edges.

The R/NS type of a puncture is affine over GF(2) in the mask: each
boundary cycle has a parity k0 and an edge mask C, and the type is R
exactly when k0 + popcount(mask & C) is even (classify_punctures), so
typing every class of a graph takes one popcount per cycle and class.

A brute-force orbit search is kept alongside as an independent oracle.
The reflections form a group acting by translation: orbit(start) =
start ^ orbit(0).  The oracle finds orbit(0) once, by breadth-first
search over the reflection moves, and translates it; it never uses the
forest, so a fault there cannot hide by agreeing with itself.
"""

from __future__ import annotations

from .fatgraph import boundary_cycles, whitehead_flip


class SpinError(ValueError):
    """Invalid orientation data or mismatched graphs."""


class OrientationState:
    """Immutable assignment of a sign (+1/-1) to every edge of a graph,
    stored as the mask of the edges with sign -1."""

    __slots__ = ("graph", "mask")

    def __init__(self, graph, signs):
        signs = tuple(signs)
        if len(signs) != graph.num_edges or any(s not in (1, -1) for s in signs):
            raise SpinError("need one sign +1/-1 per edge, got %r" % (signs,))
        self.graph = graph
        self.mask = sum(1 << e for e, s in enumerate(signs) if s == -1)

    @classmethod
    def _unchecked(cls, graph, mask):
        """A state from a mask already known to fit the graph's edges."""
        state = object.__new__(cls)
        state.graph = graph
        state.mask = mask
        return state

    @classmethod
    def all_plus(cls, graph):
        return cls._unchecked(graph, 0)

    @property
    def signs(self):
        """One sign, +1 or -1, per edge."""
        return _mask_to_signs(self.mask, self.graph.num_edges)

    def sign(self, e):
        # the range indexes e as the tuple of signs would
        return -1 if self.mask >> range(self.graph.num_edges)[e] & 1 else 1

    def sign_string(self):
        """The signs as one '+' or '-' per edge, edge 0 first: the mask's
        binary digits, reversed, as one format and one translate."""
        return format(self.mask, "0%db" % self.graph.num_edges)[::-1].translate(_SIGN_CHARS)

    def __eq__(self, other):
        return (isinstance(other, OrientationState)
                and self.mask == other.mask and self.graph == other.graph)

    def __hash__(self):
        return hash((self.graph, self.mask))

    def __repr__(self):
        return "OrientationState(%s)" % self.sign_string()


_SIGN_CHARS = str.maketrans("01", "+-")


def _mask_to_signs(mask, num_edges):
    return tuple(-1 if mask >> i & 1 else 1 for i in range(num_edges))


def _bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reflection_mask(graph, v):
    """GF(2) vector of edges toggled by a reflection at vertex v."""
    mask = 0
    for h in graph.vertices[v]:
        mask ^= 1 << graph.edge_of(h)
    return mask


def _spanning_forest(graph):
    """Edges of the spanning forest that Kruskal's pass takes in id order.

    An edge joins the forest when its ends lie in different components of
    the forest so far (a loop never does).  This is the greedy basis of
    the graphic matroid, which is the column matroid of the matrix whose
    rows are the reflection vectors, so it equals the pivot columns of
    that matrix's reduced row echelon form with pivots at lowest set bits.
    Union-find with path halving, one pass over the edges.
    """
    parent = list(range(graph.num_vertices))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    vertex_of = graph._vertex_of
    forest = []
    for e, (t, h) in enumerate(graph.edges):
        rt, rh = root(vertex_of[t]), root(vertex_of[h])
        if rt != rh:
            parent[rt] = rh
            forest.append(e)
    return forest


def reflect(state, v):
    """Reflect at vertex v: toggle each incident edge once per incidence."""
    graph = state.graph
    if not 0 <= v < graph.num_vertices:
        raise SpinError("unknown vertex %r" % (v,))
    return OrientationState._unchecked(graph, state.mask ^ reflection_mask(graph, v))


def same_spin_class(state1, state2):
    """True iff the two orientations differ by fatgraph reflections."""
    return _reflection_side(state1, state2) is not None


def _fundamental_cuts(graph):
    """(sides, cuts): per edge id, the fundamental cut of the spanning forest.

    The forest (_spanning_forest, a spanning tree of the connected graph)
    is rooted at vertex 0.  For a forest edge f, sides[f] is the vertex
    mask of the component of the forest without f that misses vertex 0
    (the subtree below f), and cuts[f] the edge mask of the edges with
    exactly one end there: the XOR of its vertices' reflection masks, in
    which a loop cancels.  A non-forest edge has 0 for both.  One
    breadth-first pass from vertex 0, then one pass from the leaves up.
    """
    num_vertices, num_edges = graph.num_vertices, graph.num_edges
    vertex_of, edges = graph._vertex_of, graph.edges
    adjacent = [[] for _ in range(num_vertices)]
    for f in _spanning_forest(graph):
        u, w = vertex_of[edges[f][0]], vertex_of[edges[f][1]]
        adjacent[u].append((w, f))
        adjacent[w].append((u, f))
    up = [None] * num_vertices   # (parent vertex, forest edge to it)
    up[0] = (0, None)
    order = [0]
    for u in order:   # breadth-first: the list grows while it is walked
        for w, f in adjacent[u]:
            if up[w] is None:
                up[w] = (u, f)
                order.append(w)
    side = [1 << v for v in range(num_vertices)]
    cut = [reflection_mask(graph, v) for v in range(num_vertices)]
    sides, cuts = [0] * num_edges, [0] * num_edges
    for v in reversed(order[1:]):
        u, f = up[v]
        sides[f], cuts[f] = side[v], cut[v]
        side[u] |= side[v]
        cut[u] ^= cut[v]
    return sides, cuts


def reflection_vertices_between(state1, state2):
    """A vertex set whose reflections carry state1 to state2, or None.

    The answer is unique up to complementation (reflecting at every
    vertex of a connected graph is the identity); the set returned is the
    one without vertex 0, in increasing order: the bits of
    _reflection_side.
    """
    side = _reflection_side(state1, state2)
    return None if side is None else tuple(_bits(side))


def _reflection_side(state1, state2):
    """The vertex mask of the reflection set without vertex 0 that carries
    state1 to state2 (see reflection_vertices_between), or None.

    Reflecting at a set X reverses edge e exactly when one end of e is in
    X (a loop never): the cut of X.  A vertex is in X exactly when its
    forest path from vertex 0 crosses that cut an odd number of times, so
    X is the XOR of the sides of the forest edges in its cut, which must
    be those whose signs differ.  X exists exactly when the XOR of their
    cuts is the set D of differing edges (a differing loop edge lies in
    no cut).

    The fundamental cuts are built once per graph, on first use, into the
    graph's _cuts slot.  D is the XOR of the two masks, so a call's
    Python work is per differing edge.
    """
    graph = state1.graph
    if state2.graph is not graph and state2.graph != graph:
        raise SpinError("orientation states live on different graphs")
    table = graph._cuts
    if table is None:
        table = graph._cuts = _fundamental_cuts(graph)
    sides, cuts = table
    differing = state1.mask ^ state2.mask
    inside = cut = 0
    for e in _bits(differing):
        inside ^= sides[e]
        cut ^= cuts[e]
    return inside if cut == differing else None


def spin_class_count(graph):
    """Class count from the rank formula: 2^(E - rank) = 2^(E-V+1).

    The rank of the reflections is the size of the spanning forest.
    """
    return 1 << (graph.num_edges - len(_spanning_forest(graph)))


# enumerate_spin_classes refuses more classes than 2**this
MAX_ENUMERATED_CLASSES_LOG2 = 20

# checks.check_spincount skips brute_force_spin_classes above this many
# edges: the oracle visits all 2^E orientations, about 50 ms at E = 18
# (prism(6)) and about 8x more per 3 further edges (0.4 s at E = 21)
MAX_BRUTE_FORCE_EDGES = 18


def _lex_masks(bits):
    """Every mask over bits (increasing positions), in lexicographic order.

    Lexicographic means the lowest bit decides first, clear before set:
    each bit, taken from the highest down, doubles the list with the new
    bit clear in the first half and set in the second.
    """
    masks = [0]
    for i in reversed(bits):
        masks += [m | 1 << i for m in masks]
    return masks


def enumerate_spin_classes(graph):
    """One canonical representative per spin class, lexicographically sorted.

    The canonical representatives are exactly the masks with every forest
    edge clear, one for each of the 2^(E - rank) subsets of the other
    edges.  More than 2^MAX_ENUMERATED_CLASSES_LOG2 classes is a
    SpinError, raised before any representative is built.
    """
    num_edges = graph.num_edges
    forest = set(_spanning_forest(graph))
    free = [e for e in range(num_edges) if e not in forest]
    if len(free) > MAX_ENUMERATED_CLASSES_LOG2:
        raise SpinError("2^%d spin classes (2^(E-V+1) with E=%d, V=%d) exceed the "
                        "enumeration limit of 2^%d"
                        % (len(free), num_edges, graph.num_vertices,
                           MAX_ENUMERATED_CLASSES_LOG2))
    return tuple(OrientationState._unchecked(graph, m) for m in _lex_masks(free))


def brute_force_spin_classes(graph):
    """Independent oracle: orbit partition of all 2^E orientations.

    Explores reflection moves directly (no linear algebra, no forest).  A
    reflection XORs a mask with a fixed vector, so orbit(start) =
    start ^ orbit(0): the orbit of 0 is found once by breadth-first
    search over the moves and translated to each new start.
    Orientations are visited in lexicographic order (edge 0 first, +
    before -), each the union of a mask over the low half of the edges
    and one over the high half, so the first member met in each orbit is
    its lexicographically smallest, and the representatives come out
    sorted.  Visited orientations are one byte each, not a set of ints.
    """
    num_edges = graph.num_edges
    moves = [reflection_mask(graph, v) for v in range(graph.num_vertices)]
    orbit = [0]
    in_orbit = {0}
    for m in orbit:  # breadth-first: the list grows while it is walked
        for move in moves:
            nxt = m ^ move
            if nxt not in in_orbit:
                in_orbit.add(nxt)
                orbit.append(nxt)
    half = num_edges // 2
    high_masks = _lex_masks(range(half, num_edges))
    seen = bytearray(1 << num_edges)
    reps = []
    for low in _lex_masks(range(half)):
        for high in high_masks:
            start = low | high
            if seen[start]:
                continue
            reps.append(start)
            for m in orbit:
                seen[start ^ m] = 1
    return tuple(OrientationState._unchecked(graph, m) for m in reps)


def classify_punctures(state, cycles=None):
    """R/NS type of every boundary cycle, in boundary_cycles order.

    Walking a cycle traverses each half-edge h along h -> alpha(h); the
    traversal opposes the edge's orientation when it runs from the head
    half of an edge that is not reversed, or from the tail half of one
    that is.  An even count of opposing traversals gives R, odd gives NS.

    That count is affine over GF(2) in the orientation mask: a traversal
    from h opposes edge e exactly when (h is e's head half) XOR (e is
    reversed), so mod 2 the count is k0 + popcount(mask & C), with k0 the
    parity of the cycle's head-half traversals and C the XOR of 1 << e
    over its half-edges (_cycle_parities).  An edge the cycle traverses
    from both halves cancels from C: exactly one of the two traversals
    opposes it, whatever its sign, and its head half counts in k0.  Once
    (k0, C) is known a type is one popcount (_puncture_types).

    cycles, when given, must be boundary_cycles(state.graph); the
    orientations of one graph can then share one walk of its cycles.
    """
    graph = state.graph
    if cycles is None:
        cycles = boundary_cycles(graph)
    return _puncture_types(_cycle_parities(graph, cycles), state.mask)


def _cycle_parities(graph, cycles):
    """(k0, C) of each of the boundary cycles of graph (see classify_punctures)."""
    edges, edge_of = graph.edges, graph._edge_of
    table = []
    for cycle in cycles:
        k0 = mask = 0
        for h in cycle:
            e = edge_of[h]
            k0 ^= edges[e][1] == h
            mask ^= 1 << e
        table.append((k0, mask))
    return table


_TYPES = ("R", "NS")


def _puncture_types(parities, mask):
    """The R/NS tags of the orientation mask, from _cycle_parities' table."""
    return tuple(_TYPES[(k0 + (mask & cycle).bit_count()) & 1] for k0, cycle in parities)


def flip_orientation(state, e):
    """Evolve an orientation through the flip of edge e.

    The evolution rule is stated for the arrow configuration in which e
    points from the (c,d)-vertex to the (a,b)-vertex, i.e. sign -1 against
    the stored tail->head reference.  A +1 edge is first brought there by
    an auto-reflection at the tail vertex (recorded).  Then a, c, d keep
    their orientations, b is reversed, and the new edge points from the
    (b,c)-vertex to the (a,d)-vertex, which is its new reference (+1).

    Composed, this is one XOR.  Loops are refused, so the tail vertex's
    star is e, a and b, and the reflection toggles one bit per half-edge:
    e, a and b (if a = b their toggles cancel, and toggling b then leaves
    a toggled all the same).  Toggling b again and clearing e leaves a
    toggled, so the new mask is the old one with a toggled after an
    auto-reflection, b toggled otherwise, and e cleared.  The reflection
    is decided before the graph flip, so whitehead_flip builds the one
    record with it.
    """
    graph, mask = state.graph, state.mask
    edges = graph.edges
    # an e out of range is left for whitehead_flip to refuse
    reflected = 0 <= e < len(edges) and not mask >> e & 1
    flipped, record = whitehead_flip(
        graph, e, (graph._vertex_of[edges[e][0]],) if reflected else ())
    toggled = record.a if reflected else record.b
    return OrientationState._unchecked(flipped, (mask ^ 1 << toggled) & ~(1 << e)), record
