"""Spin structures as edge-orientation classes on a trivalent fatgraph.

An orientation assigns each edge a sign: +1 means the edge points along
its stored reference direction (tail -> head), -1 the opposite way.  A
fatgraph reflection at a vertex reverses every incident edge (a loop is
reversed twice, hence unchanged); two orientations define the same spin
structure iff they differ by reflections.  Classes number 2^(E-V+1) =
2^(2g+s-1) on a connected graph.

Canonical representatives and class counts are decided by GF(2) linear
algebra over int bitmasks (bit i = edge i reversed), one elimination
routine (_rref); membership and the reflections between two orientations
come from one walk over the edges (reflection_vertices_between).  A
brute-force orbit search is kept alongside as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from .fatgraph import boundary_cycles, whitehead_flip


class SpinError(ValueError):
    """Invalid orientation data or mismatched graphs."""


class OrientationState:
    """Immutable assignment of a sign (+1/-1) to every edge of a graph."""

    __slots__ = ("graph", "signs")

    def __init__(self, graph, signs):
        signs = tuple(signs)
        if len(signs) != graph.num_edges or any(s not in (1, -1) for s in signs):
            raise SpinError("need one sign +1/-1 per edge, got %r" % (signs,))
        self.graph = graph
        self.signs = signs

    @classmethod
    def _unchecked(cls, graph, signs):
        """A state from a tuple of signs already known to be valid."""
        state = object.__new__(cls)
        state.graph = graph
        state.signs = signs
        return state

    @classmethod
    def all_plus(cls, graph):
        return cls(graph, (1,) * graph.num_edges)

    def sign(self, e):
        return self.signs[e]

    def sign_string(self):
        return "".join("+" if s == 1 else "-" for s in self.signs)

    def __eq__(self, other):
        return (isinstance(other, OrientationState)
                and self.graph == other.graph and self.signs == other.signs)

    def __hash__(self):
        return hash((self.graph, self.signs))

    def __repr__(self):
        return "OrientationState(%s)" % self.sign_string()


def _signs_to_mask(signs):
    mask = 0
    for i, s in enumerate(signs):
        if s == -1:
            mask |= 1 << i
    return mask


def _mask_to_signs(mask, num_edges):
    return tuple(-1 if mask >> i & 1 else 1 for i in range(num_edges))


def _lex_key(state):
    # edge-id order with + before -
    return tuple(0 if s == 1 else 1 for s in state.signs)


def reflection_mask(graph, v):
    """GF(2) vector of edges toggled by a reflection at vertex v."""
    mask = 0
    for h in graph.vertices[v]:
        mask ^= 1 << graph.edge_of(h)
    return mask


def star_matrix(graph):
    """Reflection vectors of all vertices (loops cancel out)."""
    return [reflection_mask(graph, v) for v in range(graph.num_vertices)]


def _rref(rows):
    """Reduced row echelon form over GF(2); pivots at lowest set bits.

    Returns (pivot_bit, row) pairs sorted by pivot.
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


def _reduce(mask, basis):
    """Clear every pivot bit of mask.

    The remainder is the lexicographically smallest coset element for the
    edge-id order with + before -.
    """
    for pivot, row in basis:
        if mask >> pivot & 1:
            mask ^= row
    return mask


def _toggle_star(signs, graph, v):
    """Reflect the list signs at vertex v in place, once per incidence."""
    for h in graph.vertices[v]:
        e = graph.edge_of(h)
        signs[e] = -signs[e]


def reflect(state, v):
    """Reflect at vertex v: toggle each incident edge once per incidence."""
    graph = state.graph
    if not 0 <= v < graph.num_vertices:
        raise SpinError("unknown vertex %r" % (v,))
    signs = list(state.signs)
    _toggle_star(signs, graph, v)
    return OrientationState._unchecked(graph, tuple(signs))


def same_spin_class(state1, state2):
    """True iff the two orientations differ by fatgraph reflections."""
    return reflection_vertices_between(state1, state2) is not None


def reflection_vertices_between(state1, state2):
    """A vertex set whose reflections carry state1 to state2, or None.

    The answer is unique up to complementation (reflecting at every
    vertex of a connected graph is the identity); the set returned is the
    one without vertex 0, in increasing order.  Reflecting at a set X
    reverses edge e exactly when one end of e is in X (a loop never), so
    X is found by walking the edges from vertex 0, outside X: the far end
    of e is in X when exactly one of "near end in X" and "the signs
    differ on e" holds.  An edge whose ends then disagree, a differing
    loop included, means no X exists.  One pass over the graph's tables,
    O(E).
    """
    if state1.graph != state2.graph:
        raise SpinError("orientation states live on different graphs")
    graph = state1.graph
    differs = [s1 != s2 for s1, s2 in zip(state1.signs, state2.signs)]
    vertices, alpha = graph.vertices, graph._alpha
    edge_of, vertex_of = graph._edge_of, graph._vertex_of
    inside = [None] * graph.num_vertices
    inside[0] = False
    stack = [0]
    while stack:
        u = stack.pop()
        for h in vertices[u]:
            w = vertex_of[alpha[h]]
            x = inside[u] != differs[edge_of[h]]
            if inside[w] is None:
                inside[w] = x
                stack.append(w)
            elif inside[w] != x:
                return None
    return tuple(v for v, x in enumerate(inside) if x)


def canonical_representative(state):
    """Lexicographically smallest orientation in the spin class."""
    basis = _rref(star_matrix(state.graph))
    mask = _reduce(_signs_to_mask(state.signs), basis)
    return OrientationState(state.graph, _mask_to_signs(mask, state.graph.num_edges))


def spin_class_count(graph):
    """Class count from the GF(2) rank formula: 2^(E - rank) = 2^(E-V+1)."""
    rank = len(_rref(star_matrix(graph)))
    return 1 << (graph.num_edges - rank)


# enumerate_spin_classes refuses more classes than 2**this
MAX_ENUMERATED_CLASSES_LOG2 = 20

# checks.check_spincount skips brute_force_spin_classes above this many
# edges: the oracle visits all 2^E orientations, about 1 s at E = 18 and
# about 9x more per 3 further edges
MAX_BRUTE_FORCE_EDGES = 18


def enumerate_spin_classes(graph):
    """One canonical representative per spin class, lexicographically sorted.

    The canonical representatives are exactly the masks with every pivot
    bit clear, one for each of the 2^(E - rank) subsets of free edges.
    More than 2^MAX_ENUMERATED_CLASSES_LOG2 classes is a SpinError, raised
    before any representative is built.
    """
    pivots = {pivot for pivot, _ in _rref(star_matrix(graph))}
    free = graph.num_edges - len(pivots)
    if free > MAX_ENUMERATED_CLASSES_LOG2:
        raise SpinError("2^%d = %d spin classes (2^(E-V+1) with E=%d, V=%d) exceed the "
                        "enumeration limit of 2^%d"
                        % (free, 1 << free, graph.num_edges, graph.num_vertices,
                           MAX_ENUMERATED_CLASSES_LOG2))
    masks = [0]
    for i in range(graph.num_edges):
        if i not in pivots:
            masks += [m | 1 << i for m in masks]
    states = [OrientationState(graph, _mask_to_signs(m, graph.num_edges)) for m in masks]
    states.sort(key=_lex_key)  # + sorts before -
    return tuple(states)


def brute_force_spin_classes(graph):
    """Independent oracle: orbit partition of all 2^E orientations.

    Explores reflection moves directly (no linear algebra).  Orientations
    are visited in lexicographic order (edge 0 first, + before -): the
    i-th is the mask with the E bits of i reversed, so the first member
    met in each orbit is its lexicographically smallest, and the
    representatives come out sorted.
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
    return tuple(OrientationState(graph, _mask_to_signs(m, num_edges)) for m in reps)


def classify_punctures(state):
    """R/NS type of every boundary cycle, in boundary_cycles order.

    Walking a cycle traverses each half-edge h along h -> alpha(h); the
    traversal opposes the edge's orientation when it runs from the head
    half while the sign is +1, or from the tail half while the sign is -1.
    An even count of opposing traversals gives R, odd gives NS.
    """
    graph = state.graph
    tags = []
    for cycle in boundary_cycles(graph):
        k = 0
        for h in cycle:
            e = graph.edge_of(h)
            along_reference = graph.edges[e][0] == h
            if along_reference != (state.signs[e] == 1):
                k += 1
        tags.append("R" if k % 2 == 0 else "NS")
    return tuple(tags)


def flip_orientation(state, e):
    """Evolve an orientation through the flip of edge e.

    The evolution rule is stated for the arrow configuration in which e
    points from the (c,d)-vertex to the (a,b)-vertex, i.e. sign -1 against
    the stored tail->head reference.  A +1 edge is first brought there by
    an auto-reflection at the tail vertex (recorded).  Then a, c, d keep
    their orientations, b is reversed, and the new edge points from the
    (b,c)-vertex to the (a,d)-vertex, which is its new reference (+1).

    The signs are toggled in place on a copy: the auto-reflection toggles
    the three edges at the tail vertex (e, a, b, no loop among them on a
    generic flip), then b and e are set.  The parent's signs were valid
    and only +1/-1 are written, so the new state is not re-checked.
    """
    graph = state.graph
    flipped, record = whitehead_flip(graph, e)
    signs = list(state.signs)
    if signs[e] == 1:
        _toggle_star(signs, graph, record.tail_vertex)
        record = replace(record, reflections_applied=(record.tail_vertex,))
    signs[record.b] = -signs[record.b]
    signs[e] = 1
    return OrientationState._unchecked(flipped, tuple(signs)), record
