"""Trivalent fatgraphs (ribbon graphs) as half-edge structures.

A fatgraph is a pair of permutations on half-edges: the pairing involution
alpha (grouping half-edges into edges) and the vertex permutation sigma
(counterclockwise-next half-edge around each vertex).  Here it is stored
the other way around: a tuple of vertices, each a cyclic triple of
half-edge ids, and a tuple of edges, each an ordered (tail, head) pair of
half-edges.  The ordered pair is the edge's reference direction.

Boundary cycles are the orbits of phi = sigma o alpha; they correspond to
punctures of the thickened surface.  The Whitehead flip replaces an edge
by the opposite diagonal of its quadrilateral, keeping ids stable.  It is
a local move: the flipped graph is built from the parent by patching the
two rewritten vertices in its tables, without rebuilding or revalidating
the whole graph (see whitehead_flip).

A graph's four half-edge tables (sigma, alpha, edge_of and vertex_of, one
entry per half-edge) are lists, built once by the constructor and never
mutated after the graph is returned: graphs share them, so nothing may
write to them.  A flip copies the two it patches (sigma and vertex_of)
once each with list.copy() and shares the other two.  vertices and edges
stay tuples, as they are public and hashed.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


class FatGraphError(ValueError):
    """Invalid fatgraph data or unusable operation input."""


class NonGenericFlipError(FatGraphError):
    """Flip rejected: loop edge or coincidences among the side labels."""


def _rotated(x, y, z):
    """The cyclic triple (x, y, z) rotated so that its first minimum comes first."""
    if x <= y:
        return (x, y, z) if x <= z else (z, x, y)
    return (y, z, x) if y <= z else (z, x, y)


class FatGraph:
    """Immutable trivalent fatgraph.

    vertices: sequence of cyclic triples of half-edge ids.
    edges: sequence of (tail_half, head_half) pairs.
    Half-edge ids must be exactly 0..2E-1, each appearing in one vertex
    triple and one edge pair.  A vertex entry must hold three ints (an
    operator.index operand) and an edge entry two values that int()
    converts; any other entry is a FatGraphError, as is every other
    invalid graph.

    _sigma, _alpha, _edge_of and _vertex_of are lists indexed by
    half-edge, built once here and never mutated afterwards; flipped
    graphs share them or hold patched copies (whitehead_flip), so they
    are read-only to everyone.  vertices stays a tuple.

    _cuts caches the fundamental cuts of the spanning forest, which
    spin.reflection_vertices_between builds on first use (None until
    then).  It is only right while the tables never change; a flipped
    graph starts without it.
    """

    __slots__ = ("vertices", "edges", "vertex_names",
                 "_sigma", "_alpha", "_edge_of", "_vertex_of", "_cuts")

    def __init__(self, vertices, edges, vertex_names=None):
        triples = []
        for v in vertices:
            try:
                x, y, z = map(operator.index, v)
            except (TypeError, ValueError):
                raise FatGraphError("non-trivalent vertex %r" % (v,)) from None
            triples.append(_rotated(x, y, z))
        self.vertices = tuple(triples)
        pairs = []
        for pair in edges:
            try:
                t, h = pair
                pairs.append((int(t), int(h)))
            except (TypeError, ValueError):
                raise FatGraphError("bad edge %r" % (pair,)) from None
        self.edges = tuple(pairs)
        if vertex_names is None:
            vertex_names = tuple("v%d" % i for i in range(len(self.vertices)))
        self.vertex_names = tuple(vertex_names)
        n = 2 * len(self.edges)
        # out-of-range ids leave holes that _validate reports
        sigma = [None] * n
        vertex_of = [None] * n
        for vi, triple in enumerate(self.vertices):
            for k, h in enumerate(triple):
                if 0 <= h < n:
                    sigma[h] = triple[(k + 1) % len(triple)]
                    vertex_of[h] = vi
        alpha = [None] * n
        edge_of = [None] * n
        for ei, (t, h) in enumerate(self.edges):
            if 0 <= t < n and 0 <= h < n:
                alpha[t], alpha[h] = h, t
                edge_of[t] = edge_of[h] = ei
        self._sigma = sigma
        self._alpha = alpha
        self._edge_of = edge_of
        self._vertex_of = vertex_of
        self._cuts = None
        self._validate()

    def _validate(self):
        names = self.vertex_names
        if len(names) != len(self.vertices):
            raise FatGraphError("vertex name count does not match vertex count")
        # a document carries each name as a record key, which scan_document
        # reads back unchanged only without whitespace, ':' or '#', and its
        # mu lines name one vertex each
        try:
            joined = " ".join(names)
        except TypeError:   # a name that is not a str
            joined = ":"
        if (":" in joined or "#" in joined or joined.split() != list(names)
                or len(set(names)) != len(names)):
            raise FatGraphError("vertex names must be distinct non-empty strings without "
                                "whitespace, ':' or '#', got %r" % (names,))
        for triple in self.vertices:
            if len(set(triple)) != 3:
                raise FatGraphError("non-trivalent vertex %r" % (triple,))
        n = 2 * len(self.edges)
        # 3V slots filled without holes means each half-edge exactly once
        if 3 * len(self.vertices) != n or None in self._vertex_of:
            raise FatGraphError("vertex half-edges are not exactly 0..%d "
                                "(dangling or duplicated half-edge)" % (n - 1))
        # likewise for the 2E slots of the edges: an edge that pairs a
        # half-edge with itself fills one slot and leaves a hole
        if None in self._edge_of:
            raise FatGraphError("edge half-edges are not exactly 0..%d "
                                "(dangling or duplicated half-edge)" % (n - 1))
        if not self.edges:
            raise FatGraphError("empty fatgraph")
        # now 3V = 2E >= 2, so V < E: the Euler characteristic
        # 2 - 2g - s = V - E is negative without a test
        # connectivity under the group generated by sigma and alpha
        reach = [False] * n
        reach[0] = True
        stack = [0]
        while stack:
            h = stack.pop()
            for nxt in (self._sigma[h], self._alpha[h]):
                if not reach[nxt]:
                    reach[nxt] = True
                    stack.append(nxt)
        if not all(reach):
            raise FatGraphError("disconnected fatgraph")

    # -- basic accessors ----------------------------------------------------

    @property
    def num_half_edges(self):
        return 2 * len(self.edges)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_vertices(self):
        return len(self.vertices)

    def sigma(self, h):
        return self._sigma[h]

    def alpha(self, h):
        return self._alpha[h]

    def edge_of(self, h):
        return self._edge_of[h]

    def vertex_of(self, h):
        return self._vertex_of[h]

    def tail_vertex(self, e):
        return self._vertex_of[self.edges[e][0]]

    def head_vertex(self, e):
        return self._vertex_of[self.edges[e][1]]

    def is_loop(self, e):
        return self.tail_vertex(e) == self.head_vertex(e)

    def edges_at(self, v):
        """Edge ids incident to vertex v, once per incidence."""
        return tuple(self._edge_of[h] for h in self.vertices[v])

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FatGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        g, s, e, v = topology(self)
        return "FatGraph(g=%d, s=%d, E=%d, V=%d)" % (g, s, e, v)


class FlipRecord(NamedTuple):
    """Audit trail of one flip.

    Labels follow the quadrilateral convention: a and b are the edges
    after the flipped edge's tail half-edge in cyclic order at the tail
    vertex, c and d likewise at the head vertex.  The flipped edge keeps
    its id, and so does every other edge.  A named tuple: immutable, and
    built at the cost of a tuple on every flip.
    """

    flipped_edge: int
    a: int
    b: int
    c: int
    d: int
    tail_vertex: int
    head_vertex: int
    reflections_applied: tuple = ()


@dataclass(frozen=True)
class Quadrilateral:
    """The local picture around a flippable edge."""

    edge: int
    tail_vertex: int
    head_vertex: int
    tail_half: int
    head_half: int
    ha: int
    hb: int
    hc: int
    hd: int
    a: int
    b: int
    c: int
    d: int


def _quadrilateral(graph, e, require_generic=True):
    """The fields of flip_quadrilateral(graph, e) after the edge, as a tuple.

    (tail_vertex, head_vertex, tail_half, head_half, ha, hb, hc, hd, a,
    b, c, d), read from the graph's tables, with flip_quadrilateral's
    checks and errors; whitehead_flip, decorated.shear_coordinates and
    checks.random_decorated_state take them without building a
    Quadrilateral.
    """
    if not 0 <= e < len(graph.edges):
        raise FatGraphError("no edge %r" % (e,))
    t, h = graph.edges[e]
    vertex_of = graph._vertex_of
    u = vertex_of[t]
    w = vertex_of[h]
    if u == w:
        raise NonGenericFlipError("non-generic flip unsupported: edge %d is a loop" % e)
    sigma, edge_of = graph._sigma, graph._edge_of
    ha = sigma[t]
    hb = sigma[ha]
    hc = sigma[h]
    hd = sigma[hc]
    a, b, c, d = edge_of[ha], edge_of[hb], edge_of[hc], edge_of[hd]
    if require_generic and len({a, b, c, d, e}) != 5:
        raise NonGenericFlipError(
            "non-generic flip unsupported: labels around edge %d coincide "
            "(a=%d b=%d c=%d d=%d)" % (e, a, b, c, d))
    return u, w, t, h, ha, hb, hc, hd, a, b, c, d


def flip_quadrilateral(graph, e, require_generic=True):
    """Side labels a, b, c, d of the quadrilateral around edge e.

    With h the tail half-edge and h' the head half-edge: a = edge(sigma h),
    b = edge(sigma^2 h), c = edge(sigma h'), d = edge(sigma^2 h').  When
    require_generic is set, a, b, c, d and e must be five distinct edges.
    """
    return Quadrilateral(e, *_quadrilateral(graph, e, require_generic))


def whitehead_flip(graph, e, reflections_applied=()):
    """Flip edge e, returning the new fatgraph and a FlipRecord.

    The new edge f reuses e's id and half-edges; its reference direction
    runs from the vertex now holding b and c to the vertex holding a and
    d.  All other adjacencies are untouched.  reflections_applied is
    copied into the record: the graph ignores it, and a caller that
    evolves an orientation through the flip names its auto-reflection
    there, so the record is built once.

    The flipped graph is the parent with two vertex triples rewritten:
    the tail vertex becomes (t, hb, hc) and the head vertex (h, hd, ha).
    Of the tables only six sigma entries (those six half-edges) and two
    vertex_of entries (ha and hc trade vertices) change, so they are
    written into copies of the parent's sigma and vertex_of lists, one
    list.copy() each; the parent's lists are never written.  edges,
    vertex_names, alpha and edge_of are the parent's own objects, vertices
    is a new tuple, and the cut cache starts empty.  No revalidation is
    needed: the flip keeps every half-edge and every edge, both new
    triples are trivalent, V and E are unchanged, and edge e still joins
    the two rewritten vertices, so the graph stays connected.

    Python work is per touched entry: the quadrilateral is read from the
    tables as a plain tuple (no Quadrilateral is built), the two new
    triples are rotated by comparisons, eight entries are patched and the
    record is filled by tuple.__new__, without FlipRecord's generated
    __new__ (it is the same FlipRecord).  Per vertex and half-edge there
    is only C-level copying: the vertices tuple (a list and back) and the
    two patched lists.
    """
    u, w, t, h, ha, hb, hc, hd, a, b, c, d = _quadrilateral(graph, e)
    vertices = list(graph.vertices)
    # new tail vertex picks up b and c, new head vertex picks up d and a
    vertices[u] = _rotated(t, hb, hc)
    vertices[w] = _rotated(h, hd, ha)
    sigma = graph._sigma.copy()
    sigma[t], sigma[hb], sigma[hc] = hb, hc, t
    sigma[h], sigma[hd], sigma[ha] = hd, ha, h
    vertex_of = graph._vertex_of.copy()
    vertex_of[ha] = w
    vertex_of[hc] = u
    flipped = object.__new__(FatGraph)
    flipped.vertices = tuple(vertices)
    flipped.edges = graph.edges
    flipped.vertex_names = graph.vertex_names
    flipped._sigma = sigma
    flipped._alpha = graph._alpha
    flipped._edge_of = graph._edge_of
    flipped._vertex_of = vertex_of
    flipped._cuts = None
    return flipped, tuple.__new__(FlipRecord, (e, a, b, c, d, u, w, reflections_applied))


def boundary_cycles(graph):
    """Orbits of phi = sigma o alpha, each starting at its minimal half-edge.

    Cycles are returned sorted by starting half-edge; together they cover
    every half-edge exactly once.
    """
    sigma, alpha = graph._sigma, graph._alpha
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cycle = []
        h = start
        while not seen[h]:
            seen[h] = True
            cycle.append(h)
            h = sigma[alpha[h]]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def topology(graph):
    """(genus, punctures, E, V).

    Punctures are boundary cycles; the genus comes from V - E + B = 2 - 2g.
    A FatGraph is a connected trivalent ribbon graph (FatGraph validates
    it, and whitehead_flip keeps both properties), so 2E = 3V and the
    Euler relation give an integer g >= 0, E = 6g - 6 + 3s and
    V = 4g - 4 + 2s.
    """
    s = len(boundary_cycles(graph))
    return _genus(graph, s), s, graph.num_edges, graph.num_vertices


def _genus(graph, punctures):
    """The genus g of graph with that many boundary cycles: V - E + s = 2 - 2g."""
    return (2 - graph.num_vertices + graph.num_edges - punctures) // 2


def propagate_isomorphism(graph1, graph2, source, target):
    """The half-edge isomorphism from graph1 to graph2 sending source to target.

    Propagates along sigma and alpha from source; connectivity makes the
    image of one half-edge determine the whole map.  None when that map
    is inconsistent or not a bijection.
    """
    n = graph1.num_half_edges
    if n != graph2.num_half_edges:
        return None
    sigma1, alpha1 = graph1._sigma, graph1._alpha
    sigma2, alpha2 = graph2._sigma, graph2._alpha
    phi = [None] * n
    phi[source] = target
    queue = deque([source])
    while queue:
        h = queue.popleft()
        k = phi[h]
        for img, nxt in ((sigma2[k], sigma1[h]), (alpha2[k], alpha1[h])):
            if phi[nxt] is None:
                phi[nxt] = img
                queue.append(nxt)
            elif phi[nxt] != img:
                return None
    if None in phi or len(set(phi)) != n:
        return None
    return tuple(phi)


def find_isomorphisms(graph1, graph2):
    """All half-edge bijections carrying (sigma, alpha) of graph1 to graph2."""
    if graph1.num_half_edges != graph2.num_half_edges:
        return []
    isos = (propagate_isomorphism(graph1, graph2, 0, target)
            for target in range(graph1.num_half_edges))
    return [phi for phi in isos if phi is not None]


# ---------------------------------------------------------------------------
# text format
#
#   fatgraph v1
#   vertex <name>: <h> <h> <h>     # counterclockwise cyclic order
#   edge <id>: <tail_h> <head_h>   # reference direction tail->head
#
# plus optional decoration lines (orient/lambda/mu) that are handled by
# the file loader and skipped here.


def _strip_comment(line):
    k = line.find("#")
    if k >= 0:
        line = line[:k]
    return line.strip()


def scan_document(text):
    """Split a fatgraph document into (kind, payload, lineno) records."""
    lines = [(_strip_comment(raw), i + 1) for i, raw in enumerate(text.splitlines())]
    lines = [(s, i) for s, i in lines if s]
    if not lines or lines[0][0] != "fatgraph v1":
        raise FatGraphError("missing 'fatgraph v1' header line")
    records = []
    for s, i in lines[1:]:
        head, sep, rest = s.partition(":")
        parts = head.split()
        if not sep or len(parts) != 2:
            raise FatGraphError("line %d: expected '<kind> <key>: ...', got %r" % (i, s))
        kind, key = parts
        if kind not in ("vertex", "edge", "orient", "lambda", "mu"):
            raise FatGraphError("line %d: unknown record kind %r" % (i, kind))
        records.append((kind, key, rest.strip(), i))
    return records


def parse_fatgraph(text):
    """Parse the graph sections of a fatgraph document."""
    return graph_from_records(scan_document(text))[0]


def _integer_tokens(text):
    """The ints of text's whitespace-separated tokens, each an optional '-'
    then ASCII digits; ValueError for any other token.

    int() alone also takes a '+' sign, '_' between digits and non-ASCII
    digits; one test of the whole text refuses them.
    """
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError("not ASCII integer tokens: %r" % text)
    return tuple(map(int, text.split()))


def graph_from_records(records):
    """(graph, {file edge id: dense edge id}) from scan_document records.

    Half-edge tokens and edge ids may be arbitrary non-negative integers
    in ASCII digits (a negative one, or any other spelling, is a
    line-numbered FatGraphError); both are normalized to dense 0-based
    ranges (edges by increasing file id, vertices in order of
    appearance).  Decoration records are ignored.
    """
    raw_vertices = {}   # vertex name -> half-edge tokens, in order of appearance
    raw_edges = {}      # file edge id -> half-edge tokens
    for kind, key, rest, lineno in records:
        if kind == "vertex":
            if key in raw_vertices:
                raise FatGraphError("line %d: duplicate vertex %r" % (lineno, key))
            try:
                halves = _integer_tokens(rest)
            except ValueError:
                raise FatGraphError("line %d: bad half-edge token" % lineno) from None
            if len(halves) != 3:
                raise FatGraphError("line %d: non-trivalent vertex %r (%d half-edges)"
                                    % (lineno, key, len(halves)))
            if min(halves) < 0:
                raise FatGraphError("line %d: negative half-edge token %d"
                                    % (lineno, min(halves)))
            raw_vertices[key] = halves
        elif kind == "edge":
            try:
                (eid,) = _integer_tokens(key)
                pair = _integer_tokens(rest)
            except ValueError:
                raise FatGraphError("line %d: bad edge line" % lineno) from None
            if eid < 0 or len(pair) != 2:
                raise FatGraphError("line %d: edge needs a non-negative id and "
                                    "exactly two half-edges" % lineno)
            if min(pair) < 0:
                raise FatGraphError("line %d: negative half-edge token %d"
                                    % (lineno, min(pair)))
            if eid in raw_edges:
                raise FatGraphError("line %d: duplicate edge id %d" % (lineno, eid))
            raw_edges[eid] = pair
    if not raw_vertices or not raw_edges:
        raise FatGraphError("document defines no vertices or no edges")
    raw_edges = sorted(raw_edges.items())
    all_halves = sorted(h for _, pair in raw_edges for h in pair)
    dense = {h: i for i, h in enumerate(all_halves)}
    if len(dense) != len(all_halves):
        raise FatGraphError("half-edge appears in more than one edge line")
    vertices = []
    for halves in raw_vertices.values():
        try:
            vertices.append(tuple(dense[h] for h in halves))
        except KeyError as exc:
            raise FatGraphError("dangling half-edge %s (in a vertex line but "
                                "no edge line)" % exc.args[0]) from None
    edges = [tuple(dense[h] for h in pair) for _, pair in raw_edges]
    id_map = {eid: i for i, (eid, _) in enumerate(raw_edges)}
    return FatGraph(vertices, edges, list(raw_vertices)), id_map


def render_fatgraph(graph):
    """Serialize the graph sections of a fatgraph document."""
    out = ["fatgraph v1"]
    for name, triple in zip(graph.vertex_names, graph.vertices):
        out.append("vertex %s: %d %d %d" % (name, *triple))
    for eid, (t, h) in enumerate(graph.edges):
        out.append("edge %d: %d %d" % (eid, t, h))
    return "\n".join(out) + "\n"
