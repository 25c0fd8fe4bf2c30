"""Helpers shared by the test modules."""

from collections import deque

from superpenner.fatgraph import FatGraph, boundary_cycles
from superpenner.spin import star_matrix


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
