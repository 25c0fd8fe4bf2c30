"""Helpers shared by the test modules."""

from superpenner.fatgraph import FatGraph, boundary_cycles


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
