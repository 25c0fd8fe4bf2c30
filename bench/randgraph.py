"""Seeded random trivalent fatgraphs by configuration-model gluing.

This is the random-gluing model of Brooks-Makover (Random construction of
Riemann surfaces, J. Differential Geom. 68, 2004): V vertices each carry
three half-edges in counterclockwise order, and the 3V half-edges are
paired uniformly at random.  Gluings that leave a loop edge or a
disconnected graph are rejected and redrawn, as are those with Euler
characteristic >= 0 (none exist for V >= 2, but FatGraph refuses them).
"""

from __future__ import annotations

import random

from superpenner import fatgraph


def random_fatgraph(num_vertices, seed):
    """A loop-free connected trivalent FatGraph on num_vertices vertices.

    num_vertices must be even and at least 2.  The same seed (any value
    random.Random accepts) always gives the same graph.
    """
    if num_vertices < 2 or num_vertices % 2:
        raise ValueError("a trivalent fatgraph needs an even vertex count >= 2, "
                         "got %r" % (num_vertices,))
    rng = random.Random(seed)
    halves = list(range(3 * num_vertices))
    vertices = [(3 * v, 3 * v + 1, 3 * v + 2) for v in range(num_vertices)]
    while True:
        rng.shuffle(halves)
        edges = list(zip(halves[0::2], halves[1::2]))
        if any(t // 3 == h // 3 for t, h in edges):
            continue
        if num_vertices >= len(edges) or not _connected(num_vertices, edges):
            continue
        return fatgraph.FatGraph(vertices, edges)


def _connected(num_vertices, edges):
    parent = list(range(num_vertices))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = num_vertices
    for t, h in edges:
        a, b = root(t // 3), root(h // 3)
        if a != b:
            parent[a] = b
            components -= 1
    return components == 1
