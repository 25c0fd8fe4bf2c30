"""Tests of the benchmark's random fatgraph generator.

Run from the repository root: python3 -m pytest bench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

from superpenner.fatgraph import topology  # noqa: E402

from randgraph import random_fatgraph  # noqa: E402

SIZES = (2, 4, 6, 8, 10, 32, 64, 128)


def _components(graph):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for e in graph.edges_at(v):
            for w in (graph.tail_vertex(e), graph.head_vertex(e)):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen)


@pytest.mark.parametrize("num_vertices", SIZES)
@pytest.mark.parametrize("seed", range(5))
def test_trivalent_connected_loop_free(num_vertices, seed):
    graph = random_fatgraph(num_vertices, seed)
    assert graph.num_vertices == num_vertices
    assert graph.num_edges == 3 * num_vertices // 2
    assert all(len(set(triple)) == 3 for triple in graph.vertices)
    assert not any(graph.is_loop(e) for e in range(graph.num_edges))
    assert _components(graph) == num_vertices


@pytest.mark.parametrize("num_vertices", SIZES)
@pytest.mark.parametrize("seed", range(5))
def test_topology_counts(num_vertices, seed):
    g, s, e, v = topology(random_fatgraph(num_vertices, seed))
    assert (e, v) == (3 * num_vertices // 2, num_vertices)
    assert e == 6 * g - 6 + 3 * s
    assert v - e < 0


def test_deterministic_per_seed():
    for seed in (0, 1, "run:7"):
        assert random_fatgraph(32, seed) == random_fatgraph(32, seed)
    assert len({random_fatgraph(32, seed) for seed in range(10)}) > 1


@pytest.mark.parametrize("num_vertices", (0, 1, 3, 7, -2))
def test_rejects_odd_or_tiny_vertex_counts(num_vertices):
    with pytest.raises(ValueError):
        random_fatgraph(num_vertices, 0)
