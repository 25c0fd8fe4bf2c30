import time
from fractions import Fraction
from pathlib import Path

import pytest

from superpenner.catalog import punctured_torus
from superpenner.fatgraph import FatGraphError, render_fatgraph
from superpenner.fileio import load_state, render_state
from superpenner.grassmann import FLOAT

from helpers import prism

DATA = Path(__file__).parent / "data"


def test_load_decorated_torus():
    state = load_state((DATA / "torus_345.fg").read_text())
    assert state.graph == punctured_torus()
    assert state.orientation.signs == (-1, 1, 1)
    assert [state.lam[e].body for e in range(3)] == [3, 4, 5]
    assert state.mu[0] == state.algebra.gen(0)
    assert state.mu[1].is_zero()


def test_defaults_fill_missing_sections():
    state = load_state((DATA / "torus.fg").read_text())
    assert state.orientation.signs == (1, 1, 1)
    assert all(state.lam[e] == state.algebra.one() for e in range(3))
    assert state.mu == {0: state.algebra.gen(0), 1: state.algebra.gen(1)}


def test_load_float_mode():
    state = load_state((DATA / "torus_345.fg").read_text(), mode=FLOAT)
    assert state.algebra.mode == FLOAT
    assert state.lam[2].body == 5.0


def test_decimal_lambda_is_exact_in_rational_mode():
    text = (DATA / "torus.fg").read_text() + "lambda 0: 2.5\n"
    state = load_state(text)
    assert state.lam[0].body == Fraction(5, 2)


def test_lambda_accepts_even_elements():
    text = (DATA / "torus.fg").read_text() + "lambda 1: 2 + 1/3*t0^t1\n"
    state = load_state(text)
    assert state.lam[1] == state.algebra.parse("2 + 1/3*t0^t1")


def test_render_load_roundtrip():
    state = load_state((DATA / "torus_345.fg").read_text())
    again = load_state(render_state(state))
    assert again.graph == state.graph
    assert again.orientation == state.orientation
    assert again.lam == state.lam
    assert again.mu == state.mu


def test_orient_value_validated():
    text = (DATA / "torus.fg").read_text() + "orient 0: x\n"
    with pytest.raises(FatGraphError, match="orient"):
        load_state(text)


def test_unknown_edge_and_vertex_rejected():
    base = (DATA / "torus.fg").read_text()
    with pytest.raises(FatGraphError, match="unknown edge"):
        load_state(base + "lambda 9: 1\n")
    with pytest.raises(FatGraphError, match="unknown vertex"):
        load_state(base + "mu Z: t0\n")


def test_bad_mu_expression_rejected():
    base = (DATA / "torus.fg").read_text()
    with pytest.raises(FatGraphError, match="bad mu"):
        load_state(base + "mu A: t0 +\n")


def test_decorations_follow_file_edge_ids():
    text = """\
fatgraph v1
vertex A: 0 2 4
vertex B: 1 3 5
edge 5: 0 1
edge 9: 2 3
edge 2: 4 5
lambda 9: 7
orient 2: -
"""
    state = load_state(text)
    # file ids sort as 2 < 5 < 9 -> dense 0, 1, 2
    assert state.lam[2].body == 7
    assert state.orientation.signs == (-1, 1, 1)


@pytest.mark.parametrize("line", ["orient 1: -", "lambda 1: 2", "lambda 01: 2", "mu A: t1"])
def test_duplicate_decoration_lines_rejected(line):
    text = ((DATA / "torus.fg").read_text() + "orient 1: +\nlambda 1: 3\nmu A: t0\n"
            + line + "\n")
    with pytest.raises(FatGraphError, match="line 10: duplicate %s " % line.split()[0]):
        load_state(text)


def test_large_document_loads_in_linear_time():
    # V = 8000: a loader that rescans earlier lines for duplicates takes
    # several seconds here
    graph = prism(4000)
    lines = [render_fatgraph(graph)]
    lines += ["orient %d: -\nlambda %d: 2" % (e, e) for e in range(graph.num_edges)]
    lines += ["mu %s: t%d" % (name, v) for v, name in enumerate(graph.vertex_names)]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    state = load_state(text)
    assert time.perf_counter() - start < 3.0
    assert state.graph == graph
    assert state.orientation.signs == (-1,) * graph.num_edges
    assert state.lam[graph.num_edges - 1].body == 2


def test_large_document_renders_in_linear_time():
    # 8000 generators, 28000 monomials: on a 2-vCPU VM, a renderer that
    # tests every generator bit of each monomial takes about 30 s, one
    # that visits only the set bits about 0.2 s
    graph = prism(4000)
    lines = [render_fatgraph(graph)]
    lines += ["lambda %d: 2 + t%d^t%d" % (e, e % 7999, e % 7999 + 1)
              for e in range(graph.num_edges)]
    lines += ["mu %s: t%d - 1/2*t0^t1^t%d" % (name, v, v)
              for v, name in enumerate(graph.vertex_names)]
    state = load_state("\n".join(lines) + "\n")
    start = time.perf_counter()
    text = render_state(state)
    assert time.perf_counter() - start < 3.0
    assert "\nlambda 11999: 2 + 1*t4000^t4001\n" in text
    assert "\nmu %s: 1*t7999 - 1/2*t0^t1^t7999\n" % graph.vertex_names[7999] in text
    again = load_state(text)
    assert again.lam == state.lam
    assert again.mu == state.mu
