import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from superpenner import grassmann
from superpenner.catalog import punctured_torus
from superpenner.checks import generic_edges, random_decorated_state
from superpenner.decorated import superflip
from superpenner.fatgraph import FatGraphError, render_fatgraph
from superpenner.fileio import load_state, render_state
from superpenner.grassmann import FLOAT, RATIONAL, GrassmannElement

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


def test_loading_checks_each_loaded_value_once(monkeypatch):
    # the loader applies decorated's lambda and mu rule to each value it
    # parses, with the line number, and builds the state without checking
    # its maps again: one parity test per loaded element, none per default
    graph = prism(4)
    state = random_decorated_state(graph, random.Random(4), RATIONAL)
    full = render_state(state)
    partial = (DATA / "torus.fg").read_text() + "lambda 1: 2 + 1/3*t0^t1\nmu B: -t1\n"
    calls = []
    for name in ("is_even", "is_odd"):
        original = getattr(GrassmannElement, name)
        monkeypatch.setattr(GrassmannElement, name,
                            lambda x, name=name, original=original:
                            calls.append(name) or original(x))
    loaded = load_state(full)
    assert sorted(calls) == ["is_even"] * graph.num_edges + ["is_odd"] * graph.num_vertices
    assert (loaded.lam, loaded.mu) == (state.lam, state.mu)
    calls.clear()
    load_state(partial)
    assert sorted(calls) == ["is_even", "is_odd"]


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


def fraction_parse(text):
    """The {mask: Fraction} map of rendered element text, one Fraction(str)
    per coefficient and one Fraction sum per term."""
    tokens = text.split(" ")
    first = tokens[0]
    terms = {}
    for op, body in [("-", first[1:]) if first.startswith("-") else ("+", first),
                     *zip(tokens[1::2], tokens[2::2])]:
        coeff, _, mono = body.partition("*")
        value = Fraction(coeff) if op == "+" else -Fraction(coeff)
        mask = sum(1 << int(g[1:]) for g in mono.split("^")) if mono else 0
        terms[mask] = terms.get(mask, 0) + value
    return {m: c for m, c in terms.items() if c}


def test_float_written_dense_document_loads_to_the_fraction_parse():
    # a V = 8 float state made dense by flips, written with repr floats and
    # read back exactly: every element equals the Fraction(str) reading
    graph = prism(4)
    rng = random.Random(4)
    state = random_decorated_state(graph, rng, FLOAT)
    for _ in range(10):
        state, _ = superflip(state, rng.choice(generic_edges(state.graph)))
    text = render_state(state)
    exact = load_state(text, mode=RATIONAL)
    names = {name: v for v, name in enumerate(exact.graph.vertex_names)}
    compared = 0
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind not in ("lambda", "mu"):
            continue
        key, _, value = rest.partition(": ")
        x = exact.lam[int(key)] if kind == "lambda" else exact.mu[names[key]]
        assert x.terms == fraction_parse(value)
        compared += len(x.terms)
    assert compared > 1000


def test_rendered_documents_are_read_in_bulk(monkeypatch):
    # every value render_state writes without a fraction a/b is read back
    # without the term loop, a float-written document in rational mode too;
    # fractions go through the loop
    looped = []
    loop = grassmann._parse_terms

    def counted(algebra, text):
        looped.append(text)
        return loop(algebra, text)

    rng = random.Random(8)
    dense = random_decorated_state(prism(4), rng, FLOAT)
    for _ in range(10):
        dense, _ = superflip(dense, rng.choice(generic_edges(dense.graph)))
    assert max(len(x.num) for x in dense.lam.values()) == 128
    exact = [random_decorated_state(prism(n), rng, RATIONAL) for n in (2, 3, 4)]
    monkeypatch.setattr(grassmann, "_parse_terms", counted)
    for state, mode in [(dense, FLOAT), (dense, RATIONAL), *((x, RATIONAL) for x in exact)]:
        values = [*map(str, state.lam.values()), *map(str, state.mu.values())]
        looped.clear()
        again = load_state(render_state(state), mode=mode)
        assert looped == [v for v in values if "/" in v]
        if mode == state.algebra.mode:
            for x, y in [*zip(again.lam.values(), state.lam.values()),
                         *zip(again.mu.values(), state.mu.values())]:
                assert x.num == y.num and x.den == y.den
        elif mode == RATIONAL:
            assert again.lam[0].den > 1
    whole = [v for x in exact for v in map(str, x.lam.values()) if "/" not in v]
    assert any(len(v.split()) > 1 for v in whole)   # integer text with terms, read in bulk
