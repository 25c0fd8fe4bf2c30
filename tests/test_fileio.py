import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from superpenner import cli, fileio, grassmann
from superpenner.catalog import (five_punctured_sphere, four_punctured_sphere,
                                 genus1_two_punctures, genus2_one_puncture, punctured_torus,
                                 theta_graph)
from superpenner.checks import generic_edges, random_decorated_state
from superpenner.decorated import superflip
from superpenner.fatgraph import FatGraphError
from superpenner.fileio import load_state, render_fatgraph, render_state
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


def spy_calls(monkeypatch, *targets):
    """Wrap each (module, name) function so that every call appends (name,
    its last argument) to the list returned."""
    calls = []
    for module, name in targets:
        def spy(*args, _real=getattr(module, name), _name=name):
            calls.append((_name, args[-1]))
            return _real(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


READERS = [(fileio, "scan_document"), (fileio, "_parse_rendered"), (grassmann, "_parse_terms")]


def test_rendered_documents_are_read_in_bulk(monkeypatch):
    # a float load of a document render_state writes without a fraction a/b
    # reads all its values as one float batch, with neither scan_document
    # nor the term loop; a rational load scans the document once and reads
    # every value with the term loop, in document order, a float-written
    # document too, and never calls the bulk element reader
    rng = random.Random(8)
    dense = random_decorated_state(prism(4), rng, FLOAT)
    for _ in range(10):
        dense, _ = superflip(dense, rng.choice(generic_edges(dense.graph)))
    assert max(len(x.num) for x in dense.lam.values()) == 128
    exact = [random_decorated_state(prism(n), rng, RATIONAL) for n in (2, 3, 4)]
    calls = spy_calls(monkeypatch, *READERS)
    for state, mode in [(dense, FLOAT), (dense, RATIONAL), *((x, RATIONAL) for x in exact)]:
        text = render_state(state)
        values = [*map(str, state.lam.values()), *map(str, state.mu.values())]
        calls.clear()
        again = load_state(text, mode=mode)
        if mode == FLOAT:
            assert [(name, list(texts)) for name, texts in calls] == [("_parse_rendered", values)]
        else:
            assert calls == [("scan_document", text)] + [("_parse_terms", v) for v in values]
        if mode == state.algebra.mode:
            for x, y in [*zip(again.lam.values(), state.lam.values()),
                         *zip(again.mu.values(), state.mu.values())]:
                assert x.num == y.num and x.den == y.den
        else:
            assert again.lam[0].den > 1


def loaded(load, text, mode):
    """What load(text, mode) gives: the graph tables, names and mask, and
    each lambda and mu as its numerators (floats by repr, in dict order)
    and denominator; or the type and message of the error it raised."""
    try:
        state = load(text, mode)
    except ValueError as exc:
        return type(exc), str(exc)
    graph = state.graph
    return (graph.vertices, graph.edges, graph.vertex_names, state.orientation.mask,
            [(k, [(m, repr(c)) for m, c in x.num.items()], x.den)
             for values in (state.lam, state.mu) for k, x in values.items()])


def sample_states():
    """Decorated states on V = 2..10 in both modes, dense ones included."""
    rng = random.Random(28)
    graphs = [punctured_torus(), theta_graph(), four_punctured_sphere(),
              genus1_two_punctures(), five_punctured_sphere(), prism(4), prism(5)]
    states = [random_decorated_state(g, rng, mode) for g in graphs for mode in (RATIONAL, FLOAT)]
    for graph in (prism(2), genus2_one_puncture()):
        dense = random_decorated_state(graph, rng, FLOAT)
        for _ in range(6):
            dense, _ = superflip(dense, rng.choice(generic_edges(dense.graph)))
        states.append(dense)
    return states


# what the line loop reads differently from a token or block count: a line
# break inside a line, signs, underscores and non-ASCII digits that int()
# and float() take, and values the element grammar refuses
INSERTS = ["\x1c", "\r", "#", "+4", "1_0", "٢", "1/0", "1e400", "nan", " 7"]


def mutated_document(rng, text):
    """text with one or two lines deleted, duplicated, swapped, truncated
    or given one of INSERTS."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        edit = rng.choice(["delete", "duplicate", "swap", "truncate", "insert", "insert"])
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "truncate":
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        else:
            at = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:at] + rng.choice(INSERTS) + lines[i][at:]
    return "\n".join(lines) + "\n"


def orientation_loaded(load, text):
    """What load(text) gives: the graph tables, names and orientation mask
    of the orientation it returns, or the type and message of the error it
    raised."""
    try:
        orientation = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    graph = orientation.graph
    return graph.vertices, graph.edges, graph.vertex_names, orientation.mask


def test_bulk_read_and_line_loop_agree_on_mutated_documents(monkeypatch):
    # load_state reads a rendered float document in bulk and reads every
    # other document, and every rational load, with the line loop; on every
    # document, in both modes, the two must give the same
    # state, float bits and dict order included, or the same error.  The
    # graph-only read (fileio._load_orientation) must give the rational
    # load's orientation, or its error, and read every document it does not
    # hand to load_state without the rational load
    rng = random.Random(2028)
    texts = [render_state(state) for state in sample_states()]
    graph_only = render_fatgraph(prism(3))
    rendered = render_state(random_decorated_state(prism(3), rng, FLOAT))
    # a line break inside a vertex line, tokens moved between two lines
    # (a count per block would pass), a document with no lambda or mu line,
    # whose batch of element texts is empty, a non-ASCII digit that int()
    # reads, and orient values that are bits or nothing
    cases = [graph_only.replace("0 1 2", "0 1\x1c2"),
             graph_only.replace("0 1 2\n", "0 1\n").replace("3 4 5", "2 3 4 5"),
             graph_only, graph_only + "".join("orient %d: -\n" % e for e in range(9)),
             graph_only.replace("0 1 2", "0 1 \u0662"),
             *(re.sub(r"orient 4: .", "orient 4: " + sign, rendered) for sign in "01_ ")]
    # values the graph-only read checks or hands on: an odd term below the
    # float range, which rational mode keeps (an invalid lambda) and float
    # mode drops; zero, negative and zero-term bodies; a repeated and
    # cancelling monomial, spelled with and without coefficients; a
    # generator index >= V; a fraction; two digit runs longer than int()
    # converts, one infinite as a float and one finite; zero and even terms
    # in a mu
    limit = max(sys.get_int_max_str_digits(), 640)
    lambdas = ["1 + 0." + "0" * 330 + "1e-99*t0^t1^t2", "-0.0", "0e+00", "-1.5",
               "2 + 0.0*t0^t1^t2", "1 + 1*t0^t1 - 1*t0^t1", "1 + t0^t1 - t0^t1",
               "1 + 2*t0^t6", "3/4", "1" * (limit + 1), "1." + "0" * (limit + 1)]
    mus = ["0", "0.0*t0 + 1*t1", "1*t0 + 0e+00", "1*t0 + 2.5", "1*t6", "-3/5*t0"]
    cases += [re.sub(r"lambda 0: .*", "lambda 0: " + value, rendered) for value in lambdas]
    cases += [re.sub(r"mu v5: .*", "mu v5: " + value, rendered) for value in mus]
    cases += [mutated_document(rng, rng.choice(texts)) for _ in range(500)]
    handed = []
    monkeypatch.setattr(fileio, "load_state",
                        lambda text, mode: handed.append(text) or load_state(text, mode))
    bulk = 0
    for text in texts + cases:
        for mode in (RATIONAL, FLOAT):
            assert loaded(load_state, text, mode) == loaded(fileio._load_lines, text, mode), text
        bulk += fileio._load_rendered(text) is not None
        exact = loaded(load_state, text, RATIONAL)
        assert orientation_loaded(fileio._load_orientation, text) == (
            exact if len(exact) == 2 else exact[:4]), text
    # every rendered text without a fraction, both valid graph-only
    # documents and some mutated documents are read in bulk
    assert bulk > sum("/" not in text for text in texts) + 2
    # the graph-only read takes every rendered text without the full load
    # but those with a fraction, and hands on every value that its float
    # batch refuses or finds invalid: all of the values above but the zero mu
    assert [text in handed for text in texts] == ["/" in text for text in texts]
    checked = cases[-500 - len(lambdas) - len(mus):-500]
    assert [text in handed for text in checked] == [True] * len(lambdas) + [False] + [
        True] * (len(mus) - 1)
    # float reads the long finite digit run as 1.0; rational mode refuses it
    assert "digit run longer than" in loaded(load_state, checked[len(lambdas) - 1], RATIONAL)[1]


def test_rendered_documents_take_the_bulk_read(monkeypatch):
    # float render_state output is read in bulk, with neither the line
    # loop's scan_document nor the term loop; a rational load scans once
    # and never calls the bulk element reader; a hand-written document (a
    # comment, a fraction, records out of order, sparse edge ids) takes the
    # line loop
    calls = spy_calls(monkeypatch, *READERS)
    rng = random.Random(9)
    graphs = [punctured_torus(), theta_graph(), four_punctured_sphere(), genus1_two_punctures(),
              genus2_one_puncture(), five_punctured_sphere(), *map(prism, range(3, 9))]
    for graph in graphs:
        for mode in (RATIONAL, FLOAT):
            state = random_decorated_state(graph, rng, mode)
            rendered = render_state(state)
            calls.clear()
            again = load_state(rendered, mode)
            assert (again.graph, again.orientation, again.lam, again.mu) == (
                state.graph, state.orientation, state.lam, state.mu)
            names = [name for name, _ in calls]
            if mode == FLOAT:
                assert names == ["_parse_rendered"]
            else:
                assert names.count("scan_document") == 1 and "_parse_rendered" not in names
    calls.clear()
    text = """\
fatgraph v1   # two vertices
vertex B: 1 3 5
vertex A: 0 2 4
lambda 9: 3/4
edge 9: 2 3
mu A: -t1
edge 5: 0 1
edge 12: 4 5
orient 12: -
"""
    state = load_state(text)
    assert calls == [("scan_document", text), ("_parse_terms", "3/4"), ("_parse_terms", "-t1")]
    assert state.graph.vertex_names == ("B", "A")
    assert state.graph.edges == ((0, 1), (2, 3), (4, 5))
    assert state.orientation.signs == (1, 1, -1)
    assert state.lam[1].body == Fraction(3, 4)
    assert state.mu == {0: state.algebra.gen(0), 1: -state.algebra.gen(1)}


def test_leading_comment_lines_keep_the_bulk_read(tmp_path):
    # a CLI flip opens its document with one '# flip' line per flip: the
    # float bulk reader skips whole-line comments before the header, to the
    # state the line loop reads, and leaves every other '#' to the line
    # loop; it refuses every document with a fraction
    out = tmp_path / "flipped.fg"
    argv = ["flip", str(DATA / "genus2_1.fg"), "--edges", "0,4,7", "--output", str(out)]
    assert cli.main(argv) == 0
    flipped = out.read_text()
    assert flipped.startswith("# flip edge=0: ")
    texts = [flipped] + ["# one\n#\n#two # three\n" + render_state(s) for s in sample_states()]
    for text in texts:
        assert (fileio._load_rendered(text) is None) == ("/" in text)
        for mode in (RATIONAL, FLOAT):
            assert loaded(load_state, text, mode) == loaded(fileio._load_lines, text, mode)
    late = [flipped.replace("fatgraph v1\n", "fatgraph v1\n# note\n"),
            flipped.replace("fatgraph v1\n", "fatgraph v1  # note\n"),
            flipped.replace("\norient 0: ", "\n# note\norient 0: "),
            re.sub(r"(lambda 0: [^\n]*)", r"\1  # note", flipped),
            flipped + "# note\n",
            flipped.replace("# flip edge=4", " # flip edge=4"),
            flipped.replace("# flip edge=4: a=2 b=0 c=7 d=6 reflections=3\n", "\n")]
    for text in late:
        assert text != flipped
        assert fileio._load_rendered(text) is None
        for mode in (RATIONAL, FLOAT):
            fileio._load_lines(text, mode)
            assert loaded(load_state, text, mode) == loaded(fileio._load_lines, text, mode)
