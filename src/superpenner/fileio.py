"""Loading and saving decorated fatgraph documents.

The text format is line-based (# starts a comment):

    fatgraph v1
    vertex <name>: <h> <h> <h>     # counterclockwise cyclic order
    edge <id>: <tail_h> <head_h>   # reference direction tail->head
    orient <edge_id>: +|-          # optional, default +
    lambda <edge_id>: <value>      # optional even element, default 1
    mu <vertex_name>: <value>      # optional odd element, default t<index>

Edge ids in orient/lambda lines are the file's edge ids (normalized to a
dense 0-based range by the parser); mu lines use vertex names.  Each edge
or vertex takes at most one line of each decoration kind.  Element
values use the Grassmann text grammar, e.g. "3/4", "2.5", "t0", or
"1 + 2*t0^t1"; a plain scalar is the common case for lambda.

Two readers, one result.  A float-mode document laid out as render_state
writes it (ASCII, no blank lines, no comments but whole lines opening
with # before the header, such as the audit lines a CLI flip writes, the
blocks in the order above with dense edge ids and half-edges, each
decoration block whole or absent) is read in bulk: a fixed number of
C-level passes per block, the graph built by FatGraph(...), which
validates it, and all lambda and mu texts read as one float batch by
grassmann's bulk element reader.  Every other document, every
rational-mode load, and every document with an error, goes through the
line loop (scan_document, graph_from_records and one step per record,
each value read by the term loop), which reads anything the format
allows and alone raises, each message naming its line.  So a
hand-written document and a rendered one load to the same state as
before, and every message is the line loop's.

The CLI commands that read only the graph and its orientation (info,
spin, check) call _load_orientation, which gives the orientation of the
rational-mode load_state after the same checks.  On a document read in
bulk it takes the orientation of the float bulk read, whose batch the
bulk element reader accepts only when the exact reading has the same
nonzero terms and body signs; every other document, and every one that
is refused or fails a check, goes to load_state.
"""

from __future__ import annotations

from itertools import repeat

from .decorated import DecoratedState, is_lambda_length, is_mu_invariant
from .fatgraph import (FatGraph, FatGraphError, _integer_tokens, graph_from_records,
                       render_fatgraph, scan_document)
from .grassmann import FLOAT, RATIONAL, GrassmannAlgebra, GrassmannError, _parse_rendered
from .spin import OrientationState

# the record kinds in the order render_state writes their blocks, and the
# orient signs as the bits of an orientation mask
_BLOCKS = ("vertex", "edge", "orient", "lambda", "mu")
_BITS = str.maketrans("+-", "01")


def load_state(text, mode=RATIONAL):
    """Parse a full document into a DecoratedState.

    The algebra has one generator per vertex in the given scalar mode.
    Missing decoration sections fall back to their defaults; a second line
    for the same edge or vertex is an error, and so is a lambda that is
    not even with positive body or a mu that is not odd.  Each loaded
    value is checked once; the defaults are valid, so the state is built
    without checking its maps again.

    A float-mode document laid out as render_state writes it is read in
    bulk (_load_rendered); every other document, every rational-mode
    load, and every document with an error, goes through the line loop
    (_load_lines), which alone raises, with the line number.  Both give
    the same state, float bits and dict order included.
    """
    state = _load_rendered(text) if mode == FLOAT else None
    return _load_lines(text, mode) if state is None else state


def _load_rendered(text):
    """The float-mode state of a document laid out as render_state writes
    it, read in bulk; None for any other document and for every error,
    which the line loop then reads or refuses.

    The layout is read by _rendered_layout.  The lambda and mu texts are
    one batch for grassmann._parse_rendered, and each value is checked
    once.  A batch it refuses is None here too: no text is read alone.
    """
    layout = _rendered_layout(text)
    if layout is None:
        return None
    graph, mask, texts, lambdas = layout
    algebra = GrassmannAlgebra(graph.num_vertices, FLOAT)
    values = _parse_rendered(algebra, texts)
    if values is None:
        return None
    lam, mu = values[:lambdas], values[lambdas:]
    if not (all(map(is_lambda_length, lam)) and all(map(is_mu_invariant, mu))):
        return None
    lam = lam or [algebra.one() for _ in range(graph.num_edges)]
    mu = mu or list(map(algebra.gen, range(graph.num_vertices)))
    return DecoratedState._unchecked(OrientationState._unchecked(graph, mask), algebra,
                                     dict(enumerate(lam)), dict(enumerate(mu)))


def _load_orientation(text):
    """load_state(text, RATIONAL).orientation, the graph and its spin
    orientation, or the error load_state raises, with no exact lambda or
    mu built when the document is read in bulk.

    A document _load_rendered reads gives its orientation: its float
    batch is accepted only when the rational reading has the same nonzero
    terms and body signs and no error, so the lambda and mu checks it
    passes are the rational load's.  Every other document, and every one
    that is refused or fails a check, is read by load_state, so every
    message is load_state's.
    """
    state = _load_rendered(text)
    return (load_state(text, RATIONAL) if state is None else state).orientation


def _rendered_layout(text):
    """(graph, mask, texts, lambdas) of a document laid out as render_state
    writes it: its graph, its orientation mask, its lambda and then its mu
    texts, and the number of lambda texts (0 or E, and V or no mu texts);
    None for any other document, and for a graph FatGraph(...) refuses.

    The layout: ASCII without blank lines, any lines that open with # (a
    whole-line comment, which the line loop skips too), the header, then
    the vertex, edge, orient, lambda and mu blocks in this order, each line
    "<kind> <key>: <rest>", and each decoration block whole or absent; edge
    ids and orient and lambda keys 0..E-1 in order, mu keys the vertex
    names in order; half-edge tokens in ASCII digits, three on a vertex
    line and two on an edge line, one space apart.  Each test is a fixed
    number of C-level passes over the lines or a block, and FatGraph(...)
    validates the graph.  Lines are split by str.splitlines, as
    scan_document splits them, so what is accepted here the line loop
    reads to the same records.
    """
    if not text.isascii():
        return None
    lines = text.splitlines()
    # leading whole-line comments are skipped; any other # is refused
    header = 0
    while header < len(lines) and lines[header][:1] == "#":
        header += 1
    if (text.count("#") != sum(map(str.count, lines[:header], repeat("#")))
            or lines[header:header + 1] != ["fatgraph v1"]):
        return None
    try:
        heads, _, rests = zip(*map(str.partition, lines[header + 1:], repeat(": ")))
        kinds, _, keys = zip(*map(str.partition, heads, repeat(" ")))
        counts = list(map(kinds.count, _BLOCKS))
        v, e = counts[:2]
        if sum(counts) != len(kinds):
            return None
        starts = [0]
        for kind, count, size in zip(_BLOCKS, counts, (v, e, e, e, v)):
            if count not in (0, size) or kinds[starts[-1]:starts[-1] + count].count(kind) != count:
                return None
            starts.append(starts[-1] + count)
        _, at_edges, at_orient, at_lambda, at_mu, end = starts
        ids = tuple(map(str, range(e)))
        names = keys[:v]
        if (keys[at_edges:at_orient] != ids
                or keys[at_orient:at_lambda] != ids[:at_lambda - at_orient]
                or keys[at_lambda:at_mu] != ids[:at_mu - at_lambda]
                or keys[at_mu:] != names[:end - at_mu]):
            return None
        # one space between tokens on each line, and ASCII digits only: int()
        # refuses an empty token
        halves = rests[:at_orient]
        if list(map(str.count, halves, repeat(" "))) != [2] * v + [1] * e:
            return None
        tokens = " ".join(halves).split(" ")
        if not "".join(tokens).isdigit():
            return None
        tokens = list(map(int, tokens))
        graph = FatGraph(list(zip(*[iter(tokens[:3 * v])] * 3)),
                         list(zip(*[iter(tokens[3 * v:])] * 2)), names)
    except ValueError:   # FatGraphError is a ValueError
        return None
    signs = rests[at_orient:at_lambda]
    if signs.count("+") + signs.count("-") != len(signs):
        return None
    mask = int("0" + "".join(signs[::-1]).translate(_BITS), 2)
    return graph, mask, rests[at_lambda:], at_mu - at_lambda


def _load_lines(text, mode):
    """load_state's line loop: any document the format allows, and every
    error message with its line number.  Each loaded value is checked
    here, with its line number."""
    records = scan_document(text)
    graph, id_map = graph_from_records(records)
    name_index = {name: i for i, name in enumerate(graph.vertex_names)}
    algebra = GrassmannAlgebra(graph.num_vertices, mode)

    signs = [1] * graph.num_edges
    lam = {e: algebra.one() for e in range(graph.num_edges)}
    mu = {v: algebra.gen(v) for v in range(graph.num_vertices)}

    seen = set()
    for kind, key, rest, lineno in records:
        if kind in ("orient", "lambda"):
            target = _edge_key(key, id_map, lineno)
        elif kind == "mu":
            if key not in name_index:
                raise FatGraphError("line %d: unknown vertex %r in mu line"
                                    % (lineno, key))
            target = name_index[key]
        else:
            continue
        if (kind, target) in seen:
            raise FatGraphError("line %d: duplicate %s %s" % (lineno, kind, key))
        seen.add((kind, target))
        if kind == "orient":
            if rest not in ("+", "-"):
                raise FatGraphError("line %d: orient value must be + or -, got %r"
                                    % (lineno, rest))
            signs[target] = 1 if rest == "+" else -1
        else:
            try:
                value = algebra.parse(rest)
            except GrassmannError as exc:
                raise FatGraphError("line %d: bad %s value: %s"
                                    % (lineno, kind, exc)) from None
            if kind == "lambda" and not is_lambda_length(value):
                raise FatGraphError("line %d: lambda %s must be even with positive "
                                    "body, got %s" % (lineno, key, value))
            if kind == "mu" and not is_mu_invariant(value):
                raise FatGraphError("line %d: mu %s must be odd, got %s"
                                    % (lineno, key, value))
            (lam if kind == "lambda" else mu)[target] = value
    return DecoratedState._unchecked(OrientationState(graph, signs), algebra, lam, mu)


def _edge_key(key, id_map, lineno):
    try:
        (eid,) = _integer_tokens(key)
    except ValueError:
        raise FatGraphError("line %d: edge id must be an integer, got %r"
                            % (lineno, key)) from None
    if eid not in id_map:
        raise FatGraphError("line %d: unknown edge id %d" % (lineno, eid))
    return id_map[eid]


def render_state(state):
    """Serialize a decorated state as a loadable document."""
    out = [render_fatgraph(state.graph).rstrip("\n")]
    for e, sign in enumerate(state.orientation.sign_string()):
        out.append("orient %d: %s" % (e, sign))
    for e in range(state.graph.num_edges):
        out.append("lambda %d: %s" % (e, state.lam[e]))
    for v in range(state.graph.num_vertices):
        out.append("mu %s: %s" % (state.graph.vertex_names[v], state.mu[v]))
    return "\n".join(out) + "\n"
