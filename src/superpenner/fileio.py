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
"""

from __future__ import annotations

from .decorated import DecoratedState, is_lambda_length, is_mu_invariant
from .fatgraph import (FatGraphError, _integer_tokens, graph_from_records, render_fatgraph,
                       scan_document)
from .grassmann import RATIONAL, GrassmannAlgebra, GrassmannError
from .spin import OrientationState


def load_state(text, mode=RATIONAL):
    """Parse a full document into a DecoratedState.

    The algebra has one generator per vertex in the given scalar mode.
    Missing decoration sections fall back to their defaults; a second line
    for the same edge or vertex is an error, and so is a lambda that is
    not even with positive body or a mu that is not odd.  Each loaded
    value is checked once, here, with its line number; the defaults are
    valid, so the state is built without checking its maps again.
    """
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
