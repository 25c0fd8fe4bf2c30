"""Decorated coordinates: lambda-lengths, mu-invariants, super Ptolemy flip.

A decorated state carries one even Grassmann lambda-length with positive
body per edge and one odd mu-invariant per vertex (the vertex is dual to a
triangle of the ideal triangulation), over a shared algebra with one
generator per vertex of the initial graph.  States are compared modulo a
single global sign change of all mu-invariants.

Flipping edge e with quadrilateral labels a, b, c, d, with theta the
mu-invariant at the (a,b)-vertex and sigma at the (c,d)-vertex, and with
chi = ac/bd:

    f  = (ac + bd) (1 + sigma theta sqrt(chi) / (1 + chi)) / e
    nu = (sigma - theta sqrt(chi)) / sqrt(1 + chi)     at the (b,c)-vertex
    mu = (theta + sigma sqrt(chi)) / sqrt(1 + chi)     at the (a,d)-vertex

The formulas apply in the arrow configuration where e points from the
(c,d)-vertex to the (a,b)-vertex; the auto-reflection that produces it
also negates the mu-invariant at the reflected vertex, which is what makes
flipping the same edge twice the exact identity (up to the canonical
relabeling of the underlying graph).
"""

from __future__ import annotations

from .grassmann import (RATIONAL, GrassmannAlgebra, GrassmannError, ginv, ginvsqrt,
                        glog, gsqrt)
from .fatgraph import boundary_cycles, flip_quadrilateral, topology
from .spin import OrientationState, SpinError, flip_orientation


class DecoratedState:
    """Immutable decorated fatgraph: orientation + lambda-lengths + mu-invariants."""

    __slots__ = ("graph", "orientation", "algebra", "lam", "mu")

    def __init__(self, graph, orientation, algebra, lam, mu):
        if orientation.graph != graph:
            raise SpinError("orientation lives on a different graph")
        e, v = graph.num_edges, graph.num_vertices
        if sorted(lam) != list(range(e)):
            raise ValueError("need a lambda-length for each of the %d edges" % e)
        if sorted(mu) != list(range(v)):
            raise ValueError("need a mu-invariant for each of the %d vertices" % v)
        for ei, x in lam.items():
            if x.algebra != algebra:
                raise GrassmannError("lambda-length of edge %d uses a foreign algebra" % ei)
            if not x.is_even() or not x.body > 0:
                raise ValueError("lambda-length of edge %d must be even with "
                                 "positive body, got %s" % (ei, x))
        for vi, x in mu.items():
            if x.algebra != algebra:
                raise GrassmannError("mu-invariant of vertex %d uses a foreign algebra" % vi)
            if not x.is_odd():
                raise ValueError("mu-invariant of vertex %d must be odd, got %s"
                                 % (vi, x))
        self.graph = graph
        self.orientation = orientation
        self.algebra = algebra
        self.lam = dict(lam)
        self.mu = dict(mu)

    def __repr__(self):
        g, s, e, v = topology(self.graph)
        return ("DecoratedState(g=%d, s=%d, %d lambda-lengths, %d mu-invariants, %s)"
                % (g, s, e, v, self.algebra.mode))


def default_state(graph, mode=RATIONAL, orientation=None):
    """All lambda-lengths 1, mu-invariant of vertex i its own generator t<i>."""
    algebra = GrassmannAlgebra(graph.num_vertices, mode)
    if orientation is None:
        orientation = OrientationState.all_plus(graph)
    lam = {e: algebra.one() for e in range(graph.num_edges)}
    mu = {v: algebra.gen(v) for v in range(graph.num_vertices)}
    return DecoratedState(graph, orientation, algebra, lam, mu)


def superflip(state, e):
    """Super Ptolemy flip of edge e; returns (new state, record).

    The orientation is evolved by flip_orientation; if that required an
    auto-reflection, the reflected vertex's mu-invariant is negated before
    the formulas are applied.  In rational mode the square roots of chi
    and 1 + chi must exist (square bodies) unless both quadrilateral
    mu-invariants vanish, in which case the flip is purely classical.
    """
    new_orientation, record = flip_orientation(state.orientation, e)

    mu = dict(state.mu)
    for v in record.reflections_applied:
        mu[v] = -mu[v]
    theta = mu[record.tail_vertex]   # the (a,b)-vertex
    sigma = mu[record.head_vertex]   # the (c,d)-vertex

    la, lb, lc, ld, le = (state.lam[i] for i in (record.a, record.b, record.c, record.d, e))
    ac = la * lc
    bd = lb * ld
    if theta.is_zero() and sigma.is_zero():
        f = ginv(le) * (ac + bd)
        nu = mu_new = state.algebra.zero()
    else:
        chi = ac * ginv(bd)
        sqrt_chi = gsqrt(chi)
        inv_sqrt_1chi = ginvsqrt(1 + chi)
        correction = sigma * theta * sqrt_chi * (inv_sqrt_1chi * inv_sqrt_1chi)
        f = ginv(le) * (ac + bd) * (1 + correction)
        nu = (sigma - theta * sqrt_chi) * inv_sqrt_1chi
        mu_new = (theta + sigma * sqrt_chi) * inv_sqrt_1chi

    lam = dict(state.lam)
    lam[e] = f
    mu[record.tail_vertex] = nu       # now the (b,c)-vertex
    mu[record.head_vertex] = mu_new   # now the (a,d)-vertex
    new_state = DecoratedState(new_orientation.graph, new_orientation,
                               state.algebra, lam, mu)
    return new_state, record


def shear_coordinates(state):
    """z_e = log(ac/bd) per edge, from the quadrilateral lambda-lengths.

    Label coincidences among a, b, c, d are fine; loops are not.  Needs
    float mode unless every ratio has body 1.
    """
    out = {}
    for e in range(state.graph.num_edges):
        q = flip_quadrilateral(state.graph, e, require_generic=False)
        ratio = state.lam[q.a] * state.lam[q.c] * ginv(state.lam[q.b] * state.lam[q.d])
        out[e] = glog(ratio)
    return out


def check_puncture_relation(state):
    """Sum of shear coordinates over each boundary cycle's traversals.

    Returns one even residual per boundary cycle (boundary_cycles order).
    The body vanishes in the classical limit; the soul is reported as-is.
    """
    z = shear_coordinates(state)
    residuals = []
    for cycle in boundary_cycles(state.graph):
        total = state.algebra.zero()
        for h in cycle:
            total = total + z[state.graph.edge_of(h)]
        residuals.append(total)
    return tuple(residuals)


def classical_limit(state):
    """Set every mu-invariant to zero and every lambda-length to its body."""
    algebra = state.algebra
    lam = {e: algebra.scalar(x.body) for e, x in state.lam.items()}
    mu = {v: algebra.zero() for v in state.mu}
    return DecoratedState(state.graph, state.orientation, algebra, lam, mu)


def states_equal_mod_sign(state1, state2, tol=None):
    """Equality of decorated states modulo one global odd sign.

    Lambda-lengths must agree edge by edge and mu-invariants vertex by
    vertex, either all equal or all negated.  Exact comparison by default;
    pass tol for coefficientwise float comparison.
    """
    if state1.graph != state2.graph:
        raise ValueError("decorated states live on different graphs")
    if state1.algebra != state2.algebra:
        raise GrassmannError("decorated states use different algebras")

    def close(x, y):
        return x.isclose(y, tol) if tol is not None else x == y

    if not all(close(state1.lam[e], state2.lam[e]) for e in state1.lam):
        return False
    same = all(close(state1.mu[v], state2.mu[v]) for v in state1.mu)
    negated = all(close(state1.mu[v], -state2.mu[v]) for v in state1.mu)
    return same or negated
