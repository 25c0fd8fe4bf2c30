"""Decorated coordinates: lambda-lengths, mu-invariants, super Ptolemy flip.

A decorated state carries one even Grassmann lambda-length with positive
body per edge and one odd mu-invariant per vertex (the vertex is dual to a
triangle of the ideal triangulation), over a shared algebra with one
generator per vertex of the initial graph.  Two states are the same point
when their orientations lie in one spin class and the data agree once the
reflections between the orientations have negated their vertices'
mu-invariants, up to one global sign change of all mu-invariants
(states_equal_mod_sign).

Flipping edge e with quadrilateral labels a, b, c, d, with theta the
mu-invariant at the (a,b)-vertex and sigma at the (c,d)-vertex, and with
chi = ac/bd:

    f  = (ac + bd) (1 + sigma theta sqrt(chi) / (1 + chi)) / e
    nu = (sigma - theta sqrt(chi)) / sqrt(1 + chi)     at the (b,c)-vertex
    mu = (theta + sigma sqrt(chi)) / sqrt(1 + chi)     at the (a,d)-vertex

Evaluation: chi = ac / bd and f are quotients (grassmann.gdiv), and
sqrt(chi) and r = 1/sqrt(1 + chi) are powers (grassmann.gsqrt and
grassmann.ginvsqrt); all four are one weight-by-weight solve.  With
p = ac + bd, p = bd (1 + chi), so p r**2 = bd and
f = (p + sigma (theta sqrt(chi)) bd) / e, while nu = (sigma - theta sqrt(chi)) r
and mu = (theta + sigma sqrt(chi)) r.  A flip of dense elements makes
eight products, two quotients and two roots.  When theta = sigma = 0 the
flip is Penner's classical relation ef = ac + bd: nu and mu stay zero and
f = (ac + bd) / e.  On exact one-term lambda-lengths (bodies alone, as on
classical_limit states) that value is one fraction with one gcd
(grassmann._ptolemy); lambda-lengths with souls, and float ones, take two
products, a sum and a quotient.

Shear coordinates z_e = log(ac/bd) (shear_coordinates) come from their
closed form.  Lambda-lengths are even, hence central, so the logarithm is
additive on them: z_e is the scalar log of the body ratio plus
l_a + l_c - l_b - l_d, with l_x = log(x / b_x) taken once per lambda-length
x that has a soul.  The float body is math.log((b_a*b_c)/(b_b*b_d)): on
bodies, the products, the quotient and the logarithm of ac/bd evaluate
exactly these float operations, so each body is bit-identical to
glog(gdiv(ac, bd))'s.  The log of a rational body is rational only at 1,
so rational mode needs every body ratio to be 1 and refuses the first
edge whose ratio is not, as glog would.

The formulas apply in the arrow configuration where e points from the
(c,d)-vertex to the (a,b)-vertex; the auto-reflection that produces it
also negates the mu-invariant at the reflected vertex, which is what makes
flipping the same edge twice the exact identity (up to the canonical
relabeling of the underlying graph).

The order sigma theta in f is a convention that only the formula pins,
not any identity among flips.  The reversal R(e_S) = (-1)^(k(k-1)/2) e_S,
with k = |S|, fixes the generators and reverses products, so it sends
sigma theta to theta sigma = -sigma theta; on even elements it is an
automorphism, so it commutes with quotients and roots.  The flip
conjugated by R, which uses theta sigma, therefore satisfies Ptolemy, the
double-flip involution, the pentagon and commutation exactly as this one
does, and still differs from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .grassmann import (RATIONAL, GrassmannAlgebra, GrassmannError, _ptolemy, _reduced, gdiv,
                        ginvsqrt, glog, gsqrt)
from .fatgraph import _quadrilateral, boundary_cycles, topology
from .spin import OrientationState, SpinError, _bits, _reflection_side, flip_orientation


def is_lambda_length(x):
    """Whether x can be a lambda-length: even, with positive body."""
    # the denominator is positive, so the body's sign is its numerator's
    return x.is_even() and x.num.get(0, 0) > 0


def is_mu_invariant(x):
    """Whether x can be a mu-invariant: odd."""
    return x.is_odd()


def _check_lambda(ei, x):
    if not is_lambda_length(x):
        raise ValueError("lambda-length of edge %d must be even with "
                         "positive body, got %s" % (ei, x))


def _check_mu(vi, x):
    if not is_mu_invariant(x):
        raise ValueError("mu-invariant of vertex %d must be odd, got %s" % (vi, x))


class DecoratedState:
    """Immutable decorated fatgraph: orientation + lambda-lengths + mu-invariants.

    lam and mu are plain dicts that states may share: a classical flip's
    result holds its parent's mu map (superflip), and _unchecked takes the
    maps it is given as is.  Treat both as read-only.
    """

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
            _check_lambda(ei, x)
        for vi, x in mu.items():
            if x.algebra != algebra:
                raise GrassmannError("mu-invariant of vertex %d uses a foreign algebra" % vi)
            _check_mu(vi, x)
        self.graph = graph
        self.orientation = orientation
        self.algebra = algebra
        self.lam = dict(lam)
        self.mu = dict(mu)

    @classmethod
    def _unchecked(cls, orientation, algebra, lam, mu):
        """A state from maps already known to be valid; takes lam and mu as is."""
        state = object.__new__(cls)
        state.graph = orientation.graph
        state.orientation = orientation
        state.algebra = algebra
        state.lam = lam
        state.mu = mu
        return state

    def __repr__(self):
        g, s, e, v = topology(self.graph)
        return ("DecoratedState(g=%d, s=%d, %d lambda-lengths, %d mu-invariants, %s)"
                % (g, s, e, v, self.algebra.mode))


def default_state(graph, mode=RATIONAL):
    """All edges +, all lambda-lengths 1, mu-invariant of vertex i its own
    generator t<i>."""
    algebra = GrassmannAlgebra(graph.num_vertices, mode)
    lam = {e: algebra.one() for e in range(graph.num_edges)}
    mu = {v: algebra.gen(v) for v in range(graph.num_vertices)}
    return DecoratedState(graph, OrientationState.all_plus(graph), algebra, lam, mu)


def superflip(state, e):
    """Super Ptolemy flip of edge e; returns (new state, record).

    The orientation is evolved by flip_orientation; if that required an
    auto-reflection, the reflected vertex's mu-invariant is negated before
    the formulas are applied.  In rational mode the square roots of chi
    and 1 + chi must exist (square bodies) unless both quadrilateral
    mu-invariants vanish, in which case the flip is purely classical.
    The flip evaluates the formulas through the identities in the module
    docstring: quotients for chi and f, then roots of chi and 1 + chi.  A
    classical flip (theta = sigma = 0) computes only f = (ac + bd) / e, as
    one fraction when the algebra is rational and all five lambda-lengths
    are one-term, and the new state shares the parent's mu map, which the
    flip leaves as it is.  A super flip copies the mu map and checks both
    new mu-invariants.  Both then check f and copy the lambda map once.
    """
    new_orientation, record = flip_orientation(state.orientation, e)
    _, a, b, c, d, u, w, reflections = record
    lam, mu = state.lam, state.mu
    la, lb, lc, ld, le = lam[a], lam[b], lam[c], lam[d], lam[e]
    # u is the (a,b)-vertex and w the (c,d)-vertex; a reflection negates
    # its vertex's mu-invariant, so whether theta and sigma are zero can be
    # read before it
    if mu[u].is_zero() and mu[w].is_zero():
        # a lambda-length has a positive body, so one term is its body alone
        if (state.algebra.mode == RATIONAL
                and len(la.num) == len(lb.num) == len(lc.num) == len(ld.num)
                == len(le.num) == 1):
            f = _ptolemy(la, lb, lc, ld, le)
        else:
            f = gdiv(la * lc + lb * ld, le)
        # nu and mu stay zero, and the only reflection is at the tail
        # vertex u, whose zero negates to itself: the parent's mu map is
        # already the new one, object for object
    else:
        mu = dict(mu)
        for v in reflections:
            mu[v] = -mu[v]
        theta = mu[u]
        sigma = mu[w]
        ac = la * lc
        bd = lb * ld
        p = ac + bd
        chi = gdiv(ac, bd)
        sqrt_chi = gsqrt(chi)
        r = ginvsqrt(1 + chi)
        theta_root = theta * sqrt_chi
        f = gdiv(p + sigma * theta_root * bd, le)
        mu[u] = (sigma - theta_root) * r        # nu, at the (b,c)-vertex now
        mu[w] = (theta + sigma * sqrt_chi) * r  # at the (a,d)-vertex now
        _check_mu(u, mu[u])
        _check_mu(w, mu[w])
    # every other entry was checked when the parent was built (a
    # reflection only negates a mu-invariant)
    _check_lambda(e, f)
    lam = dict(lam)
    lam[e] = f
    return DecoratedState._unchecked(new_orientation, state.algebra, lam, mu), record


def shear_coordinates(state):
    """z_e = log(ac/bd) per edge, from the quadrilateral lambda-lengths.

    Label coincidences among a, b, c, d are fine; loops are not.  Needs
    float mode unless every ratio has body 1.

    Lambda-lengths are even, hence central, so the logarithm is additive
    on them: with l_x = log(x / b_x) for a lambda-length x of body b_x,
    z_e = log(b_a b_c / (b_b b_d)) + l_a + l_c - l_b - l_d.  Each
    lambda-length with a soul takes one glog, a body-only one none, and
    each edge one scalar log of its body ratio.  In float mode that log is
    math.log((b_a*b_c)/(b_b*b_d)), the expression the body of
    glog(gdiv(ac, bd)) evaluates, so every body is the same float; the
    souls agree up to rounding.  In rational mode every body ratio is
    checked, in edge order, before any glog: the first that is not 1
    raises glog's error for its irrational log.  Otherwise each z is a sum
    of exact logs, and the normal form makes it the same element.  A float
    body ratio or coordinate that overflows or underflows is a
    GrassmannError.
    """
    graph, lam, algebra = state.graph, state.lam, state.algebra
    exact = algebra.mode == RATIONAL
    quads = []
    body_logs = []
    for e in range(graph.num_edges):
        a, b, c, d = _quadrilateral(graph, e, require_generic=False)[8:]
        quads.append((a, c, b, d))
        # a lambda-length's body is its positive numerator num[0] over den
        xa, xb, xc, xd = lam[a], lam[b], lam[c], lam[d]
        num = xa.num[0] * xc.num[0]
        den = xb.num[0] * xd.num[0]
        if exact:
            num, den = num * xb.den * xd.den, den * xa.den * xc.den
            if num != den:
                raise GrassmannError("log of body %s is irrational; use float mode "
                                     "(rational mode needs body 1)" % (Fraction(num, den),))
        elif den and 0 < num / den < math.inf:
            body_logs.append(math.log(num / den))
        else:
            raise GrassmannError("float overflow or underflow in the body ratio of edge %d"
                                 % e)
    logs = {x: glog(gdiv(y, y.body)) for x, y in lam.items() if len(y.num) > 1}
    out = {}
    for e, (a, c, b, d) in enumerate(quads):
        z = algebra.zero() if exact else algebra.scalar(body_logs[e])
        for x in a, c:
            if x in logs:
                z = z + logs[x]
        for x in b, d:
            if x in logs:
                z = z - logs[x]
        # four finite logs can still sum past the float range
        values = z.num.values()
        if not exact and not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise GrassmannError("float overflow in the shear coordinate of edge %d" % e)
        out[e] = z
    return out


def check_puncture_relation(state):
    """Sum of shear coordinates over each boundary cycle's traversals.

    Returns one even residual per boundary cycle (boundary_cycles order).
    The body vanishes in the classical limit; the soul is reported as-is.
    """
    return _puncture_residuals(state, shear_coordinates(state))


def _puncture_residuals(state, z):
    """The sums of the shear coordinates z (edge -> element) over each
    boundary cycle's traversals, for a caller that already holds z.

    Each cycle's coordinates are added term by term, in half-edge order,
    into one map over the lcm of their denominators, which is reduced
    once: the numerators, float sums and term order that adding them one
    by one as elements gives.
    """
    graph = state.graph
    residuals = []
    for cycle in boundary_cycles(graph):
        coordinates = [z[graph.edge_of(h)] for h in cycle]
        den = math.lcm(*[x.den for x in coordinates])
        num = {}
        get = num.get
        for x in coordinates:
            scale = den // x.den
            for m, c in x.num.items():
                total = get(m, 0) + c * scale
                if total:
                    num[m] = total
                else:
                    num.pop(m, None)
        residuals.append(_reduced(state.algebra, num, den))
    return tuple(residuals)


def classical_limit(state):
    """Set every mu-invariant to zero and every lambda-length to its body.

    The result is valid because state is: a lambda-length's body is
    positive, and zero is odd.  So each body is one reduce of the term
    num[0] over den, and the state is built without checking it again.
    """
    algebra = state.algebra
    lam = {e: _reduced(algebra, {0: x.num[0]}, x.den, 1) for e, x in state.lam.items()}
    mu = {v: algebra.zero() for v in state.mu}
    return DecoratedState._unchecked(state.orientation, algebra, lam, mu)


def states_equal_mod_sign(state1, state2, tol=None):
    """Whether two decorated states on one graph are the same point.

    The orientations must lie in one spin class: X =
    reflection_vertices_between carries state1's onto state2's, and a
    reflection negates the mu-invariant at its vertex.  Lambda-lengths must
    agree edge by edge, and state1's mu-invariants, negated at X, must
    agree with state2's vertex by vertex, either all equal or all negated
    (the global odd sign, which is reflection at the complement of X).

    By default the comparison is exact: the lambda-length maps are equal
    as dicts, and so are the aligned mu-invariant maps or the aligned map
    and the negated one.  Elements are stored in normal form, so dict
    equality is value equality; the comparison loop runs in C and skips
    entries that are the same object, as most are after a round trip.
    Pass tol for coefficientwise float comparison within tol.
    """
    if state1.graph != state2.graph:
        raise ValueError("decorated states live on different graphs")
    if state1.algebra != state2.algebra:
        raise GrassmannError("decorated states use different algebras")
    side = _reflection_side(state1.orientation, state2.orientation)
    if side is None:
        return False
    # the complement reflects the same way up to the global odd sign,
    # which the comparison allows, so the smaller side is negated
    num_vertices = state1.graph.num_vertices
    if 2 * side.bit_count() > num_vertices:
        side ^= (1 << num_vertices) - 1

    if tol is None:
        if state1.lam != state2.lam:
            return False
    elif not all(state1.lam[e].isclose(state2.lam[e], tol) for e in state1.lam):
        return False
    mu1, mu2 = state1.mu, state2.mu
    if side:
        mu1 = dict(mu1)
        for v in _bits(side):
            mu1[v] = -mu1[v]
    if tol is None:
        return mu1 == mu2 or mu1 == {v: -x for v, x in mu2.items()}
    return (all(mu1[v].isclose(mu2[v], tol) for v in mu1)
            or all(mu1[v].isclose(-mu2[v], tol) for v in mu1))
