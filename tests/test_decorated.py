import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest

from superpenner import decorated, fatgraph, grassmann, spin
from superpenner.catalog import (GRAPHS, five_punctured_sphere, four_punctured_sphere,
                                 genus1_two_punctures, genus2_one_puncture,
                                 punctured_torus)
from superpenner.checks import (aligned_equal_mod_sign, generic_edges,
                                random_decorated_state)
from superpenner.decorated import (DecoratedState, check_puncture_relation,
                                   classical_limit, default_state,
                                   shear_coordinates, states_equal_mod_sign,
                                   superflip)
from superpenner.fatgraph import FatGraph, FlipRecord, flip_quadrilateral
from superpenner.grassmann import (FLOAT, RATIONAL, GrassmannAlgebra, GrassmannElement,
                                   GrassmannError, gdiv, ginv, gmul, gsqrt)
from superpenner.spin import OrientationState, reflect, reflection_vertices_between

from helpers import (dumbbell, horocycle_rescaled, prism, reference_classical_limit,
                     reference_puncture_residuals, reference_shear_coordinates,
                     reference_superflip)


def ptolemy_example_state():
    """The square-friendly quadrilateral: a=9 b=4 c=1 d=4 e=1, chi = 9/16."""
    g = four_punctured_sphere()
    q = flip_quadrilateral(g, 0)
    alg = GrassmannAlgebra(g.num_vertices, RATIONAL)
    lam = {e: alg.one() for e in range(g.num_edges)}
    lam[q.a] = alg.scalar(9)
    lam[q.b] = alg.scalar(4)
    lam[q.c] = alg.scalar(1)
    lam[q.d] = alg.scalar(4)
    mu = {v: alg.zero() for v in range(g.num_vertices)}
    mu[q.tail_vertex] = alg.gen(q.tail_vertex)   # theta
    mu[q.head_vertex] = alg.gen(q.head_vertex)   # sigma
    # sign -1 puts edge 0 in the canonical arrow configuration
    signs = tuple(-1 if e == 0 else 1 for e in range(g.num_edges))
    state = DecoratedState(g, OrientationState(g, signs), alg, lam, mu)
    return state, q


def test_classical_flip_of_unit_state():
    g = four_punctured_sphere()
    state = default_state(g, RATIONAL)
    state = classical_limit(state)  # mu = 0
    flipped, _ = superflip(state, 0)
    assert flipped.lam[0] == state.algebra.scalar(2)
    assert all(x.is_zero() for x in flipped.mu.values())


def test_classical_flip_keeps_the_zero_mu_objects():
    # a round trip's comparison then meets the same objects again; an
    # auto-reflection negates a zero mu-invariant, which returns it
    reflected = 0
    for make in GRAPHS.values():
        graph = make()
        state = classical_limit(random_decorated_state(graph, random.Random(5), RATIONAL))
        for e in generic_edges(graph):
            flipped, record = superflip(state, e)
            reflected += bool(record.reflections_applied)
            assert all(flipped.mu[v] is state.mu[v] for v in state.mu)
    assert reflected


def test_super_ptolemy_worked_example():
    state, q = ptolemy_example_state()
    alg = state.algebra
    theta = state.mu[q.tail_vertex]
    sigma = state.mu[q.head_vertex]
    flipped, record = superflip(state, 0)
    assert record.reflections_applied == ()
    # f = 25 + 12 sigma theta, exact
    expected_f = alg.scalar(25) + gmul(sigma, theta) * 12
    assert flipped.lam[0] == expected_f
    # nu = (4 sigma - 3 theta)/5 at the (b,c)-vertex, the old tail id
    assert flipped.mu[q.tail_vertex] == (sigma * 4 - theta * 3) / 5
    # mu = (4 theta + 3 sigma)/5 at the (a,d)-vertex, the old head id
    assert flipped.mu[q.head_vertex] == (theta * 4 + sigma * 3) / 5
    # and e*f equals the defining right-hand side
    chi = state.lam[q.a] * state.lam[q.c] * ginv(state.lam[q.b] * state.lam[q.d])
    rhs = ((state.lam[q.a] * state.lam[q.c] + state.lam[q.b] * state.lam[q.d])
           * (1 + gmul(sigma, theta) * gsqrt(chi) * ginv(1 + chi)))
    assert gmul(state.lam[0], flipped.lam[0]) == rhs
    assert_matches_two_root_form(state, 0, flipped, record)


def assert_matches_two_root_form(state, e, flipped, record):
    """The flip equals the formulas with 1/sqrt(1 + chi) = ginv(gsqrt(1 + chi))."""
    mu = dict(state.mu)
    for v in record.reflections_applied:
        mu[v] = -mu[v]
    theta, sigma = mu[record.tail_vertex], mu[record.head_vertex]
    la, lb, lc, ld = (state.lam[i] for i in (record.a, record.b, record.c, record.d))
    ac, bd = la * lc, lb * ld
    chi = ac * ginv(bd)
    sqrt_chi = gsqrt(chi)
    inv_sqrt_1chi = ginv(gsqrt(1 + chi))
    # the flip builds f from sigma (theta sqrt(chi)) bd; pin it to sqrt(chi)/(1 + chi)
    f = ginv(state.lam[e]) * (ac + bd) * (1 + sigma * theta * sqrt_chi * ginv(1 + chi))
    assert flipped.lam[e] == f
    assert flipped.mu[record.tail_vertex] == (sigma - theta * sqrt_chi) * inv_sqrt_1chi
    assert flipped.mu[record.head_vertex] == (theta + sigma * sqrt_chi) * inv_sqrt_1chi


def test_superflip_matches_two_root_form_on_random_states():
    rng = random.Random(26)
    for g in (four_punctured_sphere(), genus1_two_punctures(), genus2_one_puncture(),
              five_punctured_sphere()):
        for _ in range(10):
            e = rng.choice(generic_edges(g))
            state = random_decorated_state(g, rng, mode=RATIONAL, square_friendly_edge=e)
            flipped, record = superflip(state, e)
            assert_matches_two_root_form(state, e, flipped, record)


def test_auto_reflection_negates_theta():
    state, q = ptolemy_example_state()
    plus = OrientationState.all_plus(state.graph)
    state_plus = DecoratedState(state.graph, plus, state.algebra, state.lam, state.mu)
    theta = state.mu[q.tail_vertex]
    sigma = state.mu[q.head_vertex]
    flipped, record = superflip(state_plus, 0)
    assert record.reflections_applied == (q.tail_vertex,)
    assert flipped.lam[0] == state.algebra.scalar(25) + gmul(sigma, -theta) * 12


def test_double_flip_exact_involution():
    state, _ = ptolemy_example_state()
    once, _ = superflip(state, 0)
    twice, _ = superflip(once, 0)
    assert aligned_equal_mod_sign(state, twice, {0})


def test_double_flip_random_rational():
    rng = random.Random(20)
    g = four_punctured_sphere()
    for _ in range(25):
        e = rng.choice(generic_edges(g))
        state = random_decorated_state(g, rng, mode=RATIONAL, square_friendly_edge=e)
        once, _ = superflip(state, e)
        twice, _ = superflip(once, e)
        assert aligned_equal_mod_sign(state, twice, {e})


def test_double_flip_random_float():
    rng = random.Random(21)
    g = genus2_one_puncture()
    for _ in range(25):
        e = rng.choice(generic_edges(g))
        state = random_decorated_state(g, rng, mode=FLOAT)
        once, _ = superflip(state, e)
        twice, _ = superflip(once, e)
        assert aligned_equal_mod_sign(state, twice, {e}, tol=1e-9)


def reversal(x):
    """R(e_S) = (-1)^(k(k-1)/2) e_S with k = |S|: fixes generators, reverses products."""
    return x.algebra.element({m: -c if m.bit_count() % 4 in (2, 3) else c
                              for m, c in x.terms.items()})


def reversed_superflip(state, e):
    """superflip conjugated by the reversal: the order theta sigma in f."""
    def reverse_state(s):
        return DecoratedState(s.graph, s.orientation, s.algebra,
                              {i: reversal(x) for i, x in s.lam.items()},
                              {v: reversal(x) for v, x in s.mu.items()})
    flipped, record = superflip(reverse_state(state), e)
    return reverse_state(flipped), record


def test_only_the_formula_pins_the_order_sigma_theta():
    # the conjugated flip is an equally good involution, yet another flip
    rng = random.Random(27)
    for g in (four_punctured_sphere(), genus1_two_punctures(), genus2_one_puncture(),
              five_punctured_sphere()):
        for _ in range(10):
            e = rng.choice(generic_edges(g))
            state = random_decorated_state(g, rng, mode=RATIONAL, square_friendly_edge=e)
            theta, sigma = state.mu[0], state.mu[1]
            assert reversal(theta * sigma) == reversal(sigma) * reversal(theta)
            once, _ = reversed_superflip(state, e)
            twice, _ = reversed_superflip(once, e)
            assert aligned_equal_mod_sign(state, twice, {e})
            assert not states_equal_mod_sign(once, superflip(state, e)[0])


def test_flip_leaves_rest_of_state_alone():
    rng = random.Random(22)
    g = genus2_one_puncture()
    state = random_decorated_state(g, rng, mode=RATIONAL, square_friendly_edge=0)
    q = flip_quadrilateral(g, 0)
    flipped, record = superflip(state, 0)
    touched_edges = {0}
    touched_vertices = {q.tail_vertex, q.head_vertex}
    for e in range(g.num_edges):
        if e not in touched_edges:
            assert flipped.lam[e] == state.lam[e]
    for v in range(g.num_vertices):
        if v not in touched_vertices:
            assert flipped.mu[v] == state.mu[v]


def test_bodies_stay_positive_along_flip_paths():
    rng = random.Random(23)
    g = four_punctured_sphere()
    state = random_decorated_state(g, rng, mode=FLOAT)
    for _ in range(50):
        e = rng.choice(generic_edges(state.graph))
        state, _ = superflip(state, e)
        assert all(x.body > 0 for x in state.lam.values())


def test_rational_flip_needs_square_chi():
    g = four_punctured_sphere()
    state = default_state(g, RATIONAL)   # all lambda 1: chi = 1, 1 + chi = 2
    with pytest.raises(GrassmannError, match="square"):
        superflip(state, 0)
    # but the same flip goes through with mu = 0
    flipped, _ = superflip(classical_limit(state), 0)
    assert flipped.lam[0] == state.algebra.scalar(2)


# -- classical limit -----------------------------------------------------------

def test_classical_limit_idempotent_and_commutes():
    state, _ = ptolemy_example_state()
    limit = classical_limit(state)
    assert classical_limit(limit) is not limit
    assert states_equal_mod_sign(classical_limit(limit), limit)
    flip_then_limit = classical_limit(superflip(state, 0)[0])
    limit_then_flip = superflip(limit, 0)[0]
    assert states_equal_mod_sign(flip_then_limit, limit_then_flip)
    assert limit_then_flip.lam[0] == state.algebra.scalar(25)


def classical_states(mode):
    """classical_limit of a random state on each catalog graph and prism(3..12)."""
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 13)]
    return [classical_limit(random_decorated_state(g, random.Random(g.num_edges), mode))
            for g in graphs]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_classical_limit_matches_the_scalar_build(mode):
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 13)]
    for graph in graphs:
        state = random_decorated_state(graph, random.Random(graph.num_vertices), mode)
        limit, expected = classical_limit(state), reference_classical_limit(state)
        assert list(limit.lam) == list(expected.lam)
        assert all((x.num, x.den) == (y.num, y.den)
                   for x, y in zip(limit.lam.values(), expected.lam.values()))
        assert all(grassmann._weights(x) == 1 for x in limit.lam.values())
        assert list(limit.mu) == list(expected.mu)
        assert all(x.is_zero() for x in limit.mu.values())
        assert limit.graph is state.graph and limit.orientation is state.orientation
        assert classical_limit(limit) is not limit


def test_exact_classical_flip_is_the_generic_quotient():
    # every flip of one-term rational lambda-lengths with mu = 0, from the
    # start and along a walk, equals the quotient (ac + bd) / e in normal form
    flips = 0
    for state in classical_states(RATIONAL):
        rng = random.Random(state.graph.num_edges)
        steps = [(state, e) for e in generic_edges(state.graph)]
        current = state
        for _ in range(6):
            candidates = generic_edges(current.graph)
            if not candidates:
                break
            e = rng.choice(candidates)
            steps.append((current, e))
            current = superflip(current, e)[0]
        for before, e in steps:
            flipped, record = superflip(before, e)
            orientation, expected_record = spin.flip_orientation(before.orientation, e)
            la, lb, lc, ld, le = (before.lam[i]
                                  for i in (record.a, record.b, record.c, record.d, e))
            expected = gdiv(la * lc + lb * ld, le)
            f = flipped.lam[e]
            assert (f.num, f.den, f._w) == (expected.num, expected.den,
                                             grassmann._weights(expected))
            assert flipped.orientation.mask == orientation.mask
            assert record == expected_record
            flips += 1
    assert flips > 300


def test_exact_classical_flip_makes_no_generic_operation():
    forbidden = {f.__code__: f.__name__ for f in (gmul, gdiv, grassmann._add)}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in forbidden:
            calls.append(forbidden[frame.f_code])

    flips = [(state, e) for state in classical_states(RATIONAL)
             for e in generic_edges(state.graph)]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for state, e in flips:
            superflip(state, e)
    finally:
        sys.setprofile(previous)
    assert calls == []


@pytest.fixture
def ptolemy_calls(monkeypatch):
    """The argument tuples of every call to the one-fraction kernel."""
    calls = []
    kernel = decorated._ptolemy
    monkeypatch.setattr(decorated, "_ptolemy",
                        lambda *args: calls.append(args) or kernel(*args))
    return calls


@pytest.mark.parametrize("position", range(5))
def test_a_lambda_length_with_a_soul_takes_the_generic_flip(ptolemy_calls, position):
    state = classical_limit(random_decorated_state(genus2_one_puncture(), random.Random(3),
                                                   RATIONAL))
    e = generic_edges(state.graph)[0]
    q = flip_quadrilateral(state.graph, e)
    edge = (q.a, q.b, q.c, q.d, e)[position]
    lam = dict(state.lam)
    lam[edge] = lam[edge] + state.algebra.monomial([0, 1], 3)
    souled = DecoratedState(state.graph, state.orientation, state.algebra, lam, state.mu)
    flipped, _ = superflip(souled, e)
    la, lb, lc, ld, le = (lam[i] for i in (q.a, q.b, q.c, q.d, e))
    assert flipped.lam[e] == gdiv(la * lc + lb * ld, le)
    assert len(flipped.lam[e].num) > 1
    assert ptolemy_calls == []


def test_a_float_classical_flip_keeps_its_bits(ptolemy_calls):
    for state in classical_states(FLOAT):
        for e in generic_edges(state.graph):
            flipped, record = superflip(state, e)
            la, lb, lc, ld, le = (state.lam[i]
                                  for i in (record.a, record.b, record.c, record.d, e))
            expected = gdiv(la * lc + lb * ld, le)
            assert ({m: v.hex() for m, v in flipped.lam[e].num.items()}
                    == {m: v.hex() for m, v in expected.num.items()})
    assert ptolemy_calls == []


@pytest.mark.parametrize("keep", ["theta", "sigma"])
def test_one_nonzero_mu_takes_the_super_flip(ptolemy_calls, keep):
    state, q = ptolemy_example_state()
    mu = dict(state.mu)
    mu[q.head_vertex if keep == "theta" else q.tail_vertex] = state.algebra.zero()
    state = DecoratedState(state.graph, state.orientation, state.algebra, state.lam, mu)
    flipped, _ = superflip(state, 0)
    assert flipped.lam[0] == state.algebra.scalar(25)
    assert not (flipped.mu[q.tail_vertex].is_zero() and flipped.mu[q.head_vertex].is_zero())
    assert ptolemy_calls == []


# -- the classical path shares the mu map ----------------------------------------


def with_mu_and_sign(state, e, zero, reflect_first):
    """state with a zero mu-invariant at each vertex in zero and edge e's
    sign set so that its flip starts with an auto-reflection (sign +1) or
    without one (sign -1)."""
    mu = dict(state.mu)
    for v in zero:
        mu[v] = state.algebra.zero()
    mask = state.orientation.mask
    mask = mask & ~(1 << e) if reflect_first else mask | 1 << e
    return DecoratedState(state.graph, OrientationState._unchecked(state.graph, mask),
                          state.algebra, state.lam, mu)


def lean_path_cases(mode):
    """(kind, state, edge) for every generic edge of the catalog graphs and
    prism(3..12): classical states with one-term lambda-lengths and with
    souls, and mixed states (zero mu at the two flip vertices only), each
    with and without the auto-reflection, and super states, with it on
    every other edge; above V = 12 a super state's mu-invariants are the
    generators, as in default_state, which keeps its flips cheap.  Then the
    starts of 6-flip walks, with edge None: the classical states on every
    graph, and a mixed state (zero mu at half the vertices) and a super
    state on graphs up to V = 8, as super flips multiply terms along a
    walk."""
    graphs = [make() for make in GRAPHS.values()] + [prism(n) for n in range(3, 13)]
    cases = []
    for graph in graphs:
        rng = random.Random(graph.num_edges)
        odd = random_decorated_state(graph, rng, mode)
        classical = [classical_limit(odd), random_decorated_state(graph, rng, mode, odd=False)]
        cases += [("walk", state, None) for state in classical]
        if graph.num_vertices <= 8:
            half = rng.sample(range(graph.num_vertices), graph.num_vertices // 2)
            cases.append(("walk", with_mu_and_sign(odd, 0, half, rng.random() < 0.5), None))
            cases.append(("walk", odd, None))
        for e in generic_edges(graph):
            q = flip_quadrilateral(graph, e)
            for reflect_first in (True, False):
                cases += [("classical", with_mu_and_sign(state, e, (), reflect_first), e)
                          for state in classical]
                cases.append(("mixed", with_mu_and_sign(
                    odd, e, (q.tail_vertex, q.head_vertex), reflect_first), e))
            if mode == RATIONAL:
                super_state = random_decorated_state(graph, rng, mode, square_friendly_edge=e)
            else:
                super_state = odd
            if graph.num_vertices > 12:
                algebra = super_state.algebra
                super_state = DecoratedState(
                    graph, super_state.orientation, algebra, super_state.lam,
                    {v: algebra.gen(v) for v in range(graph.num_vertices)})
            cases.append(("super", with_mu_and_sign(super_state, e, (), e % 2 == 0), e))
    return cases


def flip_outcome(flip, state, e):
    """flip(state, e), or the type and text of the error it raises."""
    try:
        return flip(state, e)
    except ValueError as exc:   # GrassmannError among them
        return type(exc), str(exc)


def assert_same_element_map(got, want):
    """Equal keys in equal order, and per element equal num items (floats
    by repr, so by bits) in equal order, den and weight mask."""
    assert list(got) == list(want)
    for x, y in zip(got.values(), want.values()):
        assert ([(m, repr(c)) for m, c in x.num.items()]
                == [(m, repr(c)) for m, c in y.num.items()])
        assert (repr(x.den), x._w) == (repr(y.den), y._w)


def assert_same_flip(got, want):
    if not isinstance(want[0], DecoratedState):
        assert got == want   # the same error
        return
    (state, record), (expected, expected_record) = got, want
    for slot in FatGraph.__slots__:
        assert getattr(state.graph, slot) == getattr(expected.graph, slot), slot
    assert state.orientation.graph is state.graph
    assert state.orientation.mask == expected.orientation.mask
    assert type(record) is type(expected_record) is FlipRecord
    assert record == expected_record
    assert state.algebra is expected.algebra
    assert_same_element_map(state.lam, expected.lam)
    assert_same_element_map(state.mu, expected.mu)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_superflip_matches_the_one_path_composition(mode):
    flips = {}   # kind -> flips that returned a state

    def compare(kind, state, e):
        got = flip_outcome(superflip, state, e)
        assert_same_flip(got, flip_outcome(reference_superflip, state, e))
        if isinstance(got[0], DecoratedState):
            flips[kind] = flips.get(kind, 0) + 1
            return got[0]
        return state

    for kind, state, e in lean_path_cases(mode):
        if e is not None:
            compare(kind, state, e)
            continue
        rng = random.Random(state.graph.num_edges)
        for _ in range(6):
            candidates = generic_edges(state.graph)
            if not candidates:
                break
            state = compare(kind, state, rng.choice(candidates))
    # every single flip returns a state; a rational super flip along a walk
    # may meet a chi without a square root, and then both raise alike
    assert flips["classical"] == 2 * flips["mixed"] == 4 * flips["super"] > 400, flips
    assert flips["walk"] > 150, flips


def test_a_zero_mu_flip_shares_the_mu_map(monkeypatch):
    # the classical path checks no mu-invariant and builds its record
    # without FlipRecord's generated __new__; a super flip copies the map
    calls = []
    check_mu = decorated._check_mu
    monkeypatch.setattr(decorated, "_check_mu",
                        lambda *args: calls.append("_check_mu") or check_mu(*args))
    record_new = FlipRecord.__new__
    monkeypatch.setattr(FlipRecord, "__new__",
                        lambda *args: calls.append("FlipRecord.__new__") or record_new(*args))
    flips = {True: 0, False: 0}
    for _, state, e in lean_path_cases(RATIONAL):
        if e is None:
            continue
        q = flip_quadrilateral(state.graph, e)
        zero = state.mu[q.tail_vertex].is_zero() and state.mu[q.head_vertex].is_zero()
        before = list(state.mu.items())
        calls.clear()
        flipped, _ = superflip(state, e)
        assert (flipped.mu is state.mu) == zero
        assert len(state.mu) == len(before)
        assert all(v == u and x is y for (v, x), (u, y) in zip(state.mu.items(), before))
        assert calls == ([] if zero else ["_check_mu", "_check_mu"])
        flips[zero] += 1
    assert min(flips.values()) > 100, flips


# -- shear coordinates -----------------------------------------------------------

def test_torus_shear_values():
    g = punctured_torus()
    alg = GrassmannAlgebra(g.num_vertices, FLOAT)
    lam = {0: alg.scalar(3), 1: alg.scalar(4), 2: alg.scalar(5)}
    mu = {v: alg.zero() for v in range(2)}
    state = DecoratedState(g, OrientationState.all_plus(g), alg, lam, mu)
    z = shear_coordinates(state)
    assert z[0].body == pytest.approx(math.log(16 / 25))
    assert z[1].body == pytest.approx(math.log(25 / 9))
    assert z[2].body == pytest.approx(math.log(9 / 16))
    residuals = check_puncture_relation(state)
    assert len(residuals) == 1
    assert abs(residuals[0].body) < 1e-12


def test_all_equal_lambdas_give_zero_shear_exactly():
    g = four_punctured_sphere()
    state = classical_limit(default_state(g, RATIONAL))
    z = shear_coordinates(state)   # every ratio has body 1: exact in rational mode
    assert all(x.is_zero() for x in z.values())
    assert all(r.is_zero() for r in check_puncture_relation(state))


def test_shear_and_square_friendly_states_build_no_quadrilateral(monkeypatch):
    # both read a, b, c, d from fatgraph._quadrilateral's plain tuple
    g = genus2_one_puncture()
    edges = generic_edges(g)   # still builds one per edge
    built = []
    init = fatgraph.Quadrilateral.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fatgraph.Quadrilateral, "__init__", spy)
    rng = random.Random(26)
    shear_coordinates(random_decorated_state(g, rng, mode=FLOAT))
    for e in edges:
        random_decorated_state(g, rng, mode=RATIONAL, square_friendly_edge=e)
    assert built == []
    flip_quadrilateral(g, 0, require_generic=False)
    assert len(built) == 1


# loop-free graphs up to V = 8, and their flip descendants
SHEAR_GRAPHS = [make() for make in GRAPHS.values()] + [prism(3), prism(4)]
# the float closed form's soul coefficients may differ from glog(gdiv(ac, bd))'s
# by this much times the larger of 1 and the coordinate's largest coefficient
SHEAR_SOUL_BOUND = 1e-13


def unit_bodies(state):
    """state with every lambda-length divided by its body."""
    lam = {e: gdiv(x, x.body) for e, x in state.lam.items()}
    return DecoratedState(state.graph, state.orientation, state.algebra, lam, state.mu)


def shear_outcome(function, state):
    """The coordinates, or the class and message of the error raised."""
    try:
        return function(state)
    except ValueError as exc:
        return type(exc), str(exc)


def test_rational_shear_is_the_reference_loop_exactly():
    # every ratio has body 1, also after moving the horocycles, which
    # gives bodies other than 1; the coordinates do not move with them
    rng = random.Random(35)
    souls = 0
    for graph in SHEAR_GRAPHS:
        punctures = len(fatgraph.boundary_cycles(graph))
        for odd in (True, False):
            state = unit_bodies(random_decorated_state(graph, rng, RATIONAL, odd=odd))
            z = shear_coordinates(state)
            assert z == reference_shear_coordinates(state)
            souls += sum(not x.is_zero() for x in z.values())
            factors = [Fraction(k, k + 1) for k in (rng.randint(1, 9) for _ in range(punctures))]
            moved = horocycle_rescaled(state, factors)
            assert all(x.body != 1 for x in moved.lam.values())
            assert shear_coordinates(moved) == reference_shear_coordinates(moved) == z
            assert [str(x) for x in shear_coordinates(moved).values()] == [
                str(x) for x in z.values()]
    assert souls > 100


def test_rational_shear_refuses_the_edge_the_reference_refuses():
    # drawn bodies give ratios other than 1 except where labels coincide
    # (on the theta graph every ratio is 1)
    rng = random.Random(36)
    refused = []
    for graph in SHEAR_GRAPHS:
        for _ in range(3):
            drawn = random_decorated_state(graph, rng, RATIONAL)
            assert shear_outcome(shear_coordinates, drawn) == shear_outcome(
                reference_shear_coordinates, drawn)
            # two lambda-lengths scaled apart: the message's body names
            # the first edge whose quadrilateral holds either
            state = unit_bodies(drawn)
            lam = dict(state.lam)
            for x, k in zip(rng.sample(range(graph.num_edges), 2), (2, 3)):
                lam[x] = lam[x] * k
            state = DecoratedState(graph, state.orientation, state.algebra, lam, state.mu)
            outcome = shear_outcome(reference_shear_coordinates, state)
            assert shear_outcome(shear_coordinates, state) == outcome
            if type(outcome) is tuple:
                assert outcome[0] is GrassmannError
                refused.append(outcome[1])
    assert len(refused) > 20 and len(set(refused)) > 5
    # a loop has no quadrilateral, in either
    state = default_state(dumbbell(), RATIONAL)
    outcome = shear_outcome(reference_shear_coordinates, state)
    assert type(outcome) is tuple and shear_outcome(shear_coordinates, state) == outcome


def test_float_shear_bodies_are_the_reference_bits_and_souls_within_bound():
    rng = random.Random(37)
    dense = 0
    for graph in SHEAR_GRAPHS:
        state = random_decorated_state(graph, rng, FLOAT)
        for _ in range(7):
            z, ref = shear_coordinates(state), reference_shear_coordinates(state)
            for e in ref:
                assert z[e].body.hex() == ref[e].body.hex()
                scale = max(1.0, max(map(abs, ref[e].num.values()), default=0.0))
                for m in z[e].num.keys() | ref[e].num.keys():
                    deviation = abs(z[e].num.get(m, 0.0) - ref[e].num.get(m, 0.0))
                    assert deviation <= SHEAR_SOUL_BOUND * scale
            # the residuals sum the coordinates in cycle order, so their
            # bodies are the same floats
            assert [r.body.hex() for r in check_puncture_relation(state)] == [
                r.body.hex() for r in decorated._puncture_residuals(state, ref)]
            dense = max(dense, max(len(x.num) for x in state.lam.values()))
            edges = generic_edges(state.graph)
            if not edges:
                break
            state, _ = superflip(state, rng.choice(edges))
    assert dense > 32


def element_layout(x):
    """x's numerators in dict order (floats by their bits) and denominator."""
    return [(m, c.hex() if isinstance(c, float) else c) for m, c in x.num.items()], x.den


def test_puncture_residuals_are_the_reference_sums_bit_for_bit():
    # one accumulation per cycle over the lcm of the denominators gives the
    # numerators, float bits and term order of adding coordinate by
    # coordinate.  Random coordinates with their own denominators and
    # shared monomials, some of which cancel, and float shear coordinates
    # of dense states after superflips
    rng = random.Random(84)
    cancelled = rescaled = 0
    for graph in SHEAR_GRAPHS:
        for mode in (RATIONAL, FLOAT):
            alg = GrassmannAlgebra(graph.num_vertices, mode)
            state = random_decorated_state(graph, rng, mode)
            monomials = [m for m in range(1 << min(graph.num_vertices, 4))
                         if m.bit_count() % 2 == 0]
            z = {}
            for e in range(graph.num_edges):
                terms = {m: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4, 6]))
                         for m in rng.sample(monomials, rng.randint(0, len(monomials)))}
                z[e] = alg.element({m: c if mode == RATIONAL else float(c)
                                    for m, c in terms.items() if c})
            got = decorated._puncture_residuals(state, z)
            want = reference_puncture_residuals(state, z)
            assert list(map(element_layout, got)) == list(map(element_layout, want))
            cancelled += sum(len(r.num) < len(set().union(*[z[graph.edge_of(h)].num for h in c]))
                             for r, c in zip(got, fatgraph.boundary_cycles(graph)))
            rescaled += len({x.den for x in z.values()}) > 1
        state = random_decorated_state(graph, rng, FLOAT)
        for _ in range(4):
            edges = generic_edges(state.graph)
            if not edges:
                break
            state, _ = superflip(state, rng.choice(edges))
        z = shear_coordinates(state)
        assert list(map(element_layout, decorated._puncture_residuals(state, z))) == list(
            map(element_layout, reference_puncture_residuals(state, z)))
    assert cancelled > 5 and rescaled > 5


def test_float_shear_refuses_overflow_and_underflow():
    # on the torus every edge's quadrilateral is a = c and b = d
    g = punctured_torus()
    alg = GrassmannAlgebra(g.num_vertices, FLOAT)
    mu = {v: alg.zero() for v in range(2)}
    t01 = alg.monomial([0, 1])

    def state(x, y):
        lam = {0: alg.one(), 1: alg.one() * x, 2: alg.one() * y}
        return DecoratedState(g, OrientationState.all_plus(g), alg, lam, mu)

    cases = [(1e200, 1.0),                  # a c overflows
             (1e-200, 1.0),                 # a c underflows
             (1e154, 1e-154),               # the ratio overflows
             (1e-154, 1e154),               # the ratio underflows
             (1 + 6e307 * t01, 1 - 6e307 * t01)]   # l_a + l_c - l_b - l_d overflows
    for x, y in cases:
        for function in (shear_coordinates, reference_shear_coordinates):
            with pytest.raises(GrassmannError):
                function(state(x, y))
    # a subnormal ratio is still a finite log
    z = shear_coordinates(state(1e-154, 1e1))
    assert z[1].body.hex() == reference_shear_coordinates(state(1e-154, 1e1))[1].body.hex()
    assert all(math.isfinite(c) for x in z.values() for c in x.num.values())


def test_puncture_relation_random_classical():
    rng = random.Random(24)
    g = genus2_one_puncture()
    for _ in range(10):
        state = random_decorated_state(g, rng, mode=FLOAT, odd=False)
        for res in check_puncture_relation(state):
            assert abs(res.body) < 1e-12
            assert all(abs(c) < 1e-12 for c in res.soul.terms.values())


# -- equality mod sign ------------------------------------------------------------

def test_states_equal_mod_sign_quotient():
    rng = random.Random(25)
    g = four_punctured_sphere()
    state = random_decorated_state(g, rng, mode=RATIONAL)
    negated = DecoratedState(g, state.orientation, state.algebra, state.lam,
                             {v: -m for v, m in state.mu.items()})
    assert states_equal_mod_sign(state, negated)
    one_flipped = dict(state.mu)
    one_flipped[0] = -one_flipped[0]
    partial = DecoratedState(g, state.orientation, state.algebra, state.lam,
                             one_flipped)
    assert not states_equal_mod_sign(state, partial)


def with_mu_negated(state, orientation, vertices):
    mu = dict(state.mu)
    for v in vertices:
        mu[v] = -mu[v]
    return DecoratedState(state.graph, orientation, state.algebra, state.lam, mu)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_states_equal_mod_sign_follows_the_spin_class(name):
    graph = GRAPHS[name]()
    state = random_decorated_state(graph, random.Random(name), RATIONAL)
    o = state.orientation
    everything = range(graph.num_vertices)
    # the same lambda-lengths and mu-invariants in another spin class
    others = 0
    for e in range(graph.num_edges):
        signs = list(o.signs)
        signs[e] = -signs[e]
        other = OrientationState(graph, signs)
        if reflection_vertices_between(o, other) is None:
            others += 1
            assert not states_equal_mod_sign(state, with_mu_negated(state, other, ()))
            assert not states_equal_mod_sign(with_mu_negated(state, other, ()), state)
    assert others
    # a reflection negates its vertex's mu-invariant: the same point, also
    # up to the global odd sign
    for v in everything:
        reflected = with_mu_negated(state, reflect(o, v), (v,))
        assert states_equal_mod_sign(state, reflected)
        assert states_equal_mod_sign(reflected, state)
        rest = [w for w in everything if w != v]
        assert states_equal_mod_sign(state, with_mu_negated(state, reflect(o, v), rest))
        if any(not state.mu[w].is_zero() for w in rest):
            assert not states_equal_mod_sign(state, with_mu_negated(state, reflect(o, v), ()))
    # reflecting at every vertex returns the orientation and negates every mu
    all_reflected = o
    for v in everything:
        all_reflected = reflect(all_reflected, v)
    assert all_reflected == o
    assert states_equal_mod_sign(state, with_mu_negated(state, all_reflected, everything))


def test_states_equal_mod_sign_tolerance():
    g = four_punctured_sphere()
    alg = GrassmannAlgebra(g.num_vertices, FLOAT)
    lam = {e: alg.one() for e in range(g.num_edges)}
    mu = {v: alg.gen(v) for v in range(g.num_vertices)}
    s1 = DecoratedState(g, OrientationState.all_plus(g), alg, lam, mu)
    lam2 = {e: alg.scalar(1 + 1e-15) for e in range(g.num_edges)}
    s2 = DecoratedState(g, OrientationState.all_plus(g), alg, lam2, mu)
    assert states_equal_mod_sign(s1, s2, tol=1e-9)
    assert not states_equal_mod_sign(s1, s2)


def test_decorated_state_validates_counts_and_parity():
    g = four_punctured_sphere()
    alg = GrassmannAlgebra(g.num_vertices, RATIONAL)
    lam = {e: alg.one() for e in range(g.num_edges)}
    mu = {v: alg.zero() for v in range(g.num_vertices)}
    with pytest.raises(ValueError):
        DecoratedState(g, OrientationState.all_plus(g), alg,
                       {**lam, 0: alg.gen(0)}, mu)          # odd lambda
    with pytest.raises(ValueError):
        DecoratedState(g, OrientationState.all_plus(g), alg,
                       {**lam, 0: alg.scalar(-1)}, mu)      # negative body
    with pytest.raises(ValueError):
        DecoratedState(g, OrientationState.all_plus(g), alg,
                       lam, {**mu, 0: alg.one()})           # even mu
    short = dict(lam)
    del short[0]
    with pytest.raises(ValueError):
        DecoratedState(g, OrientationState.all_plus(g), alg, short, mu)


def test_superflip_parity_checks_do_not_grow_with_the_graph(monkeypatch):
    calls = []
    for name in ("is_even", "is_odd"):
        original = getattr(GrassmannElement, name)
        monkeypatch.setattr(GrassmannElement, name,
                            lambda self, original=original: calls.append(1) or original(self))
    per_flip = {}   # (graph, odd mu) -> parity checks in each flip
    cases = [(name, make(), odd) for name, make in GRAPHS.items() for odd in (True, False)]
    cases.append(("prism_16", prism(16), False))
    for name, graph, odd in cases:
        state = random_decorated_state(graph, random.Random(5), FLOAT, odd=odd)
        for e in generic_edges(graph):
            calls.clear()
            superflip(state, e)
            per_flip.setdefault((name, odd), set()).add(len(calls))
    assert ("prism_16", False) in per_flip
    for kind in (True, False):
        counts = set().union(*(c for (_, odd), c in per_flip.items() if odd == kind))
        assert len(counts) == 1, (kind, per_flip)


def test_superflip_does_no_whole_graph_work(monkeypatch):
    # a flip patches the graph and toggles signs locally: no rebuild, no
    # revalidation, no sign check and no bitmask round trip
    states = [random_decorated_state(make(), random.Random(6), RATIONAL, odd=False)
              for make in GRAPHS.values()]
    states.append(random_decorated_state(prism(16), random.Random(6), RATIONAL, odd=False))
    prism_flips = 2 * len(generic_edges(states[-1].graph))
    calls = []
    for owner, name in ((FatGraph, "__init__"), (FatGraph, "_validate"),
                        (OrientationState, "__init__"), (spin, "_mask_to_signs")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    flips = 0
    for state in states:
        for e in generic_edges(state.graph):
            once, _ = superflip(state, e)
            superflip(once, e)
            flips += 2
    assert calls == []
    assert prism_flips and flips > prism_flips


def test_comparison_does_no_revalidation(monkeypatch):
    # transporting and comparing relabel entries of validated states: no
    # DecoratedState is rebuilt and no lambda or mu is checked again
    graph = prism(16)
    trips = []
    for e in generic_edges(graph)[:2]:
        state = random_decorated_state(graph, random.Random(e), RATIONAL,
                                       square_friendly_edge=e)
        once, _ = superflip(state, e)
        trips.append((state, superflip(once, e)[0], {e}))
    calls = []
    for owner, name in ((DecoratedState, "__init__"), (decorated, "_check_lambda"),
                        (decorated, "_check_mu"), (FatGraph, "__init__")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    for state, twice, touched in trips:
        assert aligned_equal_mod_sign(state, twice, touched)
    assert calls == []


def test_rational_superflip_does_no_fraction_arithmetic(monkeypatch):
    # int numerators over one denominator per element: a rational flip and
    # its inverse multiply, add and divide ints, never Fractions
    cases = []
    for make in GRAPHS.values():
        graph = make()
        for e in generic_edges(graph):
            cases.append((random_decorated_state(graph, random.Random(e), RATIONAL,
                                                 square_friendly_edge=e), e))
    assert len(cases) >= 30

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in a rational flip")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                 "__neg__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    for state, e in cases:
        once, _ = superflip(state, e)
        twice, _ = superflip(once, e)
        assert aligned_equal_mod_sign(state, twice, {e})


def test_classical_round_trips_only_scale():
    # every lambda-length of a classical rational state is a one-term
    # scalar: flips take (ac + bd) / e as one fraction, comparisons scale
    # by it, and neither runs a solve or a pair kernel, builds a Fraction
    # or copies a FlipRecord.  They are local too: a flip reads its quadrilateral without building
    # a Quadrilateral or a dataclass record, and a comparison finds its
    # isomorphism without propagating over the whole graph
    forbidden = {f.__code__: name for name, f in (
        ("_solve", grassmann._solve),
        ("_scan_pairs", grassmann._scan_pairs),
        ("_class_sums", grassmann._class_sums),
        ("Fraction.__new__", Fraction.__new__),
        ("dataclasses.replace", dataclasses.replace),
        ("propagate_isomorphism", fatgraph.propagate_isomorphism),
        ("flip_quadrilateral", fatgraph.flip_quadrilateral),
        ("Quadrilateral.__init__", fatgraph.Quadrilateral.__init__))}
    states = [classical_limit(random_decorated_state(graph, random.Random(9), RATIONAL))
              for graph in [make() for make in GRAPHS.values()] + [prism(16)]]
    calls = []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in forbidden:
            calls.append(forbidden[frame.f_code])
        elif (frame.f_code.co_name == "__init__"
              and isinstance(frame.f_locals.get("self"), fatgraph.FlipRecord)):
            calls.append("FlipRecord.__init__")

    def watched(run, *args):
        """run(*args) with the forbidden calls recorded; edge choice
        (generic_edges builds a Quadrilateral per edge) is not watched."""
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return run(*args)
        finally:
            sys.setprofile(previous)

    trips = []
    for state in states:
        rng = random.Random(state.graph.num_edges)
        for e in generic_edges(state.graph):
            once, _ = watched(superflip, state, e)
            twice, _ = watched(superflip, once, e)
            trips.append(watched(aligned_equal_mod_sign, state, twice, {e}))
        current, walk = state, []
        for _ in range(6):
            candidates = generic_edges(current.graph)
            if not candidates:
                break
            walk.append(rng.choice(candidates))
            current, _ = watched(superflip, current, walk[-1])
        for e in reversed(walk):
            current, _ = watched(superflip, current, e)
        trips.append(watched(aligned_equal_mod_sign, state, current, set(walk)))
    assert calls == []
    assert len(trips) > 60 and all(trips)


def dense_float_state(graph, rng):
    """Every lambda-length full in the even monomials, every mu full in the odd."""
    alg = GrassmannAlgebra(graph.num_vertices, FLOAT)
    full = 1 << graph.num_vertices

    def full_element(parity, body):
        return alg.element({m: body if m == 0 else rng.uniform(-1.0, 1.0)
                            for m in range(full) if m.bit_count() & 1 == parity})

    lam = {e: full_element(0, rng.uniform(0.5, 4.0)) for e in range(graph.num_edges)}
    mu = {v: full_element(1, 0.0) for v in range(graph.num_vertices)}
    signs = [rng.choice((1, -1)) for _ in range(graph.num_edges)]
    return DecoratedState(graph, OrientationState(graph, signs), alg, lam, mu)


def test_dense_superflip_makes_at_most_12_operations(monkeypatch):
    # every product, quotient and root of a flip
    calls = []
    gmul_ = grassmann.gmul
    monkeypatch.setattr(grassmann, "gmul", lambda x, y: calls.append(1) or gmul_(x, y))
    for name in ("gdiv", "gsqrt", "ginvsqrt"):
        original = getattr(decorated, name)
        monkeypatch.setattr(decorated, name,
                            lambda *args, original=original: calls.append(1) or original(*args))
    graph = prism(4)
    assert graph.num_vertices == 8
    state = dense_float_state(graph, random.Random(13))
    for e in generic_edges(graph):
        calls.clear()
        flipped, _ = superflip(state, e)
        assert len(calls) <= 12, (e, len(calls))
        assert all(len(x.terms) == 128 for x in (flipped.lam[e], *flipped.mu.values()))


def test_solves_take_the_dense_path_only_when_dense(monkeypatch):
    # each solve asks _dense_plan once: record whether it got a dense plan,
    # and count the calls of the scan's pair kernel
    dense, scanned = [], []
    dense_plan, scan_pairs = grassmann._dense_plan, grassmann._scan_pairs

    def plan(*args, solve=False):
        result = dense_plan(*args, solve=solve)
        if solve:
            dense.append(result is not None)
        return result

    monkeypatch.setattr(grassmann, "_dense_plan", plan)
    monkeypatch.setattr(grassmann, "_scan_pairs",
                        lambda *args: scanned.append(1) or scan_pairs(*args))
    alg = GrassmannAlgebra(8, FLOAT)
    rng = random.Random(8)
    y = alg.element({m: 2.0 if m == 0 else rng.uniform(-0.5, 0.5)
                     for m in range(256) if m.bit_count() % 2 == 0})
    root, inverse, log = grassmann.gsqrt(y), grassmann.ginv(y), grassmann.glog(y)
    assert dense == [True, True, True] and not scanned
    assert (root * root).isclose(y, 1e-12) and (inverse * y).isclose(alg.one(), 1e-12)
    assert (log * 2).isclose(grassmann.glog(y * y), 1e-12)
    # a super flip on V = 32 scans and builds no index table for 32 generators
    state = random_decorated_state(prism(16), random.Random(3), FLOAT)
    dense.clear()
    for e in generic_edges(state.graph)[:4]:
        superflip(state, e)
    assert dense and not any(dense) and scanned and 32 not in grassmann._INDICES


# -- commuting flips --------------------------------------------------------------

COMMUTE_GRAPHS = dict(GRAPHS, **{"prism_%d" % n: (lambda n=n: prism(n))
                                 for n in (3, 4, 5, 8, 12)})


def disjoint_edge_pairs(graph, limit=3):
    """The first pairs of generic edges that share no vertex."""
    pairs = []
    edges = generic_edges(graph)
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            ends1 = {graph.tail_vertex(e1), graph.head_vertex(e1)}
            if not ends1 & {graph.tail_vertex(e2), graph.head_vertex(e2)}:
                pairs.append((e1, e2))
    return pairs[:limit]


@pytest.mark.parametrize("name", sorted(COMMUTE_GRAPHS))
def test_flips_of_vertex_disjoint_edges_commute(name):
    graph = COMMUTE_GRAPHS[name]()
    pairs = disjoint_edge_pairs(graph)
    if name in ("torus_1_1", "theta_0_3"):
        assert not pairs   # no generic flip at all
    rng = random.Random(name)
    for e1, e2 in pairs:
        states = [(random_decorated_state(graph, rng, RATIONAL, odd=False), None)]
        if graph.num_vertices <= 10:
            states.append((dense_float_state(graph, rng), 1e-9))
        for state, tol in states:
            one_two = superflip(superflip(state, e1)[0], e2)[0]
            two_one = superflip(superflip(state, e2)[0], e1)[0]
            # every slot, the patched sigma and vertex_of tables included; the
            # cut cache starts empty on a flipped graph, and the comparison
            # below fills only one_two's
            for slot in FatGraph.__slots__:
                if slot == "_cuts":
                    assert one_two.graph._cuts is None and two_one.graph._cuts is None
                else:
                    assert getattr(one_two.graph, slot) == getattr(two_one.graph, slot), slot
            assert states_equal_mod_sign(one_two, two_one, tol=tol)


def torus_state():
    return default_state(punctured_torus())


def with_maps(lam=None, mu=None, orientation=None):
    """DecoratedState(...) on the punctured torus's default state, with the
    given maps or orientation in place of its own."""
    state = torus_state()
    return DecoratedState(state.graph, orientation or state.orientation, state.algebra,
                          state.lam if lam is None else lam, state.mu if mu is None else mu)


FOREIGN = GrassmannAlgebra(2, FLOAT)


@pytest.mark.parametrize("build, error, message", [
    (lambda: with_maps(orientation=OrientationState.all_plus(GRAPHS["theta_0_3"]())),
     spin.SpinError, "orientation lives on a different graph"),
    (lambda: with_maps(mu={0: torus_state().mu[0]}),
     ValueError, "need a mu-invariant for each of the 2 vertices"),
    (lambda: with_maps(lam={**torus_state().lam, 0: FOREIGN.one()}),
     GrassmannError, "lambda-length of edge 0 uses a foreign algebra"),
    (lambda: with_maps(mu={**torus_state().mu, 1: FOREIGN.gen(1)}),
     GrassmannError, "mu-invariant of vertex 1 uses a foreign algebra"),
    (lambda: states_equal_mod_sign(torus_state(), default_state(GRAPHS["theta_0_3"]())),
     ValueError, "decorated states live on different graphs"),
    (lambda: states_equal_mod_sign(torus_state(), default_state(torus_state().graph, FLOAT)),
     GrassmannError, "decorated states use different algebras"),
    (lambda: GrassmannAlgebra(-1), GrassmannError, "number of generators must be >= 0"),
    (lambda: GrassmannAlgebra(2, "decimal"), GrassmannError, "unknown scalar mode 'decimal'"),
    (lambda: GrassmannAlgebra(2).element({4: 1}),
     GrassmannError, "monomial 4 outside algebra on 2 generators"),
    (lambda: GrassmannAlgebra(2).gen(0) ** -1, GrassmannError, "only non-negative integer powers"),
    (lambda: FOREIGN.scalar(10 ** 400), GrassmannError, "scalar out of the float range"),
    (lambda: OrientationState(punctured_torus(), [1, 0, 1]),
     spin.SpinError, "need one sign +1/-1 per edge, got (1, 0, 1)"),
    (lambda: FatGraph([(0, 2, 4), (1, 3, 5)], [(0, 1), (2, 3), (4, 5)], ["A"]),
     fatgraph.FatGraphError, "vertex name count does not match vertex count"),
    (lambda: FatGraph([], []), fatgraph.FatGraphError, "empty fatgraph"),
])
def test_public_constructors_refuse_bad_input(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_float_scalars_beyond_the_float_range_compare_unequal():
    # an int or fraction too large for a float is no float element's value
    for value in (10 ** 400, Fraction(10 ** 400, 3), -10 ** 5000):
        assert (FOREIGN.one() == value) is False
        assert FOREIGN.one() != value
        with pytest.raises(GrassmannError, match="scalar out of the float range"):
            FOREIGN.gen(0) * value
