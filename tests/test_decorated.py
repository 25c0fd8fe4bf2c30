import math
import random

import pytest

from superpenner.catalog import (four_punctured_sphere, genus2_one_puncture,
                                 punctured_torus)
from superpenner.checks import (aligned_equal_mod_sign, generic_edges,
                                random_decorated_state)
from superpenner.decorated import (DecoratedState, check_puncture_relation,
                                   classical_limit, default_state,
                                   shear_coordinates, states_equal_mod_sign,
                                   superflip)
from superpenner.fatgraph import flip_quadrilateral
from superpenner.grassmann import (FLOAT, RATIONAL, GrassmannAlgebra,
                                   GrassmannError, ginv, gmul, gsqrt)
from superpenner.spin import OrientationState


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
    f = ginv(state.lam[e]) * (ac + bd) * (1 + sigma * theta * sqrt_chi * ginv(1 + chi))
    assert flipped.lam[e] == f
    assert flipped.mu[record.tail_vertex] == (sigma - theta * sqrt_chi) * inv_sqrt_1chi
    assert flipped.mu[record.head_vertex] == (theta + sigma * sqrt_chi) * inv_sqrt_1chi


def test_superflip_matches_two_root_form_on_random_states():
    rng = random.Random(26)
    for g in (four_punctured_sphere(), genus2_one_puncture()):
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
