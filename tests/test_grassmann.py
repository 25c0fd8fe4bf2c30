import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superpenner.grassmann import (FLOAT, RATIONAL, GrassmannAlgebra,
                                   GrassmannError, ginv, glog, gmul, gsqrt)


A4 = GrassmannAlgebra(4, RATIONAL)
F4 = GrassmannAlgebra(4, FLOAT)


def gexp(x):
    """Independent exponential oracle: exp(body) * sum soul^k / k!."""
    alg = x.algebra
    if alg.mode == RATIONAL:
        assert x.body == 0, "rational exp oracle only for soul-only input"
        base = alg.one()
    else:
        base = alg.scalar(math.exp(x.body))
    result = alg.one()
    term = alg.one()
    k = 0
    s = x.soul
    while not term.is_zero():
        k += 1
        term = term * s * (Fraction(1, k) if alg.mode == RATIONAL else 1.0 / k)
        result = result + term
    return base * result


# -- generator relations -----------------------------------------------------

def test_generator_squares_to_zero():
    t1 = A4.gen(1)
    assert gmul(t1, t1).is_zero()


def test_generators_anticommute():
    t1, t2 = A4.gen(1), A4.gen(2)
    assert gmul(t1, t2) == A4.monomial([1, 2])
    assert gmul(t2, t1) == -A4.monomial([1, 2])


def test_product_of_conjugates():
    x = A4.one() + A4.monomial([1, 2])
    y = A4.one() - A4.monomial([1, 2])
    assert gmul(x, y) == A4.one()


def test_sign_rule_three_generators():
    # (t0^t2) * t1 = -t0^t1^t2: moving t1 past t2 gives one inversion
    lhs = gmul(A4.monomial([0, 2]), A4.gen(1))
    assert lhs == -A4.monomial([0, 1, 2])


def test_mismatched_algebras_rejected():
    other = GrassmannAlgebra(5, RATIONAL)
    with pytest.raises(GrassmannError):
        gmul(A4.one(), other.one())
    with pytest.raises(GrassmannError):
        A4.one() + GrassmannAlgebra(4, FLOAT).one()


# -- inverse ------------------------------------------------------------------

def test_ginv_scalar():
    assert ginv(A4.scalar(2)) == A4.scalar(Fraction(1, 2))


def test_ginv_soul_correction():
    x = A4.one() + A4.monomial([1, 2])
    assert ginv(x) == A4.one() - A4.monomial([1, 2])
    assert gmul(x, ginv(x)) == A4.one()


def test_ginv_zero_body_rejected():
    with pytest.raises(GrassmannError, match="body"):
        ginv(A4.gen(1) * A4.gen(2) * 0 + A4.monomial([0, 1]))


def test_ginv_odd_rejected():
    with pytest.raises(GrassmannError):
        ginv(A4.gen(1))


# -- square root --------------------------------------------------------------

def test_gsqrt_scalar():
    assert gsqrt(A4.scalar(Fraction(9, 16))) == A4.scalar(Fraction(3, 4))


def test_gsqrt_with_soul():
    x = A4.scalar(4) + A4.monomial([1, 2], 4)
    root = gsqrt(x)
    assert root == A4.scalar(2) + A4.monomial([1, 2])
    assert gmul(root, root) == x


def test_gsqrt_non_square_rational_rejected():
    with pytest.raises(GrassmannError, match="square"):
        gsqrt(A4.scalar(2))
    # the same body is fine in float mode
    assert gsqrt(F4.scalar(2.0)).body == pytest.approx(math.sqrt(2))


def test_gsqrt_negative_body_rejected():
    with pytest.raises(GrassmannError, match="positive"):
        gsqrt(A4.scalar(-1))


# -- logarithm ------------------------------------------------------------------

def test_glog_one_is_zero():
    assert glog(A4.one()).is_zero()


def test_glog_pure_soul():
    x = A4.one() + A4.monomial([1, 2])
    assert glog(x) == A4.monomial([1, 2])
    assert gexp(glog(x)) == x


def test_glog_euler_float():
    x = F4.scalar(math.e)
    assert abs(glog(x).body - 1.0) < 1e-12


def test_glog_rational_body_not_one_rejected():
    with pytest.raises(GrassmannError, match="float mode"):
        glog(A4.scalar(2))


def test_glog_exp_roundtrip_deeper_soul():
    x = A4.one() + A4.monomial([0, 1], Fraction(1, 3)) + A4.monomial([2, 3], -2) \
        + A4.monomial([0, 1, 2, 3], Fraction(5, 7))
    assert gexp(glog(x)) == x


# -- text format ---------------------------------------------------------------

def test_render_example():
    x = A4.one() + A4.monomial([0, 1], 2)
    assert str(x) == "1 + 2*t0^t1"


def test_render_parse_roundtrip():
    x = A4.scalar(Fraction(-3, 4)) + A4.monomial([0], 1) \
        + A4.monomial([1, 3], Fraction(-2, 5))
    assert A4.parse(str(x)) == x


def test_parse_bare_monomial():
    assert A4.parse("t2") == A4.gen(2)
    assert A4.parse("-t2") == -A4.gen(2)
    assert A4.parse("2*t0 - t1") == A4.monomial([0], 2) - A4.gen(1)


def test_parse_unsorted_monomial_normalizes():
    assert A4.parse("t1^t0") == -A4.monomial([0, 1])


def test_parse_float_mode_roundtrip():
    x = F4.scalar(2.5) + F4.monomial([0, 2], -1e-9)
    assert F4.parse(str(x)) == x


def test_parse_rejects_garbage():
    for bad in ("", "1 +", "2 t0", "t9"):
        with pytest.raises(GrassmannError):
            A4.parse(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(GrassmannError, match="zero denominator"):
        A4.parse("1 + 1/0*t0^t1")
    # float mode reads decimals only
    with pytest.raises(GrassmannError, match="could not convert"):
        F4.parse("1 + 1/0*t0^t1")


def test_parse_dense_element_roundtrip():
    # every one of the 2^11 monomials, with distinct signed coefficients
    for mode, coeff in ((RATIONAL, lambda m: Fraction((-1) ** m * (m + 1), m % 7 + 1)),
                        (FLOAT, lambda m: (-1) ** m * (m + 1) / 7.0)):
        alg = GrassmannAlgebra(11, mode)
        x = alg.element({m: coeff(m) for m in range(1 << 11)})
        assert len(x.terms) == 1 << 11
        assert alg.parse(str(x)) == x


# -- structure ---------------------------------------------------------------

def test_parity_queries():
    assert A4.zero().is_even() and A4.zero().is_odd()
    assert A4.one().is_even() and not A4.one().is_odd()
    assert A4.gen(0).is_odd()
    mixed = A4.one() + A4.gen(0)
    assert not mixed.is_even() and not mixed.is_odd()
    assert mixed.parity() is None


def test_body_soul_split():
    x = A4.scalar(3) + A4.monomial([0, 1], 2)
    assert x.body == 3
    assert x.soul == A4.monomial([0, 1], 2)
    assert (x.soul ** 2).is_zero() or x.soul ** 2 == A4.zero()


def test_float_scalar_rejected_in_rational_mode():
    with pytest.raises(GrassmannError):
        A4.scalar(0.5)


# -- hypothesis properties ----------------------------------------------------

def elements(algebra, max_terms=4, odd_only=False, even_only=False):
    n = algebra.num_generators
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    if odd_only:
        masks = masks.filter(lambda m: m.bit_count() % 2 == 1)
    if even_only:
        masks = masks.filter(lambda m: m.bit_count() % 2 == 0)
    coeffs = st.integers(min_value=-9, max_value=9).map(Fraction)
    return st.dictionaries(masks, coeffs, max_size=max_terms).map(algebra.element)


A6 = GrassmannAlgebra(6, RATIONAL)


@settings(max_examples=150, deadline=None)
@given(elements(A6), elements(A6), elements(A6))
def test_associativity_and_distributivity(x, y, z):
    assert gmul(gmul(x, y), z) == gmul(x, gmul(y, z))
    assert gmul(x, y + z) == gmul(x, y) + gmul(x, z)


@settings(max_examples=150, deadline=None)
@given(elements(A6, odd_only=True), elements(A6, odd_only=True))
def test_odd_elements_anticommute(x, y):
    assert gmul(x, y) == -gmul(y, x)


@settings(max_examples=150, deadline=None)
@given(elements(A6), elements(A6))
def test_parity_of_products(x, y):
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        return
    p = gmul(x, y).parity()
    assert p is None or p == (px ^ py)


@settings(max_examples=100, deadline=None)
@given(elements(A6, even_only=True))
def test_ginv_roundtrip(x):
    if x.body == 0:
        return
    assert gmul(x, ginv(x)) == A6.one()


@settings(max_examples=100, deadline=None)
@given(elements(A6, even_only=True))
def test_gsqrt_of_square(y):
    if y.body <= 0:
        return
    x = gmul(y, y)
    assert gsqrt(x) == y
