import contextlib
import hashlib
import math
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from superpenner import grassmann
from superpenner.grassmann import (_CLASSES, _INDICES, FLOAT, RATIONAL, GrassmannAlgebra,
                                   GrassmannElement, GrassmannError, _dense_plan, _dense_terms,
                                   _plan, _scan_terms, _solve_weights, gdiv, ginv, ginvsqrt, glog,
                                   gmul, gsqrt)

from helpers import (fraction_log, fraction_power, fraction_quotient, is_normal,
                     reference_class_sums, reference_parse_terms, reference_scan_solve, reference_sign, weight_mask)


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


@pytest.mark.parametrize("body", [1e157, 1e-150, 1e200])
def test_float_series_hold_at_extreme_bodies(body):
    # the soul is 1000 times the body, so its plain powers over- or underflow
    x = F4.element({0: body, 0b0011: 1000 * body, 0b1100: -500 * body})
    assert gmul(x, ginv(x)).isclose(F4.one(), 1e-9)
    r = ginvsqrt(x)
    assert gmul(gmul(r, r), x).isclose(F4.one(), 1e-9)
    root = gsqrt(x)
    assert gmul(root, root).isclose(x, 1e-9 * body)


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
    for alg in (A4, F4):
        with pytest.raises(GrassmannError, match="zero denominator"):
            alg.parse("1 + 1/0*t0^t1")


def test_parse_float_mode_reads_fractions():
    # what a rational-mode flip writes loads in float mode too
    assert F4.parse("9/16") == F4.scalar(0.5625)
    assert F4.parse("-3/5*t0 + 4/5*t1") == F4.monomial([0], -0.6) + F4.monomial([1], 0.8)


def test_parse_rejects_non_finite_float_coefficients():
    for bad in ("1e999", "1e400*t0^t1", "2 - 1e309*t1", "1e308*t0 + 1e308*t0"):
        with pytest.raises(GrassmannError):
            F4.parse(bad)
    # exact mode holds these coefficients exactly
    assert A4.parse("1e400*t0^t1") == A4.monomial([0, 1], 10 ** 400)


def test_float_scalars_must_be_finite():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(GrassmannError, match="non-finite"):
            F4.scalar(value)


def test_parse_sorts_generators_into_a_signed_monomial():
    assert A4.parse("t2^t0") == -A4.monomial([0, 2])
    assert A4.parse("t1^t1").is_zero()
    # reversing three generators takes three transpositions
    assert A4.parse("3*t3^t1^t0") == A4.monomial([0, 1, 3], -3)
    assert A4.monomial([3, 1, 0], 3) == A4.monomial([0, 1, 3], -3)
    assert A4.monomial([2, 2]).is_zero()


def test_parse_dense_element_roundtrip():
    # every one of the 2^11 monomials, with distinct signed coefficients
    for mode, coeff in ((RATIONAL, lambda m: Fraction((-1) ** m * (m + 1), m % 7 + 1)),
                        (FLOAT, lambda m: (-1) ** m * (m + 1) / 7.0)):
        alg = GrassmannAlgebra(11, mode)
        x = alg.element({m: coeff(m) for m in range(1 << 11)})
        assert len(x.terms) == 1 << 11
        assert alg.parse(str(x)) == x


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_parse_sums_repeated_monomials(mode):
    alg = GrassmannAlgebra(3, mode)
    x = alg.parse("1/3*t0 + 1/6*t0")
    assert x.terms == {1: Fraction(1, 2)}
    assert str(x) == ("1/2*t0" if mode == RATIONAL else "0.5*t0")
    y = alg.parse("t0 - t0 + 2")
    assert y.terms == {0: 2} and y == alg.scalar(2)
    assert str(y) == ("2" if mode == RATIONAL else "2.0")
    assert alg.parse("t0^t1 + t1^t0 - 3*t2 + t2").terms == {4: -2}
    assert alg.parse("1/3 - 1/3").is_zero()


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_terms_is_a_fresh_map(mode):
    alg = GrassmannAlgebra(3, mode)
    x = alg.parse("1 + 1/2*t0^t1")
    terms = x.terms
    terms[3] = 0
    del terms[0]
    assert x == alg.parse("1 + 1/2*t0^t1")
    assert x.terms == {0: 1, 3: Fraction(1, 2)}


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


# -- text grammar ----------------------------------------------------------------

F6 = GrassmannAlgebra(6, FLOAT)
SPACE = st.sampled_from(["", " ", "  ", "\t"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([A6, F6]).flatmap(lambda alg: elements(alg, max_terms=8)))
def test_parse_inverts_render(x):
    assert x.algebra.parse(str(x)) == x


@st.composite
def spelled_elements(draw):
    """(algebra, text, element): free spacing around signs, '*' and '^',
    sign runs, bare monomials and implicit coefficients; the element is
    built term by term with GrassmannAlgebra.monomial."""
    alg = draw(st.sampled_from([A6, F6]))
    terms = draw(st.lists(st.tuples(
        st.lists(st.sampled_from("+-"), max_size=3),
        st.none() | st.integers(min_value=0, max_value=99).map(lambda k: Fraction(k, 4)),
        st.lists(st.integers(min_value=0, max_value=5), max_size=3)),
        min_size=1, max_size=5))
    text = draw(SPACE)
    expected = alg.zero()
    for k, (signs, coeff, indices) in enumerate(terms):
        if k and not signs:
            signs = ["+"]
        if coeff is None and not indices:
            coeff = Fraction(1)
        text += "".join(draw(SPACE) + sign + draw(SPACE) for sign in signs)
        if coeff is not None:
            text += draw(st.sampled_from([str(coeff), repr(float(coeff))]))
            if indices:
                text += draw(SPACE) + "*" + draw(SPACE)
        text += "".join((draw(SPACE) + "^" + draw(SPACE) if j else "") + "t%d" % i
                        for j, i in enumerate(indices))
        sign = -1 if signs.count("-") % 2 else 1
        expected = expected + alg.monomial(indices, sign * (1 if coeff is None else coeff))
    return alg, text + draw(SPACE), expected


@settings(max_examples=300, deadline=None)
@given(spelled_elements())
def test_parse_accepts_spacing_and_sign_variants(case):
    alg, text, expected = case
    assert alg.parse(text) == expected


@pytest.mark.parametrize("text", ["1 2", "t0 t1", "t0t1", "3/4 1/4", "2t0", "2*", "1 + 2*"])
def test_parse_rejects_terms_without_an_operator(text):
    for alg in (A4, F4):
        with pytest.raises(GrassmannError, match="expected term at position"):
            alg.parse(text)


@pytest.mark.parametrize("text, position", [
    ("\u0662", 0), ("t\u0660", 0), ("1/\u0662", 1), ("2*t\u0661", 0), ("1 + \uff12*t0", 1),
])
def test_parse_reads_only_ascii_digits(text, position):
    for alg in (A4, F4):
        with pytest.raises(GrassmannError, match="expected term at position %d" % position):
            alg.parse(text)


@settings(max_examples=500)
@given(st.sampled_from([A6, F6]), st.text(alphabet="t0123456789+-*^/.eE \t", max_size=40))
def test_parse_accepts_or_raises_grassmann_error(alg, text):
    # default deadline: a slow exponent or index path fails here instead of stalling
    assert_bulk_reads_as_the_loop(alg.num_generators, text)
    try:
        x = alg.parse(text)
    except GrassmannError:
        return
    assert alg.parse(str(x)) == x


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "2 + 1" + "0" * 5000,
                                  "t20000", "t999999999", "t" + "1" * 5000],
                         ids=["exponent", "negative-exponent", "long-numeral",
                              "index", "large-index", "long-index"])
def test_parse_bounds_numerals_and_indices(text):
    for alg in (A4, F4):
        with pytest.raises(GrassmannError):
            alg.parse(text)


# -- bulk reading against the term loop ------------------------------------------
# parse_element is the term loop _parse_terms.  The float bulk reader
# _parse_rendered reads rendered text as the term loop reads it, and refuses
# every other text; what it reads has its nonzero terms and their signs
# where rational mode's term loop has them.


def parse_outcome(parse, alg, text):
    """parse(alg, text) as its numerators, float bits and dict order kept,
    and denominator, or as the message of the GrassmannError it raised."""
    try:
        x = parse(alg, text)
    except GrassmannError as exc:
        return "error: %s" % exc
    if alg.mode == FLOAT:
        return float_bits(x)
    return [(m, type(c), c) for m, c in x.num.items()], x.den


def float_bits(x):
    """A float element's numerators by float bits, in dict order, and den."""
    return [(m, c.hex()) for m, c in x.num.items()], x.den


def assert_bulk_reads_as_the_loop(n, text):
    """The float bulk read of text on n generators: None, or the element
    the float term loop gives, whose terms and term signs are those of the
    rational term loop's element, which it reads without error."""
    alg = GrassmannAlgebra(n, FLOAT)
    batch = grassmann._parse_rendered(alg, [text])
    if batch is None:
        return None
    (x,) = batch
    assert parse_outcome(lambda *_: x, alg, text) == parse_outcome(
        grassmann._parse_terms, alg, text)
    exact = grassmann._parse_terms(GrassmannAlgebra(n, RATIONAL), text)
    assert [(m, c > 0) for m, c in x.num.items()] == [(m, c > 0) for m, c in exact.num.items()]
    return x


# helpers.reference_parse_terms is the term loop with its own decimal reader
# and a running lcm; _parse_terms reads literals with Fraction and sums per
# monomial, and must agree with it exactly, errors included.
def assert_loop_parses_as_the_reference(alg, text):
    assert parse_outcome(grassmann._parse_terms, alg, text) == parse_outcome(
        reference_parse_terms, alg, text)


# repr forms the float strategy may miss: short and 3-digit exponents
FLOAT_REPRS = [1e-05, -2.5e-07, 1e+16, 1.5e-300, -2e+200, 5e-324, 1.7976931348623157e+308]


@st.composite
def rendered_texts(draw, alg=None):
    """(algebra, text): a random element on n <= 10 generators, rendered;
    one of alg when it is given."""
    if alg is not None:
        n, mode = alg.num_generators, alg.mode
    else:
        n = draw(st.integers(min_value=0, max_value=10))
        mode = draw(st.sampled_from([RATIONAL, FLOAT]))
    if mode == FLOAT:
        coeffs = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FLOAT_REPRS)
    else:
        coeffs = st.fractions(max_denominator=10 ** 6) | st.integers(-10 ** 30, 10 ** 30)
    alg = GrassmannAlgebra(n, mode)
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=(1 << n) - 1), coeffs,
                                 max_size=12))
    return alg, str(alg.element(terms))


PARSE_ALPHABET = "0123456789./eE+-*t^ \t"


def mutated(draw, text):
    """text with up to three characters replaced, deleted or inserted."""
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        char = draw(st.sampled_from(PARSE_ALPHABET))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if edit == "replace" else "") + text[at + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(rendered_texts())
def test_rendered_text_is_read_in_bulk_as_the_loop_reads_it(case):
    alg, text = case
    x = assert_bulk_reads_as_the_loop(alg.num_generators, text)
    # fractions a/b and 3-digit exponents are left to the loop
    if "/" in text or re.search(r"e[-+]?\d{3}", text):
        assert x is None
    elif alg.mode == FLOAT:
        assert x is not None


@settings(max_examples=200, deadline=None)
@given(rendered_texts(GrassmannAlgebra(8, FLOAT)) | rendered_texts(GrassmannAlgebra(3, FLOAT)))
def test_float_bulk_read_keeps_the_exact_terms_and_signs(case):
    # the float text of an element on 3 or 8 generators is read in bulk
    # unless it has a 3-digit exponent, with its terms and their signs where
    # the rational term loop reads them
    alg, text = case
    x = assert_bulk_reads_as_the_loop(alg.num_generators, text)
    assert x is not None or re.search(r"e[-+]?\d{3}", text)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_mutated_rendered_text_parses_as_the_loop_parses_it(data):
    alg, text = data.draw(rendered_texts())
    assert_bulk_reads_as_the_loop(alg.num_generators, mutated(data.draw, text))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_batch_reads_each_text_as_it_is_read_alone(data):
    # _parse_rendered splits and converts the terms of all its texts at
    # once; each element must be the one its text gives alone, float bits
    # and dict order included, and a batch is refused if any of its texts
    # is refused alone or its coefficient sum overflows.  Mutated texts
    # make some batches refused.
    alg, text = data.draw(rendered_texts())
    n = alg.num_generators
    texts = [text]
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        other = data.draw(rendered_texts(alg))[1]
        texts.append(mutated(data.draw, other) if data.draw(st.integers(0, 5)) == 0 else other)
    alone = [assert_bulk_reads_as_the_loop(n, t) for t in texts]
    batch = grassmann._parse_rendered(GrassmannAlgebra(n, FLOAT), texts)
    if batch is None:
        assert None in alone or not math.isfinite(
            sum(c for x in alone for c in x.num.values()))
        return
    assert list(map(float_bits, batch)) == list(map(float_bits, alone))


def test_an_empty_batch_reads_no_elements():
    assert grassmann._parse_rendered(F4, []) == []
    assert grassmann._parse_rendered(F4, ["1", "2*t0\n + 1"]) is None


def test_parse_element_is_the_term_loop(monkeypatch):
    # parse_element never takes the bulk reader, in either mode
    def refuse(*args):
        raise AssertionError("parse_element called _parse_rendered")

    monkeypatch.setattr(grassmann, "_parse_rendered", refuse)
    looped = []
    loop = grassmann._parse_terms
    monkeypatch.setattr(grassmann, "_parse_terms",
                        lambda algebra, text: looped.append(text) or loop(algebra, text))
    rng = random.Random(34)
    for alg in (A4, F4):
        texts = [str(alg.element({m: Fraction(rng.randint(-9, 9), 4) for m in range(16)}))
                 for _ in range(10)] + ["0", "1", "2.5*t0 - t1^t2"]
        looped.clear()
        for text in texts:
            assert alg.parse(text) == loop(alg, text)
        assert looped == texts


@pytest.mark.parametrize("text", [
    "1 - 2*t0", "-1 - 2*t0^t1 - 3*t2", "5*", "5* + t0", "1 + 5*", "1e", "1e*t0", "2 - 1e*t1",
    "t0t1", "2*t0t1", "1 + 2*t0t1", "2*t1^t0", "2*t1^t1", "2*t0 + 3*t0", "2*t01", "2*t0^",
    ".-5", "1/-2", "1/+2", "3/", "/4", "1.5/2", "1e-5/2", "1e099", "1e-700", "0e700",
    "0*t0", "-0.0*t0 + 1", "2*t0^t9", "1 +  2", "1 + -2", "1 - -2", "+5", "-.5", "1.e5",
    "e1", "-e1", ".e1", "-.e1", ".", "1.25 + .", "1.25 - .*t0", "1e5 + +.e-2",
    "1/3*t0 + 1/6*t0", "2/4 - 1/2", "1/3*t0 - 3/9*t0 + t0", "3/4 + 5/6*t1 - 7/10*t1^t0",
    "1e400*t0 + 1e-400", "9" * 20 + "/7", "3/0", "1e99999", "t2^t2 + 1/2", "1 + -2/3",
    "2.50*t0 + 0.5e1*t0", "1e308*t0 + 1e308*t0", "0/5*t0 + 1"])
def test_edge_spellings_parse_as_the_loop_parses_them(text):
    assert_bulk_reads_as_the_loop(4, text)
    for alg in (A4, F4):
        assert_loop_parses_as_the_reference(alg, text)


@st.composite
def mixed_fraction_texts(draw):
    """(n, text): fractions a/b over mixed, unreduced denominators, with
    decimals and exponents among them, on monomials from a small pool, so
    that monomials repeat and their terms are summed."""
    n = draw(st.integers(min_value=0, max_value=4))
    indices = st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=2)
    coeffs = st.one_of(
        st.tuples(st.integers(min_value=0, max_value=99),
                  st.integers(min_value=0, max_value=36)).map(lambda pq: "%d/%d" % pq),
        st.decimals(min_value=0, max_value=100, places=3).map(str),
        st.tuples(st.integers(min_value=0, max_value=99),
                  st.integers(min_value=-30, max_value=30)).map(lambda pe: "%de%d" % pe))
    text = ""
    for k in range(draw(st.integers(min_value=1, max_value=8))):
        sign = draw(st.sampled_from("+-"))
        coeff = draw(st.none() | coeffs)
        mono = "^".join("t%d" % i for i in (draw(indices) if n else []))
        term = coeff if not mono else mono if coeff is None else coeff + "*" + mono
        text += (" %s " % sign if k else sign.strip("+")) + (term or "1")
    return n, text


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_term_loop_parses_as_the_reference_loop(data):
    # numerators, float bits, dict order and den, or the same error message
    source = data.draw(st.sampled_from(["rendered", "mutated", "fuzzed", "fractions"]))
    if source in ("rendered", "mutated"):
        alg, text = data.draw(rendered_texts())
        n = alg.num_generators
        if source == "mutated":
            text = mutated(data.draw, text)
    elif source == "fuzzed":
        n = data.draw(st.integers(min_value=0, max_value=6))
        text = data.draw(st.text(alphabet=PARSE_ALPHABET, max_size=40))
    else:
        n, text = data.draw(mixed_fraction_texts())
    for mode in (RATIONAL, FLOAT):
        assert_loop_parses_as_the_reference(GrassmannAlgebra(n, mode), text)


# -- kernel oracles --------------------------------------------------------------
# Per-bit sign product and the per-function series loops, kept here as the
# reference that gmul and the shared solve must match exactly.


def reference_product(x, y):
    """The {mask: Fraction} map of x * y, one Fraction per term pair."""
    terms = {}
    for s, cs in x.terms.items():
        for t, ct in y.terms.items():
            if not s & t:
                terms[s | t] = terms.get(s | t, 0) + cs * ct * reference_sign(s, t)
    return {m: c for m, c in terms.items() if c != 0}


def reference_gmul(x, y):
    return GrassmannElement(x.algebra, reference_product(x, y))


def reference_soul_powers(x):
    """Yield (k, soul**k) for k = 1, 2, ... until the power vanishes."""
    s = x.soul
    power = s
    k = 1
    while not power.is_zero():
        yield k, power
        power = reference_gmul(power, s)
        k += 1


def reference_power(x, alpha, root):
    """x**alpha = root * sum_k C(alpha, k) (s/b)**k with root = b**alpha."""
    inv_b = 1 / x.body
    result = x.algebra.scalar(root)
    binom = Fraction(1)
    for k, power in reference_soul_powers(x):
        binom = binom * (alpha - (k - 1)) / k
        result = result + power * (root * binom * inv_b ** k)
    return result


def reference_log(x):
    """log(x) for body 1: sum_{k>=1} (-1)**(k+1) s**k / k."""
    result = x.algebra.zero()
    for k, power in reference_soul_powers(x):
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


def sparse_elements(draw, n, even, max_terms):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    if even:
        masks = masks.filter(lambda m: m.bit_count() % 2 == 0)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    alg = GrassmannAlgebra(n, RATIONAL)
    return alg.element(draw(st.dictionaries(masks, coeffs, max_size=max_terms)))


@st.composite
def product_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    return sparse_elements(draw, n, False, 12), sparse_elements(draw, n, False, 12)


@st.composite
def even_with_square_body(draw):
    """(x, sqrt(body)): an even element whose body is a rational square."""
    n = draw(st.integers(min_value=0, max_value=12))
    soul = sparse_elements(draw, n, True, 8).soul
    root = draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    return soul + root * root, root


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_gmul_matches_per_bit_sign_reference(pair):
    x, y = pair
    assert gmul(x, y) == reference_gmul(x, y)
    assert gmul(y, x) == reference_gmul(y, x)


@st.composite
def dense_elements(draw, n):
    """A rational element on n generators with at least half of the 2**n
    monomials, of both parities when n >= 1."""
    rng = draw(st.randoms(use_true_random=False))
    size = draw(st.integers(min_value=(1 << n) - (1 << n) // 2, max_value=1 << n))
    masks = rng.sample(range(1 << n), size)
    assume(n == 0 or len({m.bit_count() & 1 for m in masks}) == 2)
    alg = GrassmannAlgebra(n, RATIONAL)
    return alg.element({m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                        for m in masks})


@st.composite
def dense_operands(draw):
    """(x, y, z): x and y dense, z sparse, on the same n <= 9 generators."""
    n = draw(st.integers(min_value=0, max_value=9))
    return (draw(dense_elements(n)), draw(dense_elements(n)),
            sparse_elements(draw, n, False, 12))


@settings(max_examples=40, deadline=None)
@given(dense_operands())
def test_gmul_matches_reference_on_dense_operands(operands):
    # dense rational operands take the dense path, sparse ones scan
    x, y, z = operands
    for left, right in ((x, y), (y, x), (x, z), (z, x)):
        assert gmul(left, right) == reference_gmul(left, right)


@st.composite
def shaped_elements(draw, n):
    """A rational element on n generators in a shape that flips multiply:
    full in one parity, an even soul, a power of one, mixed or sparse."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["even", "odd", "soul", "soul power", "mixed", "sparse"]))
    alg = GrassmannAlgebra(n, RATIONAL)

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    if shape in ("even", "odd"):
        parity = shape == "odd"
        return alg.element({m: coeff() for m in range(1 << n) if m.bit_count() & 1 == parity})
    if shape == "mixed":
        return alg.element({m: coeff() for m in range(1 << n) if rng.random() < 0.7})
    if shape == "sparse":
        return alg.element({rng.randrange(1 << n): coeff() for _ in range(rng.randint(0, 6))})
    soul = alg.element({m: coeff() for m in range(1, 1 << n) if m.bit_count() % 2 == 0})
    if shape == "soul":
        return soul
    power = soul
    for _ in range(rng.randint(1, 3)):
        power = gmul(power, soul)
    return power


def every_class(x, y):
    """All weight classes (a, b) of x * y, whether or not gmul would take them."""
    n = x.algebra.num_generators
    return [(a, b) for a in sorted({s.bit_count() for s in x.terms})
            for b in sorted({t.bit_count() for t in y.terms}) if a + b <= n]


shaped_pairs = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.tuples(shaped_elements(n), shaped_elements(n)))


@settings(max_examples=30, deadline=None)
@given(shaped_pairs)
def test_dense_path_matches_reference_exactly(pair):
    # the dense path run in rational mode: every class, exact sums
    x, y = pair
    for left, right in ((x, y), (y, x)):
        plan = _plan(left.algebra.num_generators, every_class(left, right))
        terms, w = _dense_terms(left, right, plan)
        dense = GrassmannElement(left.algebra, terms, left.den * right.den)
        assert dense == reference_gmul(left, right)
        assert w == weight_mask(terms)


def dense_plan(x, y, solve=False):
    """_dense_plan of x * y, or with solve=True of the solve by y from
    start x, with the weight masks counted from the terms."""
    return _dense_plan(x.algebra.num_generators, len(x.num), weight_mask(x.num),
                       len(y.num), weight_mask(y.num), solve)


def as_float(x):
    alg = GrassmannAlgebra(x.algebra.num_generators, FLOAT)
    return alg.element({m: float(c) for m, c in x.terms.items()})


@settings(max_examples=30, deadline=None)
@given(shaped_pairs)
def test_float_gmul_matches_reference(pair):
    # an odd x times itself cancels exactly, leaving round-off on both
    # sides, so the scale never drops below the largest pair product
    x, y = map(as_float, pair)
    largest_pair = max(map(abs, x.terms.values()), default=0.0) * max(
        map(abs, y.terms.values()), default=0.0)
    for left, right in ((x, y), (y, x)):
        got, want = gmul(left, right), reference_gmul(left, right)
        scale = max([largest_pair, *map(abs, want.terms.values())])
        for m in set(got.terms) | set(want.terms):
            assert abs(got.terms.get(m, 0.0) - want.terms.get(m, 0.0)) <= 1e-12 * scale


def test_float_overflow_is_an_error_on_both_paths():
    F8 = GrassmannAlgebra(8, FLOAT)
    big = F8.scalar(1e200)
    assert dense_plan(big, big) is None
    with pytest.raises(GrassmannError, match="float overflow in product"):
        gmul(big, big)
    dense = F8.element({m: 1e200 for m in range(256) if m.bit_count() % 2 == 0})
    assert dense_plan(dense, dense) is not None
    with pytest.raises(GrassmannError, match="float overflow in product"):
        gmul(dense, dense)


def test_scalar_product_in_large_algebra_builds_no_class():
    for mode in (RATIONAL, FLOAT):
        alg = GrassmannAlgebra(128, mode)
        classes = len(_CLASSES)
        start = time.perf_counter()
        assert gmul(alg.scalar(3), alg.scalar(Fraction(1, 2))) == alg.scalar(Fraction(3, 2))
        assert time.perf_counter() - start < 1
        assert len(_CLASSES) == classes
        assert 128 not in _INDICES


# -- the run functions of the dense path --------------------------------------------

# float entries for the class sums: signed zeros, subnormals and products that
# underflow to subnormals or to zero
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3.3e-318, 1e-160, -1e-160, 1.0, -1.0]


def class_entries(rng, n, mode):
    """Random coefficient lists x and y of length 2**n: ints, some of them
    0 or past 64 bits, or floats, some of them special."""
    def entry():
        if mode == RATIONAL:
            return rng.choice([0, 1, -1, rng.randint(-10 ** 6, 10 ** 6),
                               rng.randint(-10 ** 30, 10 ** 30)])
        if rng.random() < 0.3:
            return rng.choice(SPECIAL_FLOATS)
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3)
    return [entry() for _ in range(1 << n)], [entry() for _ in range(1 << n)]


def exact_bits(c):
    """c's type and value, a float by its bits (so that -0.0 is not 0.0)."""
    return type(c), c.hex() if isinstance(c, float) else c


def run_mismatches(run_of, n_max, seed):
    """The classes (n, a, b, mode) on n <= n_max generators where the run
    function run_of(k) over the class rows gives other sums than
    reference_class_sums."""
    rng = random.Random(seed)
    mismatches = []
    for n in range(n_max + 1):
        for mode in (RATIONAL, FLOAT):
            x, y = class_entries(rng, n, mode)
            right = y + [-c for c in y]   # the dense right vector
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    k, rows = grassmann._weight_class(n, a, b)
                    got = run_of(k)(rows, x, right)
                    want = reference_class_sums(n, a, b, x, y)
                    if list(map(exact_bits, got)) != list(map(exact_bits, want)):
                        mismatches.append((n, a, b, mode))
    return mismatches


def mutant_run(k, grouped=False, unsigned=False):
    """A run function with one fault: grouped adds a row as p1 + (p2 + p3) +
    ..., unsigned reads the last pair's entry of y without its sign."""
    def run(rows, X, Y):
        sums = []
        for row in rows:
            left, right = list(row[:k]), list(row[k:])
            if unsigned:
                right[-1] %= len(Y) // 2
            products = [X[s] * Y[u] for s, u in zip(left, right)]
            if grouped and k >= 3:
                products[:3] = [products[0] + (products[1] + products[2])]
            total = products[0]
            for p in products[1:]:
                total = total + p
            sums.append(total)
        return sums
    return run


def test_runs_add_every_class_left_to_right():
    assert run_mismatches(grassmann._run, 8, 37) == []


def test_a_regrouped_or_unsigned_run_fails_the_class_check():
    # ints add exactly in any grouping, so only float classes catch a
    # regrouped run; a sign lost on the last pair shows in both modes
    grouped = run_mismatches(lambda k: mutant_run(k, grouped=True), 8, 37)
    unsigned = run_mismatches(lambda k: mutant_run(k, unsigned=True), 8, 37)
    assert grouped and {mode for *_, mode in grouped} == {FLOAT}
    assert {mode for *_, mode in unsigned} == {RATIONAL, FLOAT}


def test_runs_past_one_expression_compile_in_chunks(monkeypatch):
    # class (7, 7) on 14 generators is one run of 3432 pairs, which as one
    # expression is past the compiler's recursion limit.  It must build and
    # sum under the default limit and under a limit of 100, set on a new
    # thread so that the test's own stack is not counted
    for name in ("_CLASSES", "_RUNS", "_INDICES", "_WEIGHT_MONOMIALS"):
        monkeypatch.setattr(grassmann, name, {})
    rng = random.Random(14)
    cases = [class_entries(rng, 14, mode) for mode in (RATIONAL, FLOAT)]
    wants = [list(map(exact_bits, reference_class_sums(14, 7, 7, x, y))) for x, y in cases]

    def build():
        grassmann._CLASSES.clear()
        grassmann._RUNS.clear()
        k, rows = grassmann._weight_class(14, 7, 7)
        assert (k, len(rows), len(rows[0])) == (3432, 1, 6864)
        run = grassmann._run(k)
        return [list(map(exact_bits, run(rows, x, y + [-c for c in y]))) for x, y in cases]

    assert build() == wants
    results = []

    def at_low_limit():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            results.append(build())
        except RecursionError as exc:
            results.append(exc)
        finally:
            sys.setrecursionlimit(limit)

    thread = threading.Thread(target=at_low_limit)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert results == [wants]


def dense_chain_results():
    """A seeded chain of dense float products, quotients, square roots and
    inverse square roots on 8 generators, every result in order."""
    rng = random.Random(2024)
    alg = GrassmannAlgebra(8, FLOAT)

    def dense(parity, body=0.0):
        return alg.element({m: rng.uniform(-1, 1) + (body if m == 0 else 0.0)
                            for m in range(256) if m.bit_count() % 2 == parity})

    z = dense(0, 2.0)
    results = []
    for _ in range(4):
        y, w, odd = dense(0, 2.0), dense(0, 2.0), dense(1)
        p = gmul(z, y)
        q = gmul(odd, p)
        r = gdiv(q, w)
        root = gsqrt(p)
        inverse = ginvsqrt(gdiv(p, w))
        z = gmul(root, inverse)
        results += [p, q, r, root, inverse, z, gmul(r, odd)]
    return results


# sha256 over the float bits and term order of dense_chain_results, recorded on
# CPython 3.11.7.  sum() compensates float sums from CPython 3.12 on; the runs
# add their products with +, so every interpreter must give these bits
DENSE_CHAIN_DIGEST = "cfd891d9941071ccd27674a4459b93c2c9e21310703ace59d9d9bf4a2583b956"


def test_dense_float_bits_are_the_same_on_every_interpreter(monkeypatch):
    # glog is left out: math.log comes from the platform's libm
    monkeypatch.setattr(grassmann, "_scan_pairs", forbidden)   # every step is dense
    digest = hashlib.sha256()
    for z in dense_chain_results():
        digest.update(repr([(m, c.hex()) for m, c in z.num.items()]).encode())
    assert digest.hexdigest() == DENSE_CHAIN_DIGEST


def test_refused_plan_builds_no_table(monkeypatch):
    # a solve at n = 24 whose scan count passes 2**24 while its classes hold
    # far more entries is refused from counts alone: building its groups
    # would cache an index tuple of 2**25 + 1 ints for the life of the process
    monkeypatch.setattr(grassmann, "_PLANS", {})
    monkeypatch.setattr(grassmann, "_indices", forbidden)
    monkeypatch.setattr(grassmann, "_weight_monomials", forbidden)
    wy = sum(1 << w for w in range(0, 25, 2))   # a body and every even soul weight
    ylen = 5000
    assert ylen * ylen > 1 << 24
    assert _dense_plan(24, 1, 1, ylen, wy, solve=True) is None
    assert grassmann._PLANS[24, 1, wy, True][1] is None


def test_refused_plan_is_built_once_operands_accept_it(monkeypatch):
    monkeypatch.setattr(grassmann, "_PLANS", {})
    n, w = 6, 0b1111111
    classes = [(a, b) for a in range(n + 1) for b in range(n + 1) if a + b <= n]
    plan = _plan(n, classes)
    assert plan[0] == 64 + 3 ** 6
    assert _dense_plan(n, 10, w, 10, w) is None   # 100 pairs: over 2**6, under the entries
    assert grassmann._PLANS == {(n, w, w, False): (plan[0], None)}
    assert _dense_plan(n, 10, w, 10, w) is None
    assert _dense_plan(n, 30, w, 30, w) == plan
    assert grassmann._PLANS == {(n, w, w, False): plan}
    assert _dense_plan(n, 10, w, 10, w) is None


@st.composite
def divisors(draw, n):
    """An even rational element with nonzero body on n generators: a
    scalar, or a body plus a soul that is full, sparse, or full in its
    high weights only."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["scalar", "full", "sparse", "high"]))
    alg = GrassmannAlgebra(n, RATIONAL)

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    souls = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 0]
    if shape == "sparse":
        souls = rng.sample(souls, min(len(souls), rng.randint(1, 4)))
    elif shape == "high":
        souls = [m for m in souls if m.bit_count() >= max(2, n - 3)]
    elif shape == "scalar":
        souls = []
    return alg.element({0: coeff(), **{m: coeff() for m in souls}})


quotient_pairs = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.tuples(shaped_elements(n), divisors(n)))


def forbidden(*args):
    raise AssertionError("kernel called where another path was required")


def every_solve_plan(n, xlen, wx, ylen, wy, solve=False):
    """_dense_plan, but with a dense plan for every solve, however small,
    over every class the solve can use."""
    if not solve:
        return _dense_plan(n, xlen, wx, ylen, wy)
    souls = [c for c in range(1, wy.bit_length()) if wy >> c & 1]
    weights = _solve_weights(n, [a for a in range(wx.bit_length()) if wx >> a & 1], souls)
    return _plan(n, [(a, c) for a in weights for c in souls if a + c <= n], weights)


@contextlib.contextmanager
def dense_solves():
    """Route every solve through the dense path, and no pair through the scan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_dense_plan", every_solve_plan)
        patch.setattr(grassmann, "_scan_pairs", forbidden)
        yield


@contextlib.contextmanager
def scan_solves():
    """Route every solve through the scan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_dense_plan", lambda *args, solve=False:
                      None if solve else _dense_plan(*args))
        yield


@settings(max_examples=60, deadline=None)
@given(quotient_pairs)
def test_dense_quotient_matches_reference_exactly(pair):
    # the dense quotient run in rational mode: every class, exact sums
    x, y = pair
    with dense_solves():
        quotient = gdiv(x, y)
    assert quotient == reference_gmul(x, reference_power(y, -1, 1 / y.body))
    assert gdiv(x, y) == quotient   # gdiv by its own dispatch


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=9).flatmap(divisors),
       st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(5, 3)]))
def test_dense_powers_and_log_match_reference_exactly(y, root):
    # the dense power and log solves run in rational mode: every class, exact sums
    body = root * root
    y = y.soul + body
    unit = y * (1 / body)
    with dense_solves():
        got = [ginv(y), gsqrt(y), ginvsqrt(y), glog(unit)]
    assert got == [reference_power(y, -1, 1 / body),
                   reference_power(y, Fraction(1, 2), root),
                   reference_power(y, Fraction(-1, 2), 1 / root),
                   reference_log(unit)]


@settings(max_examples=60, deadline=None)
@given(quotient_pairs)
def test_float_gdiv_matches_reference(pair):
    # the same relative bound as the float product; the recursion divides
    # by the body, so the scale covers |q| |soul(y)| / |b| and |x| / |b|
    x, y = pair
    want = as_float(reference_gmul(x, reference_power(y, -1, 1 / y.body)))
    fx, fy = as_float(x), as_float(y)
    got = gdiv(fx, fy)
    b = abs(fy.body)
    largest = max(map(abs, want.terms.values()), default=0.0)
    scale = max(largest, largest * max(map(abs, fy.soul.terms.values()), default=0.0) / b,
                max(map(abs, fx.terms.values()), default=0.0) / b)
    for m in set(got.terms) | set(want.terms):
        assert abs(got.terms.get(m, 0.0) - want.terms.get(m, 0.0)) <= 1e-12 * scale


def test_float_gdiv_takes_the_dense_path_on_dense_operands():
    F8 = GrassmannAlgebra(8, FLOAT)
    x = F8.element({m: 1.0 + m / 256 for m in range(256) if m.bit_count() % 2 == 0})
    y = F8.element({m: 2.0 if m == 0 else 0.5 - m / 512 for m in range(256)
                    if m.bit_count() % 2 == 0})
    assert dense_plan(x, y, solve=True) is not None
    q = gdiv(x, y)
    assert q == x / y
    assert (q * y).isclose(x, 1e-12)


def test_float_quotient_overflow_is_an_error_on_both_paths():
    F8 = GrassmannAlgebra(8, FLOAT)
    big, tiny = F8.scalar(1e300), F8.scalar(1e-10)
    assert dense_plan(big, tiny, solve=True) is None
    with pytest.raises(GrassmannError, match="float overflow in"):
        gdiv(big, tiny)
    dense = F8.element({m: 1e300 for m in range(256) if m.bit_count() % 2 == 0})
    small = F8.element({m: 1e-10 for m in range(256) if m.bit_count() % 2 == 0})
    assert dense_plan(dense, small, solve=True) is not None
    with pytest.raises(GrassmannError, match="float overflow in quotient"):
        gdiv(dense, small)


def test_gdiv_keeps_the_inverse_messages_on_both_paths():
    F8 = GrassmannAlgebra(8, FLOAT)
    dense = F8.element({m: 1.0 for m in range(256)})
    even_soul = F8.element({m: 1.0 for m in range(1, 256) if m.bit_count() % 2 == 0})
    odd = F8.element({m: 1.0 for m in range(256) if m.bit_count() % 2 == 1})
    for x in (A4.one(), F4.one(), dense):
        alg = x.algebra
        zero_body = even_soul if x is dense else alg.monomial([0, 1])
        odd_y = odd if x is dense else alg.gen(1)
        dense_path = dense_plan(x, odd_y, solve=True)
        assert (x is dense) == (dense_path is not None)
        with pytest.raises(GrassmannError, match="zero body: .* is not invertible"):
            gdiv(x, zero_body)
        with pytest.raises(GrassmannError, match="inverse requires even parity"):
            gdiv(x, odd_y)
        with pytest.raises(GrassmannError, match="zero body"):
            gdiv(x, alg.zero())


@settings(max_examples=100, deadline=None)
@given(even_with_square_body())
def test_series_match_reference_series(case):
    x, root = case
    assert ginv(x) == reference_power(x, -1, 1 / x.body)
    assert gsqrt(x) == reference_power(x, Fraction(1, 2), root)
    assert ginvsqrt(x) == reference_power(x, Fraction(-1, 2), 1 / root)
    unit = x * (1 / x.body)
    assert glog(unit) == reference_log(unit)


@settings(max_examples=100, deadline=None)
@given(even_with_square_body())
def test_ginvsqrt_squared_inverts(case):
    x, root = case
    r = ginvsqrt(x)
    assert gmul(gmul(r, r), x) == x.algebra.one()
    assert r == ginv(gsqrt(x))
    assert r.body == 1 / root


def test_ginvsqrt_rules_follow_gsqrt():
    assert ginvsqrt(A4.scalar(Fraction(9, 16))) == A4.scalar(Fraction(4, 3))
    with pytest.raises(GrassmannError, match="square"):
        ginvsqrt(A4.scalar(2))
    with pytest.raises(GrassmannError, match="positive"):
        ginvsqrt(A4.scalar(-4))
    with pytest.raises(GrassmannError, match="even parity"):
        ginvsqrt(A4.one() + A4.gen(0))
    assert ginvsqrt(F4.scalar(2.0)).body == pytest.approx(1 / math.sqrt(2))


@st.composite
def chis(draw):
    """An even chi whose body b makes both b and 1 + b rational squares."""
    n = draw(st.integers(min_value=0, max_value=10))
    soul = sparse_elements(draw, n, True, 8).soul
    p, q = draw(st.sampled_from([(3, 4), (4, 3), (5, 12), (12, 5), (8, 15), (15, 8)]))
    return soul + Fraction(p * p, q * q)


def flip_roots(chi):
    """sqrt(chi) and 1/sqrt(1 + chi), in the order superflip takes them."""
    return gsqrt(chi), ginvsqrt(1 + chi)


@settings(max_examples=100, deadline=None)
@given(chis())
def test_chi_roots_match_root_products(chi):
    sqrt_chi, r = flip_roots(chi)
    assert r == ginv(gsqrt(1 + chi))
    assert sqrt_chi * r == gsqrt(chi * ginv(1 + chi))
    # superflip's f: (ac + bd) r**2 = bd, since ac + bd = bd (1 + chi)
    assert (1 + chi) * r * r == chi.algebra.one()


def test_chi_roots_follow_the_root_rules():
    with pytest.raises(GrassmannError, match="square"):
        flip_roots(A4.scalar(2))                       # chi body not a square
    with pytest.raises(GrassmannError, match="square"):
        flip_roots(A4.one() + A4.monomial([0, 1]))     # 1 + chi body 2
    with pytest.raises(GrassmannError, match="positive"):
        flip_roots(A4.scalar(-1))
    with pytest.raises(GrassmannError, match="even parity"):
        flip_roots(A4.one() + A4.gen(0))
    chi = F4.scalar(2.0) + F4.monomial([0, 1], 0.5) + F4.monomial([2, 3], -0.25)
    sqrt_chi, r = flip_roots(chi)
    assert r.isclose(ginv(gsqrt(1 + chi)), 1e-14)
    assert (sqrt_chi * r).isclose(gsqrt(chi * ginv(1 + chi)), 1e-14)


# -- int numerators over one denominator ------------------------------------------


def fraction_sum(x, y, sign=1):
    """The {mask: Fraction} map of x + sign * y, one Fraction per term."""
    a, b = x.terms, y.terms
    sums = {m: a.get(m, 0) + sign * b.get(m, 0) for m in a.keys() | b.keys()}
    return {m: c for m, c in sums.items() if c}


exact_cases = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.tuples(shaped_elements(n), shaped_elements(n), divisors(n),
                        st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(2),
                                         Fraction(5, 3)])))


@settings(max_examples=60, deadline=None)
@given(exact_cases)
def test_exact_operations_match_fraction_oracles_in_normal_form(case):
    # every result equals its one-Fraction-per-operation oracle and is
    # stored reduced: gcd(den, numerators) = 1, no zero numerator
    x, y, d, root = case
    square = d.soul + root * root
    unit = d * (1 / d.body)
    results = [
        (gmul(x, y), reference_product(x, y)),
        (x + y, fraction_sum(x, y)),
        (x - y, fraction_sum(x, y, -1)),
        (-x, {m: -c for m, c in x.terms.items()}),
        (gdiv(x, d), fraction_quotient(x, d)),
        (ginv(d), fraction_quotient(d.algebra.one(), d)),
        (gsqrt(square), fraction_power(square, Fraction(1, 2), root)),
        (ginvsqrt(square), fraction_power(square, Fraction(-1, 2), 1 / root)),
        (glog(unit), fraction_log(unit)),
    ]
    for got, want in results:
        assert got.terms == want
        assert is_normal(got)


def test_equal_values_have_one_normal_form():
    assert A4.element({0: Fraction(2, 4)}) == A4.element({0: Fraction(1, 2)})
    x = GrassmannElement(A4, {0: 2, 3: 6}, 4)
    assert (x.num, x.den) == ({0: 1, 3: 3}, 2)
    assert x == A4.parse("1/2 + 3/2*t0^t1") == A4.parse("0.5 + 1.5*t0^t1")
    assert (A4.parse("1/2") + A4.parse("1/2")).den == 1
    assert (A4.parse("1/6*t0") + A4.parse("1/3*t0")).num == {1: 1}
    zero = A4.parse("1/2*t0") - A4.parse("1/2*t0")
    assert zero.is_zero() and zero.den == 1 and zero == A4.zero()
    assert (A4.parse("2*t0") * A4.parse("1/2*t1")).den == 1


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_equality_with_scalars_elements_and_other_types(mode):
    alg, twin = GrassmannAlgebra(3, mode), GrassmannAlgebra(3, mode)
    assert alg is not twin
    two = alg.scalar(2)
    scalars = [2, Fraction(2)] + ([2.0] if mode == FLOAT else [])
    for value in scalars:
        assert two == value and value == two
        assert not two != value
    assert alg.one() == True and alg.zero() == False and two != True   # noqa: E712
    assert two != 3 and two != Fraction(5, 2)
    # equal algebras that are distinct objects: equal values compare equal
    assert two == twin.scalar(2) and alg.gen(1) == twin.gen(1)
    assert alg.gen(1) != twin.gen(2) and alg.zero() == twin.zero()
    # a rational element never equals a float one, nor a float scalar
    other = GrassmannAlgebra(3, FLOAT if mode == RATIONAL else RATIONAL)
    for x in (alg.zero(), two, alg.gen(0)):
        y = other.zero() if x.is_zero() else other.scalar(2) if x == two else other.gen(0)
        assert x != y and y != x
    if mode == RATIONAL:
        assert two != 2.0 and 2.0 != two
    assert two.__eq__("2") is NotImplemented and two != "2"
    assert two.__eq__(None) is NotImplemented and two != None   # noqa: E711


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_negating_zero_returns_it_and_anything_else_a_new_element(mode):
    alg = GrassmannAlgebra(3, mode)
    for zero in (alg.zero(), alg.gen(0) - alg.gen(0), alg.monomial([1, 1])):
        assert zero.is_zero() and -zero is zero
    for x in (alg.gen(0), alg.scalar(3), alg.parse("1/2 + 3/4*t0^t1")):
        y = -x
        assert y is not x and y.num == {m: -c for m, c in x.num.items()}
        assert y.den == x.den and -y == x and y + x == alg.zero()


def test_rational_products_and_solves_take_the_dense_path_on_dense_operands(monkeypatch):
    A8 = GrassmannAlgebra(8, RATIONAL)
    rng = random.Random(8)

    def full_even(body):
        return A8.element({m: body if m == 0 else Fraction(rng.choice([-3, -1, 1, 2]),
                                                           rng.randint(1, 4))
                           for m in range(256) if m.bit_count() % 2 == 0})

    x, y = full_even(Fraction(3, 2)), full_even(Fraction(9, 4))
    calls = []
    dense_terms, dense_plan = grassmann._dense_terms, grassmann._dense_plan

    def plan(*args, solve=False):
        result = dense_plan(*args, solve=solve)
        calls.append(("solve plan" if solve else "product plan", result is not None))
        return result

    monkeypatch.setattr(grassmann, "_dense_plan", plan)
    monkeypatch.setattr(grassmann, "_dense_terms",
                        lambda *args: calls.append("_dense_terms") or dense_terms(*args))
    monkeypatch.setattr(grassmann, "_scan_pairs", forbidden)
    assert gmul(x, y).terms == reference_product(x, y)
    assert gdiv(x, y).terms == fraction_quotient(x, y)
    assert gsqrt(y).terms == fraction_power(y, Fraction(1, 2), Fraction(3, 2))
    assert calls == [("product plan", True), "_dense_terms", ("solve plan", True),
                     ("solve plan", True)]


@pytest.mark.parametrize("literal", [".5", "5.", "007", "2.5E-3", "1e400", "3/4", "0/7",
                                     "-0.0", "12.50e+2", "0.000e-3"])
def test_rational_parse_reads_literals_as_fraction_does(literal):
    value = Fraction(literal)
    assert A4.parse(literal).terms == ({0: value} if value else {})
    assert A4.parse("t1 + " + literal + "*t0^t2").terms == {2: 1, **({5: value} if value else {})}
    assert is_normal(A4.parse(literal))


def test_rational_parse_sums_repeated_monomials_over_one_denominator():
    x = A4.parse("1/3*t0 + 0.25*t0 - 2.5E-1*t0 + 7 - 1/6*t0 + 1e400*t1^t2 - 1e400*t2^t1")
    assert x.terms == {0: 7, 1: Fraction(1, 6), 6: 2 * 10 ** 400}
    assert is_normal(x)
    assert A4.parse("0.1*t0 - 1/10*t0 + 3").num == {0: 3}


def test_rational_parse_keeps_its_error_messages():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(GrassmannError, match="zero denominator in '3/0'"):
        A4.parse("1 + 3/0*t0")
    for numeral in ("1" * (limit + 1), "0." + "1" * (limit + 1), "1/" + "1" * (limit + 1)):
        with pytest.raises(GrassmannError, match="digit run longer than %d" % limit):
            A4.parse(numeral)
    with pytest.raises(GrassmannError, match="exponent of '1e%d' is beyond %d" % (limit + 1, limit)):
        A4.parse("1e%d" % (limit + 1))
    assert A4.parse("1e400").num == {0: 10 ** 400}


def test_float_parse_refuses_fractions_beyond_the_float_range():
    with pytest.raises(GrassmannError, match="non-finite coefficient"):
        F4.parse("1" * 400 + "/1")
    with pytest.raises(GrassmannError, match="non-finite coefficient"):
        F4.parse("t0 + " + "9" * 400 + "/3*t1")


# -- one-term scalars scale --------------------------------------------------------


def scanned(kind, x, y):
    """x * y by _scan_terms or x / y by reference_scan_solve, with gmul's
    and gdiv's float overflow message: (element, None) or (None, message)."""
    if kind == "product":
        terms, den = _scan_terms(x, y), x.den * y.den
    else:
        terms, den = reference_scan_solve(y, x.num, x.den, None)
    if x.algebra.mode == FLOAT and not all(map(math.isfinite, terms.values())):
        return None, "float overflow in %s of %d by %d terms" % (kind, len(x.num), len(y.num))
    return GrassmannElement(x.algebra, terms, den), None


@st.composite
def scaled_cases(draw):
    """(x, c) on n <= 7 generators: x a shaped element, c a nonzero
    one-term scalar of either sign.  Float cases scale x by an extreme
    power of ten and draw c from every finite float, so products and
    quotients underflow and overflow."""
    x = draw(st.integers(min_value=0, max_value=7).flatmap(shaped_elements))
    if draw(st.booleans()):
        c = draw(st.fractions(max_denominator=10 ** 6).filter(bool))
        return x, x.algebra.scalar(c)
    scale = draw(st.sampled_from([1.0, 1e300, 1e-300]))
    x = as_float(x) * scale
    c = draw(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    return x, x.algebra.scalar(c)


def float_bits(x):
    return {m: c.hex() for m, c in x.terms.items()}


@settings(max_examples=300, deadline=None)
@given(scaled_cases())
def test_scalar_scaling_matches_the_scan_and_the_solve(case):
    # bit for bit in float mode, the same normal form in rational mode, and
    # the same message when a float term overflows
    x, c = case
    for kind, left, right, run in (("product", x, c, gmul), ("product", c, x, gmul),
                                   ("quotient", x, c, gdiv)):
        want, message = scanned(kind, left, right)
        if message is not None:
            with pytest.raises(GrassmannError) as info:
                run(left, right)
            assert str(info.value) == message
            continue
        got = run(left, right)
        if x.algebra.mode == FLOAT:
            assert float_bits(got) == float_bits(want)
        else:
            assert (got.num, got.den) == (want.num, want.den)
            assert is_normal(got)


def test_scalar_scaling_drops_underflow_and_refuses_overflow():
    x = F4.element({0: 1e-200, 3: 1.0, 5: -2.0})
    assert gmul(x, F4.scalar(1e-200)).terms == {3: 1e-200, 5: -2e-200}
    assert gmul(F4.scalar(-1e-200), x).terms == {3: -1e-200, 5: 2e-200}
    assert gdiv(x, F4.scalar(1e200)).terms == {3: 1e-200, 5: -2e-200}
    big = F4.element({0: 1.0, 3: 1e300})
    with pytest.raises(GrassmannError, match=r"^float overflow in product of 2 by 1 terms$"):
        gmul(big, F4.scalar(1e10))
    with pytest.raises(GrassmannError, match=r"^float overflow in product of 1 by 2 terms$"):
        gmul(F4.scalar(-1e10), big)
    with pytest.raises(GrassmannError, match=r"^float overflow in quotient of 2 by 1 terms$"):
        gdiv(big, F4.scalar(1e-10))


def test_rational_scaling_moves_the_sign_off_the_denominator():
    x = A4.parse("3/4 - 2/3*t0^t1")
    q = gdiv(x, A4.scalar(Fraction(-9, 8)))
    assert (q.num, q.den) == ({0: -18, 3: 16}, 27)
    p = gmul(A4.scalar(Fraction(-9, 8)), x)
    assert (p.num, p.den) == ({0: -27, 3: 24}, 32)
    assert is_normal(q) and is_normal(p)


def test_scalar_operands_neither_scan_nor_solve(monkeypatch):
    for name in ("_scan_terms", "_dense_terms", "_solve", "_scan_pairs", "_class_sums"):
        monkeypatch.setattr(grassmann, name, forbidden)
    for alg in (A4, F4):
        x = alg.one() + alg.monomial([0, 1], 3) - alg.gen(2)
        c = alg.scalar(-2)
        assert gmul(x, c) == gmul(c, x) == x * -2
        assert gdiv(x, c) == x * alg.scalar(Fraction(-1, 2) if alg is A4 else -0.5)
        assert gmul(c, c) == alg.scalar(4) and gdiv(c, c) == alg.one()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4),
       st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                 st.fractions(min_value=0, max_value=10 ** 6).filter(bool)))
def test_scalar_roots_and_logs_are_their_bodies(n, body):
    # a one-term scalar goes through the solve, which divides z_0 by 1: the
    # float bits of math.sqrt and math.log, or the exact root in normal form
    if isinstance(body, float):
        alg = GrassmannAlgebra(n, FLOAT)
        cases = [(alg.scalar(b), [math.sqrt(b), 1 / math.sqrt(b), math.log(b)])
                 for b in (body, 1.0)]
    else:
        alg = GrassmannAlgebra(n, RATIONAL)
        cases = [(alg.scalar(body * body), [body, 1 / body]), (alg.one(), [1, 1, 0])]
    for x, values in cases:
        for run, value in zip((gsqrt, ginvsqrt, glog), values):
            z = run(x)
            want = alg.scalar(value)
            assert z._w == (1 if value else 0)
            if alg.mode == FLOAT:
                assert z.den == 1
                assert [(m, c.hex()) for m, c in z.num.items()] == [
                    (m, c.hex()) for m, c in want.num.items()]
            else:
                assert (z.num, z.den) == (want.num, want.den)
                assert is_normal(z)


def test_scalar_roots_and_logs_keep_their_errors(monkeypatch):
    monkeypatch.setattr(grassmann, "_solve", forbidden)
    cases = [(gsqrt, A4.gen(0), "square root requires even parity, got 1*t0"),
             (ginvsqrt, F4.gen(0), "inverse square root requires even parity, got 1.0*t0"),
             (glog, A4.gen(0), "logarithm requires even parity, got 1*t0"),
             (gsqrt, A4.scalar(-4), "square root requires positive body, got -4"),
             (ginvsqrt, F4.scalar(-4.0), "inverse square root requires positive body, got -4.0"),
             (glog, A4.zero(), "logarithm requires positive body, got 0"),
             (gsqrt, A4.scalar(Fraction(2, 9)),
              "body 2/9 is not a square of a rational; use float mode"),
             (ginvsqrt, A4.scalar(2), "body 2 is not a square of a rational; use float mode"),
             (glog, A4.scalar(4), "log of body 4 is irrational; use float mode "
                                  "(rational mode needs body 1)")]
    for run, x, message in cases:
        with pytest.raises(GrassmannError) as info:
            run(x)
        assert str(info.value) == message


# -- one solve loop ----------------------------------------------------------------


scan_solve_cases = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(shaped_elements(n), divisors(n),
                        st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(2),
                                         Fraction(5, 3)]),
                        st.sampled_from([RATIONAL, FLOAT])))


@settings(max_examples=60, deadline=None)
@given(scan_solve_cases)
def test_scan_solve_matches_its_push_form(case):
    # every solve scans (_dense_plan refuses them all) and must give what
    # the push form gives: in float mode the same bits in the same dict
    # order, since later float sums follow that order, and in rational
    # mode the same normal form
    x, d, root, mode = case
    square = d.soul + root * root
    unit = d * (1 / d.body)
    if mode == FLOAT:
        x, d, square, unit = map(as_float, (x, d, square, unit))
    solve = grassmann._solve
    kinds = []

    def checked(y, start, sden, wstart, alpha, what):
        assert wstart == weight_mask(start)
        want, want_den = reference_scan_solve(y, start, sden, alpha)
        got = solve(y, start, sden, wstart, alpha, what)
        assert got._w == weight_mask(want)
        if mode == FLOAT:
            assert want_den == got.den == 1
            assert ([(m, c.hex()) for m, c in got.num.items()]
                    == [(m, c.hex()) for m, c in want.items()])
        else:
            assert (got.num, got.den) == (want, want_den)
            assert is_normal(got)
        kinds.append(what)
        return got

    with scan_solves(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_class_sums", forbidden)
        patch.setattr(grassmann, "_solve", checked)
        gdiv(x, d)
        gsqrt(square)
        ginvsqrt(square)
        glog(square if mode == FLOAT else unit)
    # a one-term d makes every operand a one-term scalar: the quotient only
    # scales, and the roots and the log still solve
    assert kinds == (["quotient"] if len(d.num) > 1 else []) + [
        "square root", "inverse square root", "logarithm"]


# -- weight masks and cached views -------------------------------------------------


def check_mask(z):
    """z's weight mask, kernel-set or computed on first use, is the one its
    terms have, and the parity tests agree with the terms."""
    want = weight_mask(z.num)
    assert z._w is None or z._w == want
    assert grassmann._weights(z) == want
    parities = {bin(m).count("1") % 2 for m in z.num}
    assert z.is_even() == (parities <= {0}) and z.is_odd() == (parities <= {1})
    assert z.parity() == (parities.pop() if len(parities) == 1 else None)


mask_cases = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(shaped_elements(n), shaped_elements(n), divisors(n),
                        st.sampled_from([RATIONAL, FLOAT]), st.booleans()))


@settings(max_examples=60, deadline=None)
@given(mask_cases)
def test_every_result_carries_the_mask_of_its_terms(case):
    x, y, d, mode, primed = case
    square = d.soul + 4
    unit = d * (1 / d.body)
    if mode == FLOAT:
        x, y, d, square, unit = map(as_float, (x, y, d, square, unit))
    alg = x.algebra
    # float terms of weight k scaled by 10**(-60 k), so that scaling by 1e-200
    # drops every term of weight 3 or more and keeps the others
    spread = alg.element({m: c * 10.0 ** (-60 * m.bit_count()) for m, c in x.terms.items()}
                         if mode == FLOAT else x.terms)
    operands = (x, y, d, square, unit, spread)
    if primed:   # kernels then pass the operands' known masks on
        for z in operands:
            grassmann._weights(z)
    tiny = alg.scalar(1e-200 if mode == FLOAT else Fraction(-2, 3))
    results = [gmul(x, y), gmul(y, x), x * y + x, x - y, -x, -(x * y), x.soul, x ** 2,
               gmul(spread, tiny), gmul(tiny, spread), gdiv(spread, tiny),
               gmul(x, alg.scalar(3)), gdiv(x, alg.scalar(-2)),
               gdiv(x, d), ginv(d), gsqrt(square), ginvsqrt(square),
               glog(square if mode == FLOAT else unit),
               alg.parse(str(x)), alg.element(x.terms), GrassmannElement(alg, x.num, x.den)]
    n = alg.num_generators
    for left, right in ((x, y), (y, x), (x, x)):
        terms, w = _dense_terms(left, right, _plan(n, every_class(left, right)))
        assert w == weight_mask(terms)
    for route in (dense_solves, scan_solves):
        with route():
            results += [gdiv(x, d), gdiv(y, d), ginv(d), gsqrt(square), ginvsqrt(square),
                        glog(square if mode == FLOAT else unit)]
    for z in results + list(operands):
        check_mask(z)
    if mode == FLOAT and primed:   # a scaling that drops a weight drops it from the mask
        kept = {m.bit_count() for m in spread.num} & {0, 1, 2}
        assert grassmann._weights(gmul(spread, tiny)) == sum(1 << k for k in kept)


def state_of(x):
    """x's numerators in order (floats by their bits), denominator and weight mask."""
    return [(m, c.hex() if isinstance(c, float) else c) for m, c in x.num.items()], x.den, x._w


def test_no_operation_changes_an_operand():
    for mode in (RATIONAL, FLOAT):
        alg = GrassmannAlgebra(6, mode)
        rng = random.Random(6)

        def coeff():
            c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            return float(c) if mode == FLOAT else c

        even = alg.element({m: 4 if m == 0 else coeff() for m in range(64)
                            if m.bit_count() % 2 == 0})
        odd = alg.element({m: coeff() for m in range(64) if m.bit_count() % 2})
        sparse = alg.element({0: 4, 3: coeff(), 48: coeff()})
        mixed = alg.element({m: coeff() for m in range(0, 64, 3)})
        scalar = alg.scalar(3)
        operands = (even, odd, sparse, mixed, scalar)

        def run_all():
            for a in operands:
                for b in operands:
                    gmul(a, b), a + b, a - b, a.isclose(b)
                for divisor in (even, sparse, scalar):
                    gdiv(a, divisor)
                -a, a.soul, a.terms, a.body, str(a), a.parity(), a ** 2
            for y in (even, sparse):
                ginv(y), gsqrt(y), ginvsqrt(y)
            glog(even if mode == FLOAT else even * Fraction(1, 4))

        run_all()   # fills the weight mask of every operand
        assert all(x._w is not None for x in operands)
        before = [state_of(x) for x in operands]
        run_all()
        assert [state_of(x) for x in operands] == before


def test_products_check_compatibility_once(monkeypatch):
    calls = []
    original = GrassmannElement._check_compatible
    monkeypatch.setattr(GrassmannElement, "_check_compatible",
                        lambda self, other: calls.append(1) or original(self, other))
    for alg in (A4, F4):
        x, y = alg.monomial([0, 3]) + 2, alg.monomial([1, 2])
        for operation in (lambda: x * y, lambda: x * 2, lambda: 2 * x,
                          lambda: Fraction(1, 2) * x, lambda: gmul(x, y), lambda: x / x,
                          lambda: x / 2, lambda: x + y, lambda: 2 - x):
            calls.clear()
            operation()
            assert len(calls) == 1
    # equal algebras need not be one object, and unequal ones are refused
    assert A4.gen(0) * GrassmannAlgebra(4, RATIONAL).gen(1) == A4.monomial([0, 1])
    with pytest.raises(GrassmannError, match="different algebras"):
        A4.gen(0) * F4.gen(1)
    with pytest.raises(GrassmannError, match="different algebras"):
        F4.gen(0) * GrassmannAlgebra(5, FLOAT).gen(1)


def test_render_names_each_monomial_as_its_generators():
    assert grassmann._monomial_text(0b1011) == "t0^t1^t3"
    x = F4.element({0b1011: 2.0, 0b100: -1.0, 0: 0.5})
    assert str(x) == str(x) == "0.5 - 1.0*t2 + 2.0*t0^t1^t3"
    assert str(A4.monomial([3, 1], Fraction(-2, 3))) == "2/3*t1^t3"
    assert grassmann._monomial_text.cache_info().maxsize == 1024


# -- isclose -------------------------------------------------------------------

def _coefficient_isclose(x, y, tol):
    """isclose on the coefficients themselves, Fractions in rational mode."""
    def coefficients(z):
        if z.algebra.mode == FLOAT:
            return z.num
        return {m: Fraction(c, z.den) for m, c in z.num.items()}
    a, b = coefficients(x), coefficients(y)
    return not any(abs(a.get(m, 0) - b.get(m, 0)) > tol for m in set(a) | set(b))


@pytest.mark.parametrize("alg", [A4, F4])
def test_isclose_passes_a_difference_of_exactly_tol(alg):
    # 1/4 and 3/8 are exact binary floats, and the rational denominators differ
    exact = alg.mode == RATIONAL
    x = alg.element({0: Fraction(1, 3) if exact else 0.5, 0b11: Fraction(2, 7) if exact else 1.0})
    y = alg.element({0: Fraction(7, 12) if exact else 0.75, 0b11: Fraction(2, 7) if exact else 1.0,
                     0b101: Fraction(-3, 8) if exact else -0.375})
    assert x.isclose(y, 0.375) and y.isclose(x, 0.375)
    assert not x.isclose(y, math.nextafter(0.375, 0)) and not y.isclose(x, 0.3749)
    assert x.isclose(y, Fraction(3, 8)) and not x.isclose(y, Fraction(3, 8) - Fraction(1, 10**30))
    assert not x.isclose(y, 0.25) and x.isclose(x, 0) and not x.isclose(y, 0)


@pytest.mark.parametrize("alg", [A4, F4])
def test_isclose_agrees_with_the_coefficient_comparison(alg):
    rng = random.Random(23)
    tols = [0, 1, -1, 1e-9, 0.25, 0.5, 3, Fraction(1, 3), math.inf, -math.inf, math.nan]
    for _ in range(200):
        def draw():
            return alg.element({m: (Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                                    if alg.mode == RATIONAL else rng.randint(-6, 6) / 4)
                                for m in rng.sample(range(16), rng.randint(0, 4))})
        x, y = draw(), draw()
        for tol in tols + [rng.choice((0.125, 0.75, Fraction(rng.randint(0, 8), 12)))]:
            assert x.isclose(y, tol) == _coefficient_isclose(x, y, tol), (x, y, tol)
