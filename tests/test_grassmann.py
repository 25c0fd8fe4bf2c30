import contextlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from superpenner import grassmann
from superpenner.grassmann import (_CLASSES, _INDICES, FLOAT, RATIONAL, GrassmannAlgebra,
                                   GrassmannElement, GrassmannError, _dense_plan,
                                   _dense_solve_terms, _dense_terms, _plan, _solve_weights,
                                   gdiv, ginv, ginvsqrt, glog, gmul, gsqrt)


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


@settings(max_examples=500)
@given(st.sampled_from([A6, F6]), st.text(alphabet="t0123456789+-*^/.eE \t", max_size=40))
def test_parse_accepts_or_raises_grassmann_error(alg, text):
    # default deadline: a slow exponent or index path fails here instead of stalling
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


# -- kernel oracles --------------------------------------------------------------
# Per-bit sign product and the per-function series loops, kept here as the
# reference that gmul and the shared solve must match exactly.


def reference_sign(s, t):
    """Sign of e_S * e_T: (-1)**#{(i,j) : i in S, j in T, i > j}, bit by bit."""
    count = 0
    while t:
        j = (t & -t).bit_length() - 1
        count += (s >> (j + 1)).bit_count()
        t &= t - 1
    return -1 if count & 1 else 1


def reference_gmul(x, y):
    terms = {}
    for s, cs in x.terms.items():
        for t, ct in y.terms.items():
            if not s & t:
                terms[s | t] = terms.get(s | t, 0) + cs * ct * reference_sign(s, t)
    return GrassmannElement(x.algebra, {m: c for m, c in terms.items() if c != 0})


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
    # rational products always scan, however dense their operands
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
        dense = GrassmannElement(left.algebra, _dense_terms(left, right, plan))
        assert dense == reference_gmul(left, right)


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
    assert _dense_plan(8, big.terms, big.terms) is None
    with pytest.raises(GrassmannError, match="float overflow in product"):
        gmul(big, big)
    dense = F8.element({m: 1e200 for m in range(256) if m.bit_count() % 2 == 0})
    assert _dense_plan(8, dense.terms, dense.terms) is not None
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


def every_class_solve(y, start, factor, divisor):
    """The dense solve kernel over every class the solve can use."""
    n = y.algebra.num_generators
    souls = sorted({t.bit_count() for t in y.terms} - {0})
    weights = _solve_weights(n, {s.bit_count() for s in start}, souls)
    plan = _plan(n, [(a, c) for a in weights for c in souls if a + c <= n], weights)
    return _dense_solve_terms(y, start, factor, divisor, plan)


@contextlib.contextmanager
def dense_solves():
    """Route every rational solve through the dense kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_scan_solve_terms", every_class_solve)
        yield


@settings(max_examples=60, deadline=None)
@given(quotient_pairs)
def test_dense_quotient_matches_reference_exactly(pair):
    # the dense quotient run in rational mode: every class, exact sums
    x, y = pair
    with dense_solves():
        quotient = gdiv(x, y)
    assert quotient == reference_gmul(x, reference_power(y, -1, 1 / y.body))
    assert gdiv(x, y) == quotient   # rational gdiv scans


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
    assert _dense_plan(8, x.terms, y.terms, solve=True) is not None
    q = gdiv(x, y)
    assert q == x / y
    assert (q * y).isclose(x, 1e-12)


def test_float_quotient_overflow_is_an_error_on_both_paths():
    F8 = GrassmannAlgebra(8, FLOAT)
    big, tiny = F8.scalar(1e300), F8.scalar(1e-10)
    assert _dense_plan(8, big.terms, tiny.terms, solve=True) is None
    with pytest.raises(GrassmannError, match="float overflow in"):
        gdiv(big, tiny)
    dense = F8.element({m: 1e300 for m in range(256) if m.bit_count() % 2 == 0})
    small = F8.element({m: 1e-10 for m in range(256) if m.bit_count() % 2 == 0})
    assert _dense_plan(8, dense.terms, small.terms, solve=True) is not None
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
        dense_path = _dense_plan(alg.num_generators, x.terms, odd_y.terms, solve=True)
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
