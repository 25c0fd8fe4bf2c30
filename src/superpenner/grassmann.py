"""Finite Grassmann (exterior) algebra arithmetic.

Elements live in the real algebra on N anticommuting generators t0..t(N-1).
Coefficients are exact rationals or 64-bit floats, chosen once per algebra.
Monomials are generator subsets stored as bitmasks; an element is a sparse
map from bitmasks to nonzero coefficients.  The inverse, square root,
inverse square root and logarithm are computed by power series in the
soul, which terminate exactly because the soul is nilpotent -- no
tolerance-based truncation anywhere.

Sign rule: for disjoint S and T, e_S * e_T = (-1)**k e_{S | T}, where k
counts the pairs i in S, j in T with i > j.  Bit i of the mask P(T) is the
parity of the bits of T below i (for i at or above T.bit_length() it is
the parity of all of T), so k is odd exactly when (S & P(T)).bit_count()
is odd: one popcount per term pair.

Product paths: gmul takes each left term s on one of two paths.  When s
can meet no more monomials than the right operand y has terms, that is
1 << (n - |s|) <= len(y.terms), it walks the cached disjoint row of s --
the monomials disjoint from s, as two int tuples split by the sign of
e_s * e_t -- and looks each one up in y.  Otherwise it scans y and skips
the terms that meet s.  On dense operands most pairs overlap (about 91 %
in the flips of dense V = 6 and 8 states), and the row path never visits
them.  A row is built only when it is no longer than y, so sparse
products, such as one-term scalars on 128 generators, build none.  Each
monomial of the product still receives its contributions in left-term
order on both paths, so rational results do not depend on the path.
Rows are kept per (n, s) for the life of the process; all 2**n rows on n
generators hold 3**n entries, 81 KiB at n = 8 and 657 KiB at n = 10
(tracemalloc, CPython 3.11).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import islice

RATIONAL = "rational"
FLOAT = "float"


class GrassmannError(ValueError):
    """Domain error: parity, invertibility, scalar mode, algebra mismatch."""


def _sort_sign(indices, num_generators):
    """(mask, sign) with t_i1 ^ t_i2 ^ ... = sign * e_mask.

    sign is -1 for an odd number of inversions among the indices, and 0
    when an index repeats.  Each index is range-checked before it is
    shifted, so a huge index never builds a huge mask.
    """
    mask = 0
    sign = 1
    for i in indices:
        if not 0 <= i < num_generators:
            raise GrassmannError("no generator t%d in algebra on %d generators"
                                 % (i, num_generators))
        bit = 1 << i
        if mask & bit:
            sign = 0
        elif (mask >> i).bit_count() & 1:
            sign = -sign
        mask |= bit
    return mask, sign


def _below_parity(t):
    """P(t): bit i is the parity of the bits of t below i.

    Every bit from t.bit_length() up is the parity of t, so P(t) is a
    negative int when t has odd weight.
    """
    p = 0
    while t:
        low = t & -t
        p ^= -(low << 1)   # flips every bit above the lowest set bit of t
        t ^= low
    return p


class GrassmannAlgebra:
    """The Grassmann algebra on a fixed number of generators.

    mode is "rational" (exact Fraction coefficients) or "float".  Two
    algebras are interchangeable iff they agree on both parameters.
    """

    __slots__ = ("num_generators", "mode")

    def __init__(self, num_generators, mode=RATIONAL):
        if num_generators < 0:
            raise GrassmannError("number of generators must be >= 0")
        if mode not in (RATIONAL, FLOAT):
            raise GrassmannError("unknown scalar mode %r" % (mode,))
        self.num_generators = num_generators
        self.mode = mode

    def __eq__(self, other):
        return (isinstance(other, GrassmannAlgebra)
                and self.num_generators == other.num_generators
                and self.mode == other.mode)

    def __hash__(self):
        return hash((self.num_generators, self.mode))

    def __repr__(self):
        return "GrassmannAlgebra(%d, %r)" % (self.num_generators, self.mode)

    # -- scalar handling -------------------------------------------------

    def coerce_scalar(self, value):
        """Convert value to this algebra's coefficient type."""
        if self.mode == FLOAT:
            value = float(value)
            if not math.isfinite(value):
                raise GrassmannError("non-finite scalar %r" % (value,))
            return value
        if isinstance(value, float):
            # refuse silent binary-float noise in exact mode
            raise GrassmannError("float scalar %r in rational mode" % (value,))
        return Fraction(value)

    # -- element constructors --------------------------------------------

    def element(self, terms):
        """Element from a {bitmask: coefficient} map (zeros dropped)."""
        clean = {}
        limit = 1 << self.num_generators
        for mask, coeff in terms.items():
            if not 0 <= mask < limit:
                raise GrassmannError("monomial %d outside algebra on %d generators"
                                     % (mask, self.num_generators))
            c = self.coerce_scalar(coeff)
            if c != 0:
                clean[mask] = c
        return GrassmannElement(self, clean)

    def zero(self):
        return GrassmannElement(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, value):
        return self.element({0: value})

    def gen(self, i):
        """The i-th generator t<i>."""
        return self.monomial([i])

    def monomial(self, indices, coeff=1):
        """coeff * t_{i1}^t_{i2}^... for distinct indices in any order."""
        mask, sign = _sort_sign(indices, self.num_generators)
        if not sign:
            return self.zero()
        return self.element({mask: sign * self.coerce_scalar(coeff)})

    def parse(self, text):
        return parse_element(self, text)


class GrassmannElement:
    """Immutable sparse element of a GrassmannAlgebra.

    Do not mutate .terms; all operations return new elements.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    # -- structure --------------------------------------------------------

    @property
    def body(self):
        """Coefficient of the empty monomial."""
        if 0 in self.terms:
            return self.terms[0]
        return 0.0 if self.algebra.mode == FLOAT else Fraction(0)

    @property
    def soul(self):
        """The nilpotent part: self minus its body."""
        return GrassmannElement(self.algebra,
                                {m: c for m, c in self.terms.items() if m})

    def is_zero(self):
        return not self.terms

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero."""
        parities = {m.bit_count() & 1 for m in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def is_even(self):
        """True for even-parity elements; zero counts as even."""
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def is_odd(self):
        """True for odd-parity elements; zero counts as odd."""
        return all(m.bit_count() % 2 == 1 for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if isinstance(other, GrassmannElement):
            if other.algebra != self.algebra:
                raise GrassmannError("elements belong to different algebras: %r vs %r"
                                     % (self.algebra, other.algebra))
            return other
        return self.algebra.scalar(other)

    def __add__(self, other):
        other = self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return GrassmannElement(self.algebra, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check_compatible(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._check_compatible(other) - self

    def __mul__(self, other):
        other = self._check_compatible(other)
        return gmul(self, other)

    def __rmul__(self, other):
        return self._check_compatible(other) * self

    def __truediv__(self, other):
        other = self._check_compatible(other)
        return gmul(self, ginv(other))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise GrassmannError("only non-negative integer powers")
        result = self.algebra.one()
        for _ in range(n):
            result = gmul(result, self)
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):
            try:
                other = self.algebra.scalar(other)
            except GrassmannError:
                return NotImplemented
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def isclose(self, other, tol=1e-9):
        """Coefficientwise comparison within absolute tolerance tol."""
        other = self._check_compatible(other)
        for m in set(self.terms) | set(other.terms):
            a = self.terms.get(m, 0)
            b = other.terms.get(m, 0)
            if abs(a - b) > tol:
                return False
        return True

    # -- text form ----------------------------------------------------------

    def __str__(self):
        return render_element(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# core operations


# num_generators -> {s: (plus, minus)}: the monomials t disjoint from s,
# split by the sign of e_s * e_t.  Rows share one int object per monomial.
_DISJOINT_ROWS = {}
_ROW_MONOMIALS = {}


def _disjoint_row(n, s):
    free = ((1 << n) - 1) & ~s
    plus, minus = [], []
    shared = _ROW_MONOMIALS.setdefault
    t = free
    while True:   # every submask of free, largest first
        (minus if (s & _below_parity(t)).bit_count() & 1 else plus).append(shared(t, t))
        if not t:
            break
        t = (t - 1) & free
    return tuple(plus), tuple(minus)


def gmul(x, y):
    """Product in the Grassmann algebra.

    e_S * e_T = 0 when S and T intersect, else sign(S,T) * e_{S union T},
    with the sign read off one popcount (see the module docstring).  A
    left term that can meet no more monomials than y has terms looks its
    partners up in y through its cached disjoint row; any other left term
    scans y.
    """
    x._check_compatible(y)
    n = x.algebra.num_generators
    yterms = y.terms
    yget = yterms.get
    # 1 << (n - s.bit_count()) <= len(y.terms) exactly when s has this weight
    row_weight = n + 1 - len(yterms).bit_length()
    rows = _DISJOINT_ROWS.setdefault(n, {})
    right = None
    terms = {}
    get = terms.get
    for s, cs in x.terms.items():
        if s.bit_count() >= row_weight:
            row = rows.get(s)
            if row is None:
                row = rows[s] = _disjoint_row(n, s)
            plus, minus = row
            for t in plus:
                ct = yget(t)
                if ct is not None:
                    m = s | t
                    terms[m] = get(m, 0) + cs * ct
            for t in minus:
                ct = yget(t)
                if ct is not None:
                    m = s | t
                    terms[m] = get(m, 0) - cs * ct
            continue
        if right is None:
            right = [(t, ct, _below_parity(t)) for t, ct in yterms.items()]
        for t, ct, p in right:
            if s & t:
                continue
            m = s | t
            if (s & p).bit_count() & 1:
                terms[m] = get(m, 0) - cs * ct
            else:
                terms[m] = get(m, 0) + cs * ct
    return GrassmannElement(x.algebra, {m: c for m, c in terms.items() if c})


def _series(x, *coefficients):
    """[sum_k c_k u**k for each sequence], u = soul/body, for an even x.

    Each of coefficients yields c_0, c_1, ...; all sums share one chain of
    powers of u.  Dividing the soul by the body keeps the powers of u as
    large as the relative soul, whatever the size of the body, so float
    powers do not overflow while their coefficients underflow.  An even
    soul has no term below degree 2, so u**k vanishes once 2k exceeds the
    number of generators; the powers stop there or at the first zero power.
    """
    alg = x.algebra
    b = x.body
    u = GrassmannElement(alg, {m: c / b for m, c in x.terms.items() if m})
    sequences = [iter(cs) for cs in coefficients]
    sums = [{0: alg.coerce_scalar(next(cs))} for cs in sequences]
    power = u
    last = alg.num_generators // 2
    for k in range(1, last + 1):
        if not power.terms:
            break
        for cs, terms in zip(sequences, sums):
            c = alg.coerce_scalar(next(cs))
            for m, v in power.terms.items():
                terms[m] = terms.get(m, 0) + c * v
        if k < last:
            power = gmul(power, u)
    return [GrassmannElement(alg, {m: c for m, c in terms.items() if c})
            for terms in sums]


def _binomial(root, alpha):
    """Yield root * C(alpha, k) for k = 0, 1, ...: the coefficients of
    b**alpha (1 + u)**alpha, given root = b**alpha."""
    c = root
    k = 0
    while True:
        yield c
        c = c * (alpha - k) / (k + 1)
        k += 1


def _check_even(x, what):
    if not x.is_even():
        raise GrassmannError("%s requires even parity, got %s" % (what, x))


def _body_root(x, what):
    """sqrt(body) of an even x with positive body.

    In rational mode the body must be the square of a rational.
    """
    _check_even(x, what)
    return _scalar_root(x.body, x.algebra.mode, what)


def _scalar_root(b, mode, what):
    if b <= 0:
        raise GrassmannError("%s requires positive body, got %s" % (what, b))
    if mode == FLOAT:
        return math.sqrt(b)
    p, q = b.numerator, b.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise GrassmannError("body %s is not a square of a rational; "
                             "use float mode" % (b,))
    return Fraction(rp, rq)


def ginv(x):
    """Multiplicative inverse of an even element with nonzero body.

    Binomial series (1/b) * sum_k (-s/b)**k, exact by nilpotency.
    """
    _check_even(x, "inverse")
    b = x.body
    if b == 0:
        raise GrassmannError("zero body: %s is not invertible" % (x,))
    return _series(x, _binomial(1 / b, -1))[0]


def gsqrt(x):
    """Square root with positive body of an even element.

    Binomial series sqrt(b) * sum_k C(1/2, k) (s/b)**k.  In rational mode
    the body must be the square of a rational, otherwise an error is
    raised (switch the algebra to float mode for generic bodies).
    """
    root = _body_root(x, "square root")
    return _series(x, _binomial(root, Fraction(1, 2)))[0]


def ginvsqrt(x):
    """Inverse square root, x**(-1/2) with positive body, of an even element.

    Binomial series (1/sqrt(b)) * sum_k C(-1/2, k) (s/b)**k; the same
    parity, body and rational-square rules as gsqrt.
    """
    root = _body_root(x, "inverse square root")
    return _series(x, _binomial(1 / root, Fraction(-1, 2)))[0]


def _convolve(a, b):
    """Coefficients of the product of two power series, to the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def chi_roots(chi):
    """(r, sqrt(chi) r, sqrt(chi) r**2) with r = (1 + chi)**(-1/2), from one chain.

    With b the body of chi and u = soul/b, r is
    (1 + b)**(-1/2) sum_k C(-1/2, k) (b/(1 + b))**k u**k, sqrt(chi) is
    sqrt(b) sum_k C(1/2, k) u**k, and the products are convolutions of
    the coefficient lists, so all three share the powers of u.  The rules
    and messages of gsqrt(chi) and ginvsqrt(1 + chi) apply.
    """
    alg = chi.algebra
    root = _body_root(chi, "square root")
    b = chi.body
    inv_root = 1 / _scalar_root(1 + b, alg.mode, "inverse square root")
    count = alg.num_generators // 2 + 1
    q = b / (1 + b)
    r = [c * q ** k
         for k, c in enumerate(islice(_binomial(inv_root, Fraction(-1, 2)), count))]
    sqrt_chi_r = _convolve(list(islice(_binomial(root, Fraction(1, 2)), count)), r)
    return _series(chi, r, sqrt_chi_r, _convolve(sqrt_chi_r, r))


def _log_coefficients(log_b):
    """Yield log(b), then (-1)**(k+1) / k for k = 1, 2, ..."""
    yield log_b
    k = 0
    while True:
        k += 1
        yield Fraction((-1) ** (k + 1), k)


def glog(x):
    """Logarithm of an even element with positive body.

    log(b) + sum_{k>=1} (-1)**(k+1) (s/b)**k / k.  Rational mode is only
    exact when the body equals 1 (log 1 = 0); any other body requires
    float mode.
    """
    _check_even(x, "logarithm")
    b = x.body
    if b <= 0:
        raise GrassmannError("logarithm requires positive body, got %s" % (b,))
    if x.algebra.mode == FLOAT:
        return _series(x, _log_coefficients(math.log(b)))[0]
    if b != 1:
        raise GrassmannError("log of body %s is irrational; use float mode "
                             "(rational mode needs body 1)" % (b,))
    return _series(x, _log_coefficients(Fraction(0)))[0]


# ---------------------------------------------------------------------------
# text format: terms sorted by bitmask, "coeff*t<i>^t<j>", e.g. "1 + 2*t0^t1"


def _render_scalar(c):
    if isinstance(c, Fraction):
        return str(c)
    return repr(c)


def render_element(x):
    if not x.terms:
        return "0"
    parts = []
    for mask in sorted(x.terms):
        c = x.terms[mask]
        negative = c < 0
        body = _render_scalar(-c if negative else c)
        if mask:
            mono = "^".join("t%d" % i for i in range(x.algebra.num_generators)
                            if mask >> i & 1)
            body = "%s*%s" % (body, mono)
        if not parts:
            parts.append("-" + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


# one term: a sign run (required before every term but the first), then a
# coefficient, a monomial, or both joined by '*'
_TERM_RE = re.compile(r"""
    (?P<signs>[ \t]*[-+][-+ \t]*)?
    (?P<coeff>\d+/\d+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)?
    (?P<star>[ \t]*\*[ \t]*)?
    (?P<mono>t\d+(?:[ \t]*\^[ \t]*t\d+)*)?
    """, re.VERBOSE)
_GEN_RE = re.compile(r"t(\d+)")


def _parse_number(algebra, num):
    """A coefficient literal, read once into the algebra's scalar type.

    Exponents and digit runs are held to the interpreter's limit on
    integer digit strings, so no literal stalls the parser.
    """
    limit = sys.get_int_max_str_digits()
    exponent = num.lower().partition("e")[2]
    if exponent and 0 < limit < abs(float(exponent)):
        raise GrassmannError("exponent of %r is beyond %d" % (num, limit))
    try:
        if algebra.mode == RATIONAL:
            return Fraction(num)
        value = float(Fraction(num)) if "/" in num else float(num)
    except ZeroDivisionError:
        raise GrassmannError("zero denominator in %r" % (num,)) from None
    except ValueError:  # a digit run longer than the interpreter converts
        raise GrassmannError("numeral of %d characters has a digit run longer than %d"
                             % (len(num), limit)) from None
    if not math.isfinite(value):
        raise GrassmannError("non-finite coefficient %r" % (num,))
    return value


def parse_element(algebra, text):
    """Parse the textual element format back into an element.

    Accepts what render_element produces, plus bare monomials with an
    implicit coefficient 1, e.g. "t0" or "2*t0^t1 - t2".  Terms are
    joined by '+' or '-'; '*' joins a coefficient to its monomial.  Float
    mode reads a/b as the float nearest to the fraction.
    """
    s = text.strip()
    if not s:
        raise GrassmannError("empty element text")
    one = 1.0 if algebra.mode == FLOAT else Fraction(1)
    terms = {}
    pos = 0
    while pos < len(s):
        term = _TERM_RE.match(s, pos)
        signs, num, star, mono = term.groups()
        if (pos and not signs) or not (num or mono) or bool(num and mono) != bool(star):
            raise GrassmannError("expected term at position %d of %r" % (pos, s))
        c = one if num is None else _parse_number(algebra, num)
        try:
            indices = list(map(int, _GEN_RE.findall(mono or "")))
        except ValueError:  # an index longer than the interpreter converts
            raise GrassmannError("generator index with more than %d digits"
                                 % sys.get_int_max_str_digits()) from None
        mask, sign = _sort_sign(indices, algebra.num_generators)
        if signs and signs.count("-") & 1:
            sign = -sign
        if sign:
            terms[mask] = terms.get(mask, 0) + (c if sign > 0 else -c)
        pos = term.end()
    terms = {m: c for m, c in terms.items() if c}
    if algebra.mode == FLOAT and not all(map(math.isfinite, terms.values())):
        raise GrassmannError("coefficient sum overflows in %r" % (text,))
    return GrassmannElement(algebra, terms)
