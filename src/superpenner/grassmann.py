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
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"


class GrassmannError(ValueError):
    """Domain error: parity, invertibility, scalar mode, algebra mismatch."""


def _sort_sign(indices):
    """(mask, sign) with t_i1 ^ t_i2 ^ ... = sign * e_mask.

    sign is -1 for an odd number of inversions among the indices, and 0
    when an index repeats.
    """
    mask = 0
    sign = 1
    for i in indices:
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
        if not 0 <= i < self.num_generators:
            raise GrassmannError("no generator t%d in algebra on %d generators"
                                 % (i, self.num_generators))
        return self.element({1 << i: 1})

    def monomial(self, indices, coeff=1):
        """coeff * t_{i1}^t_{i2}^... for distinct indices in any order."""
        mask, sign = _sort_sign(indices)
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


def gmul(x, y):
    """Product in the Grassmann algebra.

    e_S * e_T = 0 when S and T intersect, else sign(S,T) * e_{S union T},
    with the sign read off one popcount (see the module docstring).
    """
    x._check_compatible(y)
    right = [(t, ct, _below_parity(t)) for t, ct in y.terms.items()]
    terms = {}
    get = terms.get
    for s, cs in x.terms.items():
        for t, ct, p in right:
            if s & t:
                continue
            m = s | t
            if (s & p).bit_count() & 1:
                terms[m] = get(m, 0) - cs * ct
            else:
                terms[m] = get(m, 0) + cs * ct
    return GrassmannElement(x.algebra, {m: c for m, c in terms.items() if c})


def _series(x, coefficients):
    """sum_k c_k u**k, u = soul/body, for an even x; coefficients yields c_0, c_1, ...

    Dividing the soul by the body keeps the powers of u as large as the
    relative soul, whatever the size of the body, so float powers do not
    overflow while their coefficients underflow.  An even soul has no term
    below degree 2, so u**k vanishes once 2k exceeds the number of
    generators; the powers stop there or at the first zero power.
    """
    alg = x.algebra
    b = x.body
    u = GrassmannElement(alg, {m: c / b for m, c in x.terms.items() if m})
    terms = {0: alg.coerce_scalar(next(coefficients))}
    power = u
    last = alg.num_generators // 2
    for k in range(1, last + 1):
        if not power.terms:
            break
        c = alg.coerce_scalar(next(coefficients))
        for m, v in power.terms.items():
            terms[m] = terms.get(m, 0) + c * v
        if k < last:
            power = gmul(power, u)
    return GrassmannElement(alg, {m: c for m, c in terms.items() if c})


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
    b = x.body
    if b <= 0:
        raise GrassmannError("%s requires positive body, got %s" % (what, b))
    if x.algebra.mode == FLOAT:
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
    return _series(x, _binomial(1 / b, -1))


def gsqrt(x):
    """Square root with positive body of an even element.

    Binomial series sqrt(b) * sum_k C(1/2, k) (s/b)**k.  In rational mode
    the body must be the square of a rational, otherwise an error is
    raised (switch the algebra to float mode for generic bodies).
    """
    root = _body_root(x, "square root")
    return _series(x, _binomial(root, Fraction(1, 2)))


def ginvsqrt(x):
    """Inverse square root, x**(-1/2) with positive body, of an even element.

    Binomial series (1/sqrt(b)) * sum_k C(-1/2, k) (s/b)**k; the same
    parity, body and rational-square rules as gsqrt.
    """
    root = _body_root(x, "inverse square root")
    return _series(x, _binomial(1 / root, Fraction(-1, 2)))


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
        return _series(x, _log_coefficients(math.log(b)))
    if b != 1:
        raise GrassmannError("log of body %s is irrational; use float mode "
                             "(rational mode needs body 1)" % (b,))
    return _series(x, _log_coefficients(Fraction(0)))


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


_NUMBER_RE = re.compile(r"\d+/\d+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_GEN_RE = re.compile(r"t(\d+)")


def _parse_number(algebra, num):
    """A coefficient literal, read once into the algebra's scalar type."""
    try:
        if algebra.mode == RATIONAL:
            return Fraction(num)
        value = float(Fraction(num)) if "/" in num else float(num)
    except ZeroDivisionError:
        raise GrassmannError("zero denominator in %r" % (num,)) from None
    if not math.isfinite(value):
        raise GrassmannError("non-finite coefficient %r" % (num,))
    return value


def parse_element(algebra, text):
    """Parse the textual element format back into an element.

    Accepts what render_element produces, plus bare monomials with an
    implicit coefficient 1, e.g. "t0" or "2*t0^t1 - t2".  Float mode
    reads a/b as the float nearest to the fraction.
    """
    s = text.strip()
    if not s:
        raise GrassmannError("empty element text")
    one = 1.0 if algebra.mode == FLOAT else Fraction(1)
    limit = 1 << algebra.num_generators
    terms = {}
    pos = 0
    n = len(s)
    while pos < n:
        # sign / separator
        sign = 1
        while pos < n and s[pos] in "+- \t":
            if s[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise GrassmannError("dangling sign in %r" % (text,))
        coeff = None
        m = _NUMBER_RE.match(s, pos)
        if m:
            coeff = _parse_number(algebra, m.group(0))
            pos = m.end()
            while pos < n and s[pos] in " \t":
                pos += 1
            if pos < n and s[pos] == "*":
                pos += 1
                while pos < n and s[pos] in " \t":
                    pos += 1
            elif pos < n and s[pos] == "t":
                raise GrassmannError("missing '*' before monomial in %r" % (text,))
        indices = []
        if pos < n and s[pos] == "t":
            while True:
                mt = _GEN_RE.match(s, pos)
                if not mt:
                    raise GrassmannError("bad monomial at %r" % (s[pos:],))
                indices.append(int(mt.group(1)))
                pos = mt.end()
                while pos < n and s[pos] in " \t":
                    pos += 1
                if pos < n and s[pos] == "^":
                    pos += 1
                    while pos < n and s[pos] in " \t":
                        pos += 1
                else:
                    break
        if coeff is None and not indices:
            raise GrassmannError("expected term at position %d of %r" % (pos, text))
        mask, order_sign = _sort_sign(indices)
        if mask >= limit:
            raise GrassmannError("monomial %d outside algebra on %d generators"
                                 % (mask, algebra.num_generators))
        sign *= order_sign
        if sign:
            c = one if coeff is None else coeff
            terms[mask] = terms.get(mask, 0) + (c if sign > 0 else -c)
    terms = {m: c for m, c in terms.items() if c}
    if algebra.mode == FLOAT and not all(map(math.isfinite, terms.values())):
        raise GrassmannError("coefficient sum overflows in %r" % (text,))
    return GrassmannElement(algebra, terms)
