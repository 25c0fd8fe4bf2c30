"""Finite Grassmann (exterior) algebra arithmetic.

Elements live in the real algebra on N anticommuting generators t0..t(N-1).
Coefficients are exact rationals or 64-bit floats, chosen once per algebra.
Monomials are generator subsets stored as bitmasks; an element is a sparse
map from bitmasks to nonzero coefficients.  The inverse, square root and
logarithm are computed by power series in the soul, which terminate exactly
because the soul is nilpotent -- no tolerance-based truncation anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"


class GrassmannError(ValueError):
    """Domain error: parity, invertibility, scalar mode, algebra mismatch."""


def _popcount_above(mask, j):
    # number of set bits in mask strictly above position j
    return (mask >> (j + 1)).bit_count()


def _mul_sign(s, t):
    """Sign of e_S * e_T: (-1)**#{(i,j) : i in S, j in T, i > j}."""
    count = 0
    while t:
        j = (t & -t).bit_length() - 1
        count += _popcount_above(s, j)
        t &= t - 1
    return -1 if count & 1 else 1


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
            return float(value)
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
        mask = 0
        sign = 1
        for i in indices:
            bit = 1 << i
            if mask & bit:
                return self.zero()
            if _popcount_above(mask, i) & 1:
                sign = -sign
            mask |= bit
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

    e_S * e_T = 0 when S and T intersect, else sign(S,T) * e_{S union T}.
    """
    x._check_compatible(y)
    terms = {}
    for s, cs in x.terms.items():
        for t, ct in y.terms.items():
            if s & t:
                continue
            c = cs * ct * _mul_sign(s, t)
            m = s | t
            total = terms.get(m, 0) + c
            if total == 0:
                terms.pop(m, None)
            else:
                terms[m] = total
    return GrassmannElement(x.algebra, terms)


def _soul_powers(x):
    """Yield (k, soul**k) for k = 1, 2, ... until the power vanishes."""
    s = x.soul
    power = s
    k = 1
    while not power.is_zero():
        yield k, power
        power = gmul(power, s)
        k += 1


def ginv(x):
    """Multiplicative inverse of an even element with nonzero body.

    Geometric series (1/b) * sum_k (-s/b)**k, exact by nilpotency.
    """
    if not x.is_even():
        raise GrassmannError("inverse requires even parity, got %s" % (x,))
    b = x.body
    if b == 0:
        raise GrassmannError("zero body: %s is not invertible" % (x,))
    alg = x.algebra
    inv_b = (1.0 / b) if alg.mode == FLOAT else Fraction(1) / b
    result = alg.scalar(inv_b)
    sign = 1
    for k, power in _soul_powers(x):
        sign = -sign
        coeff = sign * inv_b ** (k + 1)
        result = result + power * coeff
    return result

def gsqrt(x):
    """Square root with positive body of an even element.

    Binomial series sqrt(b) * sum_k C(1/2, k) (s/b)**k.  In rational mode
    the body must be the square of a rational, otherwise an error is
    raised (switch the algebra to float mode for generic bodies).
    """
    if not x.is_even():
        raise GrassmannError("square root requires even parity, got %s" % (x,))
    b = x.body
    if b <= 0:
        raise GrassmannError("square root requires positive body, got %s" % (b,))
    alg = x.algebra
    if alg.mode == RATIONAL:
        p, q = b.numerator, b.denominator
        rp, rq = math.isqrt(p), math.isqrt(q)
        if rp * rp != p or rq * rq != q:
            raise GrassmannError("body %s is not a square of a rational; "
                                 "use float mode" % (b,))
        sqrt_b = Fraction(rp, rq)
        half = Fraction(1, 2)
        inv_b = Fraction(1) / b
    else:
        sqrt_b = math.sqrt(b)
        half = 0.5
        inv_b = 1.0 / b
    result = alg.scalar(sqrt_b)
    binom = 1  # running C(1/2, k)
    for k, power in _soul_powers(x):
        binom = binom * (half - (k - 1)) / k
        result = result + power * (sqrt_b * binom * inv_b ** k)
    return result


def glog(x):
    """Logarithm of an even element with positive body.

    log(b) + sum_{k>=1} (-1)**(k+1) (s/b)**k / k.  Rational mode is only
    exact when the body equals 1 (log 1 = 0); any other body requires
    float mode.
    """
    if not x.is_even():
        raise GrassmannError("logarithm requires even parity, got %s" % (x,))
    b = x.body
    if b <= 0:
        raise GrassmannError("logarithm requires positive body, got %s" % (b,))
    alg = x.algebra
    if alg.mode == RATIONAL:
        if b != 1:
            raise GrassmannError("log of body %s is irrational; use float mode "
                                 "(rational mode needs body 1)" % (b,))
        log_b = Fraction(0)
        inv_b = Fraction(1)
    else:
        log_b = math.log(b)
        inv_b = 1.0 / b
    result = alg.scalar(log_b)
    sign = -1
    for k, power in _soul_powers(x):
        sign = -sign
        if alg.mode == RATIONAL:
            coeff = Fraction(sign, k) * inv_b ** k
        else:
            coeff = sign * inv_b ** k / k
        result = result + power * coeff
    return result


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


def parse_element(algebra, text):
    """Parse the textual element format back into an element.

    Accepts what render_element produces, plus bare monomials with an
    implicit coefficient 1, e.g. "t0" or "2*t0^t1 - t2".
    """
    s = text.strip()
    if not s:
        raise GrassmannError("empty element text")
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
            num = m.group(0)
            try:
                coeff = float(num) if algebra.mode == FLOAT else Fraction(num)
            except ValueError as exc:  # a fraction in float mode
                raise GrassmannError(str(exc)) from None
            except ZeroDivisionError:
                raise GrassmannError("zero denominator in %r" % (num,)) from None
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
        if coeff is None:
            coeff = algebra.coerce_scalar(1)
        term = algebra.monomial(indices, coeff) if indices else algebra.scalar(coeff)
        for mask, c in term.terms.items():
            terms[mask] = terms.get(mask, 0) + sign * c
    return algebra.element(terms)
