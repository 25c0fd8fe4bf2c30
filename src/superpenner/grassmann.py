"""Finite Grassmann (exterior) algebra arithmetic.

Elements live in the real algebra on N anticommuting generators t0..t(N-1).
Coefficients are exact rationals or 64-bit floats, chosen once per algebra.
Monomials are generator subsets stored as bitmasks.  Quotients, the
inverse, square root, inverse square root and logarithm are one
weight-by-weight solve, exact because the soul is nilpotent -- no
tolerance-based truncation anywhere.

Storage: an element is a sparse map num from bitmasks to nonzero
numerators over one denominator den, so the coefficient of e_m is
num[m] / den.  In rational mode the numerators are ints and den is a
positive int, in normal form: gcd(den, every numerator) = 1.  Equal
elements therefore have equal maps and denominators, and equality is
structural.  Every operation works on the numerators alone (a product
takes the product of the two denominators, a sum their lcm) and reduces
its result once, with one gcd over its numerators, instead of once per
coefficient operation as Fraction does (Knuth, TAOCP Vol. 2, section
4.5.1).  In float mode the numerators are the float coefficients and den
is 1, so the same kernels run and nothing is ever reduced.  x.terms is
the {bitmask: coefficient} map, built on each call: a copy of num in
float mode, and a map of Fractions in rational mode.

Sign rule: for disjoint S and T, e_S * e_T = (-1)**k e_{S | T}, where k
counts the pairs i in S, j in T with i > j.  Bit i of the mask P(T) is the
parity of the bits of T below i (for i at or above T.bit_length() it is
the parity of all of T), so k is odd exactly when (S & P(T)).bit_count()
is odd: one popcount per term pair.

Product paths: gmul takes one of three paths for a whole product.  When
either operand is a one-term scalar (its only monomial is the empty one),
the product scales the other operand: every numerator is multiplied by
the scalar's numerator over the product of the denominators, reduced
once, and in float mode every term is v * c, the operation the scan runs
on it.  The scan visits all len(x) * len(y) pairs of terms, skips those
that meet and signs the rest with one popcount.  The dense path walks
weight classes, one per (n, a, b), cached for the life of the process.
Class (a, b) holds one index row per monomial m of weight a + b, in
increasing order: its k = C(a + b, a) submasks s of weight a, then for
each s an index u into a right vector Y with Y[t] = y_t and Y[t + 2**n] =
-y_t, for t = m ^ s, so that u = t or t + 2**n carries the sign of e_s *
e_t.  A dense left vector X holds X[s] = x_s (0 where x has no term).  A
run function, compiled once per run length k and shared by every class,
n and mode, reads each row as X[s_1]*Y[u_1] + ... + X[s_k]*Y[u_k]:
specialized bytecode with no call per pair, adding the products left to
right.  A product uses the classes (a, b) where x has a term of weight a
and y one of weight b, and the classes of one output weight are added
elementwise.  Souls and powers of souls have no low-weight terms, so they
skip those classes.  The classes of a product, grouped by output weight,
are kept per pair of weight masks; this plan names classes and holds no
pairs.  From CPython 3.12 on, sum() compensates float sums; the runs add
with +, as sum() did before, so a dense float result has the same bits on
every interpreter, as a scanned one does.

Weights: an element's weight mask has bit k set iff it has a term of
weight k.  The kernel that builds an element sets it at no extra cost
(the dense product and the solve from the weights that kept a term, a
scaling or a negation from its operand's), and any other element
computes it once, on first use.  Plans are keyed on the masks, and
is_even, is_odd and parity read them.  Elements are immutable, so the
mask never goes stale.  The views a kernel reads of an operand -- its
scan rows (t, y_t, P(t)) in the order of its terms, its soul rows grouped
by weight for the scan solve, and its dense left vector X and right
vector Y -- are built by that kernel on each call and kept by none: an
operand's view is seldom read twice.

Dispatch: a product scales when one operand has a single term, on mask 0;
that is read off the operand, and the scaled terms are bit for bit those
the scan would give, since the scan makes one product per term and adds
it to 0.  Otherwise a product takes the dense path when
2**n < len(x) * len(y) and 2**n plus the pairs of the used classes is at
most len(x) * len(y), so that it touches no more entries than the scan
would visit.  The rule is the same in both modes: on int numerators, as
on floats, a run makes one multiply and one add per pair, and its
multiplies of absent entries are multiplies by 0.  One-term scalars
therefore never build a class, however many generators the algebra has.
The scan and the dense path add a monomial's contributions in different
orders, so float results differ in round-off only, and rational results
not at all.  A float product with a non-finite coefficient (an
overflow) raises GrassmannError, on every path.

Solves: quotients, powers and logarithms by an even y with body b are one
recurrence (J. C. P. Miller's power-series formula, Knuth, TAOCP Vol. 2,
section 4.7, lifted to the weight grading).  D(e_m) = |m| e_m is a
derivation, and even elements are central, so z = x / y solves z y = x,
z = y**alpha solves y Dz = alpha z Dy and z = log y solves y Dz = Dy.
Each gives, over s | t = m with t in soul(y) and e the sign of e_s * e_t,

    z_m = (start_m - sum factor(|s|, |t|) e z_s y_t) / divisor(|m|)

with (start, factor, divisor):

    x / y        (x_m,                      1,                   b)
    y**alpha     (b**alpha at m = 0,        |s| - alpha |t|,     b |m|, 1 at m = 0)
    log y        (log b at 0, |m| y_m,      |s|,                 b |m|, 1 at m = 0)

so the logarithm is the power rule with alpha = 0 and its own start.
soul(y) has no term of weight 0, so the terms of z of weight w need only
those of lower weight.  One loop serves both paths and runs the weights
in increasing order: weight w takes its start terms, subtracts the pairs
(s, t) with |s| = a < w and |t| = w - a, each times its factor, and
divides by its divisor.  On the dense path the weights are those z can
have (those of start plus sums of soul weights of y), and weight w
gathers the classes (a, w - a) from the dense left vector, into which
each finished weight writes its terms: about one product's pairs.  The
scan finds its weights as it goes, since a finished weight a with a
nonzero term makes a + c pending for each soul weight c, and visits the
pairs of weight a with the soul terms of weight w - a with the product's
pair loop, so its cost is the pairs of z with the soul, whatever n is.
It adds a monomial's pairs in increasing a, then in the order of z's
terms and of y's soul terms, and a float result keeps that order.  In
rational mode the terms of one weight share a denominator: weight w's
sums are kept over the lcm of the start's denominator and those of the
weights that reach it, the finished weight is reduced by one gcd, and
the solution's denominator is the lcm over its weights, which leaves it
in normal form.

A quotient by a one-term scalar b has no soul to solve against: z_m =
x_m / b.  gdiv scales instead of solving.  In rational mode, dividing by
b / dy multiplies every numerator by dy and puts the result over den * b,
with the sign moved off the denominator, reduced once.  In float mode
every term is v / b, the operation the solve runs on it, and a term that
underflows to 0 is dropped, as the solve drops it.

The classical Ptolemy value (a c + b d) / e of five rational one-term
scalars with positive bodies, which a flip with zero mu-invariants
needs, is one fraction (_ptolemy): one numerator and one denominator of
ints, reduced by one gcd, where two products, a sum and a scaling would
each build an element and reduce it.

Dispatch: gdiv scales when its divisor has a single term (an invertible
one-term y is a scalar).  Otherwise a solve takes the dense path when
2**n < len(start) * len(y) + len(y)**2 (the pairs of start and of a
solution about as long as y with y), and its plan holds at most that many
entries, in either mode.  The len(y)**2 counts before the 2**n test:
otherwise a power, whose start is one term, would always scan.  Any other
solve (sparse) scans.

Text: parse_element reads every text term by term (_parse_terms), which
alone raises.  The bulk reader (_parse_rendered) reads the spelling
render_element writes in float mode, and only in a float algebra: it
takes every lambda and mu text of a rendered document as one batch for
fileio._load_rendered, joins them by newlines, splits and converts all
their terms with C-level string and map passes, and then builds one
element per text.  A batch with one text it cannot read is refused whole.
It also refuses a batch whose exact reading could have other terms or
fail: a coefficient that reads 0.0 but is not spelled "0", and one longer
than the interpreter's limit on integer digit strings.  So a batch it
reads has its nonzero terms and body signs where rational mode has them,
and fileio._load_orientation checks lambda and mu on it.  Rational loads
take the term loop: a dense V = 8 document loads in about 13 ms in
rational mode and 2 ms through the float batch (CPython 3.11.7).

Memory: each disjoint pair on n generators sits in exactly one class, and
all indices share one int object each, so the classes on n generators hold
3**n pairs at most, in one tuple per row: 160 KiB at n = 8 and 1232 KiB
at n = 10 with every class built, against 119 and 950 KiB as two
itemgetters per class (tracemalloc, CPython 3.11).  The run functions for
every class take another 50 KiB at n = 8 and 183 KiB at n = 10.  Each
element pays 8 B for its weight-mask slot.  A view lives only for the
call that builds it: at n = 8 and 10, X takes 2.1 and 8.1 KiB and Y 4.1
and 16.1 KiB, plus Y's negated coefficients (24 B per float term), and
the scan rows about 100 B per term (sys.getsizeof, CPython 3.11).
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from itertools import chain, combinations, compress, islice, repeat
from math import gcd
from operator import add, mul, sub, truediv

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


def _ratio(value):
    """An exact scalar as (numerator, denominator) in lowest terms, denominator > 0."""
    if type(value) is int:
        return value, 1
    if isinstance(value, float):
        # refuse silent binary-float noise in exact mode
        raise GrassmannError("float scalar %r in rational mode" % (value,))
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


class GrassmannAlgebra:
    """The Grassmann algebra on a fixed number of generators.

    mode is "rational" (exact, int numerators over one denominator per
    element) or "float".  Two algebras are interchangeable iff they agree
    on both parameters.
    """

    __slots__ = ("num_generators", "mode", "_odd")

    def __init__(self, num_generators, mode=RATIONAL):
        if num_generators < 0:
            raise GrassmannError("number of generators must be >= 0")
        if mode not in (RATIONAL, FLOAT):
            raise GrassmannError("unknown scalar mode %r" % (mode,))
        self.num_generators = num_generators
        self.mode = mode
        # the odd weights of a weight mask, bits 1, 3, 5, ... up to at least
        # num_generators: (4**k - 1) // 3 is 0b0101...01
        self._odd = (1 << (num_generators + 3 & ~1)) // 3 << 1

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
            try:
                value = float(value)
            except OverflowError:   # no repr: an int's may be too long to print
                raise GrassmannError("scalar out of the float range") from None
            if not math.isfinite(value):
                raise GrassmannError("non-finite scalar %r" % (value,))
            return value
        return Fraction(*_ratio(value))

    # -- element constructors --------------------------------------------

    def element(self, terms):
        """Element from a {bitmask: coefficient} map (zeros dropped).

        In rational mode the coefficients are put over the lcm of their
        denominators and the result is reduced once.
        """
        exact = self.mode != FLOAT
        clean = {}
        limit = 1 << self.num_generators
        for mask, coeff in terms.items():
            if not 0 <= mask < limit:
                raise GrassmannError("monomial %d outside algebra on %d generators"
                                     % (mask, self.num_generators))
            c = _ratio(coeff) if exact else self.coerce_scalar(coeff)
            if (c[0] if exact else c) != 0:
                clean[mask] = c
        if not exact:
            return _element(self, clean, 1)
        den = math.lcm(*(d for _, d in clean.values()))
        return _reduced(self, {m: n * (den // d) for m, (n, d) in clean.items()}, den)

    def zero(self):
        return _element(self, {}, 1, 0)

    def one(self):
        return self.scalar(1)

    def scalar(self, value):
        return self._term(0, value)

    def gen(self, i):
        """The i-th generator t<i>."""
        return self.monomial([i])

    def monomial(self, indices, coeff=1):
        """coeff * t_{i1}^t_{i2}^... for distinct indices in any order."""
        mask, sign = _sort_sign(indices, self.num_generators)
        if not sign:
            return self.zero()
        return self._term(mask, coeff, sign)

    def _term(self, mask, value, sign=1):
        """sign * value * e_mask, for a mask in range."""
        if self.mode == FLOAT:
            return self.element({mask: sign * self.coerce_scalar(value)})
        n, d = _ratio(value)
        return _element(self, {mask: sign * n}, d) if n else self.zero()

    def parse(self, text):
        return parse_element(self, text)


class GrassmannElement:
    """Immutable sparse element of a GrassmannAlgebra.

    num maps bitmasks to nonzero numerators over the positive denominator
    den (see the module docstring).  GrassmannElement(algebra, terms)
    builds the element of a {bitmask: coefficient} map, as
    algebra.element does; GrassmannElement(algebra, num, den) builds
    num / den from nonzero numerators and a positive denominator (1 in
    float mode), reduced.  All operations return new elements.

    One slot caches what the kernels read of an element: _w, its weight
    mask (bit k set iff it has a term of weight k), set by the kernel that
    builds the element or computed on first use.  It is only right while
    num and den never change: do not mutate num.
    """

    __slots__ = ("algebra", "num", "den", "_w")

    def __init__(self, algebra, terms, den=None):
        x = algebra.element(terms) if den is None else _reduced(algebra, terms, den)
        self.algebra = algebra
        self.num = x.num
        self.den = x.den
        self._w = None

    # -- structure --------------------------------------------------------

    @property
    def terms(self):
        """The {bitmask: coefficient} map, built on each call: a copy of
        num in float mode, and Fractions num[m] / den in rational mode."""
        if self.algebra.mode == FLOAT:
            return dict(self.num)
        den = self.den
        return {m: Fraction(c, den) for m, c in self.num.items()}

    @property
    def body(self):
        """Coefficient of the empty monomial."""
        if self.algebra.mode == FLOAT:
            return self.num.get(0, 0.0)
        return Fraction(self.num.get(0, 0), self.den)

    @property
    def soul(self):
        """The nilpotent part: self minus its body."""
        return _reduced(self.algebra, {m: c for m, c in self.num.items() if m}, self.den)

    def is_zero(self):
        return not self.num

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero."""
        w = _weights(self)
        odd = self.algebra._odd
        if not w or w & odd and w & odd >> 1:
            return None
        return 1 if w & odd else 0

    def is_even(self):
        """True for even-parity elements; zero counts as even."""
        return not _weights(self) & self.algebra._odd

    def is_odd(self):
        """True for odd-parity elements; zero counts as odd."""
        return not _weights(self) & self.algebra._odd >> 1

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if isinstance(other, GrassmannElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise GrassmannError("elements belong to different algebras: %r vs %r"
                                     % (self.algebra, other.algebra))
            return other
        return self.algebra.scalar(other)

    def __add__(self, other):
        return _add(self, self._check_compatible(other), 1)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self   # zero is its own negative, and immutable
        return _element(self.algebra, {m: -c for m, c in self.num.items()}, self.den,
                        self._w)

    def __sub__(self, other):
        return _add(self, self._check_compatible(other), -1)

    def __rsub__(self, other):
        return _add(self._check_compatible(other), self, -1)

    # gmul checks its operands once; a scalar operand is only coerced here
    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            other = self.algebra.scalar(other)
        return gmul(self, other)

    def __rmul__(self, other):   # other is a scalar: an element calls __mul__
        return gmul(self.algebra.scalar(other), self)

    def __truediv__(self, other):
        return gdiv(self, other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise GrassmannError("only non-negative integer powers")
        result = self.algebra.one()
        for _ in range(n):
            result = gmul(result, self)
        return result

    def __eq__(self, other):
        # an element operand, the common case, skips the isinstance test
        # against Fraction, which goes through ABCMeta
        if type(other) is not GrassmannElement:
            if isinstance(other, (int, Fraction, float)):
                try:
                    other = self.algebra.scalar(other)
                except GrassmannError:
                    return NotImplemented
            elif not isinstance(other, GrassmannElement):
                return NotImplemented
        elif other is self:
            return True
        algebra = other.algebra
        return ((algebra is self.algebra or algebra == self.algebra)
                and self.den == other.den and self.num == other.num)

    def isclose(self, other, tol=1e-9):
        """Coefficientwise comparison within absolute tolerance tol, exact in
        rational mode: |x/dx - y/dy| > tol is |x dy - y dx| > floor(tol dx dy).
        An infinite or nan tol compares as on floats, as it does with a Fraction."""
        other = self._check_compatible(other)
        a, b, da, db = self.num, other.num, self.den, other.den
        if self.algebra.mode == FLOAT or isinstance(tol, float) and not math.isfinite(tol):
            bound = tol   # in float mode da = db = 1
        else:
            tol = Fraction(tol)
            bound = tol.numerator * da * db // tol.denominator
        for m in a.keys() | b.keys():
            if abs(a.get(m, 0) * db - b.get(m, 0) * da) > bound:
                return False
        return True

    # -- text form ----------------------------------------------------------

    def __str__(self):
        return render_element(self)

    __repr__ = __str__


def _element(algebra, num, den, w=None):
    """The element num / den, already in normal form, with weight mask w
    (None: computed on first use)."""
    x = object.__new__(GrassmannElement)
    x.algebra = algebra
    x.num = num
    x.den = den
    x._w = w
    return x


def _reduced(algebra, num, den, w=None):
    """The element num / den for nonzero numerators and a positive
    denominator, reduced by one gcd, which keeps every term and so w."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return _element(algebra, num, den, w)


def _weights(x):
    """x's weight mask, computed once."""
    w = x._w
    if w is None:
        w = 0
        for k in set(map(int.bit_count, x.num)):
            w |= 1 << k
        x._w = w
    return w


def _add(x, y, sign):
    """x + sign * y over the lcm of their denominators, reduced once."""
    if not y.num:
        return x
    den = x.den
    if den == y.den:
        num = dict(x.num)
        k = sign
    else:
        g = gcd(den, y.den)
        scale = y.den // g
        num = {m: c * scale for m, c in x.num.items()}
        k = sign * (den // g)
        den *= scale
    get = num.get
    terms = y.num.items() if k == 1 else zip(y.num, map(mul, y.num.values(), repeat(k)))
    for m, c in terms:
        s = get(m, 0) + c
        if s:
            num[m] = s
        else:
            num.pop(m, None)
    return _reduced(x.algebra, num, den)


# ---------------------------------------------------------------------------
# core operations


# (n, a, b) -> (k, rows): the weight class of every disjoint pair (s, t) on
# n generators with |s| = a and |t| = b, as index rows into the dense vectors
# of _dense_terms (see the module docstring)
_CLASSES = {}
# k -> the run function of _run, shared by every class with runs of k pairs
_RUNS = {}
# the most products one expression of a run adds: the compiler recurses once
# per operator of an expression, and class (7, 7) on 14 generators has runs
# of 3432 pairs
_CHUNK = 128
# n -> tuple(range(2**(n+1))): the one int object of each index
_INDICES = {}
# (n, left weights, right weights, solve) -> the plan of _dense_plan, or
# (entries, None) while every caller has refused it
_PLANS = {}
# (n, w) -> the monomials of weight w, in increasing order
_WEIGHT_MONOMIALS = {}


def _weight_monomials(n, w):
    monomials = _WEIGHT_MONOMIALS.get((n, w))
    if monomials is None:
        monomials = _WEIGHT_MONOMIALS[n, w] = tuple(
            m for m in _indices(n)[:1 << n] if m.bit_count() == w)
    return monomials


def _indices(n):
    indices = _INDICES.get(n)
    if indices is None:
        indices = _INDICES[n] = tuple(range(2 << n))
    return indices


def _weight_class(n, a, b):
    """Build and keep class (a, b) on n generators, as (k, rows).

    Each monomial m of weight a + b, in increasing order, has one row
    (s_1, ..., s_k, u_1, ..., u_k): its k = C(a + b, a) submasks s of
    weight a, then for each s, with t = m ^ s, u = t or, when e_s * e_t =
    -e_m, u = t + 2**n, so that the right vector's Y[u] carries the sign.
    """
    indices = _indices(n)
    full = 1 << n
    rows = []
    for m in _weight_monomials(n, a + b):
        left, right = [], []
        for chosen in combinations([1 << i for i in range(n) if m >> i & 1], a):
            s = sum(chosen)
            t = m ^ s
            left.append(indices[s])
            right.append(indices[t + full if (s & _below_parity(t)).bit_count() & 1 else t])
        rows.append(tuple(left + right))
    entry = _CLASSES[n, a, b] = (math.comb(a + b, a), rows)
    return entry


def _run(k):
    """Compile and keep the run function for runs of k pairs.

    run(rows, X, Y) is [X[s_1]*Y[u_1] + ... + X[s_k]*Y[u_k] for each row
    (s_1, ..., s_k, u_1, ..., u_k) of rows]: specialized bytecode, with no
    call per pair.  The products of a row are added left to right, as
    sum() adds them on CPython 3.10 and 3.11, in statements v = v + ... of
    at most _CHUNK products each, which keeps every expression shallow
    enough for the compiler.
    """
    products = ["X[s%d]*Y[u%d]" % (i, i) for i in range(k)]
    chunks = [" + ".join(products[i:i + _CHUNK]) for i in range(0, k, _CHUNK)]
    source = "\n".join([
        "def run(rows, X, Y):",
        "    out = []",
        "    append = out.append",
        "    for %s in rows:" % ", ".join(["s%d" % i for i in range(k)]
                                         + ["u%d" % i for i in range(k)]),
        "        v = " + chunks[0],
        *["        v = v + " + chunk for chunk in chunks[1:]],
        "        append(v)",
        "    return out\n"])
    namespace = {}
    exec(compile(source, "<run of %d pairs>" % k, "exec"), namespace)
    run = _RUNS[k] = namespace["run"]
    return run


def _plan(n, classes, weights=()):
    """(entries, groups) for a product over the given classes.

    entries is 2**n plus the pairs in the classes.  groups holds, for each
    output weight w in increasing order (those of the classes and those in
    weights), w, the monomials of weight w and the keys (n, a, b) of the
    classes with a + b = w.
    """
    by_weight = {w: [] for w in weights}
    for a, b in classes:
        by_weight.setdefault(a + b, []).append((n, a, b))
    return _entries(n, classes), tuple((w, _weight_monomials(n, w), tuple(by_weight[w]))
                                       for w in sorted(by_weight))


def _entries(n, classes):
    """2**n plus the pairs in the classes, counted without building them."""
    return (1 << n) + sum(math.comb(n, a + b) * math.comb(a + b, a) for a, b in classes)


def _solve_weights(n, weights, souls):
    """The weights of a solution: those of its start plus sums of soul weights, up to n."""
    reached = set(weights)
    frontier = reached
    while frontier:
        frontier = {a + c for a in frontier for c in souls if a + c <= n} - reached
        reached |= frontier
    return sorted(reached)


def _bits(w):
    """The set bits of w, in increasing order."""
    return [k for k in range(w.bit_length()) if w >> k & 1]


def _dense_plan(n, xlen, wx, ylen, wy, solve=False):
    """The plan of x * y, or with solve=True of the solve by y from start x,
    on the dense path, for operands of xlen and ylen terms with weight
    masks wx and wy.

    None when the scan's count, xlen * ylen plus for a solve ylen**2, is
    at most 2**n, or when the dense vectors and the used classes together
    hold more entries than that count.  A solve uses the classes (a, c)
    with a a weight that its solution can have and c a soul weight of y,
    and has a group for every such weight, classes or none.  Plans are
    kept per pair of weight masks; they name classes but hold no pairs,
    and a class is built only when a product first uses it.  A refused
    plan is kept as its entry count alone, (entries, None): its groups,
    with their tables of monomials over 2**(n+1) indices, are built only
    once some operands accept it.
    """
    pairs = xlen * ylen
    if solve:   # the solution is about as long as y, so its pairs with the soul
        pairs += ylen * ylen
    if pairs <= 1 << n:
        return None
    key = (n, wx, wy, solve)
    plan = _PLANS.get(key)
    if plan is None or plan[1] is None and plan[0] <= pairs:
        left, right = _bits(wx), _bits(wy)
        if solve:
            right = [c for c in right if c]
            left = _solve_weights(n, left, right)
        classes = [(a, b) for a in left for b in right if a + b <= n]
        entries = _entries(n, classes)
        plan = _PLANS[key] = (_plan(n, classes, left if solve else ()) if entries <= pairs
                              else (entries, None))
    return plan if plan[0] <= pairs else None


def _zero(x):
    return 0.0 if x.algebra.mode == FLOAT else 0


def _left_vector(x):
    """[x_s at s, zero elsewhere], 2**n long: x's dense left vector."""
    left = [_zero(x)] * (1 << x.algebra.num_generators)
    for s, c in x.num.items():
        left[s] = c
    return left


def _right_vector(y):
    """[y_t at t, -y_t at t + 2**n, zero elsewhere], 2**(n+1) long:
    y's dense right vector."""
    full = 1 << y.algebra.num_generators
    right = [_zero(y)] * (2 * full)
    for t, c in y.num.items():
        right[t] = c
        right[t + full] = -c
    return right


def _rows(y):
    """y's scan rows (t, y_t, P(t)), in the order of y's terms."""
    return [(t, c, _below_parity(t)) for t, c in y.num.items()]


def _soul_rows(y):
    """{c: the rows (t, -y_t, P(t)) of y's soul terms of weight c}, weights
    in the order of their first term and rows in the order of y's terms."""
    souls = {}
    for t, c in y.num.items():
        if t:
            souls.setdefault(t.bit_count(), []).append((t, -c, _below_parity(t)))
    return souls


def _class_sums(keys, left, right, factor=None):
    """For each monomial of one output weight, in increasing order, the sum
    of its signed pairs over the classes keys, each class's sums times
    factor(a, b) when factor is given.

    Each class is one call of the run function for its run length over
    its rows; the classes are then added elementwise, in the order of keys.
    """
    total = None
    for key in keys:
        k, rows = _CLASSES.get(key) or _weight_class(*key)
        part = (_RUNS.get(k) or _run(k))(rows, left, right)
        if factor is not None:
            part = map(mul, part, repeat(factor(key[1], key[2])))
        total = part if total is None else map(add, total, part)
    return total


def _dense_terms(x, y, plan):
    """(terms, w): the nonzero numerators of x * y over x.den * y.den,
    summed class by class, and their weight mask.

    x's left vector holds x densely and y's right vector holds y and -y,
    so each row of a class reads its pairs and their signs by index; the
    classes of one output weight are added elementwise, and the weight is
    in w when one of its sums is nonzero.
    """
    left, right = _left_vector(x), _right_vector(y)
    terms = {}
    w = 0
    for weight, monomials, keys in plan[1]:
        values = list(_class_sums(keys, left, right))
        size = len(terms)
        terms.update(zip(compress(monomials, values), filter(None, values)))
        if len(terms) > size:
            w |= 1 << weight
    return terms, w


def _scan_pairs(left, right, terms):
    """Add the signed product of every disjoint pair of terms to terms.

    left holds (s, c_s) pairs and right (t, c_t, P(t)) triples; terms is a
    {monomial: sum} map, and a monomial new to it is appended in the order
    of its first pair, left-major.
    """
    get = terms.get
    for s, cs in left:
        for t, ct, p in right:
            if s & t:
                continue
            m = s | t
            if (s & p).bit_count() & 1:
                terms[m] = get(m, 0) - cs * ct
            else:
                terms[m] = get(m, 0) + cs * ct


def _scan_terms(x, y):
    """The nonzero numerators of x * y over x.den * y.den, visiting every pair of terms."""
    terms = {}
    _scan_pairs(x.num.items(), _rows(y), terms)
    return {m: c for m, c in terms.items() if c}


def _scaled(x, c, dc, quotient):
    """x * (c / dc), or x / (c / dc) with quotient set, for a nonzero
    one-term scalar c / dc, reduced once, with x's weight mask when no
    term was dropped.

    In rational mode every numerator is multiplied by one int: by c over
    x.den * dc for a product, and by dc over x.den * c for a quotient,
    with the sign of c moved onto the numerators.  In float mode (dc = 1)
    each term is v * c or v / c, the operation the scan and the solve
    run on it, and a term that underflows to 0 is dropped.
    """
    alg = x.algebra
    if alg.mode == FLOAT:
        values = map(truediv if quotient else mul, x.num.values(), repeat(c))
        terms = {m: v for m, v in zip(x.num, values) if v}
        return _element(alg, terms, 1, x._w if len(terms) == len(x.num) else None)
    if quotient:
        c, dc = (dc, c) if c > 0 else (-dc, -c)
    return _reduced(alg, {m: v * c for m, v in x.num.items()}, x.den * dc, x._w)


def _ptolemy(a, b, c, d, e):
    """(a c + b d) / e for rational one-term scalars with positive bodies,
    as one fraction reduced by one gcd.

    With bodies A/da, B/db, C/dc, D/dd and E/de the value is
    (A C db dd + B D da dc) de over da db dc dd E.  Both are positive, so
    this is the quotient gdiv(a * c + b * d, e) gives through two
    products, a sum and a scaling, each reduced on its own: the normal
    form is unique.
    """
    da, db, dc, dd = a.den, b.den, c.den, d.den
    num = (a.num[0] * c.num[0] * db * dd + b.num[0] * d.num[0] * da * dc) * e.den
    den = da * db * dc * dd * e.num[0]
    g = gcd(num, den)
    return _element(a.algebra, {0: num // g}, den // g, 1)


def gmul(x, y):
    """Product in the Grassmann algebra.

    e_S * e_T = 0 when S and T intersect, else sign(S,T) * e_{S union T},
    with the sign read off one popcount (see the module docstring).  The
    numerators multiply, the denominators multiply, and a rational
    product is reduced once.  A one-term scalar operand scales the other
    operand's terms; a product whose weight classes hold no more entries
    than the scan would visit is summed class by class; any other product
    scans every pair.  A float product with a non-finite coefficient is
    an error.
    """
    x._check_compatible(y)
    xnum, ynum = x.num, y.num
    if len(ynum) == 1 and 0 in ynum:
        z = _scaled(x, ynum[0], y.den, False)
    elif len(xnum) == 1 and 0 in xnum:
        z = _scaled(y, xnum[0], x.den, False)
    else:
        alg = x.algebra
        plan = _dense_plan(alg.num_generators, len(xnum), _weights(x), len(ynum), _weights(y))
        if plan is None:
            terms, w = _scan_terms(x, y), None
        else:
            terms, w = _dense_terms(x, y, plan)
        z = _reduced(alg, terms, x.den * y.den, w)
    if z.algebra.mode == FLOAT:
        _check_finite(z.num, "product", len(xnum), len(ynum))
    return z


def _check_finite(terms, what, xlen, ylen):
    """Refuse a float result with a non-finite coefficient: an overflow.

    The sum of finite values is finite unless it overflows, so the values
    are scanned only when their sum is not finite.
    """
    values = terms.values()
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise GrassmannError("float overflow in %s of %d by %d terms" % (what, xlen, ylen))


def _rules(y, alpha):
    """(factor, divisor, fden) of the solve by y (see _solve).

    In float mode factor(a, c) is the float factor (None for a quotient),
    divisor(w) the divisor and fden 1.  In rational mode, with y's body
    B / dy, factor(a, c) is an int numerator over fden, and divisor(w) is
    (mult, div): dividing by the divisor multiplies by mult / div.
    """
    b = y.num.get(0, 0)
    if y.algebra.mode == FLOAT:
        if alpha is None:
            return None, lambda w: b, 1
        a = alpha[0] / alpha[1]
        return (lambda s, t: s - a * t), (lambda w: b * w if w else 1), 1
    dy = y.den
    if alpha is None:
        return None, lambda w: (dy, b), 1
    p, q = alpha
    return (lambda s, t: s * q - p * t), (lambda w: (dy, b * w) if w else (1, 1)), q


def _finish(values, den, mult, div):
    """A finished weight of a rational solve: its pending sums values over
    den, divided by the divisor (mult, div), as (den, values) with den
    positive and coprime to the values."""
    den *= div
    if den < 0:
        den, mult = -den, -mult
    values = [v * mult for v in values]
    g = gcd(den, *values)
    if g != 1:
        den //= g
        values = [v // g for v in values]
    return den, values


# _reaching, _over_lcm and _times serve _solve's loop from outside it: a
# comprehension or lambda inside the loop would make its locals closure cells,
# which slows every weight of a scan solve.


def _reaching(done, souls, w):
    """The finished weights a of a scan solve with a soul weight w - a."""
    return [a for a in done if w - a in souls]


def _over_lcm(factor, fden, dens, sden, sources):
    """(den, weigh) for one weight of a rational solve whose pairs come from
    the finished weights sources: den is the lcm of sden and of fden *
    dens[a] for each a in sources, and weigh(a, c) is the factor of class
    (a, c) as a numerator over den."""
    scales = {a: fden * dens[a] for a in sources}
    den = math.lcm(sden, *scales.values())
    return den, lambda a, c: (1 if factor is None else factor(a, c)) * (den // scales[a])


def _times(row, k):
    """Scan rows (t, v, P(t)) with every v multiplied by k."""
    return [(t, k * v, p) for t, v, p in row]


def _join(terms, dens):
    """(terms, den): the terms of each weight w, numerators over dens[w],
    put over den, the lcm of dens (1 when dens is empty)."""
    den = math.lcm(*dens.values())
    if den != 1:
        for m, c in terms.items():
            d = dens[m.bit_count()]
            if d != den:
                terms[m] = c * (den // d)
    return terms, den


def _solve(y, start, sden, wstart, alpha, what):
    """The element z with z_m = (start_m / sden - sum factor(|s|, |t|) e
    z_s y_t) / divisor(|m|), over s | t = m with t in soul(y), in
    increasing weight; wstart is the weight mask of start.

    alpha is None for the quotient by y (factor 1, divisor b), or a pair
    (p, q) of ints for the power rule with alpha = p / q (factor
    |s| - alpha |t|, divisor b |m| and 1 at m = 0).  One loop over the
    weights serves the dense path and the scan (see the module
    docstring).  A float solve with a non-finite coefficient is an error.
    """
    alg = y.algebra
    n = alg.num_generators
    exact = alg.mode != FLOAT
    factor, divisor, fden = _rules(y, alpha)
    plan = _dense_plan(n, len(start), wstart, len(y.num), _weights(y), solve=True)
    dense = plan is not None
    if dense:
        zero = _zero(y)
        left = [zero] * (1 << n)   # the solution's dense left vector
        right = _right_vector(y)
        groups = {w: (monomials, keys) for w, monomials, keys in plan[1]}
        pending = dict.fromkeys(groups, start)   # every weight the solution can have
    else:
        souls = _soul_rows(y)
        pending = {}   # weight -> its start terms, to which the scan adds its pairs
        for m, c in start.items():
            pending.setdefault(m.bit_count(), {})[m] = c
        done = {}    # finished weight -> its nonzero terms
    terms = {}
    dens = {}
    wz = 0   # the weights that found a term
    while pending:
        w = min(pending)
        sums = pending.pop(w)
        if dense:
            monomials, reached = groups[w]
        weigh = factor   # of class (a, c); in rational mode it also puts the class over den
        if exact:
            den, weigh = _over_lcm(factor, fden * y.den, dens, sden,
                                   [key[1] for key in reached] if dense else
                                   _reaching(done, souls, w))
        if dense:
            values = map(sums.get, monomials, repeat(zero))
            if exact and den != sden:
                values = map(mul, values, repeat(den // sden))
            if reached:
                values = map(sub, values, _class_sums(reached, left, right, weigh))
        else:
            if exact and den != sden:
                sums = dict(zip(sums, map(mul, sums.values(), repeat(den // sden))))
            for a, za in done.items():   # the finished weights a that reach w
                row = souls.get(w - a)
                if row is not None:
                    if weigh is not None:
                        row = _times(row, weigh(a, w - a))
                    _scan_pairs(za.items(), row, sums)
            monomials, values = sums, sums.values()
        if exact:
            dens[w], values = _finish(list(values), den, *divisor(w))
            found = dict(zip(compress(monomials, values), filter(None, values)))
        else:
            d = divisor(w)
            found = {}
            if dense:
                for m, v in zip(monomials, values):
                    v /= d
                    if v:
                        found[m] = left[m] = v
            else:
                for m, v in sums.items():
                    v /= d
                    if v:
                        found[m] = v
        if not found:
            continue
        wz |= 1 << w
        terms.update(found)
        if not dense:
            done[w] = found
            for c in souls:
                if w + c <= n and w + c not in pending:
                    pending[w + c] = {}
        elif exact:
            for m, v in found.items():
                left[m] = v
    terms, den = _join(terms, dens)
    if not exact:
        _check_finite(terms, what, len(start), len(y.num))
    return _element(alg, terms, den, wz)


def _check_even(x, what):
    if not x.is_even():
        raise GrassmannError("%s requires even parity, got %s" % (what, x))


def gdiv(x, y):
    """Quotient x / y = x * y**-1 for an even y with nonzero body.

    The solve of q y = x: q_m = (x_m - sum e q_s y_t) / b, with b the
    body of y.  A one-term scalar y has no soul, so the quotient only
    scales x's terms by it.  A float quotient with a non-finite
    coefficient is an error.
    """
    y = x._check_compatible(y)
    _check_even(y, "inverse")
    b = y.num.get(0)
    if not b:
        raise GrassmannError("zero body: %s is not invertible" % (y,))
    if len(y.num) > 1:
        return _solve(y, x.num, x.den, _weights(x), None, "quotient")
    z = _scaled(x, b, y.den, True)
    if z.algebra.mode == FLOAT:
        _check_finite(z.num, "quotient", len(x.num), 1)
    return z


def ginv(x):
    """Multiplicative inverse of an even element with nonzero body: gdiv(1, x)."""
    return gdiv(x.algebra.one(), x)


def _body_root(x, what):
    """sqrt(body) of an even x with positive body, as (numerator, denominator).

    In rational mode the body must be the square of a rational; in float
    mode the pair is (sqrt(body), 1).
    """
    _check_even(x, what)
    b = x.num.get(0, 0)
    if b <= 0:
        raise GrassmannError("%s requires positive body, got %s" % (what, x.body))
    if x.algebra.mode == FLOAT:
        return math.sqrt(b), 1
    g = gcd(b, x.den)
    p, q = b // g, x.den // g
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise GrassmannError("body %s is not a square of a rational; "
                             "use float mode" % (x.body,))
    return rp, rq


def gsqrt(x):
    """Square root with positive body of an even element.

    The power x**(1/2), solved weight by weight from its body root.  In
    rational mode the body must be the square of a rational, otherwise an
    error is raised (switch the algebra to float mode for generic bodies).
    """
    rp, rq = _body_root(x, "square root")
    return _solve(x, {0: rp}, rq, 1, (1, 2), "square root")


def ginvsqrt(x):
    """Inverse square root, x**(-1/2) with positive body, of an even element.

    The same solve as gsqrt with alpha = -1/2; the same parity, body and
    rational-square rules as gsqrt.
    """
    rp, rq = _body_root(x, "inverse square root")
    if x.algebra.mode == FLOAT:
        rp, rq = 1 / rp, 1
    else:
        rp, rq = rq, rp
    return _solve(x, {0: rp}, rq, 1, (-1, 2), "inverse square root")


def glog(x):
    """Logarithm of an even element with positive body.

    The solve of x DL = Dx: L_0 = log(b) and
    L_m = (|m| x_m - sum |s| e L_s x_t) / (b |m|).  Rational mode is only
    exact when the body equals 1 (log 1 = 0); any other body requires
    float mode.
    """
    _check_even(x, "logarithm")
    b = x.num.get(0, 0)
    if b <= 0:
        raise GrassmannError("logarithm requires positive body, got %s" % (x.body,))
    if x.algebra.mode == FLOAT:
        log_b = math.log(b)
    elif b != x.den:
        raise GrassmannError("log of body %s is irrational; use float mode "
                             "(rational mode needs body 1)" % (x.body,))
    else:
        log_b = 0
    start = {m: m.bit_count() * c for m, c in x.num.items() if m}
    start[0] = log_b
    return _solve(x, start, x.den, _weights(x) | 1, (0, 1), "logarithm")


# ---------------------------------------------------------------------------
# text format: terms sorted by bitmask, "coeff*t<i>^t<j>", e.g. "1 + 2*t0^t1".
# parse_element reads every text with the term loop (_parse_terms), which is
# the only path that raises.  fileio.load_state reads a float document's
# texts in bulk (_parse_rendered, one batch per document) when their
# coefficients are integers, decimals or exponents of at most two digits (the
# repr floats of float mode), with " + " and " - " between terms, generators
# in increasing order and no monomial twice.


@functools.lru_cache(maxsize=1024)
def _monomial_text(mask):
    """The text of a monomial, e.g. 0b101 -> "t0^t2"; 0 -> "".

    Kept per mask: the elements of one document repeat their monomials.
    """
    gens = []
    while mask:
        low = mask & -mask
        gens.append("t%d" % (low.bit_length() - 1))
        mask ^= low
    return "^".join(gens)


def render_element(x):
    """The text form; a rational coefficient prints as str(Fraction) would."""
    if not x.num:
        return "0"
    exact = x.algebra.mode != FLOAT
    den = x.den
    parts = []
    for mask in sorted(x.num):
        c = x.num[mask]
        negative = c < 0
        if negative:
            c = -c
        if not exact:
            body = repr(c)
        else:
            g = gcd(c, den)
            body = str(c // g) if g == den else "%d/%d" % (c // g, den // g)
        if mask:
            body = "%s*%s" % (body, _monomial_text(mask))
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
    """, re.VERBOSE | re.ASCII)
_GEN_RE = re.compile(r"t(\d+)", re.ASCII)
# the bytes a float-mode rendered element is made of, and an exponent of
# three or more digits, which the term loop holds to
# sys.get_int_max_str_digits() (640 at the least, when set)
_RENDERED = b"0123456789.e+-*t^ "
_LONG_EXPONENT = re.compile(r"e[-+]?\d\d\d").search


@functools.lru_cache(maxsize=1024)
def _monomial(text, num_generators):
    """(mask, sign, rendered) of a monomial's text, e.g. "t1^t0" -> (0b11,
    -1, False); "" -> (0, 1, True).  rendered is whether render_element
    spells the monomial so, which rules out "t0t1", "t1^t1" and other text
    the findall reads.

    Kept per text: the elements of one document repeat their monomials.
    """
    try:
        indices = list(map(int, _GEN_RE.findall(text)))
    except ValueError:  # an index longer than the interpreter converts
        raise GrassmannError("generator index with more than %d digits"
                             % sys.get_int_max_str_digits()) from None
    mask, sign = _sort_sign(indices, num_generators)
    return mask, sign, text == _monomial_text(mask)


def _parse_number(algebra, num):
    """A coefficient literal as a Fraction in rational mode and a float in
    float mode.  Exponents and digit runs are held to the interpreter's
    limit on integer digit strings, so no literal stalls the parser.
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
    except OverflowError:  # a fraction beyond the float range
        raise GrassmannError("non-finite coefficient %r" % (num,)) from None
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
    mode reads a/b as the float nearest to the fraction.  Rational mode
    sums the terms' numerators over the lcm of their denominators and
    reduces the element once.

    Every text goes through the term loop (_parse_terms), which alone
    raises.  Only a whole float document is read in bulk
    (_parse_rendered, called by fileio._load_rendered).
    """
    return _parse_terms(algebra, text)


def _parse_rendered(algebra, texts):
    """The elements of the texts in algebra, a float-mode algebra, read in
    bulk as one batch, when every text is spelled as render_element
    spells it in float mode; None otherwise.

    That spelling is an integer, decimal or exponent coefficient (no
    fraction) on every term, "*" before each monomial, monomials as
    "t<i>^t<j>..." with increasing distinct indices, terms joined by " + "
    or " - ", and exponents of at most two digits.  The texts are joined
    by newlines, which no text may hold, and their terms are split and
    converted with C-level string and map operations over the whole batch;
    only the building of each element is a step per text.  No term is
    summed: a repeated monomial is refused, like every text _parse_terms
    rejects, so each element read is _parse_terms's element of its text,
    float bits and dict order included.

    It also refuses a batch whose coefficient sum is not finite, that has
    a coefficient reading 0.0 not spelled "0" (the zero element's text;
    render_element writes no other), or a coefficient text longer than
    sys.get_int_max_str_digits() when that limit is set.  So an element
    read here has a term exactly where rational mode reads one, with the
    same sign, and rational mode reads every text without error: the
    weight masks and body signs are rational mode's.
    """
    if not texts:
        return []
    s = "\n".join(texts)
    if not s.isascii() or s.encode().translate(None, _RENDERED) != b"\n" * (len(texts) - 1) or (
            "e" in s and _LONG_EXPONENT(s)):
        return None
    split = list(map(str.split, s.replace(" - ", " + -").split("\n"), repeat(" + ")))
    terms = list(chain.from_iterable(split))
    # each " + " takes two spaces, so no text has a space inside a term
    # exactly when the batch has two per term after the first of each text
    if s.count(" ") != 2 * (len(terms) - len(texts)):
        return None
    coeffs, stars, monos = zip(*map(str.partition, terms, repeat("*")))
    limit = sys.get_int_max_str_digits()
    try:
        masks, _, rendered = zip(*map(_monomial, monos, repeat(algebra.num_generators)))
        if (not all(rendered) or masks.count(0) != stars.count("")   # "5*" has no monomial
                or 0 < limit < len(s) and limit < max(map(len, coeffs))):
            return None
        values = list(map(float, coeffs))
    except ValueError:   # GrassmannError is a ValueError
        return None
    # inf and nan propagate through the sum
    if not math.isfinite(sum(values)) or values.count(0.0) != coeffs.count("0"):
        return None
    rows = zip(masks, values)
    nums = list(map(dict, map(islice, repeat(rows), map(len, split))))
    if sum(map(len, nums)) != len(values):   # a repeated monomial: the loop adds
        return None
    if not all(values):
        nums = [{m: c for m, c in num.items() if c} for num in nums]
    return list(map(_element, repeat(algebra), nums, repeat(1)))


def _parse_terms(algebra, text):
    """parse_element's term loop: one regex match per term, any spelling
    the grammar allows, and every error message with its position.  The
    values of each monomial are summed, and algebra.element puts them in
    normal form."""
    s = text.strip()
    if not s:
        raise GrassmannError("empty element text")
    one = 1.0 if algebra.mode == FLOAT else 1
    terms = {}
    pos = 0
    while pos < len(s):
        term = _TERM_RE.match(s, pos)
        signs, num, star, mono = term.groups()
        if (pos and not signs) or not (num or mono) or bool(num and mono) != bool(star):
            raise GrassmannError("expected term at position %d of %r" % (pos, s))
        c = one if num is None else _parse_number(algebra, num)
        mask, sign, _ = _monomial(mono or "", algebra.num_generators)
        if signs and signs.count("-") & 1:
            sign = -sign
        if sign:
            if sign < 0:
                c = -c
            if mask in terms:  # a repeated monomial: only then add
                c += terms[mask]
            terms[mask] = c
        pos = term.end()
    if algebra.mode == FLOAT and not all(map(math.isfinite, terms.values())):
        raise GrassmannError("coefficient sum overflows in %r" % (text,))
    return algebra.element(terms)
