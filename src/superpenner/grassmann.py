"""Finite Grassmann (exterior) algebra arithmetic.

Elements live in the real algebra on N anticommuting generators t0..t(N-1).
Coefficients are exact rationals or 64-bit floats, chosen once per algebra.
Monomials are generator subsets stored as bitmasks; an element is a sparse
map from bitmasks to nonzero coefficients.  Quotients, the inverse,
square root, inverse square root and logarithm are one weight-by-weight
solve, exact because the soul is nilpotent -- no tolerance-based
truncation anywhere.

Sign rule: for disjoint S and T, e_S * e_T = (-1)**k e_{S | T}, where k
counts the pairs i in S, j in T with i > j.  Bit i of the mask P(T) is the
parity of the bits of T below i (for i at or above T.bit_length() it is
the parity of all of T), so k is odd exactly when (S & P(T)).bit_count()
is odd: one popcount per term pair.

Product paths: gmul takes one of two paths for a whole product.  The scan
visits all len(x) * len(y) pairs of terms, skips those that meet and signs
the rest with one popcount.  The dense path walks weight classes, one per
(n, a, b), cached for the life of the process.  Class (a, b) lists every
monomial m of weight a + b, in increasing order, with its k = C(a + b, a)
submasks s of weight a, as two operator.itemgetters: one over a dense left
vector X with X[s] = x_s (0 where x has no term), one over a right vector
Y with Y[t] = y_t and Y[t + 2**n] = -y_t, so that the index carries the
sign of e_s * e_t for t = m ^ s.  A product uses the classes (a, b) where x
has a term of weight a and y one of weight b.  Each class gathers, multiplies
and sums its runs of k pairs in C, and the classes of one output weight are
added elementwise.  Souls and powers of souls have no low-weight terms, so
they skip those classes.  The classes of a product, grouped by output
weight, are kept per pair of weight sets; this plan names classes and
holds no pairs.

Dispatch: a product takes the dense path when the algebra is float,
2**n < len(x) * len(y), and 2**n plus the pairs of the used classes is at
most len(x) * len(y), so that it touches no more entries than the scan
would visit.  Rational products always scan: a Fraction multiply costs the
same on both paths, and the dense path also multiplies absent entries.
One-term scalars therefore never build a class, however many generators
the algebra has.  The two paths add a monomial's contributions in
different orders, so float results differ in round-off only.  A float
product with a non-finite coefficient (an overflow) raises GrassmannError.

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

soul(y) has no term of weight 0, so the terms of z of weight w need only
those of lower weight, and the solve runs in increasing weight.  On the
dense path the weights z can have (those of start plus sums of soul
weights of y) run in increasing order; weight w gathers the classes
(a, c) with a + c = w and c a soul weight of y, each times its factor,
from the dense left vector, which by then holds every term of lower
weight, and writes its own terms into it.  That is about one product's
pairs.  The scan keeps pending sums per weight, finishes the lowest
weight first and pushes each finished term's pairs with the soul upward,
so its cost is the pairs of z with the soul, whatever n is.

Dispatch: a solve takes the dense path when the algebra is float,
2**n < len(start) * len(y) + len(y)**2 (the pairs of start and of a
solution about as long as y with y), and its plan holds at most that many
entries.  The len(y)**2 counts before the 2**n test: otherwise a power,
whose start is one term, would always scan.  Any other solve (rational,
sparse, or by a one-term scalar) scans.

Memory: each disjoint pair on n generators sits in exactly one class, and
all indices share one int object each, so the classes on n generators hold
3**n pairs at most: 133 KiB at n = 8 and 1030 KiB at n = 10 with every
class built, 43 KiB and 312 KiB for the even-by-even classes (tracemalloc,
CPython 3.11).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import combinations, compress, repeat
from operator import add, itemgetter, mul, sub, truediv

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
        return gdiv(self, other)

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


# (n, a, b) -> (k, left, right): the weight class of every disjoint pair
# (s, t) on n generators with |s| = a and |t| = b, as itemgetters over the
# dense vectors of _dense_terms (see the module docstring).
_CLASSES = {}
# n -> tuple(range(2**(n+1) + 1)): the one int object of each index
_INDICES = {}
# (n, left weights, right weights) -> the plan of _dense_plan
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
        indices = _INDICES[n] = tuple(range((2 << n) + 1))
    return indices


def _weight_class(n, a, b):
    """Build and keep class (a, b) on n generators.

    For each monomial m of weight a + b, in increasing order, it lists the
    k = C(a + b, a) submasks s of weight a, with t = m ^ s: the left
    getter reads X[s], the right getter Y[t] or, when e_s * e_t = -e_m,
    Y[t + 2**n].
    """
    indices = _indices(n)
    full = 1 << n
    left, right = [], []
    for m in _weight_monomials(n, a + b):
        for chosen in combinations([1 << i for i in range(n) if m >> i & 1], a):
            s = sum(chosen)
            t = m ^ s
            left.append(indices[s])
            right.append(indices[t + full if (s & _below_parity(t)).bit_count() & 1 else t])
    if len(left) == 1:   # a one-key itemgetter returns a scalar, not a tuple
        left.append(indices[full])
        right.append(indices[2 * full])
    entry = _CLASSES[n, a, b] = (math.comb(a + b, a), itemgetter(*left), itemgetter(*right))
    return entry


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
    entries = (1 << n) + sum(math.comb(n, a + b) * math.comb(a + b, a) for a, b in classes)
    return entries, tuple((w, _weight_monomials(n, w), tuple(by_weight[w]))
                          for w in sorted(by_weight))


def _solve_weights(n, weights, souls):
    """The weights of a solution: those of its start plus sums of soul weights, up to n."""
    reached = set(weights)
    frontier = reached
    while frontier:
        frontier = {a + c for a in frontier for c in souls if a + c <= n} - reached
        reached |= frontier
    return sorted(reached)


def _dense_plan(n, xterms, yterms, solve=False):
    """The plan of x * y, or with solve=True of the solve by y from start x, on the dense path.

    None when the scan's count, len(xterms) * len(yterms) plus for a
    solve len(yterms)**2, is at most 2**n, or when the dense vectors and
    the used classes together hold more entries than that count.  A solve
    uses the classes (a, c) with a a weight that its solution can have
    and c a soul weight of y, and has a group for every such weight,
    classes or none.  Plans are kept per pair of weight sets; they name
    classes but hold no pairs, and a class is built only when a product
    first uses it.
    """
    pairs = len(xterms) * len(yterms)
    if solve:   # the solution is about as long as y, so its pairs with the soul
        pairs += len(yterms) ** 2
    if pairs <= 1 << n:
        return None
    key = (n, frozenset(map(int.bit_count, xterms)), frozenset(map(int.bit_count, yterms)),
           solve)
    plan = _PLANS.get(key)
    if plan is None:
        left, right = sorted(key[1]), sorted(key[2])
        if solve:
            right = [c for c in right if c]
            left = _solve_weights(n, left, right)
        plan = _PLANS[key] = _plan(n, [(a, b) for a in left for b in right if a + b <= n],
                                   left if solve else ())
    return plan if plan[0] <= pairs else None


def _right_vector(y, zero):
    """[y_t at t, -y_t at t + 2**n, zero elsewhere], 2**(n+1) + 1 long."""
    full = 1 << y.algebra.num_generators
    right = [zero] * (2 * full + 1)
    for t, c in y.terms.items():
        right[t] = c
        right[t + full] = -c
    return right


def _class_sums(keys, left, right, factor=None):
    """For each monomial of one output weight, the sum of its signed pairs
    over the classes keys, each class's sum times factor(a, b) when
    factor is given, as an iterator; a padding pair appends a 0."""
    total = None
    for key in keys:
        k, gx, gy = _CLASSES.get(key) or _weight_class(*key)
        products = map(mul, gx(left), gy(right))
        part = map(sum, zip(*[products] * k)) if k > 1 else products
        if factor is not None:
            part = map(mul, part, repeat(factor(key[1], key[2])))
        total = part if total is None else map(add, total, part)
    return total


def _dense_terms(x, y, plan):
    """The nonzero terms of x * y, summed class by class.

    left holds x densely and right holds y and -y, so each class gathers
    its pairs and their signs with two itemgetters and sums every run of
    k products in C; the classes of one output weight are added
    elementwise.  Exact in rational mode too; only gmul restricts the
    path to float algebras.
    """
    zero = 0.0 if x.algebra.mode == FLOAT else 0
    left = [zero] * ((1 << x.algebra.num_generators) + 1)
    for s, c in x.terms.items():
        left[s] = c
    right = _right_vector(y, zero)
    terms = {}
    for _, monomials, keys in plan[1]:
        values = list(_class_sums(keys, left, right))   # filter drops a padding 0
        terms.update(zip(compress(monomials, values), filter(None, values)))
    return terms


def _scan_terms(x, y):
    """The nonzero terms of x * y, visiting every pair of terms."""
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
    return {m: c for m, c in terms.items() if c}


def gmul(x, y):
    """Product in the Grassmann algebra.

    e_S * e_T = 0 when S and T intersect, else sign(S,T) * e_{S union T},
    with the sign read off one popcount (see the module docstring).  A
    float product whose weight classes hold no more entries than the scan
    would visit is summed class by class; any other product scans every
    pair.  A float product with a non-finite coefficient is an error.
    """
    x._check_compatible(y)
    alg = x.algebra
    if alg.mode != FLOAT:
        return GrassmannElement(alg, _scan_terms(x, y))
    plan = _dense_plan(alg.num_generators, x.terms, y.terms)
    terms = _scan_terms(x, y) if plan is None else _dense_terms(x, y, plan)
    if not all(map(math.isfinite, terms.values())):
        raise GrassmannError("float overflow in product of %d by %d terms"
                             % (len(x.terms), len(y.terms)))
    return GrassmannElement(alg, terms)


def _dense_solve_terms(y, start, factor, divisor, plan):
    """The nonzero terms of the solve by y from start (see the module
    docstring), one weight at a time on the dense path.

    soul(y) has no term of weight 0, so the terms of weight w need only
    those of lower weight: the groups run in increasing weight, and each
    writes its terms into the dense left vector before the next one
    gathers.  Exact in rational mode too; only _solve restricts the path
    to float algebras.
    """
    zero = 0.0 if y.algebra.mode == FLOAT else 0
    left = [zero] * ((1 << y.algebra.num_generators) + 1)
    right = _right_vector(y, zero)
    get = start.get
    terms = {}
    for w, monomials, keys in plan[1]:
        values = map(get, monomials, repeat(zero))
        if keys:
            values = map(sub, values, _class_sums(keys, left, right, factor))
        values = list(map(truediv, values, repeat(divisor(w))))
        for m, v in zip(monomials, values):
            left[m] = v
        terms.update(zip(compress(monomials, values), filter(None, values)))
    return terms


def _scan_solve_terms(y, start, factor, divisor):
    """The nonzero terms of the solve by y from start, scanning.

    Pending sums are kept per weight; the lowest weight is finished
    first, and each of its terms subtracts its pairs with the soul of y
    from the sums of higher weight, so the work is the pairs of the
    solution with the soul, whatever the number of generators.
    """
    souls = [(t, c, _below_parity(t), t.bit_count()) for t, c in y.terms.items() if t]
    pending = {}
    for m, c in start.items():
        pending.setdefault(m.bit_count(), {})[m] = c
    terms = {}
    while pending:
        w = min(pending)
        d = divisor(w)
        row = [(t, c if factor is None else factor(w, tw) * c, p, w + tw)
               for t, c, p, tw in souls]
        for s, total in pending.pop(w).items():
            v = total / d
            if not v:
                continue
            terms[s] = v
            for t, c, p, mw in row:
                if s & t:
                    continue
                sums = pending.setdefault(mw, {})
                m = s | t
                if (s & p).bit_count() & 1:
                    sums[m] = sums.get(m, 0) + v * c
                else:
                    sums[m] = sums.get(m, 0) - v * c
    return terms


def _solve(y, start, factor, divisor, what):
    """The element z with z_m = (start_m - sum factor(|s|, |t|) e z_s y_t)
    / divisor(|m|), over s | t = m with t in soul(y), in increasing weight.

    A float solve that the dense path serves (see the module docstring)
    gathers weight classes; any other scans.  A float solve with a
    non-finite coefficient is an error.
    """
    alg = y.algebra
    if alg.mode != FLOAT:
        return GrassmannElement(alg, _scan_solve_terms(y, start, factor, divisor))
    plan = _dense_plan(alg.num_generators, start, y.terms, solve=True)
    if plan is None:
        terms = _scan_solve_terms(y, start, factor, divisor)
    else:
        terms = _dense_solve_terms(y, start, factor, divisor, plan)
    if not all(map(math.isfinite, terms.values())):
        raise GrassmannError("float overflow in %s of %d by %d terms"
                             % (what, len(start), len(y.terms)))
    return GrassmannElement(alg, terms)


def _check_even(x, what):
    if not x.is_even():
        raise GrassmannError("%s requires even parity, got %s" % (what, x))


def gdiv(x, y):
    """Quotient x / y = x * y**-1 for an even y with nonzero body.

    The solve of q y = x: q_m = (x_m - sum e q_s y_t) / b, with b the
    body of y.  A float quotient with a non-finite coefficient is an
    error.
    """
    y = x._check_compatible(y)
    _check_even(y, "inverse")
    b = y.body
    if b == 0:
        raise GrassmannError("zero body: %s is not invertible" % (y,))
    return _solve(y, x.terms, None, lambda w: b, "quotient")


def ginv(x):
    """Multiplicative inverse of an even element with nonzero body: gdiv(1, x)."""
    return gdiv(x.algebra.one(), x)


def _power(x, alpha, root, what):
    """x**alpha, given root = b**alpha for the body b of an even x.

    The solve of x Dz = alpha z Dx, with D(e_m) = |m| e_m: z_0 = root and
    z_m = -sum (|s| - alpha |t|) e z_s x_t / (b |m|).
    """
    alg = x.algebra
    alpha = alg.coerce_scalar(alpha)
    b = x.body
    return _solve(x, {0: root}, lambda a, c: a - alpha * c,
                  lambda w: b * w if w else 1, what)


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


def gsqrt(x):
    """Square root with positive body of an even element.

    The power x**(1/2), solved weight by weight from its body root.  In
    rational mode the body must be the square of a rational, otherwise an
    error is raised (switch the algebra to float mode for generic bodies).
    """
    return _power(x, Fraction(1, 2), _body_root(x, "square root"), "square root")


def ginvsqrt(x):
    """Inverse square root, x**(-1/2) with positive body, of an even element.

    The same solve as gsqrt with alpha = -1/2; the same parity, body and
    rational-square rules as gsqrt.
    """
    root = _body_root(x, "inverse square root")
    return _power(x, Fraction(-1, 2), 1 / root, "inverse square root")


def glog(x):
    """Logarithm of an even element with positive body.

    The solve of x DL = Dx: L_0 = log(b) and
    L_m = (|m| x_m - sum |s| e L_s x_t) / (b |m|).  Rational mode is only
    exact when the body equals 1 (log 1 = 0); any other body requires
    float mode.
    """
    _check_even(x, "logarithm")
    b = x.body
    if b <= 0:
        raise GrassmannError("logarithm requires positive body, got %s" % (b,))
    if x.algebra.mode == FLOAT:
        log_b = math.log(b)
    elif b != 1:
        raise GrassmannError("log of body %s is irrational; use float mode "
                             "(rational mode needs body 1)" % (b,))
    else:
        log_b = Fraction(0)
    start = {m: m.bit_count() * c for m, c in x.terms.items() if m}
    start[0] = log_b
    return _solve(x, start, lambda a, c: a, lambda w: b * w if w else 1, "logarithm")


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
