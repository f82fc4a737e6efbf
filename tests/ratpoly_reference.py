"""``RatPoly`` as the package had it before it became an integer vector over
one denominator: a tuple of ``Fraction`` coefficients, every input converted
by ``_as_fraction``, and an integer multiple rebuilt (``_integer_multiple``)
before each product, division, gcd and Sturm chain.  With it, the functions
that ran on that class: ``poly_gcd``, ``square_free_part``, ``sturm_chain``
and ``sturm_real_roots`` with ``refine_interval``.  Kept as the reference the
property tests compare the package's exact kernel against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from geodesica.errors import NotIsolating, ZeroModulus, ZeroPolynomial
from geodesica.polycore import RootIsolation

_Q = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def _int_convolve(a: Sequence[int], b: Sequence[int], out: list[int] | None = None) -> list[int]:
    """Integer convolution of two nonempty coefficient lists over the nonzero
    terms of both: a product with 0, +-1 or +-z^k costs O(len).  With
    ``out`` (at least len(a) + len(b) - 1 long) the product is added into
    it, so a sum of products is reduced once."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return out


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of z^i.  The zero polynomial is the
    empty tuple; otherwise the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls((c,))

    def to_json(self) -> list[str]:
        """Little-endian list of "num" or "num/den" strings."""
        return [str(c) for c in self.coeffs]

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "RatPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return "RatPoly(" + " + ".join(terms) + ")"

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [_Q(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [_Q(0)] * (n - len(other.coeffs))
        return RatPoly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "RatPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RatPoly":
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return RatPoly.zero()
        # one integer convolution over the common denominators
        (na, da), (nb, db) = _integer_multiple(self), _integer_multiple(other)
        out = _int_convolve(na, nb)
        den = da * db
        return RatPoly(out if den == 1 else (_Q(c, den) for c in out))

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        return RatPoly.constant(other)

    @staticmethod
    def dot(a: "RatPoly", b: "RatPoly", c: "RatPoly", d: "RatPoly") -> "RatPoly":
        """a*b + c*d; the ring operation ``Mat2`` products are built from."""
        return a * b + c * d

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """(q, r) with self = q*other + r and deg r < deg other, by integer
        long division (``_int_divide``) of A = la*self by B = lb*other
        (``_integer_multiple``): with A = Q*B + R/s, the Fractions are built
        once, at the end, as q = Q*lb/la and r = R/(s*la)."""
        if other.is_zero():
            raise ZeroModulus("division by the zero polynomial")
        if self.degree < other.degree:
            return RatPoly.zero(), self
        rem, la = _integer_multiple(self)
        div, lb = _integer_multiple(other)
        quot, s = _int_divide(rem, div)
        den = s * la
        return (
            RatPoly(_Q(k * lb, s_k * la) for k, s_k in quot),
            RatPoly(rem if den == 1 else (_Q(c, den) for c in rem)),
        )

    def scale(self, c) -> "RatPoly":
        c = _as_fraction(c)
        return RatPoly(a * c for a in self.coeffs)

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(1 / self.leading())

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # -- evaluation -----------------------------------------------------

    def eval(self, x):
        """Horner evaluation at x; exact at a rational x."""
        acc = _Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- content and integer normalization -------------------------------

    def clear_denominators(self) -> "RatPoly":
        """Primitive integer polynomial with positive leading coefficient."""
        if self.is_zero():
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        if g:
            ints = [c // g for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return RatPoly(ints)

    def int_coeffs(self) -> list[int]:
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError("polynomial does not have integer coefficients")
            out.append(c.numerator)
        return out


def _int_divide(rem: list[int], div: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """Long division of integer coefficient lists, div nonzero, in place.

    The remainder is one integer vector R over a single positive scale s,
    standing for A - Q*B = R/s; a step whose leading term t is not a
    multiple of lc = lc(B) first scales R and s by |lc| / gcd(lc, t).
    Returns the quotient Q as (k, s_k) pairs, its coefficients k/s_k, and
    the final s; rem is left holding R, without trailing zeros.
    """
    dd = len(div) - 1
    lc = div[-1]
    terms = [(i, c) for i, c in enumerate(div[:-1]) if c]
    s = 1
    quot = [(0, 1)] * max(0, len(rem) - dd)
    for top in range(len(rem) - 1, dd - 1, -1):
        t = rem[top]
        if not t:
            continue
        m = abs(lc) // math.gcd(lc, t)
        if m != 1:
            for i in range(top):
                rem[i] *= m
            s *= m
            t *= m
        k = t // lc
        shift = top - dd
        for i, c in terms:
            rem[shift + i] -= k * c
        quot[shift] = (k, s)
    del rem[dd:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, s


def _primitive_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The remainder of a by b over Q, b nonzero, as a primitive integer
    list: a positive multiple of it, so it has the remainder's signs."""
    rem = list(a)
    _int_divide(rem, b)
    g = math.gcd(*rem)
    return [c // g for c in rem] if g > 1 else rem


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q, by Euclid on primitive integer remainders."""
    x, y = _integer_multiple(a)[0], _integer_multiple(b)[0]
    while y:
        x, y = y, _primitive_remainder(x, y)
    return RatPoly(x).monic() if x else RatPoly.zero()


def square_free_part(p: RatPoly) -> RatPoly:
    if p.is_zero():
        raise ZeroPolynomial("square-free part of zero")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return p.divmod(g)[0].monic()


def sturm_chain(p: RatPoly) -> list[list[int]]:
    """Sturm sequence p, p', ..., p_{i+1} = -(p_{i-1} mod p_i), as integer
    coefficient lists: each term is a positive multiple of the rational one,
    so the sign variations are the same everywhere."""
    chain = [_integer_multiple(p)[0]]
    nxt = _integer_multiple(p.derivative())[0]
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in _primitive_remainder(chain[-2], chain[-1])]
    return chain


def _integer_multiple(p: RatPoly) -> tuple[list[int], int]:
    """Coefficients of L*p, and L > 0 the lcm of the denominators; L*p has
    the sign of p everywhere."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _sign_at(ints: Sequence[int], u: int, v: int) -> int:
    """Sign of an integer polynomial at u/v, v > 0 (not necessarily in
    lowest terms), from the homogeneous Horner sum of c_i u^i v^(n-i)."""
    acc, vp = 0, 1
    for c in reversed(ints):
        acc = acc * u + c * vp
        vp *= v
    return (acc > 0) - (acc < 0)


def _sign_variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x.numerator, x.denominator) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _sign_variations_at_inf(chain: Sequence[Sequence[int]], positive: bool) -> int:
    signs = []
    for q in chain:
        s = 1 if q[-1] > 0 else -1
        if not positive and len(q) % 2 == 0:
            s = -s
        signs.append(s)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def root_bound(p: RatPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(p.leading())
    b = max((abs(c) / lc for c in p.coeffs[:-1]), default=_Q(0))
    return b + 1


def sturm_real_roots(p: RatPoly) -> RootIsolation:
    """Isolate the distinct real roots of p via its Sturm chain.

    The chain is built for the square-free part, so repeated roots are
    handled; `multiplicity_free` records whether p itself was square-free.
    Each isolating interval is bisected down to width <= 1/4.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    sf = square_free_part(p)
    multiplicity_free = sf.degree == p.degree
    if sf.degree == 0:
        return RootIsolation((), multiplicity_free)
    chain = sturm_chain(sf)
    total = _sign_variations_at_inf(chain, False) - _sign_variations_at_inf(chain, True)
    if total == 0:
        return RootIsolation((), multiplicity_free)

    bound = root_bound(sf)
    lo, hi = -bound, bound
    # endpoints of the search box are not roots (Cauchy bound is strict)
    intervals: list[tuple[Fraction, Fraction]] = []

    def split(a: Fraction, b: Fraction, va: int, vb: int):
        n = va - vb
        if n == 0:
            return
        if n == 1:
            intervals.append((a, b))
            return
        mid = (a + b) / 2
        while _sign_at(chain[0], mid.numerator, mid.denominator) == 0:
            # nudge the cut off a root; roots are finitely many
            mid = (a + mid) / 2
        vm = _sign_variations_at(chain, mid)
        split(a, mid, va, vm)
        split(mid, b, vm, vb)

    va = _sign_variations_at(chain, lo)
    vb = _sign_variations_at(chain, hi)
    split(lo, hi, va, vb)
    # refine_interval checks each endpoint pair: off-root, with a sign change
    intervals = [refine_interval(sf, itv, _Q(1, 4)) for itv in intervals]
    intervals.sort()
    return RootIsolation(tuple(intervals), multiplicity_free)


def refine_interval(p: RatPoly, interval: tuple[Fraction, Fraction], width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval of square-free p down to the given width.

    Raises NotIsolating unless p is nonzero at both endpoints with opposite
    signs there.
    """
    # the walk runs on integer numerators A, B over one denominator d that
    # grows by powers of two, so no midpoint is reduced by a gcd
    ints = _integer_multiple(p)[0]
    a, b = interval
    d = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    wn, wd = width.numerator, width.denominator

    def endpoint_sign() -> int:
        sa = _sign_at(ints, A, d)
        if sa == 0 or _sign_at(ints, B, d) != -sa:
            raise NotIsolating(f"[{_Q(A, d)}, {_Q(B, d)}] does not isolate a root of {p!r}")
        return sa

    sa = endpoint_sign()
    while (B - A) * wd > wn * d:
        M = A + B  # the midpoint, over 2d
        sm = _sign_at(ints, M, 2 * d)
        if sm == 0:
            # the only root is the midpoint; centre a quarter-width interval
            # on it: M/2d -+ (B - A)/8d
            A, B, d = 4 * M - (B - A), 4 * M + (B - A), 8 * d
            sa = endpoint_sign()
            continue
        if sm == sa:
            A, B = M, 2 * B
        else:
            A, B = 2 * A, M
        d *= 2
    return _Q(A, d), _Q(B, d)

