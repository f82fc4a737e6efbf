"""Arithmetic in Q(z) = Q[z]/(m(z)) with certified real and complex embeddings.

Elements live in the power basis 1, z, ..., z^{d-1}: an integer vector over
Z[z] and one positive common denominator, in lowest terms, the form of
``polycore.RatPoly``.  Sums, products and the sum of two products
(``NumberField.dot``, the matrix-product kernel) are the polycore helpers
``_sum``, ``_product`` and ``_dot``; a field adds only the reduction by its
monic integer minimal polynomial, once per result, before ``_lowest_terms``.
Embeddings return outward-rounded integer dyadic intervals (``intervals``)
refined on demand, and a matrix's embedded entries make its integer ball at
a real place (``RealPlace.ball``).  One Horner (``_horner``) evaluates an
element over an interval or a box: the embeddings use it, and so does the
exact sign of an element at a real place (``RealPlace.sign``), over root
enclosures refined until the sign certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DivisionByZero, NoComplexPlace, PrecisionExhausted
from .intervals import Ball2, Box, Iv, ball_sign
from .polycore import (
    ComplexRootSet,
    RatPoly,
    RootIsolation,
    _dot,
    _int_convolve,
    _int_divide,
    _lowest_terms,
    _over_one_denominator,
    _product,
    _ratpoly,
    _sum,
    complex_roots,
    newton_enclosure,
    refine_interval,
    sturm_real_roots,
)

# every check starts its certified decisions at START_BITS and doubles the
# precision until they certify
START_BITS = 128
_PRECISION_HARD_CAP = 1 << 16


class NumberField:
    """Q[z]/(m(z)) for a monic integer minimal polynomial m.

    Irreducibility is the caller's responsibility (a certificate, a theorem,
    or an ingested assumption); arithmetic only needs m to be nonzero, but
    inverses of nonzero elements exist for all inputs that arise here exactly
    when m is irreducible.
    """

    def __init__(self, minpoly: RatPoly, name: str = "Q(z)"):
        if minpoly.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if minpoly.num[-1] != minpoly.den:
            raise ValueError("minimal polynomial must be monic")
        if minpoly.den != 1:
            raise ValueError("minimal polynomial must have integer coefficients")
        self.minpoly = minpoly
        self.degree = d = minpoly.degree
        self.name = name
        # z^d = -(m_0 + m_1 z + ... + m_{d-1} z^{d-1}); indexed (j, m_j), m_j != 0
        self._reduction = tuple((j, c) for j, c in enumerate(minpoly.num[:-1]) if c)
        self._hash = hash(minpoly)
        # elements are immutable, so the constants are shared
        self._zero = FieldElement(self, (0,) * d, 1)
        self._one = FieldElement(self, (1,) + (0,) * (d - 1), 1)
        self._real_isolation: Optional[RootIsolation] = None
        # keyed by (index, width_bits) / precision_bits so repeated queries
        # reproduce the same enclosure bit-for-bit (report determinism)
        self._real_enclosures: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        self._complex_roots: dict[int, ComplexRootSet] = {}

    def __repr__(self):
        return f"NumberField({self.name}, deg {self.degree})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NumberField) and self.minpoly == other.minpoly
        )

    def __hash__(self):
        return self._hash

    # -- element constructors ------------------------------------------

    def element(self, coeffs: Sequence) -> "FieldElement":
        return self._make(*_over_one_denominator(coeffs))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            return self.element((-self.minpoly.num[0],))
        return self.element((0, 1))

    def rational(self, c) -> "FieldElement":
        return self.element((c,))

    def _make(self, num: list[int], den: int) -> "FieldElement":
        """Element num/den for an integer list of any length and den > 0:
        reduce mod the minpoly, pad to the degree, cancel to lowest terms
        (``_lowest_terms``)."""
        d = self.degree
        if len(num) > d:
            for k in range(len(num) - 1, d - 1, -1):
                c = num[k]
                if c:
                    base = k - d
                    for j, m in self._reduction:
                        num[base + j] -= c * m
            del num[d:]
        elif len(num) < d:
            num.extend([0] * (d - len(num)))
        num, den = _lowest_terms(num, den)
        return FieldElement(self, tuple(num), den)

    def dot(self, a: "FieldElement", b: "FieldElement", c: "FieldElement",
            d: "FieldElement") -> "FieldElement":
        """a*b + c*d for elements of this field: ``_dot``'s one list over the
        common denominator, which ``_make`` reduces and puts in lowest terms
        once."""
        return self._make(*_dot(a, b, c, d))

    # -- places ----------------------------------------------------------

    def real_isolation(self) -> RootIsolation:
        if self._real_isolation is None:
            self._real_isolation = sturm_real_roots(self.minpoly)
        return self._real_isolation

    def real_places(self) -> list["RealPlace"]:
        return [RealPlace(self, i) for i in range(self.real_isolation().count)]

    def complex_root_set(self, precision_bits: int) -> ComplexRootSet:
        if precision_bits not in self._complex_roots:
            self._complex_roots[precision_bits] = complex_roots(
                self.minpoly, precision_bits
            )
        return self._complex_roots[precision_bits]

    def geometric_place(self) -> "ComplexPlace":
        """The complex root with positive imaginary part of largest modulus
        at START_BITS; the conventional choice for the holonomy embedding
        when the census does not pin one explicitly.  A root counts when its
        whole disk lies in the upper half-plane, so a real root never does.
        Raises NoComplexPlace when no root qualifies."""
        best, best_m2 = None, None
        for idx, r in enumerate(self.complex_root_set(START_BITS).roots):
            m2 = r.re ** 2 + r.im ** 2
            if r.im > r.radius and (best is None or m2 > best_m2):
                best, best_m2 = idx, m2
        if best is None:
            raise NoComplexPlace(
                f"{self.name}: no complex root with positive imaginary part "
                f"at {START_BITS} bits"
            )
        return ComplexPlace(self, best)

    def real_root_enclosure(self, index: int, width_bits: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the index-th real root (ascending), of width
        <= 2^-width_bits, inside the base isolating interval: certified
        Newton steps from a double root (``newton_enclosure``), or exact
        bisection of the base interval when they do not certify.  Either is a
        deterministic function of (index, width_bits)."""
        key = (index, width_bits)
        if key not in self._real_enclosures:
            base = self.real_isolation().real_intervals[index]
            self._real_enclosures[key] = newton_enclosure(
                self.minpoly, base, width_bits
            ) or refine_interval(self.minpoly, base, Fraction(1, 2 ** width_bits))
        return self._real_enclosures[key]


class RealPlace:
    """Real embedding, indexed by the ascending order of the real roots.  A
    plain class, not a tuple, so it never equals a ComplexPlace."""

    __slots__ = ("field", "index")

    def __init__(self, field: NumberField, index: int):
        self.field, self.index = field, index

    def embed(self, e: "FieldElement", precision_bits: int) -> Iv:
        """Enclosure of e at this place, of width < 2^-(precision_bits/2)."""
        target = Fraction(1, 2 ** (precision_bits // 2))
        bits = precision_bits
        while bits <= _PRECISION_HARD_CAP:
            lo, hi = self.field.real_root_enclosure(self.index, bits + 8)
            val = _horner(e, Iv.enclose(lo, hi, bits + 16))
            if val.width() < target:
                return val
            bits *= 2
        raise PrecisionExhausted(
            f"{self.field.name}: embedding at real place {self.index} did not "
            f"reach 2^-{precision_bits // 2}"
        )

    def ball(self, entries: Sequence["FieldElement"], bits: int) -> Ball2:
        """The ball of the matrix (a, b; c, d) of the given entries here:
        each entry embedded at precision_bits = bits (``embed``), at the
        scale bits + 16 of those embeddings."""
        return Ball2.enclose(tuple(self.embed(e, bits) for e in entries), bits + 16)

    # the sign of a ball built from these: never 0, and Undecided when it holds 0
    ball_sign = staticmethod(ball_sign)

    def sign(self, e: "FieldElement", bits: int, cap: int) -> tuple[int, int]:
        """(sign of e here, the bits that decided it): 0 when e is zero in K,
        else the sign of ``_horner`` over the root enclosure of width
        2^-bits, doubling bits up to cap.  The enclosure is rounded outward
        at scale bits + 16 plus the bits of e's denominator, so the final
        division loses no more than the numerator's rounding does."""
        if e.is_zero():
            return 0, bits
        while bits <= cap:
            lo, hi = self.field.real_root_enclosure(self.index, bits)
            val = _horner(e, Iv.enclose(lo, hi, bits + 16 + e.den.bit_length()))
            if val.lo > 0 or val.hi < 0:
                return (1 if val.lo > 0 else -1), bits
            bits *= 2
        raise PrecisionExhausted(
            f"{self.field.name}: sign at real place {self.index} not certified "
            f"up to {cap} bits"
        )


class ComplexPlace:
    """Complex embedding given by a certified root disk of the minpoly: the
    root_index-th disk of the root set at START_BITS.  At another precision
    the place is the one certified disk that lies inside that base disk, so
    it names the same root whatever order the root sets sort it in."""

    __slots__ = ("field", "root_index")

    def __init__(self, field: NumberField, root_index: int):
        self.field, self.root_index = field, root_index

    def root_box(self, precision_bits: int) -> Box:
        """The square around the place's certified root disk at
        precision_bits, at scale precision_bits + 16."""
        r = base = self.field.complex_root_set(START_BITS).roots[self.root_index]
        if precision_bits != START_BITS:
            # the disk c lies inside base when |c - base| <= base.radius - c.radius
            r = next((
                c for c in self.field.complex_root_set(precision_bits).roots
                if c.radius <= base.radius
                and (c.re - base.re) ** 2 + (c.im - base.im) ** 2
                <= (base.radius - c.radius) ** 2
            ), None)
            if r is None:
                raise PrecisionExhausted(
                    f"{self.field.name}: complex place at root {self.root_index}: no "
                    f"certified disk at {precision_bits} bits lies inside the one at "
                    f"{START_BITS} bits"
                )
        s = precision_bits + 16
        return Box(
            Iv.enclose(r.re - r.radius, r.re + r.radius, s),
            Iv.enclose(r.im - r.radius, r.im + r.radius, s),
        )

    def embed(self, e: "FieldElement") -> Box:
        """Enclosure of e at this place, of width < 2^-(START_BITS/2), over
        the root box at START_BITS bits, doubling the bits until it is that
        narrow."""
        target = Fraction(1, 2 ** (START_BITS // 2))
        bits = START_BITS
        while bits <= _PRECISION_HARD_CAP:
            val = _horner(e, self.root_box(bits))
            if val.width() < target:
                return val
            bits *= 2
        raise PrecisionExhausted(
            f"{self.field.name}: complex embedding at root {self.root_index} "
            f"did not reach 2^-{START_BITS // 2}"
        )


def _horner(e: "FieldElement", x):
    """e over the interval or box x: Horner on the integer numerator from
    its top nonzero coefficient (a zero point times x is the zero point, so
    the leading zeros change nothing), then one outward division by the
    denominator."""
    num = e.num
    top = max((j for j, c in enumerate(num) if c), default=0)
    acc = x * 0 + num[top]  # the top coefficient as a point at x's scale
    for c in reversed(num[:top]):
        acc = acc * x + c
    return acc / e.den


class FieldElement:
    """Residue in Q[z]/(m): the integer power-basis vector ``num`` over the
    common denominator ``den``, with den > 0 and gcd(num..., den) == 1, so
    equality and hashing are structural."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates (a derived, read-only view)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __repr__(self):
        return f"FieldElement({_ratpoly(list(self.num), self.den)!r} in {self.field.name})"

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.num == other.num and self.den == other.den
                and self.field == other.field
            )
        if isinstance(other, (int, Fraction)):
            return self == self.field.rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.rational(other)

    def __add__(self, other):
        return self.field._make(*_sum(self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        return self.field._make(*_product(self, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * nf_inverse(self._coerce(other))


def nf_inverse(e: FieldElement) -> FieldElement:
    """Multiplicative inverse by the extended Euclidean algorithm on integer
    vectors: pairs (r, s) with s*num(e) = r mod m, where each next r is the
    pseudo-remainder ``_int_divide`` leaves (a positive multiple of the
    rational remainder), and each pair is divided by its content."""
    if e.is_zero():
        raise DivisionByZero("inverse of zero field element")
    K = e.field
    r0, s0 = list(K.minpoly.num), [0]
    r1, s1 = list(e.num), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        rem = r0[:]
        quot, scale = _int_divide(rem, r1)
        if not rem:
            raise DivisionByZero(
                "element is a zero divisor; minimal polynomial is reducible"
            )
        # s2 = scale*s0 - Q*s1, with Q*scale the integer quotient
        s2 = _int_convolve([-k for k in quot], s1)
        for i, c in enumerate(s0):
            s2[i] += scale * c
        g = math.gcd(*rem, *s2)
        r0, s0, r1, s1 = r1, s1, [c // g for c in rem], [c // g for c in s2]
    # s1 * num = c with c = r1[0] a nonzero integer, so 1/e = den * s1 / c
    c = r1[0]
    sign = 1 if c > 0 else -1
    return K._make([sign * e.den * x for x in s1], abs(c))


def minimal_polynomial(e: FieldElement) -> RatPoly:
    """Monic minimal polynomial of e over Q.

    Builds the matrix of powers 1, e, e^2, ..., e^k in the power basis and
    takes the first exact linear dependence (Gaussian elimination over Q).
    """
    d = e.field.degree
    rows: list[list[Fraction]] = []  # reduced echelon rows, with combination
    combos: list[list[Fraction]] = []
    cur = e.field.one()
    for k in range(d + 1):
        vec = list(cur.coeffs)
        combo = [Fraction(0)] * (d + 1)
        combo[k] = Fraction(1)
        # reduce vec against existing rows
        for row, rc in zip(rows, combos):
            pivot = next(i for i, v in enumerate(row) if v != 0)
            if vec[pivot] != 0:
                f = vec[pivot] / row[pivot]
                vec = [v - f * r for v, r in zip(vec, row)]
                combo = [c - f * rc_i for c, rc_i in zip(combo, rc)]
        if all(v == 0 for v in vec):
            return RatPoly(combo[: k + 1]).monic()
        rows.append(vec)
        combos.append(combo)
        cur = cur * e
    raise AssertionError("no linear dependence among d+1 powers")  # pragma: no cover


def is_algebraic_integer(e: FieldElement) -> bool:
    """True iff the monic minimal polynomial of e has integer coefficients.

    An element of Z[z] is integral because z is (its minpoly is monic over
    Z), so a denominator of 1 decides at once; any other element may still be
    integral and takes the minimal-polynomial test.
    """
    return e.den == 1 or minimal_polynomial(e).den == 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
