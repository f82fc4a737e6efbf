"""Exact polynomial arithmetic over Q, with real-root isolation, half-plane
root counts, certified complex roots, and irreducibility certificates.

The exact kernel: a polynomial (``RatPoly``) and a number-field element
(``numfield.FieldElement``) are both an integer vector ``num`` over one
positive denominator ``den`` in lowest terms, the representation of FLINT's
``fmpq_poly``.  The common-denominator sum (``_sum``), the product over
``_int_convolve`` (``_product``), the sum of two products (``_dot``) and the
cancellation to lowest terms (``_lowest_terms``) are written once, here, for
both; a field element adds only the reduction mod its minimal polynomial.
Long division, gcd and remainder chains run on the integer numerators.
Nothing in this module touches floating point except the start of the
complex root finder and the seed of the real-root Newton refinement, whose
disks and intervals are certified afterwards by exact integer comparisons.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadArgument,
    HalfPlaneUndecided,
    NotIsolating,
    PrecisionExhausted,
    RepeatedRoots,
    ZeroModulus,
    ZeroPolynomial,
)

_Q = Fraction


def _int_convolve(a: Sequence[int], b: Sequence[int], out: list[int] | None = None) -> list[int]:
    """Integer convolution of two coefficient lists over the nonzero terms
    of both: a product with 0, +-1 or +-z^k costs O(len).  With ``out`` (at
    least len(a) + len(b) - 1 long) the product is added into it, so a sum of
    products is reduced once."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return out


# The shared arithmetic of the exact vectors: each operand has an integer
# vector ``num`` and a denominator ``den`` > 0, and each result is an integer
# list over a positive denominator, not yet in lowest terms.


def _over_one_denominator(values: Iterable) -> tuple[list[int], int]:
    """Rationals (ints, Fractions or "num/den" strings) as integer
    numerators over their least common denominator."""
    qs = [q if isinstance(q, (int, Fraction)) else Fraction(q) for q in values]
    den = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _sum(a, b) -> tuple[list[int], int]:
    """a + b over the least common denominator, the shorter vector padded
    with zeros."""
    da, db = a.den, b.den
    pairs = itertools.zip_longest(a.num, b.num, fillvalue=0)
    if da == db:
        return [x + y for x, y in pairs], da
    g = math.gcd(da, db)
    fa, fb = db // g, da // g
    return [x * fa + y * fb for x, y in pairs], da * fa


def _product(a, b) -> tuple[list[int], int]:
    """a * b: one integer convolution over the product of the
    denominators."""
    return _int_convolve(a.num, b.num), a.den * b.den


def _dot(a, b, c, d) -> tuple[list[int], int]:
    """a*b + c*d: both integer convolutions summed into one list over the
    least common denominator of the two products."""
    x, y = a.den * b.den, c.den * d.den
    g = math.gcd(x, y)
    an, cn = a.num, c.num
    if y != g:
        an = [v * (y // g) for v in an]
    if x != g:
        cn = [v * (x // g) for v in cn]
    out = [0] * (max(len(an) + len(b.num), len(cn) + len(d.num)) - 1)
    _int_convolve(an, b.num, out)
    return _int_convolve(cn, d.num, out), x // g * y


def _lowest_terms(num: list[int], den: int) -> tuple[list[int], int]:
    """num/den divided through by gcd(den, num...); the zero vector comes
    out over 1."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return [c // g for c in num], den // g
    return num, den


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients: the
    integer vector ``num`` (``num[i]`` the numerator of the coefficient of
    z^i, no trailing zeros) over the denominator ``den`` > 0, with
    gcd(num..., den) == 1, so equality and hashing are structural.  The
    zero polynomial is ``num == ()`` over ``den == 1``.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        self.num, self.den = _canonical(*_over_one_denominator(coeffs))

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

    # -- derived rational views ----------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of z^i, as a Fraction."""
        den = self.den
        return tuple(_Q(c, den) for c in self.num)

    def to_json(self) -> list[str]:
        """Little-endian list of "num" or "num/den" strings."""
        return [str(c) for c in self.coeffs]

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if not self.num:
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
        return _ratpoly(*_sum(self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _ratpoly([-c for c in self.num], self.den)

    def __sub__(self, other) -> "RatPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RatPoly":
        return _ratpoly(*_product(self, self._coerce(other)))

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        return RatPoly((other,))

    @staticmethod
    def dot(a: "RatPoly", b: "RatPoly", c: "RatPoly", d: "RatPoly") -> "RatPoly":
        """a*b + c*d; the ring operation ``Mat2`` products are built from."""
        return _ratpoly(*_dot(a, b, c, d))

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """(q, r) with self = q*other + r and deg r < deg other, by integer
        long division (``_int_divide``) of the numerators A = la*self by
        B = lb*other, la and lb the denominators: with A = Q*B + R over the
        scale s, q = Q*lb/(s*la) and r = R/(s*la)."""
        if other.is_zero():
            raise ZeroModulus("division by the zero polynomial")
        if self.degree < other.degree:
            return RatPoly.zero(), self
        rem = list(self.num)
        quot, s = _int_divide(rem, other.num)
        den = s * self.den
        return _ratpoly([k * other.den for k in quot], den), _ratpoly(rem, den)

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self.num[-1]
        return _ratpoly(list(self.num) if lc > 0 else [-c for c in self.num], abs(lc))

    def derivative(self) -> "RatPoly":
        return _ratpoly([i * c for i, c in enumerate(self.num)][1:], self.den)

    # -- evaluation -----------------------------------------------------

    def eval(self, x):
        """Horner evaluation of the numerator at x, over the denominator;
        exact at a rational x."""
        acc = _Q(0)
        for c in reversed(self.num):
            acc = acc * x + c
        return acc / self.den


def _canonical(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """RatPoly's canonical form of num/den, den > 0: no trailing zeros,
    lowest terms."""
    while num and not num[-1]:
        num.pop()
    num, den = _lowest_terms(num, den)
    return tuple(num), den


def _ratpoly(num: list[int], den: int) -> RatPoly:
    """The polynomial num/den for an integer list and den > 0, without
    converting a coefficient."""
    p = RatPoly.__new__(RatPoly)
    p.num, p.den = _canonical(num, den)
    return p


def _int_divide(rem: list[int], div: Sequence[int]) -> tuple[list[int], int]:
    """Long division of integer coefficient lists, div nonzero, in place.

    The remainder is one integer vector R over a single positive scale s,
    standing for A - Q*B = R/s; a step whose leading term t is not a
    multiple of lc = lc(B) first scales R and s by |lc| / gcd(lc, t).
    Returns the quotient as an integer list over the final s (Q*s) and s;
    rem is left holding R, without trailing zeros.
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
    return [k * (s // s_k) for k, s_k in quot], s


def _primitive_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The remainder of a by b over Q, b nonzero, as a primitive integer
    list: a positive multiple of it, so it has the remainder's signs."""
    rem = list(a)
    _int_divide(rem, b)
    g = math.gcd(*rem)
    return [c // g for c in rem] if g > 1 else rem


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q, by Euclid on primitive integer remainders."""
    x, y = a.num, b.num
    while y:
        x, y = y, _primitive_remainder(x, y)
    return _ratpoly(list(x), 1).monic() if x else RatPoly.zero()


def square_free_part(p: RatPoly) -> RatPoly:
    if p.is_zero():
        raise ZeroPolynomial("square-free part of zero")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return p.divmod(g)[0].monic()


# ---------------------------------------------------------------------------
# Sturm real-root isolation
# ---------------------------------------------------------------------------


class RootIsolation(NamedTuple):
    """Isolating intervals for the distinct real roots, ascending.

    Each (lo, hi) pair is rational, contains exactly one real root of the
    square-free part, and the endpoints are not roots.
    """

    real_intervals: tuple[tuple[Fraction, Fraction], ...]
    multiplicity_free: bool

    @property
    def count(self) -> int:
        return len(self.real_intervals)


def _remainder_chain(a: Sequence[int], b: Sequence[int]) -> list[list[int]]:
    """The chain a, b, ..., f_{i+1} = -(f_{i-1} mod f_i) of integer
    coefficient lists, a nonzero: each term is a positive multiple of the
    rational one, so the sign variations are the same everywhere."""
    chain, nxt = [list(a)], list(b)
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in _primitive_remainder(chain[-2], chain[-1])]
    return chain


def sturm_chain(p: RatPoly) -> list[list[int]]:
    """Sturm sequence p, p', ...; its Cauchy index counts p's real roots."""
    return _remainder_chain(p.num, p.derivative().num)


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


def cauchy_index(chain: Sequence[Sequence[int]], lo: Fraction | None = None) -> int:
    """V(lo) - V(+inf) on a remainder chain a, b, ... ending in a constant:
    the Cauchy index of b/a over (lo, +inf), lo not a root of a; lo = None
    stands for -inf.  On a Sturm chain it counts the distinct real roots."""
    v_lo = _sign_variations_at_inf(chain, False) if lo is None else _sign_variations_at(chain, lo)
    return v_lo - _sign_variations_at_inf(chain, True)


def right_half_plane_count(p: RatPoly) -> int:
    """The roots of p in Re z > 0, with multiplicity, by Routh-Hurwitz
    (Gantmacher, The Theory of Matrices II, ch. XV).  Write p(iy) =
    R(y) + i I(y); when deg I >= deg R, n_R = (n - Ind(R/I)) / 2, else
    n_R = (n + Ind(I/R)) / 2, each index on the remainder chain of the pair.
    Raises HalfPlaneUndecided when the chain ends in a non-constant term:
    then p has a root on the imaginary axis or a pair of roots z and -z."""
    if p.is_zero():
        raise ZeroPolynomial("half-plane count of the zero polynomial")
    re = _canonical([c * (1, 0, -1, 0)[j % 4] for j, c in enumerate(p.num)], 1)[0]
    im = _canonical([c * (0, 1, 0, -1)[j % 4] for j, c in enumerate(p.num)], 1)[0]
    high, low, sign = (im, re, -1) if len(im) >= len(re) else (re, im, 1)
    chain = _remainder_chain(high, low)
    if len(chain[-1]) > 1:
        raise HalfPlaneUndecided(f"{p!r} has a root on the imaginary axis or roots z and -z")
    return (p.degree + sign * cauchy_index(chain)) // 2


def root_bound(p: RatPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    return _Q(max((abs(c) for c in p.num[:-1]), default=0), abs(p.num[-1])) + 1


def sturm_real_roots(p: RatPoly) -> RootIsolation:
    """Isolate the distinct real roots of p via its Sturm chain.

    p's own chain ends in gcd(p, p'), so it ends in a constant exactly when
    p is square-free (`multiplicity_free`); otherwise the chain is built
    again for p divided by that last term, the square-free part.  Each
    isolating interval is bisected down to width <= 1/4.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    sf, chain = p, sturm_chain(p)
    multiplicity_free = len(chain[-1]) == 1
    if not multiplicity_free:
        sf = p.divmod(_ratpoly(chain[-1], 1))[0].monic()
        chain = sturm_chain(sf)
    if sf.degree == 0:
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
    ints = p.num
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


# The last Newton step of ``newton_enclosure`` carries _NEWTON_GUARD bits
# beyond the enclosure it certifies, and the first starts from a double root
# at no more than _NEWTON_START bits: the double roots of the census minimal
# polynomials are good to 38-60 bits.  A step at most squares the error,
# times |p''/2p'| at the root, and starts from an iterate rounded to the
# previous scale, so each scale is _NEWTON_SLACK bits short of twice the one
# before.
_NEWTON_GUARD = 16
_NEWTON_START = 64
_NEWTON_SLACK = 8


def _float_root(ints: Sequence[int], a: Fraction, b: Fraction, sa: int) -> float:
    """A double near the root that (a, b) isolates: bisection on the signs of
    a float Horner, from the exact sign sa at a.  Near the root those signs
    may be wrong, so the result is a start, not an enclosure."""
    cs = [float(c) for c in reversed(ints)]
    lo, hi = float(a), float(b)
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return mid
        v = 0.0
        for c in cs:
            v = v * mid + c
        if v == 0:
            return mid
        if (v > 0) == (sa > 0):
            lo = mid
        else:
            hi = mid


def _newton_terms(ints: Sequence[int], X: int, s: int) -> tuple[int, int]:
    """(2^(s n) p(x), 2^(s (n-1)) p'(x)) at x = X/2^s for the integer
    polynomial p of degree n: Horner's recurrences b_k = b_(k+1) x + c_k and
    d_k = d_(k+1) x + b_(k+1), each scaled to an integer."""
    B, D, scale = ints[-1], 0, 1
    for c in reversed(ints[:-1]):
        scale <<= s
        D = D * X + B
        B = B * X + c * scale
    return B, D


def newton_enclosure(p: RatPoly, interval: tuple[Fraction, Fraction], width_bits: int) -> tuple[Fraction, Fraction] | None:
    """Enclosure of width 2^-width_bits of the one root of square-free p in
    the isolating interval, by Newton steps on integers X over 2^s whose
    precision doubles: a double root, rounded to at most _NEWTON_START bits,
    takes one step x <- x - p(x)/p'(x) at each scale up to width_bits + 1 +
    _NEWTON_GUARD bits, and the last iterate, rounded to width_bits + 1 bits,
    is the centre of [X - 1, X + 1] / 2^(width_bits + 1).  That interval is
    certified by the two exact endpoint signs ``refine_interval`` checks: it
    must lie in the isolating interval, and p must have the sign there at
    its left end that it has at the isolating interval's left end, and the
    opposite one at its right end.  A deterministic function of its
    arguments; None when a step does not certify (a coefficient leaves the
    double range, p' vanishes at an iterate, or the signs do not change),
    and the caller then bisects.  This is Abbott's quadratic interval
    refinement ("Quadratic Interval Refinement for Real Roots", ACM Commun.
    Comput. Algebra 48, 2014) with a fixed doubling schedule."""
    ints = p.num
    a, b = interval
    sa = _sign_at(ints, a.numerator, a.denominator)
    scales = [width_bits + 1 + _NEWTON_GUARD]
    while scales[-1] > _NEWTON_START:
        scales.append((scales[-1] + _NEWTON_SLACK + 1) // 2)
    s = scales.pop()
    try:
        X = round(math.ldexp(_float_root(ints, a, b, sa), s))
    except OverflowError:
        return None
    while True:
        H, D = _newton_terms(ints, X, s)
        if not D:
            return None
        X -= H // D
        if not scales:
            break
        t = scales.pop()
        X, s = X << (t - s), t
    X = (X + (1 << (_NEWTON_GUARD - 1))) >> _NEWTON_GUARD
    s -= _NEWTON_GUARD
    lo, hi = _Q(X - 1, 1 << s), _Q(X + 1, 1 << s)
    if a <= lo and hi <= b and sa == _sign_at(ints, X - 1, 1 << s) == -_sign_at(ints, X + 1, 1 << s):
        return lo, hi
    return None


# ---------------------------------------------------------------------------
# Certified complex roots (Durand-Kerner + Weierstrass disk certification)
# ---------------------------------------------------------------------------


class CertifiedRoot(NamedTuple):
    """The disk |z - (re + i im)| <= radius, which holds exactly one root;
    center and radius are exact dyadic rationals."""

    re: Fraction
    im: Fraction
    radius: Fraction


class ComplexRootSet(NamedTuple):
    roots: tuple[CertifiedRoot, ...]


# A point of the polish is a Gaussian integer (x, y) standing for
# (x + i y) / 2^s.  The first rung runs at s = _FIRST_SCALE, each next one at
# twice the scale, and the last at s = bits + _GUARD_BITS.
_FIRST_SCALE = 32
_GUARD_BITS = 20
# A rung stops once every step is below 2^-(s - 24), which is
# 2^(_GUARD_BITS + 4) units of the scale; compared squared.
_STOP_STEP2 = 1 << 2 * (_GUARD_BITS + 4)
# A rung of the polish gives up after this many sweeps.
_MAX_SWEEPS = 400


def _corrections(ints: Sequence[int], zs: Sequence[tuple[int, int]], s: int):
    """Exact Weierstrass corrections at the points z_i = Z_i / 2^s of the
    integer polynomial ``ints`` (ascending, degree n, leading coefficient
    lc): pairs (N_i, D_i) of Gaussian integers with
    W_i = p(z_i) / (lc prod_{j != i} (z_i - z_j)) = N_i / (D_i 2^s), where
    N_i = 2^(sn) p(z_i) and D_i = 2^(s(n-1)) lc prod_{j != i} (z_i - z_j).
    Where two points coincide the product 2^-(bits - 4) stands in for the
    zero one, so the step moves them apart and the radius fails."""
    n = len(ints) - 1
    lc = ints[-1]
    # 2^(sn) p(Z / 2^s) = sum_k c_k Z^k 2^(s(n-k)): Horner on these
    shifted = [c << (s * (n - k)) for k, c in enumerate(ints)]
    out = []
    for i, (x, y) in enumerate(zs):
        a, b = lc, 0
        for c in reversed(shifted[:-1]):
            a, b = a * x - b * y + c, a * y + b * x
        c, d = lc, 0
        for j, (u, v) in enumerate(zs):
            if j != i:
                u, v = x - u, y - v
                c, d = c * u - d * v, c * v + d * u
        if not (c or d):
            c = lc << (s * (n - 2) + _GUARD_BITS + 4)
        out.append(((a, b), (c, d)))
    return out


def _weierstrass_radii(n: int, ws) -> list[int]:
    """For each correction (N, D) the least integer R with
    R^2 >= n^2 |N|^2 / |D|^2, by ``math.isqrt``: the radius r = R / 2^s
    bounds n |W| from above, so n^2 |p(z)|^2 <= r^2 |lc prod (z - z_j)|^2
    holds exactly."""
    radii = []
    for (a, b), (c, d) in ws:
        q = -(-n * n * (a * a + b * b) // (c * c + d * d))
        r = math.isqrt(q)
        radii.append(r + (r * r < q))
    return radii


def _durand_kerner(ints: Sequence[int], zs: list[tuple[int, int]], s: int):
    """Durand-Kerner on Gaussian integers over 2^s: each step is the exact
    Weierstrass correction rounded to the nearest point of the grid.  Stops
    when every step is below 2^-(s - _GUARD_BITS - 4), or after _MAX_SWEEPS
    sweeps; returns the points and the exact corrections at them."""
    for _ in range(_MAX_SWEEPS):
        ws = _corrections(ints, zs, s)
        steps = []
        for (a, b), (c, d) in ws:
            # N / D = N conj(D) / |D|^2, each part rounded to nearest
            q = c * c + d * d
            steps.append(((2 * (a * c + b * d) + q) // (2 * q),
                          (2 * (b * c - a * d) + q) // (2 * q)))
        if all(x * x + y * y < _STOP_STEP2 for x, y in steps):
            return zs, ws
        zs = [(x - u, y - v) for (x, y), (u, v) in zip(zs, steps)]
    return zs, _corrections(ints, zs, s)


def _disks_disjoint(zs: Sequence[tuple[int, int]], radii: Sequence[int]) -> bool:
    """Whether the disks of integer centers and radii (one scale) are
    pairwise disjoint: |z_i - z_j|^2 > (r_i + r_j)^2, exactly."""
    return all(
        (x - u) ** 2 + (y - v) ** 2 > (r + t) ** 2
        for ((x, y), r), ((u, v), t) in itertools.combinations(zip(zs, radii), 2)
    )


def complex_roots(p: RatPoly, precision_bits: int) -> ComplexRootSet:
    """All complex roots of a square-free polynomial with certified radii.

    One Durand-Kerner on Gaussian integers over 2^s, from Bini's
    Newton-polygon start at s = 32: each rung polishes until every step is
    below 2^-(s - 24), and the next takes its points at twice the scale, up
    to s = bits + 20.  The polish certifies nothing: the radii are n |W_i|
    for the exact Weierstrass corrections at the final centers, rounded up,
    and all roots lie in the union of those disks, one in each when they
    are pairwise disjoint.  Centers and radii are dyadic, so the
    disjointness test is an exact integer comparison.  When the disks do
    not certify, bits doubles and the polish goes on from the same points.
    Every returned radius is below 2^-(precision_bits/2).
    Raises RepeatedRoots if gcd(p, p') is nontrivial and PrecisionExhausted
    if disjoint certified disks cannot be produced at 8x the requested
    precision.
    """
    if precision_bits < 53:
        raise BadArgument("precision_bits must be at least 53")
    if p.degree < 1:
        return ComplexRootSet(())
    if poly_gcd(p, p.derivative()).degree > 0:
        raise RepeatedRoots("input has repeated roots; deflate first")

    s = _FIRST_SCALE
    zs = _newton_start(p.monic(), s)
    bits = precision_bits
    while True:
        zs, ws = _durand_kerner(p.num, zs, s)
        if s == bits + _GUARD_BITS:
            radii = _weierstrass_radii(p.degree, ws)
            if max(radii) < 1 << (s - precision_bits // 2) and _disks_disjoint(zs, radii):
                unit = 1 << s
                return ComplexRootSet(tuple(
                    CertifiedRoot(_Q(x, unit), _Q(y, unit), _Q(r, unit))
                    for (x, y), r in sorted(zip(zs, radii))
                ))
            bits *= 2
            if bits > 8 * precision_bits:
                raise PrecisionExhausted(f"could not certify disjoint root disks for {p!r}")
        t = min(2 * s, bits + _GUARD_BITS)
        zs = [(x << (t - s), y << (t - s)) for x, y in zs]
        s = t


def _fixed(x: float, shift: int) -> int:
    """floor(x * 2^shift), exactly."""
    m, d = x.as_integer_ratio()
    return (m << shift) // d if shift >= 0 else m // (d << -shift)


def _newton_circles(monic: RatPoly) -> list[tuple[int, float, float]]:
    """Bini's Newton-polygon start: for each edge (i, j) of the upper convex
    hull of the points (k, log2 |c_k|) over the nonzero coefficients, j - i
    points on the circle of radius (|c_i| / |c_j|)^(1/(j - i)), at the
    angles 2 pi ((t + 1/4) / (j - i) + i / n); a root at 0 starts at 0.
    Each point is (w, x, y) for (x + i y) 2^w with |x + i y| in [1, 2).  The
    logarithms are taken of the exact integer numerators and denominators,
    so no coefficient or radius has to fit in a float, and the circles
    follow the root moduli however far apart they lie."""
    n = monic.degree
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(monic.coeffs):
        if not c:
            continue
        y = math.log2(abs(c.numerator)) - math.log2(c.denominator)
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
        ):
            hull.pop()
        hull.append((k, y))
    points = [(0, 0.0, 0.0)] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        m = j - i
        e = (yi - yj) / m
        whole = math.floor(e)
        rad = 2.0 ** (e - whole)
        for t in range(m):
            a = 2 * math.pi * ((t + 0.25) / m + i / n)
            points.append((whole, rad * math.cos(a), rad * math.sin(a)))
    return points


def _newton_start(monic: RatPoly, s: int) -> list[tuple[int, int]]:
    """The Newton-polygon start (``_newton_circles``) as Gaussian integers
    over 2^s."""
    return [(_fixed(x, s + w), _fixed(y, s + w)) for w, x, y in _newton_circles(monic)]


# ---------------------------------------------------------------------------
# Irreducibility certificates
# ---------------------------------------------------------------------------


class IrreducibilityVerdict(NamedTuple):
    status: str  # "irreducible" | "reducible" | "unknown"
    witness: str | None = None
    factor: RatPoly | None = None

    @property
    def is_irreducible(self) -> bool:
        return self.status == "irreducible"


_SMALL_FACTOR_PROBES = (
    RatPoly((1, 1)),      # z + 1
    RatPoly((-1, 1)),     # z - 1
    RatPoly((1, 0, 1)),   # z^2 + 1
    RatPoly((1, 1, 1)),   # z^2 + z + 1
    RatPoly((1, -1, 1)),  # z^2 - z + 1
)


def rational_roots(p: RatPoly) -> list[Fraction]:
    """All rational roots, by the rational-root test on the primitive part."""
    if p.is_zero():
        return []
    g = math.gcd(*p.num)
    ints = [c // g for c in p.num]
    # strip factors of z
    shift = 0
    while ints[shift] == 0:
        shift += 1
    roots = [] if shift == 0 else [Fraction(0)]
    a0, an = abs(ints[shift]), abs(ints[-1])
    for r in _divisors(a0):
        for s in _divisors(an):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if p.eval(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _mod_p_coeffs(ints: list[int], q: int) -> list[int]:
    cs = [c % q for c in ints]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mod_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_q, b's leading coefficient a
    unit: one pass over the shifts on integers, the remainder reduced once."""
    rem = list(a)
    inv = pow(b[-1], -1, q)
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    for shift in range(len(quot) - 1, -1, -1):
        coef = quot[shift] = rem[shift + db] * inv % q
        if coef:
            for i, c in enumerate(b[:-1]):
                rem[shift + i] -= coef * c
    return quot, _mod_p_coeffs(rem[:db], q)


def _poly_mod_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    while b:
        _, r = _poly_mod_divmod(a, b, q)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, q)
        a = [(c * inv) % q for c in a]
    return a


def _frobenius_matrix(f: list[int], q: int) -> list[list[int]]:
    """Rows x^(q i) mod f over F_q for i < deg f, each padded to deg f: the
    Berlekamp Q-matrix of the Frobenius map h -> h^q on F_q[x]/(f), which is
    F_q-linear, so h^q = sum_i h_i x^(q i) (Knuth, TAOCP vol. 2, 4.6.2).
    Each row is the one before times x^q, one long division by f."""
    n = len(f) - 1
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(_poly_mod_divmod([0] * q + rows[-1], f, q)[1])
    return [r + [0] * (n - len(r)) for r in rows]


def _frobenius(h: list[int], rows: list[list[int]], q: int) -> list[int]:
    """h^q mod f for h reduced mod f: one product of h with the Q-matrix."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return _mod_p_coeffs(out, q)


def _distinct_degree_pattern(f: list[int], q: int) -> list[int] | None:
    """Degrees (with multiplicity) of the irreducible factors of square-free
    f over F_q, via distinct-degree decomposition.  None if f is not
    square-free mod q.  Each x^(q^d) mod f is one product with f's Q-matrix,
    reduced mod the part of f not yet split off.
    """
    df = _mod_p_coeffs([i * c for i, c in enumerate(f)][1:], q)
    if _poly_mod_gcd(f, df, q) != [1]:
        return None
    rows = _frobenius_matrix(f, q)
    pattern = []
    rem = f
    d = 0
    h = [0, 1]  # x^(q^d) mod f
    while len(rem) - 1 > 0:
        d += 1
        if 2 * d > len(rem) - 1:
            pattern.append(len(rem) - 1)
            break
        h = _frobenius(h, rows, q)
        hx = h if rem is f else _poly_mod_divmod(h, rem, q)[1]
        hx = hx + [0] * (2 - len(hx))  # x^(q^d) - x mod rem
        hx[1] -= 1
        g = _poly_mod_gcd(rem, _mod_p_coeffs(hx, q), q)
        if len(g) - 1 > 0:
            count = (len(g) - 1) // d
            pattern.extend([d] * count)
            rem = _poly_mod_divmod(rem, g, q)[0]
    return sorted(pattern)


def _subset_sums(pattern: list[int]) -> set[int]:
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums


# the primes whose factor-degree patterns the certificate tries
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def irreducibility_certificate(p: RatPoly) -> IrreducibilityVerdict:
    """Sound irreducibility/reducibility certificate over Q.

    Irreducible is only returned with a witness: rational-root exclusion for
    degree <= 3, an irreducible image mod a good prime, or an empty
    intersection of achievable factor degrees across several primes.
    Reducible always carries an exact factor.  Unknown is the fallback.
    """
    n = p.degree
    if n <= 0:
        return IrreducibilityVerdict("unknown", witness="constant polynomial")
    if n == 1:
        return IrreducibilityVerdict("irreducible", witness="degree 1")

    # the degree patterns first: they never certify a polynomial with a rational
    # root or a probe factor, which keeps a factor of its degree mod each q used
    if n > 3:
        # the primitive integer multiple with a positive leading coefficient
        g = math.gcd(*p.num) * (1 if p.num[-1] > 0 else -1)
        ints = [c // g for c in p.num]
        achievable: set[int] | None = None
        used = []
        for q in _PRIMES:
            if ints[-1] % q == 0:
                continue
            f = _mod_p_coeffs(ints, q)
            if len(f) - 1 != n:
                continue
            pattern = _distinct_degree_pattern(f, q)
            if pattern is None:
                continue  # not square-free mod q
            if pattern == [n]:
                return IrreducibilityVerdict("irreducible", witness=f"irreducible mod {q}")
            used.append(q)
            sums = _subset_sums(pattern)
            achievable = sums if achievable is None else (achievable & sums)
            proper = {d for d in achievable if 0 < d < n}
            if not proper:
                return IrreducibilityVerdict(
                    "irreducible",
                    witness=f"factor-degree patterns mod {used} exclude proper factors",
                )
    for r in rational_roots(p):
        return IrreducibilityVerdict("reducible", factor=RatPoly((-r, 1)))
    if n <= 3:
        return IrreducibilityVerdict(
            "irreducible", witness="degree <= 3 with no rational roots"
        )
    for probe in _SMALL_FACTOR_PROBES:
        if p.divmod(probe)[1].is_zero():  # n > 3 exceeds every probe's degree
            return IrreducibilityVerdict("reducible", factor=probe)
    return IrreducibilityVerdict("unknown", witness="prime budget exhausted")
