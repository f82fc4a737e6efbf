"""Integer dyadic intervals, the one interval kernel.

A real interval ``Iv(lo, hi, s)`` is [lo / 2^s, hi / 2^s] for integers
lo <= hi; a complex value is a ``Box``, the rectangle of two of them.  The
scale s travels with the value, and a binary operation works at the larger
scale of its operands (a left shift is exact).  Sums and differences are
exact; a product, square or quotient is rounded outward to that scale by a
floor and a ceiling shift or division, and a square root by ``math.isqrt``.
So every containment or strict-inequality decision made from these
enclosures is sound, and no global precision is read or set.

A 2x2 real matrix is a ``Ball2`` in midpoint-radius form: four integer
midpoints over 2^s that share one integer radius (van der Hoeven, "Ball
arithmetic", 2010; Johansson, "Arb", IEEE Trans. Computers 66, 2017).  Its
product floors the midpoints and adds the floor's error to the radius; the
signs read from it are those of ``ball_sign``, which never guesses.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, Undecided


def _outward(lo: int, hi: int, shift: int, s: int) -> "Iv":
    """[floor(lo / 2^shift), ceil(hi / 2^shift)] at scale s."""
    return Iv(lo >> shift, -((-hi) >> shift), s)


class Iv:
    """The real interval [lo, hi] / 2^s."""

    __slots__ = ("lo", "hi", "s")

    def __init__(self, lo: int, hi: int, s: int):
        self.lo = lo
        self.hi = hi
        self.s = s

    @classmethod
    def enclose(cls, lo, hi, s: int) -> "Iv":
        """The narrowest interval at scale s that holds the rationals lo <= hi."""
        lo, hi = Fraction(lo), Fraction(hi)
        return cls(
            (lo.numerator << s) // lo.denominator,
            -((-hi.numerator << s) // hi.denominator),
            s,
        )

    def __repr__(self):
        return f"Iv({self.lo}, {self.hi}, {self.s})"

    def _align(self, other) -> tuple[int, int, int, int, int]:
        """Endpoints of both operands at their larger scale, and that scale;
        an int is a point."""
        s = self.s
        if isinstance(other, int):
            return self.lo, self.hi, other << s, other << s, s
        t = other.s
        if s == t:
            return self.lo, self.hi, other.lo, other.hi, s
        if s < t:
            return self.lo << (t - s), self.hi << (t - s), other.lo, other.hi, t
        return self.lo, self.hi, other.lo << (s - t), other.hi << (s - t), s

    def __add__(self, other) -> "Iv":
        a, b, c, d, s = self._align(other)
        return Iv(a + c, b + d, s)

    def __sub__(self, other) -> "Iv":
        a, b, c, d, s = self._align(other)
        return Iv(a - d, b - c, s)

    def __mul__(self, other) -> "Iv":
        if isinstance(other, int):
            lo, hi = self.lo * other, self.hi * other
            return Iv(lo, hi, self.s) if other >= 0 else Iv(hi, lo, self.s)
        a, b, c, d, s = self._align(other)
        ps = (a * c, a * d, b * c, b * d)
        return _outward(min(ps), max(ps), s, s)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Iv":
        a, b, c, d, s = self._align(other)
        if c <= 0 <= d:
            raise DivisionByZero("interval divisor contains 0")
        a, b = a << s, b << s
        return Iv(
            min(a // c, a // d, b // c, b // d),
            -min(-a // c, -a // d, -b // c, -b // d),
            s,
        )

    def __lt__(self, other) -> bool:
        """Whether every point of self lies below every point of other."""
        a, b, c, d, s = self._align(other)
        return b < c

    def __gt__(self, other) -> bool:
        """Whether every point of self lies above every point of other."""
        a, b, c, d, s = self._align(other)
        return a > d

    def sqr(self) -> "Iv":
        """The squares of the points of self; 0 is the bottom when self
        holds 0, so the lower end is never negative."""
        lo, hi = self.lo, self.hi
        if lo >= 0:
            a, b = lo * lo, hi * hi
        elif hi <= 0:
            a, b = hi * hi, lo * lo
        else:
            a, b = 0, max(lo * lo, hi * hi)
        return _outward(a, b, self.s, self.s)

    def sqrt(self) -> "Iv":
        """The square roots of the nonnegative points of self (hi >= 0)."""
        s = self.s
        top = self.hi << s
        r = math.isqrt(top)
        return Iv(math.isqrt(max(self.lo, 0) << s), r + (r * r < top), s)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def width(self) -> Fraction:
        return Fraction(self.hi - self.lo, 1 << self.s)

    def mid(self) -> float:
        """The midpoint, correctly rounded to a float."""
        return float(Fraction(self.lo + self.hi, 2 << self.s))


class Box:
    """The complex rectangle re + i im of two real intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re: Iv, im: Iv):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"Box({self.re!r}, {self.im!r})"

    def __add__(self, other) -> "Box":
        if isinstance(other, Box):
            return Box(self.re + other.re, self.im + other.im)
        return Box(self.re + other, self.im)

    def __sub__(self, other: "Box") -> "Box":
        return Box(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "Box":
        if isinstance(other, int):
            return Box(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Box(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: int) -> "Box":
        return Box(self.re / other, self.im / other)

    def abs2(self) -> Iv:
        """|z|^2 over the box, with a lower end that is never negative."""
        return self.re.sqr() + self.im.sqr()

    def width(self) -> Fraction:
        return max(self.re.width(), self.im.width())


# A real ball (m, r): the points within r / 2^t of m / 2^t, for integers m and
# r >= 0 and the scale t of whatever built it.  A complex ball is the pair
# (re, im) of two that share one radius.
RealBall = tuple[int, int]
GaussBall = tuple[RealBall, RealBall]


def ball_sign(x: RealBall) -> int:
    """The sign of every point of the ball x, which is never 0: raises
    Undecided when x holds 0."""
    m, r = x
    if m > r:
        return 1
    if m < -r:
        return -1
    raise Undecided("the ball holds 0")


class Ball2:
    """The 2x2 real matrices within r / 2^s, entry by entry, of the integer
    midpoints (a, b; c, d) over 2^s.  Balls that meet in one operation share
    their scale s."""

    __slots__ = ("a", "b", "c", "d", "r", "s")

    def __init__(self, a: int, b: int, c: int, d: int, r: int, s: int):
        self.a, self.b, self.c, self.d, self.r, self.s = a, b, c, d, r, s

    @classmethod
    def enclose(cls, entries: tuple[Iv, Iv, Iv, Iv], s: int) -> "Ball2":
        """The ball at scale s around the intervals of a, b, c, d, each at
        a scale of at least s: each is rounded outward to s, and the
        radius is the largest distance from a floored midpoint to its
        interval's ends."""
        mids, r = [], 0
        for x in entries:
            lo, hi = x.lo >> (x.s - s), -((-x.hi) >> (x.s - s))
            m = (lo + hi) >> 1
            mids.append(m)
            r = max(r, hi - m)
        return cls(*mids, r, s)

    def __repr__(self):
        return f"Ball2({self.a}, {self.b}, {self.c}, {self.d}, {self.r}, {self.s})"

    def one(self) -> "Ball2":
        """The identity at this ball's scale, exactly."""
        return Ball2(1 << self.s, 0, 0, 1 << self.s, 0, self.s)

    def __mul__(self, o: "Ball2") -> "Ball2":
        """The product: with midpoints P, Q and radii e, f, the exact
        product of any two members lies within e colQ + rowP f + 2 e f of
        P Q, entry by entry, over 2^2s, where rowP is P's largest row sum
        and colQ is Q's largest column sum of absolute values; P Q over
        2^2s floored to 2^s errs by less than 1 more."""
        s = self.s
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.r
        p, q, u, v, f = o.a, o.b, o.c, o.d, o.r
        row = max(abs(a) + abs(b), abs(c) + abs(d))
        col = max(abs(p) + abs(u), abs(q) + abs(v))
        return Ball2(
            (a * p + b * u) >> s,
            (a * q + b * v) >> s,
            (c * p + d * u) >> s,
            (c * q + d * v) >> s,
            -(-(e * col + row * f + 2 * e * f) >> s) + 1,
            s,
        )

    def adjugate(self) -> "Ball2":
        return Ball2(self.d, -self.b, -self.c, self.a, self.r, self.s)

    def swap_diagonal(self) -> "Ball2":
        """The ball of J X^T J = (d b; c a), J = (0 1; 1 0), over the
        members X of this one: the entries move and the radius stays."""
        return Ball2(self.d, self.b, self.c, self.a, self.r, self.s)

    def alpha2(self) -> GaussBall:
        """2 alpha = (a + d) + i (b - c) at scale s."""
        r = 2 * self.r
        return (self.a + self.d, r), (self.b - self.c, r)

    def pair(self, o: "Ball2") -> GaussBall:
        """4 alpha(self) alpha(o) at scale 2s: with 2 alpha(self) = x + i y
        within e and 2 alpha(o) = u + i v within f, the real and the
        imaginary part of the product each lie within
        e (|u| + |v|) + (|x| + |y|) f + 2 e f of the midpoint's."""
        (x, e), (y, _) = self.alpha2()
        (u, f), (v, _) = o.alpha2()
        r = e * (abs(u) + abs(v)) + (abs(x) + abs(y)) * f + 2 * e * f
        return (x * u - y * v, r), (x * v + y * u, r)
