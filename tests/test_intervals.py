"""The integer dyadic interval kernel (``geodesica.intervals``) encloses
the exact rational results, and the mpmath interval oracle the tests keep
(``interval_reference``) matches the iv.mpf formulas bit for bit."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from geodesica.errors import Undecided
from geodesica.intervals import Ball2, Box, Iv, ball_sign
from interval_reference import (
    ComplexIv,
    iv,
    iv_atan,
    iv_cos_sin,
    iv_from_fraction,
    prec_guard,
)


def _holds(x: Iv, q: Fraction) -> bool:
    return Fraction(x.lo, 1 << x.s) <= q <= Fraction(x.hi, 1 << x.s)


def test_prec_guard_restores():
    before_iv, before_mp = iv.prec, mp.mp.prec
    with prec_guard(333):
        assert iv.prec == 333 and mp.mp.prec == 333
    assert iv.prec == before_iv and mp.mp.prec == before_mp


def test_fraction_enclosure():
    third = Fraction(1, 3)
    x = Iv.enclose(third, third, 64)
    assert _holds(x, third)
    assert 0 < x.width() <= Fraction(1, 2 ** 64)
    # a dyadic rational at a fine enough scale is a point
    assert Iv.enclose(Fraction(3, 8), Fraction(3, 8), 3).width() == 0


def test_atan_helper_matches_mpmath():
    with prec_guard(96):
        vals = [Fraction(v) for v in (-3, -1, 0, Fraction(1, 2), 2, 10)]
        results = [iv_atan(iv_from_fraction(v)) for v in vals]
    with mp.workprec(300):
        for v, got in zip(vals, results):
            expected = mp.atan(mp.mpf(v.numerator) / v.denominator)
            assert mp.mpf(got.a) <= expected <= mp.mpf(got.b)


def _point(re: Fraction, im: Fraction, s: int) -> Box:
    return Box(Iv.enclose(re, re, s), Iv.enclose(im, im, s))


def test_complex_arithmetic_contains_truth():
    rng = random.Random(2)
    for _ in range(30):
        a = [Fraction(rng.randint(-3000, 3000), 997) for _ in range(4)]
        A, B = _point(a[0], a[1], 80), _point(a[2], a[3], 80)
        ar, ai, br, bi = a
        truth = {
            "mul": (A * B, (ar * br - ai * bi, ar * bi + ai * br)),
            "add": (A + B, (ar + br, ai + bi)),
            "sub": (A - B, (ar - br, ai - bi)),
        }
        for got, (re, im) in truth.values():
            assert _holds(got.re, re) and _holds(got.im, im)
        assert _holds(A.abs2(), ar * ar + ai * ai)


def test_abs2_clamps_rounding_dust():
    tiny = Iv(-1, 1, 64)
    val = Box(tiny, tiny).abs2()
    assert val.lo == 0
    # the square root of the clamped interval is defined
    assert val.sqrt().lo == 0


def test_contains_zero():
    assert Iv(-1, 1, 0).contains_zero()
    assert not Iv(1, 2, 0).contains_zero()


# ---------------------------------------------------------------------------
# Enclosure of the exact result by every kernel operation, at random scales
# ---------------------------------------------------------------------------

SCALES = st.integers(min_value=0, max_value=300)
RATIONALS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9)


@st.composite
def intervals(draw):
    """An interval at a random scale and the rational points it holds: its
    two ends and a point drawn between them."""
    a, b = sorted((draw(RATIONALS), draw(RATIONALS)))
    x = Iv.enclose(a, b, draw(SCALES))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    return x, (a, b, a + t * (b - a))


@given(intervals(), intervals(), st.integers(-10 ** 6, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_kernel_operations_enclose_the_exact_result(xp, yp, k):
    (x, px), (y, py) = xp, yp
    for p in px:
        assert _holds(x * k, p * k) and _holds(x + k, p + k)
        assert _holds(x.sqr(), p * p)
        if p >= 0:
            r = x.sqrt()
            assert Fraction(r.lo, 1 << r.s) ** 2 <= p <= Fraction(r.hi, 1 << r.s) ** 2
        for q in py:
            assert _holds(x + y, p + q) and _holds(x - y, p - q) and _holds(x * y, p * q)
            if not y.contains_zero():
                assert _holds(x / y, p / q)
    # |z|^2 over the box of x and y: its lower end is a lower bound of every
    # point's, its upper end an upper bound, and neither is negative
    m2 = Box(x, y).abs2()
    assert m2.lo >= 0
    for p in px:
        for q in py:
            assert _holds(m2, p * p + q * q)


@given(st.integers(0, 10 ** 40), st.integers(0, 10 ** 40), SCALES)
@settings(max_examples=200, deadline=None)
def test_outward_isqrt_is_the_tightest_grid_enclosure(a, b, s):
    a, b = sorted((a, b))
    r = Iv(a, b, s).sqrt()
    # r.lo / 2^s <= sqrt(a / 2^s) < (r.lo + 1) / 2^s, and the same above for b
    assert r.lo ** 2 <= a << s < (r.lo + 1) ** 2
    assert b << s <= r.hi ** 2 and (r.hi == 0 or (r.hi - 1) ** 2 < b << s)


def test_comparisons_are_certain():
    x, y = Iv(0, 2, 1), Iv(3, 8, 2)  # [0, 1] and [3/4, 2]
    assert not x < y and not x > y
    assert Iv(0, 1, 1) < y and y > Iv(0, 1, 1)
    assert x < 2 and not x > 0 and x > -1


# ---------------------------------------------------------------------------
# Bit-identity of the raw-tuple kernels against the iv.mpf operator formulas
# ---------------------------------------------------------------------------

PRECS = st.integers(min_value=53, max_value=512)


@st.composite
def endpoints(draw, prec):
    """An mpf with up to prec + 40 significant bits in [-2^8, 2^8]."""
    bits = prec + 40
    man = draw(st.integers(min_value=-(2 ** bits), max_value=2 ** bits))
    with mp.workprec(bits + 16):
        return mp.ldexp(mp.mpf(man), 8 - bits)


# quadrant boundaries k*pi/2 for the cos/sin case split, and exact zero
SPECIAL = st.sampled_from([0, 1, -1, 2, 3, -3, 5, 6, -6, 8, 10, -50])


@st.composite
def real_intervals(draw, prec):
    kind = draw(st.sampled_from(["point", "narrow", "wide", "boundary"]))
    if kind == "point":
        a = draw(st.one_of(SPECIAL, endpoints(prec)))
        return iv.mpf(a)
    if kind == "boundary":
        with mp.workprec(prec + 40):
            centre = draw(SPECIAL) * mp.pi / 2
            a = centre - mp.ldexp(1, -draw(st.integers(1, prec)))
            b = centre + mp.ldexp(1, -draw(st.integers(1, prec)))
        return iv.mpf([a, b])
    a, b = draw(endpoints(prec)), draw(endpoints(prec))
    if kind == "narrow":
        with mp.workprec(prec + 60):
            b = a + abs(b) * mp.ldexp(1, -prec // 2)
    return iv.mpf([min(a, b), max(a, b)])


@given(st.data(), PRECS)
@settings(max_examples=300, deadline=None)
def test_phase_and_atan_kernels_match_iv_functions(data, prec):
    with prec_guard(prec):
        x = data.draw(real_intervals(prec))
        c, s = iv_cos_sin(x)
        assert c._mpi_ == iv.cos(x)._mpi_
        assert s._mpi_ == iv.sin(x)._mpi_
        c2, s2 = iv_cos_sin(-2 * x)
        assert (c2._mpi_, s2._mpi_) == (iv.cos(-2 * x)._mpi_, iv.sin(-2 * x)._mpi_)
        assert iv_atan(x)._mpi_ == iv.atan2(x, iv.mpf(1))._mpi_
        assert same(ComplexIv.one(), (iv.mpf(1), iv.mpf(0)))
        assert same(ComplexIv.zero(), (iv.mpf(0), iv.mpf(0)))


def test_iv_cos_sin_exact_zero():
    with prec_guard(64):
        c, s = iv_cos_sin(iv.mpf(0))
        assert c._mpi_ == iv.mpf(1)._mpi_ and s._mpi_ == iv.mpf(0)._mpi_


# Reference: complex rectangles as (re, im) pairs of iv.mpf combined with
# the iv.mpf operators, in the operation order ComplexIv has always used.


def ref_parts(v):
    if isinstance(v, ComplexIv):
        return v.re, v.im
    if isinstance(v, Fraction):
        return iv.mpf(v.numerator) / v.denominator, iv.mpf(0)
    return iv.mpf(v), iv.mpf(0)


def ref_add(x, y):
    (a, b), (c, d) = ref_parts(x), ref_parts(y)
    return a + c, b + d


def ref_neg(x):
    a, b = ref_parts(x)
    return -a, -b


def ref_mul(x, y):
    (a, b), (c, d) = ref_parts(x), ref_parts(y)
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = ref_parts(x), ref_parts(y)
    den = c * c + d * d
    return (a * c + b * d) / den, (b * c - a * d) / den


def ref_sub(x, y):
    a, b = ref_parts(x)
    c, d = ref_neg(y)
    return a + c, b + d


def same(z, ref):
    return (z.re._mpi_, z.im._mpi_) == (ref[0]._mpi_, ref[1]._mpi_)


@st.composite
def complex_intervals(draw, prec):
    return ComplexIv(draw(real_intervals(prec)), draw(real_intervals(prec)))


SCALARS = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6),
)


@given(st.data(), PRECS)
@settings(max_examples=300, deadline=None)
def test_complex_operators_match_iv_mpf_formulas(data, prec):
    with prec_guard(prec):
        x = data.draw(complex_intervals(prec))
        y = data.draw(st.one_of(complex_intervals(prec), SCALARS))
        assert same(x + y, ref_add(x, y))
        assert same(y + x, ref_add(x, y) if not isinstance(y, ComplexIv) else ref_add(y, x))
        assert same(-x, ref_neg(x))
        assert same(x - y, ref_sub(x, y))
        assert same(y - x, ref_sub(y, x))
        assert same(x * y, ref_mul(x, y))
        assert same(y * x, ref_mul(x, y) if not isinstance(y, ComplexIv) else ref_mul(y, x))
        assert same(x * x, ref_mul(x, x))
        assert same(x / y, ref_div(x, y))
        assert same(x.conj(), (x.re, -x.im))


# ---------------------------------------------------------------------------
# The 2x2 ball kernel
# ---------------------------------------------------------------------------


def _in_ball(m: int, r: int, s: int, q: Fraction) -> bool:
    return abs(q * (1 << s) - m) <= r


def test_ball_sign_raises_for_a_ball_that_holds_zero():
    assert ball_sign((1, 0)) == 1 and ball_sign((-1, 0)) == -1
    assert ball_sign((6, 5)) == 1 and ball_sign((-6, 5)) == -1
    for ball in ((0, 0), (5, 5), (-5, 5), (3, 7)):
        with pytest.raises(Undecided):
            ball_sign(ball)


@st.composite
def ball_members(draw, s):
    """A 2x2 ball at scale s and one matrix it holds, its entries drawn at
    the ball's ends more often than inside."""
    mids = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=4, max_size=4))
    r = draw(st.integers(0, 2 ** 30))
    ts = draw(st.lists(
        st.sampled_from([Fraction(-1), Fraction(1)])
        | st.fractions(min_value=-1, max_value=1, max_denominator=100),
        min_size=4, max_size=4,
    ))
    return Ball2(*mids, r, s), [Fraction(m + t * r, 1 << s) for m, t in zip(mids, ts)]


def _gauss_of(x):
    a, b, c, d = x
    return a + d, b - c


@given(st.integers(0, 80).flatmap(lambda s: st.tuples(ball_members(s), ball_members(s))))
@settings(max_examples=150, deadline=None)
def test_ball_kernel_encloses_its_members(case):
    (P, p), (Q, q) = case
    s = P.s
    a, b, c, d = p
    e, f, g, h = q
    PQ = P * Q
    product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    for ball, entries in ((PQ, product), (P.adjugate(), (d, -b, -c, a))):
        assert all(
            _in_ball(m, ball.r, s, x)
            for m, x in zip((ball.a, ball.b, ball.c, ball.d), entries)
        )
    for (m, r), x in zip(P.alpha2(), _gauss_of(p)):
        assert _in_ball(m, r, s, x)
    (x1, y1), (x2, y2) = _gauss_of(p), _gauss_of(q)
    for (m, r), x in zip(P.pair(Q), (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1)):
        assert _in_ball(m, r, 2 * s, x)


def test_ball_product_radius_covers_the_radii_product_and_the_floor():
    # zero midpoints: every product entry of the corners is 2 e f over 2^2s,
    # which only the 2 e f term of the radius covers
    s, e, f = 4, 100, 300
    PQ = Ball2(0, 0, 0, 0, e, s) * Ball2(0, 0, 0, 0, f, s)
    assert _in_ball(PQ.a, PQ.r, s, Fraction(2 * e * f, 1 << 2 * s))
    # exact points: (1/2)^2 = 1/4 floors to 0 at scale 1, and only the
    # floor's +1 holds it
    P = Ball2(1, 0, 0, 0, 0, 1)
    assert _in_ball((P * P).a, (P * P).r, 1, Fraction(1, 4))
    # the identity at a ball's scale is exact and a two-sided unit
    Q = Ball2(5, -3, 2, 7, 1, 3)
    assert (Q.one().a, Q.one().r) == (8, 0)
    assert [(Q.one() * Q).a, (Q.one() * Q).d] == [Q.a, Q.d]


def test_ball_encloses_its_intervals():
    entries = (Iv(-7, 9, 20), Iv(1, 2, 18), Iv(0, 0, 16), Iv(-3, -1, 16))
    ball = Ball2.enclose(entries, 16)
    for m, x in zip((ball.a, ball.b, ball.c, ball.d), entries):
        for end in (x.lo, x.hi):
            assert _in_ball(m, ball.r, 16, Fraction(end, 1 << x.s))
