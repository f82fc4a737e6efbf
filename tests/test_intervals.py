import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from geodesica.intervals import (
    ComplexIv,
    iv,
    iv_contains_zero,
    iv_from_fraction,
    prec_guard,
)
from interval_reference import iv_atan, iv_cos_sin


def test_prec_guard_restores():
    before_iv, before_mp = iv.prec, mp.mp.prec
    with prec_guard(333):
        assert iv.prec == 333 and mp.mp.prec == 333
    assert iv.prec == before_iv and mp.mp.prec == before_mp


def test_fraction_enclosure():
    with prec_guard(64):
        x = iv_from_fraction(Fraction(1, 3))
        lo, hi = mp.mpf(x.a), mp.mpf(x.b)
    with mp.workprec(300):
        truth = mp.mpf(1) / 3
        assert lo <= truth <= hi
        assert hi - lo < mp.mpf(2) ** -60


def test_atan_helper_matches_mpmath():
    with prec_guard(96):
        vals = [Fraction(v) for v in (-3, -1, 0, Fraction(1, 2), 2, 10)]
        results = [iv_atan(iv_from_fraction(v)) for v in vals]
    with mp.workprec(300):
        for v, got in zip(vals, results):
            expected = mp.atan(mp.mpf(v.numerator) / v.denominator)
            assert mp.mpf(got.a) <= expected <= mp.mpf(got.b)


def test_complex_arithmetic_contains_truth():
    rng = random.Random(2)
    cases = []
    with prec_guard(80):
        for _ in range(30):
            a = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            A, B = ComplexIv.from_mpc(a), ComplexIv.from_mpc(b)
            cases.append((a, b, A * B, A + B, A - B, A / B))
    with mp.workprec(300):
        for a, b, prod, add, sub, div in cases:
            for op, ref in ((prod, a * b), (add, a + b), (sub, a - b), (div, a / b)):
                assert mp.mpf(op.re.a) <= mp.re(ref) <= mp.mpf(op.re.b)
                assert mp.mpf(op.im.a) <= mp.im(ref) <= mp.mpf(op.im.b)


def test_abs2_clamps_rounding_dust():
    with prec_guard(64):
        tiny = ComplexIv(iv.mpf([-1e-30, 1e-30]), iv.mpf([-1e-30, 1e-30]))
        val = tiny.abs2()
        assert float(val.a) >= 0
        # sqrt must not raise on the clamped interval
        tiny.abs_iv()


def test_contains_zero():
    assert iv_contains_zero(iv.mpf([-1, 1]))
    assert not iv_contains_zero(iv.mpf([1, 2]))


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
