"""Reference interval engine for the Euler number, kept as a test oracle.

This is the outward-rounded cos/sin/atan lift that ``geodesica.eulerclass``
used before its exact winding count: points (gamma, omega) of the universal
cover of PSL(2,R) with |gamma| < 1 and omega a real lift, the group law on
raw mpmath endpoint tuples, the relator-defect correction, the canonical
boundary section and the precision ladder.  An integer is only reported when
the certified residual clears RESIDUAL_TOL.  The tests run it against the
exact engine and check its own kernels against the ComplexIv / iv.mpf
formulas.

It runs on mpmath's directed-rounding intervals, which the package no
longer uses: real quantities are iv.mpf, complex ones the ComplexIv
rectangles below, whose raw kernels work on endpoint tuples at iv.prec in
the iv.mpf operators' order.  ``prec_guard`` sets the working precision.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp
from mpmath import iv
from mpmath.libmp import (
    from_man_exp, fzero, mpf_gt, mpi_add, mpi_atan2, mpi_cos_sin, mpi_div, mpi_mul,
    mpi_neg, mpi_sub,
)

from geodesica.errors import NoLiftExists, PrecisionExhausted, require_positive_int
from geodesica.eulerclass import (
    EULER_SIGN,
    PRECISION_CAP,
    START_BITS,
    EulerResult,
    solve_integer_system,
)
from geodesica.knotgroup import MatrixRep, Word, evaluate_word
from geodesica.numfield import RealPlace

RESIDUAL_TOL = mp.mpf("1e-9")
_make_mpf = iv.make_mpf
# 0 and 1 are exact at every precision
ZERO = iv.mpf(0)._mpi_
ONE = iv.mpf(1)._mpi_


@contextmanager
def prec_guard(bits: int):
    """Temporarily set the interval (and float) working precision."""
    old_iv, old_mp = iv.prec, mp.mp.prec
    iv.prec = bits
    mp.mp.prec = bits
    try:
        yield
    finally:
        iv.prec = old_iv
        mp.mp.prec = old_mp


def iv_from_fraction(q: Fraction):
    return iv.mpf(q.numerator) / q.denominator


def iv_contains_zero(x) -> bool:
    return x.a <= 0 <= x.b


def to_iv(x):
    """The package's integer dyadic interval as an iv.mpf, rounded outward
    at iv.prec."""
    return _make_mpf((
        from_man_exp(x.lo, -x.s, iv.prec, "f"),
        from_man_exp(x.hi, -x.s, iv.prec, "c"),
    ))


def embed_iv(place: RealPlace, e, bits: int):
    """``place.embed(e, bits)`` as an iv.mpf."""
    return to_iv(place.embed(e, bits))


def cx_add(p, q, prec):
    return mpi_add(p[0], q[0], prec), mpi_add(p[1], q[1], prec)


def cx_neg(p, prec):
    return mpi_neg(p[0], prec), mpi_neg(p[1], prec)


def cx_conj(p, prec):
    return p[0], mpi_neg(p[1], prec)


def cx_mul(p, q, prec):
    (a, b), (c, d) = p, q
    return (
        mpi_sub(mpi_mul(a, c, prec), mpi_mul(b, d, prec), prec),
        mpi_add(mpi_mul(a, d, prec), mpi_mul(b, c, prec), prec),
    )


def cx_div(p, q, prec):
    (a, b), (c, d) = p, q
    den = mpi_add(mpi_mul(c, c, prec), mpi_mul(d, d, prec), prec)
    return (
        mpi_div(mpi_add(mpi_mul(a, c, prec), mpi_mul(b, d, prec), prec), den, prec),
        mpi_div(mpi_sub(mpi_mul(b, c, prec), mpi_mul(a, d, prec), prec), den, prec),
    )


class ComplexIv:
    """Rectangular complex interval: re and im are iv.mpf."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re if isinstance(re, iv.mpf) else iv.mpf(re)
        self.im = im if isinstance(im, iv.mpf) else iv.mpf(im)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "ComplexIv":
        return cls(iv_from_fraction(q), iv.mpf(0))

    @classmethod
    def from_mpc(cls, z) -> "ComplexIv":
        z = mp.mpc(z)
        return cls(iv.mpf(z.real), iv.mpf(z.imag))

    @staticmethod
    def zero() -> "ComplexIv":
        return ComplexIv.from_raw((ZERO, ZERO))

    @staticmethod
    def one() -> "ComplexIv":
        return ComplexIv.from_raw((ONE, ZERO))

    @staticmethod
    def from_raw(p) -> "ComplexIv":
        """ComplexIv from a raw (re, im) pair of endpoint tuples."""
        z = object.__new__(ComplexIv)
        z.re = _make_mpf(p[0])
        z.im = _make_mpf(p[1])
        return z

    def raw(self):
        """The raw (re, im) pair of endpoint tuples."""
        return self.re._mpi_, self.im._mpi_

    def __repr__(self):
        return f"ComplexIv({self.re}, {self.im})"

    def __add__(self, other):
        return ComplexIv.from_raw(cx_add(self.raw(), self._coerce(other).raw(), iv.prec))

    __radd__ = __add__

    def __neg__(self):
        return ComplexIv.from_raw(cx_neg(self.raw(), iv.prec))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        return ComplexIv.from_raw(cx_mul(self.raw(), self._coerce(other).raw(), iv.prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ComplexIv.from_raw(cx_div(self.raw(), self._coerce(other).raw(), iv.prec))

    @staticmethod
    def _coerce(other) -> "ComplexIv":
        if isinstance(other, ComplexIv):
            return other
        if isinstance(other, Fraction):
            return ComplexIv.from_fraction(other)
        return ComplexIv(iv.mpf(other), iv.mpf(0))

    def conj(self) -> "ComplexIv":
        return ComplexIv.from_raw(cx_conj(self.raw(), iv.prec))

    def abs2(self):
        val = self.re * self.re + self.im * self.im
        if val.a < 0:
            # outward rounding can push the lower bound of a square sum
            # below zero; the true value cannot be negative
            val = iv.mpf([0, mp.mpf(val.b)])
        return val

    def abs_iv(self):
        return iv.sqrt(self.abs2())


def iv_atan(x):
    """arctan on intervals; the iv context only ships atan2."""
    return _make_mpf(mpi_atan2(iv.mpf(x)._mpi_, ONE, iv.prec))


def iv_cos_sin(x):
    """(iv.cos(x), iv.sin(x)) from a single cos/sin evaluation."""
    c, s = mpi_cos_sin(iv.mpf(x)._mpi_, iv.prec)
    return _make_mpf(c), _make_mpf(s)


def abs_upper(z: ComplexIv) -> mp.mpf:
    """Upper endpoint of the enclosure of |z|."""
    return mp.mpf(z.abs_iv().b)


def lower_positive(x) -> bool:
    """Whether the raw interval x lies strictly right of 0."""
    return mpf_gt(x[0], fzero)


@dataclass
class LiftedElement:
    """Point (gamma, omega) of the universal cover, |gamma| < 1."""

    gamma: ComplexIv
    omega: object  # iv.mpf

    def central_shift(self, k: int) -> "LiftedElement":
        return LiftedElement(self.gamma, self.omega + k * iv.pi)


def _arg_mod_pi(z: ComplexIv):
    """Angle of the line through z, as an interval near [0, pi).

    The boundary cases (z near the real axis) keep the representative near 0
    or pi rather than splitting the interval; any resulting central offset is
    absorbed by the relator-defect correction.
    """
    re, im = z.re, z.im
    if not iv_contains_zero(re):
        theta = iv_atan(im / re)
        if theta.b < 0:
            theta = theta + iv.pi
        return theta
    if not iv_contains_zero(im):
        return iv.pi / 2 - iv_atan(re / im)
    raise PrecisionExhausted("argument of an interval containing 0")


def to_su11(entries: Sequence) -> LiftedElement:
    """Principal lift of a real det-1 matrix through the disk-model
    isomorphism: alpha = (a+d+(b-c)i)/2, beta = (a-d-(b+c)i)/2,
    gamma = conj(beta)/alpha, omega = arg(alpha) mod pi."""
    a, b, c, d = entries
    alpha = ComplexIv((a + d) / 2, (b - c) / 2)
    beta = ComplexIv((a - d) / 2, -(b + c) / 2)
    if iv_contains_zero(alpha.re) and iv_contains_zero(alpha.im):
        raise PrecisionExhausted("alpha enclosure contains 0 in to_su11")
    gamma = beta.conj() / alpha
    if not (gamma.abs2().b < 1):
        raise PrecisionExhausted("could not certify |gamma| < 1")
    return LiftedElement(gamma, _arg_mod_pi(alpha))


# the exact factors of the phases e^{-2i omega} (product) and e^{2i omega}
# (inverse)
_MINUS_TWO = iv.mpf(-2)._mpi_
_TWO = iv.mpf(2)._mpi_


def ucover_mul(x: LiftedElement, y: LiftedElement) -> LiftedElement:
    """Group law of the universal cover.

    The log factor in the published formula is arg(u) for
    u = 1 + gamma_2 conj(gamma_1) e^{-2 i omega_1}; |gamma_i| < 1 keeps
    Re(u) > 0, so the principal branch never meets the cut.  Runs on raw
    endpoint tuples, with the operands and order of the ComplexIv and iv.mpf
    operators, so it gives their endpoints.
    """
    prec = iv.prec
    xg, xw = x.gamma.raw(), x.omega._mpi_
    g2ph = cx_mul(y.gamma.raw(), mpi_cos_sin(mpi_mul(_MINUS_TWO, xw, prec), prec), prec)
    u = cx_add((ONE, ZERO), cx_mul(g2ph, cx_conj(xg, prec), prec), prec)
    if not lower_positive(u[0]):
        raise PrecisionExhausted("branch certificate Re(u) > 0 failed in ucover_mul")
    gamma = cx_div(cx_add(xg, g2ph, prec), u, prec)
    turn = mpi_atan2(mpi_div(u[1], u[0], prec), ONE, prec)
    omega = mpi_add(mpi_add(xw, y.omega._mpi_, prec), turn, prec)
    return LiftedElement(ComplexIv.from_raw(gamma), iv.make_mpf(omega))


def ucover_inv(x: LiftedElement) -> LiftedElement:
    prec = iv.prec
    xw = x.omega._mpi_
    phase = mpi_cos_sin(mpi_mul(_TWO, xw, prec), prec)
    gamma = cx_neg(cx_mul(x.gamma.raw(), phase, prec), prec)
    return LiftedElement(ComplexIv.from_raw(gamma), iv.make_mpf(mpi_neg(xw, prec)))


def ucover_identity() -> LiftedElement:
    return LiftedElement(ComplexIv.zero(), iv.mpf(0))


def ucover_pow(x: LiftedElement, n: int) -> LiftedElement:
    """x^n, started from x: the identity is an exact left unit of
    ucover_mul (phase exactly (1, 0), u = 1, atan2(0, 1) = 0), so skipping
    the identity product leaves every endpoint unchanged."""
    if n == 0:
        return ucover_identity()
    if n < 0:
        x, n = ucover_inv(x), -n
    out = x
    for _ in range(n - 1):
        out = ucover_mul(out, x)
    return out


def ucover_eval(w: Word, lifts: Sequence[LiftedElement]) -> LiftedElement:
    """Lift of a word: each distinct (generator, exponent) power is built
    once per call, and the product starts from the first letter's power."""
    powers: dict[tuple[int, int], LiftedElement] = {}
    out: Optional[LiftedElement] = None
    for letter in w.letters:
        p = powers.get(letter)
        if p is None:
            g, e = letter
            p = powers[letter] = ucover_pow(lifts[g], e)
        out = p if out is None else ucover_mul(out, p)
    return ucover_identity() if out is None else out


def embed_matrix(rep: MatrixRep, w: Word, place: RealPlace, bits: int):
    m = evaluate_word(rep.images, w)
    return tuple(embed_iv(place, entry, bits) for entry in m.entries())


def _integer_defect(omega, tol) -> tuple[int, mp.mpf]:
    mid = mp.mpf(omega.mid.a)
    ratio = mid / mp.pi
    k = int(mp.nint(ratio))
    residual = abs(ratio - k)
    width = mp.mpf(omega.delta.b) / mp.pi
    return k, residual + width


def lift_representation(
    rep: MatrixRep,
    place: RealPlace,
    precision_bits: int = START_BITS,
    offsets: Optional[Sequence[int]] = None,
    tol=RESIDUAL_TOL,
) -> list[LiftedElement]:
    """Principal lifts of the generator images with every relator defect
    annihilated.

    Starts from the principal lift of each generator (optionally shifted by
    the given central offsets, exercising lift-independence), measures the
    central defect c^{k_r} of each relator, and solves the integer system
    E m = -k over the relator abelianization matrix E.
    """
    with prec_guard(precision_bits + 32):
        lifts = [
            to_su11(embed_matrix(rep, Word.gen(i), place, precision_bits))
            for i in range(rep.presentation.generator_count)
        ]
        if offsets:
            lifts = [L.central_shift(k) for L, k in zip(lifts, offsets)]
        defects = []
        for relator in rep.presentation.relators:
            val = ucover_eval(relator, lifts)
            if not (val.gamma.abs2().b < float(tol) ** 2):
                raise PrecisionExhausted(
                    "relator gamma defect not certified small; raise precision"
                )
            k, residual = _integer_defect(val.omega, tol)
            if residual > tol:
                raise PrecisionExhausted(
                    f"relator omega defect {residual} not within {tol} of an integer"
                )
            defects.append(k)
        if any(defects):
            name = rep.presentation.name
            E = rep.presentation.relator_exponent_matrix()
            try:
                m = solve_integer_system(E, [-k for k in defects])
            except NoLiftExists as exc:
                raise NoLiftExists(f"{name}: place {place.index}: {exc}") from None
            lifts = [L.central_shift(mi) for L, mi in zip(lifts, m)]
            for relator in rep.presentation.relators:
                val = ucover_eval(relator, lifts)
                k, residual = _integer_defect(val.omega, tol)
                if k != 0 or residual > tol:
                    raise NoLiftExists(
                        f"{name}: place {place.index}: defect correction failed "
                        "to annihilate a relator"
                    )
        return lifts


def canonical_section(tau_value) -> LiftedElement:
    """Canonical boundary section at the longitude (-1, -tau; 0, -1):
    s(l) = (i tau / (2 + i tau), arctan(tau / 2))."""
    tau = tau_value if isinstance(tau_value, iv.mpf) else iv.mpf(tau_value)
    denom = ComplexIv(iv.mpf(2), tau)
    gamma = ComplexIv(iv.mpf(0), tau) / denom
    omega = iv_atan(tau / 2)
    return LiftedElement(gamma, omega)


def euler_number(
    rep: MatrixRep,
    place: RealPlace,
    precision_bits: int = START_BITS,
    offsets: Optional[Sequence[int]] = None,
) -> EulerResult:
    """Euler number e([F]) at a real place: the central gap between the
    lifted longitude and the canonical section, with a precision ladder.
    """
    require_positive_int(precision_bits, "precision_bits")
    cap = PRECISION_CAP
    name = rep.presentation.name
    if cap < precision_bits:
        raise PrecisionExhausted(
            f"{name}: euler number at place {place.index}: no rung ran, the start "
            f"precision {precision_bits} bits exceeds the cap {cap} bits"
        )
    bits = precision_bits
    last_err: Exception | None = None
    while bits <= cap:
        try:
            return _euler_once(rep, place, bits, offsets)
        except PrecisionExhausted as exc:
            last_err = exc
            bits *= 2
    raise PrecisionExhausted(
        f"{name}: euler number at place {place.index} failed up to {cap} bits: {last_err}"
    )


def _euler_once(rep, place, bits, offsets) -> EulerResult:
    with prec_guard(bits + 32):
        lifts = lift_representation(rep, place, bits, offsets)
        lifted = ucover_eval(rep.presentation.longitude, lifts)
        tau = embed_iv(place, rep.longitude_translation(), bits)
        section = canonical_section(tau)
        # the projections must agree: certified sanity check on gamma
        diff = lifted.gamma - section.gamma
        if not (diff.abs2().b < float(RESIDUAL_TOL) ** 2):
            raise PrecisionExhausted(
                "lifted longitude and section disagree beyond tolerance"
            )
        gap = lifted.omega - section.omega
        n, residual = _integer_defect(gap, RESIDUAL_TOL)
        if residual > RESIDUAL_TOL:
            raise PrecisionExhausted(
                f"omega gap {residual} not within tolerance of an integer multiple of pi"
            )
        return EulerResult(
            place_index=place.index,
            n=EULER_SIGN * n,
            precision_bits=bits,
        )
