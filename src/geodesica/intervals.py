"""Thin layer over mpmath's directed-rounding intervals.

Real quantities use iv.mpf directly; complex quantities are rectangles
(re, im) of iv.mpf.  Everything rounds outward, so any containment or
strict-inequality decision made here is sound.

This is the only module that imports mpmath.libmp.  Its raw kernels work on
endpoint tuples: a real interval is mpmath's (lo, hi) pair of raw mpfs, a
complex rectangle an (re, im) pair of those.  ComplexIv arithmetic runs them
at iv.prec, in the iv.mpf operators' order: the same endpoints without the
conversion wrappers.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
from mpmath import iv
from mpmath.libmp import mpi_add, mpi_div, mpi_mul, mpi_neg, mpi_sub

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


def iv_width(x) -> mp.mpf:
    return mp.mpf(x.delta.b)


def iv_mid(x) -> mp.mpf:
    return mp.mpf(x.mid.a)


def iv_contains_zero(x) -> bool:
    return x.a <= 0 <= x.b


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

    def max_width(self) -> mp.mpf:
        return max(iv_width(self.re), iv_width(self.im))

