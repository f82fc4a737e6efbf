"""The complex root finder as the package had it before its one-stage
polish: Durand-Kerner in machine floats from the Newton-polygon start, whose
seeds a second Durand-Kerner on Gaussian integers over 2^(bits + 20)
polishes, or the Newton-polygon start itself when the floats overflow.  Kept
as the reference the tests compare ``polycore.complex_roots`` against; the
polish, the radii and the disjointness test are the package's own.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from geodesica.errors import BadArgument, PrecisionExhausted, RepeatedRoots
from geodesica.polycore import (
    _GUARD_BITS,
    _MAX_SWEEPS,
    CertifiedRoot,
    ComplexRootSet,
    RatPoly,
    _disks_disjoint,
    _durand_kerner,
    _fixed,
    _newton_circles,
    _newton_start,
    _weierstrass_radii,
    poly_gcd,
)

# The float stage stops at this relative step: one more sweep reaches the
# float's own precision, and the integer stage's quadratic convergence takes
# it from there.
_SEED_STEP = 2.0 ** -40


def complex_roots(p: RatPoly, precision_bits: int) -> ComplexRootSet:
    """All complex roots of a square-free polynomial with certified radii,
    from the float seeds when there are some; each failed certificate
    doubles bits and polishes again from the seeds, up to 8x the requested
    precision."""
    if precision_bits < 53:
        raise BadArgument("precision_bits must be at least 53")
    if p.degree < 1:
        return ComplexRootSet(())
    if poly_gcd(p, p.derivative()).degree > 0:
        raise RepeatedRoots("input has repeated roots; deflate first")

    monic = p.monic()
    ints = p.num
    seeds = _float_seeds(monic)
    bits = precision_bits
    while bits <= 8 * precision_bits:
        s = bits + _GUARD_BITS
        if seeds is None:
            start = _newton_start(monic, s)
        else:
            start = [(_fixed(z.real, s), _fixed(z.imag, s)) for z in seeds]
        zs, ws = _durand_kerner(ints, start, s)
        radii = _weierstrass_radii(p.degree, ws)
        if max(radii) < 1 << (s - precision_bits // 2) and _disks_disjoint(zs, radii):
            unit = 1 << s
            return ComplexRootSet(tuple(
                CertifiedRoot(Fraction(x, unit), Fraction(y, unit), Fraction(r, unit))
                for (x, y), r in sorted(zip(zs, radii))
            ))
        bits *= 2
    raise PrecisionExhausted(f"could not certify disjoint root disks for {p!r}")


def _float_seeds(monic: RatPoly) -> list[complex] | None:
    """Durand-Kerner in machine floats from the Newton-polygon start
    (``_newton_circles``), until every step is at most 2^-40 of its root or
    after _MAX_SWEEPS sweeps.  None when a coefficient, a start point or an
    iterate leaves the float range, or when the seeds are not finite and
    pairwise distinct."""
    n = monic.degree
    try:
        coeffs = [c / monic.den for c in reversed(monic.num)]
        zs = [complex(math.ldexp(x, w), math.ldexp(y, w)) for w, x, y in _newton_circles(monic)]
        for _ in range(_MAX_SWEEPS):
            converged = True
            new = []
            for i, zi in enumerate(zs):
                num = 0j
                for c in coeffs:
                    num = num * zi + c
                den = 1 + 0j
                for j, zj in enumerate(zs):
                    if i != j:
                        den *= zi - zj
                step = num / den
                if abs(step) > _SEED_STEP * abs(zi):
                    converged = False
                new.append(zi - step)
            zs = new
            if converged:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    if all(cmath.isfinite(z) for z in zs) and len(set(zs)) == n:
        return zs
    return None
