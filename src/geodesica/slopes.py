"""Trace-condition systems for boundary slopes of totally geodesic surfaces.

A conjugator with lower-left entry delta * weight(z) forces
weight^2 (nq tau^2 + (mq+np) tau + mp) to have vanishing coefficients on
z^1..z^{d-1}; those coefficients are rational linear forms in the bilinear
quantities u = (mp, mq, np, nq).  Solving through the rank-1 constraint
u = (m,n) (x) (p,q) yields the admissible slope pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import IncompleteCaseAnalysis
from .numfield import FieldElement


class Slope:
    """A slope p/q in lowest terms with q >= 0; (1, 0) is the infinite slope.

    Ordering is numeric (infinity last), not lexicographic on (p, q), so a
    slope is a plain class and not a tuple.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q

    def __eq__(self, other):
        return other.__class__ is Slope and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    @classmethod
    def of(cls, p: int, q: int) -> "Slope":
        if p == 0 and q == 0:
            raise ValueError("slope (0,0) is undefined")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return cls(p, q)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def _key(self):
        return (1, Fraction(0)) if self.is_infinite else (0, Fraction(self.p, self.q))

    def __lt__(self, other: "Slope") -> bool:
        return self._key() < other._key()

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


class SlopeSystem(NamedTuple):
    """Linear system in u = (mp, mq, np, nq) from one conjugator case."""

    equations: tuple[tuple[int, int, int, int], ...]


def _normalize_row(row: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    den = math.lcm(*(c.denominator for c in row))
    ints = [int(c * den) for c in row]
    g = math.gcd(*ints)
    if g == 0:
        return None
    ints = [c // g for c in ints]
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def build_system(tau: FieldElement, weight: FieldElement) -> SlopeSystem:
    """Expand weight^2 (nq tau^2 + (mq+np) tau + mp) in the power basis and
    keep one equation per non-constant coefficient.

    The mq and np columns coincide (the form is symmetric); the constant
    coefficient is deliberately not constrained.
    """
    w2 = weight * weight
    col_mp = w2
    col_mq = w2 * tau
    col_nq = w2 * tau * tau
    d = tau.field.degree
    rows = []
    for i in range(1, d):
        row = (
            col_mp.coeffs[i],
            col_mq.coeffs[i],
            col_mq.coeffs[i],
            col_nq.coeffs[i],
        )
        norm = _normalize_row(row)
        if norm is not None and norm not in rows:
            rows.append(norm)
    return SlopeSystem(tuple(rows))


class SlopeSolution(NamedTuple):
    """Admissible (p/q, m/n) pairs; exhaustive when the case split covered
    every projective possibility."""

    pairs: tuple[tuple[Slope, Slope], ...]
    exhaustive: bool


def _bilinear_matrices(equations) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # row (c1, c2, c3, c4) on (mp, mq, np, nq) is (m, n) M (p, q)^T with
    # M = ((c1, c2), (c3, c4))
    return [((c1, c2), (c3, c4)) for c1, c2, c3, c4 in equations]


def _apply_m(M, p: int, q: int) -> tuple[int, int]:
    (c1, c2), (c3, c4) = M
    return (c1 * p + c2 * q, c3 * p + c4 * q)


def _quadratic_roots_projective(A: int, B: int, C: int) -> list[tuple[int, int]]:
    """Rational projective roots of A p^2 + B pq + C q^2 = 0 as (p, q) pairs."""
    if A == 0 and B == 0 and C == 0:
        raise ValueError("identically zero quadratic")
    roots = []
    if A == 0:
        roots.append((1, 0))
        if B != 0:
            roots.append((-C, B))
        return roots
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    s = math.isqrt(disc)
    if s * s != disc:
        return []
    roots.append((-B + s, 2 * A))
    if s != 0:
        roots.append((-B - s, 2 * A))
    return roots


def solve_system(sys: SlopeSystem) -> SlopeSolution:
    """All slope pairs ((p:q), (m:n)) satisfying every equation.

    For each equation e, (m,n) must be orthogonal to v_e(p,q) = M_e (p,q)^T.
    A nonzero (m,n) exists iff the v_e span at most one dimension, i.e. all
    pairwise determinants det(v_e, v_f) -- quadratic forms in (p,q) -- vanish.
    The rational projective roots of those quadratics give the candidate
    slopes; completeness of the case split makes the answer exhaustive.
    """
    eqs = sys.equations
    if not eqs:
        return SlopeSolution((), exhaustive=False)
    Ms = _bilinear_matrices(eqs)

    if len(Ms) == 1:
        # a single bilinear constraint admits solutions for every (p:q);
        # no finite description, flag non-exhaustive
        return SlopeSolution((), exhaustive=False)

    quadratics = []
    for i in range(len(Ms)):
        for j in range(i + 1, len(Ms)):
            (a1, b1), (c1, d1) = Ms[i]
            (a2, b2), (c2, d2) = Ms[j]
            # det( M_i (p,q)^T , M_j (p,q)^T ) as A p^2 + B pq + C q^2
            A = a1 * c2 - c1 * a2
            B = a1 * d2 + b1 * c2 - c1 * b2 - d1 * a2
            C = b1 * d2 - d1 * b2
            if (A, B, C) != (0, 0, 0):
                quadratics.append((A, B, C))

    if not quadratics:
        # all dets vanish identically: every slope admits companions
        return SlopeSolution((), exhaustive=False)

    candidates = _quadratic_roots_projective(*quadratics[0])
    pairs = []
    for p, q in candidates:
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if any(A * p * p + B * p * q + C * q * q != 0 for A, B, C in quadratics[1:]):
            continue
        sol = solve_fixed_peripheral(sys, p, q)
        if not sol.exhaustive:
            # no constraint on (m, n): record the slope with every companion
            # admissible; mark non-exhaustive in the companion coordinate
            return SlopeSolution(((Slope.of(p, q),) * 2,), exhaustive=False)
        pairs.extend(sol.pairs)
    return SlopeSolution(tuple(sorted(set(pairs))), exhaustive=True)


def solve_fixed_peripheral(sys: SlopeSystem, p: int, q: int) -> SlopeSolution:
    """Companion slopes (m:n) when one peripheral element a^p l^q is pinned.

    The equations reduce to linear conditions (m,n) . v_e(p,q) = 0.
    """
    Ms = _bilinear_matrices(sys.equations)
    vs = [_apply_m(M, p, q) for M in Ms]
    vs = [v for v in vs if v != (0, 0)]
    fixed = Slope.of(p, q)
    if not vs:
        return SlopeSolution((), exhaustive=False)
    m, n = -vs[0][1], vs[0][0]
    if any(m * a + n * b != 0 for a, b in vs[1:]):
        return SlopeSolution((), exhaustive=True)  # only (m,n) = (0,0)
    return SlopeSolution(((fixed, Slope.of(m, n)),), exhaustive=True)


class SlopeCase(NamedTuple):
    """One conjugator-orbit case from a uniqueness-style analysis.

    `fixed_pq` pins the first peripheral element (the second round of the
    7_4 analysis); such a case adds the companion slope of each admissible
    pair to the final set, and a case without it adds both slopes.
    """

    label: str
    weight_coeffs: tuple[Fraction, ...]
    fixed_pq: Optional[tuple[int, int]] = None

    def weight(self, field) -> FieldElement:
        return field.element(self.weight_coeffs)


def slope_set_for_knot(rep, cases: Sequence[SlopeCase]) -> dict:
    """Union of solved slope sets over the knot's case descriptors.

    `rep` must expose the longitude translation tau; the cases supply the
    conjugator weights from the geometric analysis (data, not rediscovered).
    """
    if not cases:
        raise IncompleteCaseAnalysis("no slope case descriptors supplied")
    K = rep.field
    tau = rep.longitude_translation()
    slopes: set[Slope] = set()
    exhaustive = True
    per_case = []
    for case in cases:
        system = build_system(tau, case.weight(K))
        if case.fixed_pq is None:
            sol = solve_system(system)
            for s1, s2 in sol.pairs:
                slopes.add(s1)
                slopes.add(s2)
        else:
            p, q = case.fixed_pq
            sol = solve_fixed_peripheral(system, p, q)
            for _, s2 in sol.pairs:
                slopes.add(s2)
        exhaustive = exhaustive and sol.exhaustive
        per_case.append({
            "label": case.label,
            "equations": system.equations,
            "pairs": [(str(a), str(b)) for a, b in sol.pairs],
            "exhaustive": sol.exhaustive,
        })
    return {
        "slopes": sorted(slopes),
        "exhaustive": exhaustive,
        "cases": per_case,
    }
