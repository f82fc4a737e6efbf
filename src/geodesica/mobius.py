"""Boundary geometry on the sphere at infinity: Mobius images of circles
and lines, tangency classification, geodesic-endpoint typing, the
uniqueness-system checker, and a deterministic SVG renderer.

Clines carry exact three-point data over the field whenever it is available;
infinity detection (circle vs line) is then exact along with every shared
tangency point asserted by matrix identities.  Numeric realizations use
rectangular complex intervals, and numeric classification is conservative:
Secant and Disjoint are decided strictly, exact tangency is never claimed
from intervals alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DegenerateCline,
    NotAGeodesicEndpoint,
    UnsupportedCase,
)
from .intervals import (
    ComplexIv,
    iv,
    iv_contains_zero,
    iv_from_fraction,
    iv_mid,
    prec_guard,
)
from .knotgroup import Mat2, MatrixRep, Word, evaluate_word
from .numfield import ComplexPlace, FieldElement
from .polycore import RatPoly


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()
Point = Union[FieldElement, _Infinity]


def mobius_apply(m: Mat2, pt: Point) -> Point:
    """(a pt + b) / (c pt + d) with the infinity conventions."""
    if pt is INF:
        if m.c.is_zero():
            return INF
        return m.a / m.c
    den = m.c * pt + m.d
    if den.is_zero():
        return INF
    return (m.a * pt + m.b) / den


def mobius_derivative(m: Mat2, pt: FieldElement) -> FieldElement:
    """d/dz of the Mobius action at a finite non-pole point: det / (c z + d)^2."""
    den = m.c * pt + m.d
    return m.det() / (den * den)


# ---------------------------------------------------------------------------
# Clines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactCline:
    """A circle-or-line on the boundary sphere, by three exact points."""

    points: tuple[Point, Point, Point]

    def __post_init__(self):
        finite = [p for p in self.points if p is not INF]
        if len(set(id(p) if p is INF else p for p in self.points)) < 3:
            raise DegenerateCline("three defining points must be distinct")
        if len(finite) < 2:
            raise DegenerateCline("at least two defining points must be finite")

    @property
    def contains_infinity(self) -> bool:
        return any(p is INF for p in self.points)

    def apply(self, m: Mat2) -> "ExactCline":
        return ExactCline(tuple(mobius_apply(m, p) for p in self.points))

    def realize(self, place: ComplexPlace, precision_bits: int = 128) -> "Cline":
        """Numeric Cline at a complex embedding (outward-rounded)."""
        pts = []
        for p in self.points:
            if p is INF:
                pts.append(INF)
            else:
                pts.append(place.embed(p, precision_bits))
        with prec_guard(precision_bits + 16):
            finite = [p for p in pts if p is not INF]
            if any(p is INF for p in pts):
                p0, p1 = finite[0], finite[1]
                return Cline.line(p0, p1 - p0)
            return _circumcircle(*finite)


def vertical_line_cline(p0: Point, p1: Point) -> ExactCline:
    """The cline through two finite points and infinity."""
    return ExactCline((p0, p1, INF))


def _circumcircle(p1: ComplexIv, p2: ComplexIv, p3: ComplexIv) -> "Cline":
    d = 2 * (
        p1.re * (p2.im - p3.im)
        + p2.re * (p3.im - p1.im)
        + p3.re * (p1.im - p2.im)
    )
    if iv_contains_zero(d):
        raise DegenerateCline(
            "defining points are collinear at this precision; escalate or use INF"
        )
    s1, s2, s3 = p1.abs2(), p2.abs2(), p3.abs2()
    ux = (s1 * (p2.im - p3.im) + s2 * (p3.im - p1.im) + s3 * (p1.im - p2.im)) / d
    uy = (s1 * (p3.re - p2.re) + s2 * (p1.re - p3.re) + s3 * (p2.re - p1.re)) / d
    center = ComplexIv(ux, uy)
    radius = (p1 - center).abs_iv()
    return Cline.circle(center, radius)


@dataclass(frozen=True)
class Cline:
    """Numeric (or exact-rational) circle/line.

    kind "circle": center is ComplexIv or (Fraction, Fraction), radius is an
    iv.mpf or a Fraction-squared carrier (radius2) for exact data.
    kind "line": point and direction, same dual representation.
    """

    kind: str
    center: Optional[object] = None
    radius: Optional[object] = None      # interval radius (numeric grade)
    radius2: Optional[Fraction] = None   # exact squared radius (exact grade)
    point: Optional[object] = None
    direction: Optional[object] = None

    @classmethod
    def circle(cls, center, radius=None, radius2=None) -> "Cline":
        if radius is None and radius2 is None:
            raise ValueError("circle needs a radius")
        if radius2 is not None and radius2 <= 0:
            raise DegenerateCline("circle radius must be positive")
        return cls(kind="circle", center=center, radius=radius, radius2=radius2)

    @classmethod
    def line(cls, point, direction) -> "Cline":
        if isinstance(direction, tuple) and direction == (Fraction(0), Fraction(0)):
            raise DegenerateCline("line direction must be nonzero")
        return cls(kind="line", point=point, direction=direction)

    @property
    def is_exact(self) -> bool:
        if self.kind == "circle":
            return isinstance(self.center, tuple)
        return isinstance(self.point, tuple)


def cline_image(m: Mat2, c: ExactCline) -> ExactCline:
    """Image cline via exact three-point transport."""
    return c.apply(m)


# ---------------------------------------------------------------------------
# Tangency classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tangency:
    kind: str  # "Disjoint" | "Tangent" | "Secant" | "Indeterminate"
    points: tuple = ()

    def __str__(self):
        return self.kind


def tangency(c1: Cline, c2: Cline) -> Tangency:
    """Classify the intersection of two clines.

    Exact rational data is decided exactly; interval data is decided only
    when strict (tangency can never be certified from intervals alone, so
    near-tangent interval input returns Indeterminate).
    """
    if c1.is_exact and c2.is_exact:
        return _tangency_exact(c1, c2)
    return _tangency_interval(c1, c2)


def _q2(p) -> tuple[Fraction, Fraction]:
    return (Fraction(p[0]), Fraction(p[1]))


def _tangency_exact(c1: Cline, c2: Cline) -> Tangency:
    if c1.kind == "line" and c2.kind == "line":
        d1, d2 = _q2(c1.direction), _q2(c2.direction)
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        p1, p2 = _q2(c1.point), _q2(c2.point)
        if cross == 0:
            dp = (p2[0] - p1[0], p2[1] - p1[1])
            if dp[0] * d1[1] - dp[1] * d1[0] == 0:
                raise DegenerateCline("identical lines")
            return Tangency("Tangent", (INF,))  # parallel lines touch at infinity
        return Tangency("Secant", (INF,))  # distinct lines cross once plus infinity
    if c1.kind == "line":
        c1, c2 = c2, c1
    if c2.kind == "line":
        cx, cy = _q2(c1.center)
        r2 = c1.radius2
        px, py = _q2(c2.point)
        dx, dy = _q2(c2.direction)
        n2 = dx * dx + dy * dy
        # squared distance from center to the line
        cross = (cx - px) * dy - (cy - py) * dx
        dist2 = cross * cross / n2
        if dist2 > r2:
            return Tangency("Disjoint")
        if dist2 < r2:
            return Tangency("Secant")
        foot = _foot_of_perpendicular((cx, cy), (px, py), (dx, dy))
        return Tangency("Tangent", (foot,))
    (x1, y1), (x2, y2) = _q2(c1.center), _q2(c2.center)
    r1sq, r2sq = c1.radius2, c2.radius2
    dist2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
    t = dist2 - r1sq - r2sq
    lhs = t * t
    rhs = 4 * r1sq * r2sq
    if lhs == rhs:
        if dist2 == 0:
            raise DegenerateCline("concentric equal circles")
        lam = _exact_ratio(r1sq, r2sq, dist2, external=t > 0)
        pt = (x1 + lam * (x2 - x1), y1 + lam * (y2 - y1))
        return Tangency("Tangent", (pt,))
    if lhs < rhs:
        return Tangency("Secant")
    return Tangency("Disjoint")


def _exact_ratio(r1sq: Fraction, r2sq: Fraction, dist2: Fraction, external: bool) -> Fraction:
    # at tangency dist = r1 +- r2, so r1/dist = sqrt(r1sq/dist2) is rational;
    # the point sits at c1 + lam (c2 - c1) with lam = +-r1/dist, the sign
    # negative exactly for internal tangency with the smaller first circle
    ratio2 = r1sq / dist2
    num = _fraction_sqrt(ratio2)
    if num is None:
        raise DegenerateCline("tangency ratio is irrational; data inconsistent")
    return num if (external or r1sq > r2sq) else -num


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    a, b = q.numerator, q.denominator
    ra, rb = math.isqrt(a), math.isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def _foot_of_perpendicular(c, p, d) -> tuple[Fraction, Fraction]:
    cx, cy = c
    px, py = p
    dx, dy = d
    t = ((cx - px) * dx + (cy - py) * dy) / (dx * dx + dy * dy)
    return (px + t * dx, py + t * dy)


def _tangency_interval(c1: Cline, c2: Cline) -> Tangency:
    def as_interval_circle(c):
        if c.kind != "circle":
            return None
        if c.is_exact:
            center = ComplexIv(
                iv.mpf(c.center[0].numerator) / c.center[0].denominator,
                iv.mpf(c.center[1].numerator) / c.center[1].denominator,
            )
            radius = iv.sqrt(iv.mpf(c.radius2.numerator) / c.radius2.denominator)
            return center, radius
        return c.center, c.radius

    if c1.kind == "circle" and c2.kind == "circle":
        ctr1, r1 = as_interval_circle(c1)
        ctr2, r2 = as_interval_circle(c2)
        dist = (ctr1 - ctr2).abs_iv()
        outer = r1 + r2
        inner = abs(r1 - r2)
        if dist.a > outer.b:
            return Tangency("Disjoint")
        if dist.b < inner.a:
            return Tangency("Disjoint")  # nested
        if dist.b < outer.a and dist.a > inner.b:
            return Tangency("Secant")
        return Tangency("Indeterminate")
    if c1.kind == "line" and c2.kind == "line":
        d1 = c1.direction if not c1.is_exact else ComplexIv(
            iv_from_fraction(c1.direction[0]), iv_from_fraction(c1.direction[1])
        )
        d2 = c2.direction if not c2.is_exact else ComplexIv(
            iv_from_fraction(c2.direction[0]), iv_from_fraction(c2.direction[1])
        )
        cross = d1.re * d2.im - d1.im * d2.re
        if not iv_contains_zero(cross):
            return Tangency("Secant")
        return Tangency("Indeterminate")
    if c1.kind == "line":
        c1, c2 = c2, c1
    ctr, r = as_interval_circle(c1)
    p = c2.point
    d = c2.direction
    rel = ctr - p
    cross = rel.re * d.im - rel.im * d.re
    dist = abs(cross) / d.abs_iv()
    if dist.a > r.b:
        return Tangency("Disjoint")
    if dist.b < r.a:
        return Tangency("Secant")
    return Tangency("Indeterminate")


def tangency_via_shared_point(
    m1: Mat2,
    m2: Mat2,
    source: ExactCline,
    shared_source_points: tuple[Point, Point],
    tangent_directions: tuple[FieldElement, FieldElement],
) -> Tangency:
    """Decide tangency of m1(source) and m2(source) at an exactly shared
    point: the images are tangent iff the transported tangent directions are
    parallel, i.e. their ratio is rational (real in every embedding).

    The caller supplies the source points that map to the shared point and
    the source tangent directions there; everything is exact field data.
    """
    p1, p2 = shared_source_points
    t1, t2 = tangent_directions
    img1 = mobius_apply(m1, p1)
    img2 = mobius_apply(m2, p2)
    if img1 is INF or img2 is INF or img1 != img2:
        raise UnsupportedCase("images of the designated points do not coincide")
    d1 = mobius_derivative(m1, p1) * t1
    d2 = mobius_derivative(m2, p2) * t2
    ratio = d1 / d2
    if ratio.is_rational():
        return Tangency("Tangent", (img1,))
    return Tangency("Indeterminate")


# ---------------------------------------------------------------------------
# Uniqueness systems (closed-geodesic endpoint exclusion)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniqSystem:
    """Linear conditions on e1 = sigma_1 + sigma_2, e2 = sigma_1 sigma_2.

    rows[i] = (coefficient of e1, coefficient of e2, constant) for the
    z^{i+1} coefficient of the reduced denominator product; the reality
    requirement forces every row to vanish.
    """

    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]
    provenance: str

    def constants(self) -> tuple[Fraction, ...]:
        return tuple(r[2] for r in self.rows)


VERDICT_ONLY_ZERO = "OnlyZeroSolution"
VERDICT_NO_REAL_PAIR = "NoRealPair"
VERDICT_INCONSISTENT = "Inconsistent"
VERDICT_NONZERO = "NonzeroSolutionExists"

_EXCLUDING = {VERDICT_ONLY_ZERO, VERDICT_NO_REAL_PAIR, VERDICT_INCONSISTENT}


def uniqueness_system(
    word: Word,
    direction: FieldElement,
    rep: MatrixRep,
    label: str = "",
) -> tuple[UniqSystem, str]:
    """Build and solve the endpoint-exclusion system for one conjugator case.

    With gamma = (a, b; c, d) the image of `word` and sigma_i the endpoint
    parameters entering as gamma(sigma_i * direction), the reality
    requirement reduces (by the determinant identity) to
    (c direction sigma_1 + d)(c direction sigma_2 + d) being rational; the
    z^1..z^{d-1} coefficients give affine conditions on (e1, e2).

    Returns the system plus a verdict: OnlyZeroSolution when the unique
    solution is (0, 0) (the published contradiction: coincident endpoints);
    NoRealPair when solutions exist but admit no real sigma pair
    (discriminant e1^2 - 4 e2 < 0); Inconsistent when there is no solution
    at all.  Each of those excludes the candidate surface.
    """
    K = rep.field
    if K.degree < 3:
        raise UnsupportedCase("uniqueness argument needs field degree >= 3")
    m = evaluate_word(rep, word)
    t = m.c * direction
    d = m.d
    t2 = t * t
    td = t * d
    d2 = d * d
    rows = []
    for i in range(1, K.degree):
        rows.append((td.coeffs[i], t2.coeffs[i], d2.coeffs[i]))
    # drop identically-zero rows
    rows = [r for r in rows if any(x != 0 for x in r)]
    system = UniqSystem(rows=tuple(rows), provenance=label or str(word))

    verdict = _solve_uniq(rows)
    return system, verdict


def _solve_uniq(rows) -> str:
    # solve [A | const] (e1, e2)^T = -const exactly
    A = [(r[0], r[1]) for r in rows]
    b = [-r[2] for r in rows]
    # Gaussian elimination on a 2-variable system
    pivots = []
    rows_red = [list(a) + [bb] for a, bb in zip(A, b)]
    for col in range(2):
        piv = None
        for i, row in enumerate(rows_red):
            if i not in [p[0] for p in pivots] and row[col] != 0:
                piv = i
                break
        if piv is None:
            continue
        pivots.append((piv, col))
        pr = rows_red[piv]
        for i, row in enumerate(rows_red):
            if i != piv and row[col] != 0:
                f = row[col] / pr[col]
                rows_red[i] = [x - f * y for x, y in zip(row, pr)]
    for i, row in enumerate(rows_red):
        if i not in [p[0] for p in pivots] and row[0] == 0 and row[1] == 0 and row[2] != 0:
            return VERDICT_INCONSISTENT
    if len(pivots) < 2:
        return VERDICT_NONZERO
    sol = [Fraction(0), Fraction(0)]
    for i, col in pivots:
        row = rows_red[i]
        sol[col] = row[2] / row[col]
    e1, e2 = sol
    if e1 == 0 and e2 == 0:
        return VERDICT_ONLY_ZERO
    disc = e1 * e1 - 4 * e2
    if disc < 0:
        return VERDICT_NO_REAL_PAIR
    return VERDICT_NONZERO


def excludes_surface(verdict: str) -> bool:
    return verdict in _EXCLUDING


# ---------------------------------------------------------------------------
# Endpoint typing
# ---------------------------------------------------------------------------


def endpoint_type(sigma) -> str:
    """CuspToCusp for rational endpoint parameters, ClosedGeodesicCandidate
    for quadratic irrationals; anything of higher degree is not a geodesic
    endpoint in this setting."""
    if isinstance(sigma, (int, Fraction)):
        return "CuspToCusp"
    if isinstance(sigma, RatPoly):
        deg = sigma.degree
        if deg == 1:
            return "CuspToCusp"
        if deg == 2:
            if not _has_real_root(sigma):
                raise NotAGeodesicEndpoint("quadratic with no real roots")
            return "ClosedGeodesicCandidate"
        raise NotAGeodesicEndpoint(f"degree {deg} endpoint parameter")
    raise NotAGeodesicEndpoint(f"unsupported endpoint {sigma!r}")


def _has_real_root(q: RatPoly) -> bool:
    c, b, a = (q.coeffs + (Fraction(0),) * 3)[:3]
    return b * b - 4 * a * c >= 0


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x + 0.0 if x != 0 else 0.0:.6f}"


def render_svg(
    clines: Sequence[Cline],
    labels: Optional[Sequence[tuple[float, float, str]]] = None,
    width: int = 640,
) -> str:
    """Deterministic SVG: fixed viewBox (bounding box + 10% margin), elements
    in input order, y-axis flipped to match the complex plane."""
    labels = labels or []
    xs, ys = [], []

    def circle_params(c: Cline):
        if c.is_exact:
            cx, cy = float(c.center[0]), float(c.center[1])
            r = math.sqrt(float(c.radius2))
        else:
            cx = float(iv_mid(c.center.re))
            cy = float(iv_mid(c.center.im))
            r = float(iv_mid(c.radius))
        return cx, cy, r

    def line_params(c: Cline):
        if c.is_exact:
            px, py = float(c.point[0]), float(c.point[1])
            dx, dy = float(c.direction[0]), float(c.direction[1])
        else:
            px, py = float(iv_mid(c.point.re)), float(iv_mid(c.point.im))
            dx, dy = float(iv_mid(c.direction.re)), float(iv_mid(c.direction.im))
        return px, py, dx, dy

    for c in clines:
        if c.kind == "circle":
            cx, cy, r = circle_params(c)
            xs += [cx - r, cx + r]
            ys += [cy - r, cy + r]
        else:
            px, py, _, _ = line_params(c)
            xs.append(px)
            ys.append(py)
    for (x, y, _t) in labels:
        xs.append(x)
        ys.append(y)
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = max(x1 - x0, 1e-6)
    span_y = max(y1 - y0, 1e-6)
    mx, my = 0.1 * span_x, 0.1 * span_y
    x0, x1, y0, y1 = x0 - mx, x1 + mx, y0 - my, y1 + my
    stroke = max(span_x, span_y) / 200.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    for c in clines:
        if c.kind == "circle":
            cx, cy, r = circle_params(c)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
                f'fill="none" stroke="black" stroke-width="{_fmt(stroke)}"/>'
            )
        else:
            px, py, dx, dy = line_params(c)
            norm = math.hypot(dx, dy)
            dx, dy = dx / norm, dy / norm
            reach = 2 * max(span_x, span_y)
            parts.append(
                f'<line x1="{_fmt(px - reach * dx)}" y1="{_fmt(-(py - reach * dy))}" '
                f'x2="{_fmt(px + reach * dx)}" y2="{_fmt(-(py + reach * dy))}" '
                f'stroke="black" stroke-width="{_fmt(stroke)}"/>'
            )
    for (x, y, text) in labels:
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(-y)}" font-size="{_fmt(8 * stroke)}">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
