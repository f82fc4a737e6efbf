"""Boundary geometry on the sphere at infinity: Mobius images of circles
and lines, tangency classification, the uniqueness-system checker, and a
deterministic SVG renderer.

An ExactCline is three exact points over the field, so its Mobius images
and whether it passes through infinity (line or circle) are exact.  It is
realized at a complex place as a Cline of one grade: integer dyadic boxes
with an interval radius (``intervals``).  `tangency` classifies Clines
strictly, comparing squared distances with squared radii: Secant and
Disjoint only when the intervals separate, otherwise Indeterminate, so
tangency is never claimed from intervals.  Tangency at a
point two images share exactly is decided in the field by
`tangency_via_shared_point`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DegenerateCline, UnsupportedCase
from .intervals import Box, Iv
from .knotgroup import Mat2, MatrixRep, Word
from .numfield import ComplexPlace, FieldElement


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


class ExactCline:
    """A circle-or-line on the boundary sphere, by three exact points."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[Point, Point, Point]):
        finite = [p for p in points if p is not INF]
        if len(set(id(p) if p is INF else p for p in points)) < 3:
            raise DegenerateCline("three defining points must be distinct")
        if len(finite) < 2:
            raise DegenerateCline("at least two defining points must be finite")
        self.points = points

    def __eq__(self, other):
        return other.__class__ is ExactCline and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def apply(self, m: Mat2) -> "ExactCline":
        return ExactCline(tuple(mobius_apply(m, p) for p in self.points))

    def realize(self, place: ComplexPlace) -> "Cline":
        """Numeric Cline at a complex embedding (outward-rounded)."""
        finite = [place.embed(p) for p in self.points if p is not INF]
        if len(finite) < 3:
            return Cline.line(finite[0], finite[1] - finite[0])
        return _circumcircle(*finite, place)


def _circumcircle(p1: Box, p2: Box, p3: Box, place: ComplexPlace) -> "Cline":
    d = 2 * (
        p1.re * (p2.im - p3.im)
        + p2.re * (p3.im - p1.im)
        + p3.re * (p1.im - p2.im)
    )
    if d.contains_zero():
        raise DegenerateCline(
            f"{place.field.name}: complex place at root {place.root_index}: defining "
            "points are collinear at this precision; escalate or use INF"
        )
    s1, s2, s3 = p1.abs2(), p2.abs2(), p3.abs2()
    ux = (s1 * (p2.im - p3.im) + s2 * (p3.im - p1.im) + s3 * (p1.im - p2.im)) / d
    uy = (s1 * (p3.re - p2.re) + s2 * (p1.re - p3.re) + s3 * (p2.re - p1.re)) / d
    center = Box(ux, uy)
    return Cline.circle(center, (p1 - center).abs2().sqrt())


class Cline(NamedTuple):
    """A circle (interval center and radius) or a line (interval point and
    direction) realized at a complex place, rounded outward."""

    kind: str
    center: Optional[Box] = None
    radius: Optional[Iv] = None
    point: Optional[Box] = None
    direction: Optional[Box] = None

    @classmethod
    def circle(cls, center: Box, radius: Iv) -> "Cline":
        return cls(kind="circle", center=center, radius=radius)

    @classmethod
    def line(cls, point: Box, direction: Box) -> "Cline":
        return cls(kind="line", point=point, direction=direction)


# ---------------------------------------------------------------------------
# Tangency classification
# ---------------------------------------------------------------------------


class Tangency(NamedTuple):
    kind: str  # "Disjoint" | "Tangent" | "Secant" | "Indeterminate"
    points: tuple = ()

    def __str__(self):
        return self.kind


def tangency(c1: Cline, c2: Cline) -> Tangency:
    """Classify the intersection of two clines, strictly: Disjoint or Secant
    only when the intervals decide it, otherwise Indeterminate (tangency is
    never certified from intervals).  Distances and radii are compared
    squared, so no square root of a distance is taken."""
    if c1.kind == "circle" and c2.kind == "circle":
        dist2 = (c1.center - c2.center).abs2()
        outer2 = (c1.radius + c2.radius).sqr()
        inner2 = (c1.radius - c2.radius).sqr()
        if dist2 > outer2 or dist2 < inner2:  # apart, or nested
            return Tangency("Disjoint")
        if inner2 < dist2 < outer2:
            return Tangency("Secant")
        return Tangency("Indeterminate")
    if c1.kind == "line" and c2.kind == "line":
        d1, d2 = c1.direction, c2.direction
        cross = d1.re * d2.im - d1.im * d2.re
        if not cross.contains_zero():
            return Tangency("Secant")
        return Tangency("Indeterminate")
    if c1.kind == "line":
        c1, c2 = c2, c1
    # the distance from the center to the line is |cross| / |d|
    d = c2.direction
    rel = c1.center - c2.point
    cross2 = (rel.re * d.im - rel.im * d.re).sqr()
    reach2 = c1.radius.sqr() * d.abs2()
    if cross2 > reach2:
        return Tangency("Disjoint")
    if cross2 < reach2:
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


class UniqSystem(NamedTuple):
    """Linear conditions on e1 = sigma_1 + sigma_2, e2 = sigma_1 sigma_2.

    rows[i] = (coefficient of e1, coefficient of e2, constant) for the
    z^{i+1} coefficient of the reduced denominator product; the reality
    requirement forces every row to vanish.
    """

    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]

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
    if direction.is_zero():
        raise UnsupportedCase(f"{K.name}: uniqueness case {label or word}: direction is zero")
    m = rep.word_matrix(word)
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
    system = UniqSystem(rows=tuple(rows))

    verdict = _solve_uniq(rows)
    return system, verdict


def _solve_uniq(rows) -> str:
    """The verdict on the rows (a, b, c) of a e1 + b e2 + c = 0: Cramer's rule
    on the first pair of rows with a nonzero determinant, checked on every
    row.  With no such pair (rank <= 1) the rows are consistent when each is
    a multiple of the first row with (a, b) != (0, 0)."""
    for (a, b, c), (p, q, r) in combinations(rows, 2):
        det = a * q - b * p
        if det:
            e1, e2 = Fraction(b * r - c * q, det), Fraction(c * p - a * r, det)
            break
    else:
        a, b, c = next((row for row in rows if row[0] or row[1]), (1, 0, 0))
        consistent = all(a * r == c * p and b * r == c * q for p, q, r in rows)
        return VERDICT_NONZERO if consistent else VERDICT_INCONSISTENT
    if any(a * e1 + b * e2 + c for a, b, c in rows):
        return VERDICT_INCONSISTENT
    if e1 == e2 == 0:
        return VERDICT_ONLY_ZERO
    return VERDICT_NO_REAL_PAIR if e1 * e1 < 4 * e2 else VERDICT_NONZERO


def excludes_surface(verdict: str) -> bool:
    return verdict in _EXCLUDING


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x + 0.0 if x != 0 else 0.0:.6f}"


def _circle_params(c: Cline) -> tuple[float, float, float]:
    return c.center.re.mid(), c.center.im.mid(), c.radius.mid()


def _line_params(c: Cline) -> tuple[float, float, float, float]:
    return (
        c.point.re.mid(),
        c.point.im.mid(),
        c.direction.re.mid(),
        c.direction.im.mid(),
    )


def render_svg(clines: Sequence[Cline]) -> str:
    """Deterministic SVG: fixed viewBox (bounding box + 10% margin), elements
    in input order, y-axis flipped to match the complex plane."""
    xs, ys = [], []
    for c in clines:
        if c.kind == "circle":
            cx, cy, r = _circle_params(c)
            xs += [cx - r, cx + r]
            ys += [cy - r, cy + r]
        else:
            px, py, _, _ = _line_params(c)
            xs.append(px)
            ys.append(py)
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
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    for c in clines:
        if c.kind == "circle":
            cx, cy, r = _circle_params(c)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
                f'fill="none" stroke="black" stroke-width="{_fmt(stroke)}"/>'
            )
        else:
            px, py, dx, dy = _line_params(c)
            norm = math.hypot(dx, dy)
            dx, dy = dx / norm, dy / norm
            reach = 2 * max(span_x, span_y)
            parts.append(
                f'<line x1="{_fmt(px - reach * dx)}" y1="{_fmt(-(py - reach * dy))}" '
                f'x2="{_fmt(px + reach * dx)}" y2="{_fmt(-(py + reach * dy))}" '
                f'stroke="black" stroke-width="{_fmt(stroke)}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
