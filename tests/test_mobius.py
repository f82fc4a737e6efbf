import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geodesica.errors import DegenerateCline, UnsupportedCase
from geodesica.intervals import Box, Iv
from geodesica.knotgroup import Mat2, Word, evaluate_word
from geodesica.mobius import (
    Cline,
    ExactCline,
    INF,
    excludes_surface,
    mobius_apply,
    mobius_derivative,
    render_svg,
    tangency,
    tangency_via_shared_point,
    uniqueness_system,
)
from geodesica.numfield import nf_inverse
from geodesica.pipeline import get_knot
from geodesica.polycore import RatPoly


def _iv(x, s: int) -> Iv:
    x = Fraction(x)
    return Iv.enclose(x, x, s)


def _pt(x, y, s: int = 53) -> Box:
    return Box(_iv(x, s), _iv(y, s))


def _circle(cx, cy, r2, s: int = 53) -> Cline:
    """The interval circle of a rational center and squared radius, at the
    scale 2^-s."""
    return Cline.circle(_pt(cx, cy, s), _iv(r2, s).sqrt())


def _line(px, py, dx, dy, s: int = 53) -> Cline:
    return Cline.line(_pt(px, py, s), _pt(dx, dy, s))


class TestMobiusApply:
    def test_identity(self, rep_74):
        K = rep_74.field
        pt = K.element([1, 2, 3])
        assert mobius_apply(Mat2.identity(K), pt) == pt
        assert mobius_apply(Mat2.identity(K), INF) is INF

    def test_74_critical_point_to_infinity(self, rep_74):
        K = rep_74.field
        tau = rep_74.longitude_translation()
        m = evaluate_word(rep_74.images, Word.from_string("b^-1 a b^-1", ("a", "b")))
        pt = (tau + K.rational(2)) / K.rational(4)
        assert mobius_apply(m, pt) is INF
        assert mobius_apply(m, INF) == -pt
        expected_zero = -tau / K.rational(8) - K.rational(Fraction(3, 4))
        assert mobius_apply(m, K.zero()) == expected_zero

    def test_pretzel_g2_at_zero(self, pretzel_1):
        K = pretzel_1.field
        z = K.gen()
        m = evaluate_word(pretzel_1.rep.images, pretzel_1.words["g2"])
        assert mobius_apply(m, K.zero()) == (z - K.one()) / (K.rational(2) * z)

    def test_derivative_chain(self, rep_74):
        K = rep_74.field
        m = rep_74.images[1]
        pt = K.rational(Fraction(1, 3))
        d = mobius_derivative(m, pt)
        # derivative of z/(cz+d) style map: det/(c pt + d)^2
        den = m.c * pt + m.d
        assert d * den * den == m.det()


class TestClineImage:
    def test_identity(self, rep_74):
        K = rep_74.field
        c = ExactCline((K.zero(), K.one(), INF))
        assert c.apply(Mat2.identity(K)).points == c.points

    def test_composition(self, rep_74):
        rng = random.Random(5)
        K = rep_74.field
        c = ExactCline((K.zero(), K.one(), INF))
        for _ in range(10):
            w1 = Word([(rng.randint(0, 1), rng.choice([-1, 1])) for _ in range(3)])
            w2 = Word([(rng.randint(0, 1), rng.choice([-1, 1])) for _ in range(3)])
            m1, m2 = evaluate_word(rep_74.images, w1), evaluate_word(rep_74.images, w2)
            assert c.apply(m1 * m2).points == c.apply(m2).apply(m1).points

    def test_74_image_is_line_of_slope_minus_two(self, rep_74):
        # the image of the vertical plane over (0, (tau+2)/4) under b^-1 a b^-1
        # contains infinity, so it is again a line; its direction is parallel
        # to tau - 2, the slope -2 direction in {meridian, longitude} terms
        K = rep_74.field
        tau = rep_74.longitude_translation()
        m = evaluate_word(rep_74.images, Word.from_string("b^-1 a b^-1", ("a", "b")))
        pt = (tau + K.rational(2)) / K.rational(4)
        src = ExactCline((K.zero(), pt, INF))
        img = src.apply(m)
        assert INF in img.points
        finite = [p for p in img.points if p is not INF]
        diff = finite[0] - finite[1]
        ratio = diff / (tau - K.rational(2))
        assert ratio.is_rational()
        # and NOT parallel to the slope +2 direction
        assert not (diff / (tau + K.rational(2))).is_rational()

    def test_realize_circle(self, pretzel_1):
        K = pretzel_1.field
        tau = pretzel_1.rep.longitude_translation()
        h_tau = ExactCline((K.zero(), tau, INF))
        c1 = h_tau.apply(pretzel_1.rep.images[1])  # s2(H_tau): circle through 0
        place = K.geometric_place()
        cl = c1.realize(place)
        assert cl.kind == "circle"

    def test_realize_line(self, pretzel_1):
        K = pretzel_1.field
        tau = pretzel_1.rep.longitude_translation()
        h_tau = ExactCline((K.zero(), tau, INF))
        place = K.geometric_place()
        cl = h_tau.realize(place)
        assert cl.kind == "line"


class TestTangencyExact:
    """Exact rational data, realized as interval clines: strict cases are
    decided, exact tangency is Indeterminate."""

    def test_unit_circle_vs_vertical_line(self):
        assert tangency(_circle(0, 0, 1), _line(1, 0, 0, 1)).kind == "Indeterminate"

    def test_external_tangent_circles(self):
        assert tangency(_circle(0, 0, 1), _circle(3, 0, 4)).kind == "Indeterminate"

    def test_internal_tangent_circles(self):
        assert tangency(_circle(0, 0, 9), _circle(1, 0, 4)).kind == "Indeterminate"

    def test_secant_and_disjoint(self):
        c1 = _circle(0, 0, 1)
        assert tangency(c1, _circle(1, 0, 1)).kind == "Secant"
        assert tangency(c1, _circle(5, 0, 1)).kind == "Disjoint"
        nested = _circle(0, 0, Fraction(1, 100))
        assert tangency(c1, nested).kind == "Disjoint"
        assert tangency(c1, _line(0, Fraction(1, 2), 1, 0)).kind == "Secant"
        assert tangency(_line(0, 2, 1, 1), c1).kind == "Disjoint"

    def test_parallel_lines_tangent_at_infinity(self):
        l1 = _line(0, 0, 1, 2)
        l2 = _line(1, 0, 2, 4)
        assert tangency(l1, l2).kind == "Indeterminate"

    def test_crossing_lines_secant(self):
        l1 = _line(0, 0, 1, 0)
        l2 = _line(0, 1, 0, 1)
        assert tangency(l1, l2).kind == "Secant"

    def test_symmetry(self):
        pairs = [
            (_circle(0, 0, 1), _circle(3, 0, 4)),
            (_circle(0, 0, 1), _circle(1, 0, 1)),
            (_circle(0, 0, 1), _line(0, 2, 1, 1)),
        ]
        for c1, c2 in pairs:
            assert tangency(c1, c2).kind == tangency(c2, c1).kind


_COORD = st.fractions(min_value=-10, max_value=10, max_denominator=50)
_RADIUS = st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=50)
_SLOPE = st.fractions(min_value=-5, max_value=5, max_denominator=20)
# the fraction of the way between touching positions, kept away from both
_SHARE = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64)
_BITS = st.integers(min_value=53, max_value=256)


def _unit(t: Fraction) -> tuple[Fraction, Fraction]:
    """A rational unit vector: ((1 - t^2), 2t) / (1 + t^2)."""
    n = 1 + t * t
    return (1 - t * t) / n, 2 * t / n


def _pair_at(kind, cx, cy, r1, r2, t, dist, s):
    """Circle (c, r1) and a second cline placed `dist` from c along the unit
    vector of t: a circle of radius r2 there, or for kind "line" the line
    through that point perpendicular to the unit vector; at the scale 2^-s."""
    ux, uy = _unit(t)
    px, py = cx + dist * ux, cy + dist * uy
    other = _line(px, py, -uy, ux, s) if kind == "line" else _circle(px, py, r2 * r2, s)
    return _circle(cx, cy, r1 * r1, s), other


@given(st.sampled_from(["external", "internal", "line"]), _COORD, _COORD,
       _RADIUS, _RADIUS, _SLOPE, _BITS)
@settings(max_examples=200, deadline=None)
def test_touching_rational_pairs_are_indeterminate(kind, cx, cy, r1, r2, t, bits):
    if kind == "internal" and r1 == r2:
        r1 += r2  # internally tangent circles differ in radius
    dist = {"external": r1 + r2, "internal": abs(r1 - r2), "line": r1}[kind]
    c1, c2 = _pair_at(kind, cx, cy, r1, r2, t, dist, bits)
    assert tangency(c1, c2).kind == "Indeterminate"
    assert tangency(c2, c1).kind == "Indeterminate"


@given(st.sampled_from(["apart", "nested", "crossing", "line apart", "line crossing"]),
       _COORD, _COORD, _RADIUS, _RADIUS, _SLOPE, _SHARE, _BITS)
@settings(max_examples=200, deadline=None)
def test_clearly_separated_or_crossing_pairs_are_decided(kind, cx, cy, r1, r2, t, share, bits):
    if kind == "nested" and r1 == r2:
        r1 += r2
    inner, outer = abs(r1 - r2), r1 + r2
    dist, expected = {
        "apart": (outer * (1 + share), "Disjoint"),
        "nested": (inner * (1 - share), "Disjoint"),
        "crossing": (inner + (outer - inner) * share, "Secant"),
        "line apart": (r1 * (1 + share), "Disjoint"),
        "line crossing": (r1 * (1 - share), "Secant"),
    }[kind]
    c1, c2 = _pair_at(kind.split()[0], cx, cy, r1, r2, t, dist, bits)
    assert tangency(c1, c2).kind == expected
    assert tangency(c2, c1).kind == expected


class TestTangencyInterval:
    def test_74_c1_c2_secant(self, rep_74):
        # the two hemispherical lifts cross in two points
        K = rep_74.field
        tau = rep_74.longitude_translation()
        direction = tau + K.rational(2)
        H = ExactCline((K.zero(), direction, INF))
        x, y = rep_74.images[0], rep_74.images[1]
        place = K.geometric_place()
        c1 = H.apply(y).realize(place)
        c2 = H.apply(x * y.inverse()).realize(place)
        assert tangency(c1, c2).kind == "Secant"

    def test_near_tangent_is_indeterminate(self, pretzel_1):
        # C_1 = s2(H_tau) is tangent to H_tau at 0: intervals cannot certify
        # exact tangency, so the sound answer is Indeterminate
        K = pretzel_1.field
        tau = pretzel_1.rep.longitude_translation()
        h_tau = ExactCline((K.zero(), tau, INF))
        place = K.geometric_place()
        line = h_tau.realize(place)
        circle = h_tau.apply(pretzel_1.rep.images[1]).realize(place)
        assert tangency(circle, line).kind == "Indeterminate"

    def test_transported_pair_keeps_classification(self, rep_74):
        K = rep_74.field
        tau = rep_74.longitude_translation()
        direction = tau + K.rational(2)
        H = ExactCline((K.zero(), direction, INF))
        x, y = rep_74.images[0], rep_74.images[1]
        place = K.geometric_place()
        a = H.apply(y)
        b = H.apply(x * y.inverse())
        base = tangency(a.realize(place), b.realize(place)).kind
        g = x * y
        moved = tangency(
            a.apply(g).realize(place), b.apply(g).realize(place)
        ).kind
        assert base == moved == "Secant"


def test_collinear_cline_names_the_field_and_the_root(census_records):
    place = get_knot(census_records, "7_4").rep.field.geometric_place()
    K = place.field
    collinear = ExactCline((K.zero(), K.one(), K.rational(2)))
    with pytest.raises(DegenerateCline) as exc:
        collinear.realize(place)
    message = str(exc.value)
    assert K.name in message and f"root {place.root_index}" in message
    assert K.name == "Q(z_7_4)"


class TestSharedPointTangency:
    def test_pretzel_chain_tangency_at_zero(self, pretzel_1):
        # C_0 = H_tau and C_1 = s2(H_tau) share 0; s2 is parabolic fixing 0
        K = pretzel_1.field
        tau = pretzel_1.rep.longitude_translation()
        s2 = pretzel_1.rep.images[1]
        src = ExactCline((K.zero(), tau, INF))
        t = tangency_via_shared_point(
            Mat2.identity(K), s2, src,
            (K.zero(), K.zero()),
            (tau, tau),
        )
        assert t.kind == "Tangent"
        assert t.points[0] == K.zero()

    def test_c2k_d2k_tangency_at_sigma_axis(self, pretzel_1):
        # D_2k = sigma(C_2k) and both contain the rotation axis point
        from geodesica.pretzel import sigma_conjugation_matrix

        K = pretzel_1.field
        z = K.gen()
        tau = pretzel_1.rep.longitude_translation()
        g2 = evaluate_word(pretzel_1.rep.images, pretzel_1.words["g2"])
        T = sigma_conjugation_matrix(K)
        src = ExactCline((K.zero(), tau, INF))
        # shared point: g2(0) = (z-1)/(2z), the fixed point of the rotation;
        # sigma-image cline = T(g2(H_tau)) since the i factor acts trivially
        p = K.zero()
        t = tangency_via_shared_point(
            g2, T * g2, src,
            (p, p),
            (tau, tau),
        )
        assert t.kind == "Tangent"
        assert t.points[0] == (z - K.one()) / (K.rational(2) * z)


class TestUniquenessSystems:
    def test_74_case1(self, rep_74):
        K = rep_74.field
        z = K.gen()
        system, verdict = uniqueness_system(
            Word.gen(1), (z - 1) * (z - 2), rep_74, "case 1"
        )
        assert verdict == "OnlyZeroSolution"
        assert set(system.rows) == {
            (Fraction(-2), Fraction(3), Fraction(0)),
            (Fraction(1), Fraction(-2), Fraction(0)),
        }

    def test_74_case2(self, rep_74):
        K = rep_74.field
        z = K.gen()
        system, verdict = uniqueness_system(
            Word.gen(0) * Word.gen(1, -1), (z - 1) * (z - 2), rep_74, "case 2"
        )
        assert verdict == "OnlyZeroSolution"
        assert set(system.rows) == {
            (Fraction(2), Fraction(3), Fraction(0)),
            (Fraction(-1), Fraction(-2), Fraction(0)),
        }

    def test_935_j1(self, pretzel_1):
        K = pretzel_1.field
        system, verdict = uniqueness_system(
            pretzel_1.words["g1"], nf_inverse(K.gen()), pretzel_1.rep, "j=1"
        )
        assert verdict == "OnlyZeroSolution"
        assert set(system.rows) == {
            (Fraction(-1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
        }

    def test_935_j2_no_real_pair(self, pretzel_1):
        K = pretzel_1.field
        system, verdict = uniqueness_system(
            pretzel_1.words["g2"], nf_inverse(K.gen()), pretzel_1.rep, "j=2"
        )
        # the affine system pins (e1, e2) = (1, 1): a complex-conjugate sigma
        # pair only, so the candidate surface is still excluded
        assert verdict == "NoRealPair"
        assert excludes_surface(verdict)
        assert set(system.rows) == {
            (Fraction(2), Fraction(0), Fraction(-2)),
            (Fraction(-1), Fraction(1), Fraction(0)),
        }

    @pytest.mark.parametrize("k", [2, 3])
    def test_higher_pretzels_all_excluded(self, k):
        # the endpoint machinery generalizes beyond k = 1: every conjugator
        # case for P(5,5,5) and P(7,7,7) excludes a transverse candidate
        # (frozen from this computation as regression anchors)
        from geodesica.pretzel import pretzel_holonomy

        data = pretzel_holonomy(k)
        direction = nf_inverse(data.field.gen())
        verdicts = []
        for j in range(1, 2 * k + 1):
            _, verdict = uniqueness_system(
                data.words[f"g{j}"], direction, data.rep, f"j={j}"
            )
            assert excludes_surface(verdict), (k, j, verdict)
            verdicts.append(verdict)
        assert verdicts[0] == "OnlyZeroSolution"  # g_1 = s2 for every k

    def test_scaling_direction_keeps_verdict(self, rep_74):
        K = rep_74.field
        z = K.gen()
        base = (z - 1) * (z - 2)
        for scale in (Fraction(2), Fraction(-1, 3)):
            _, verdict = uniqueness_system(
                Word.gen(1), base * K.rational(scale), rep_74
            )
            assert verdict == "OnlyZeroSolution"

    def test_degree_two_field_rejected(self):
        from geodesica.knotgroup import build_representation, two_bridge_presentation
        from geodesica.numfield import NumberField

        pres = two_bridge_presentation(5, 3)
        rep = build_representation(pres, RatPoly([1, -1, 1]))  # z^2 - z + 1
        with pytest.raises(UnsupportedCase):
            uniqueness_system(Word.gen(1), rep.field.gen(), rep)

    def test_zero_direction_rejected(self, rep_74):
        # a zero direction makes every row vanish, so no verdict rests on it
        word = Word.from_string("b a b", ("a", "b"))
        with pytest.raises(UnsupportedCase, match=r"^Q\(z_74\): uniqueness case c: direction is zero"):
            uniqueness_system(word, rep_74.field.zero(), rep_74, "c")


class TestRenderSVG:
    def test_empty(self):
        svg = render_svg([])
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert '<svg xmlns' in svg and svg.rstrip().endswith("</svg>")

    def test_unit_circle_golden(self):
        svg = render_svg([_circle(0, 0, 1)])
        assert '<circle cx="0.000000" cy="0.000000" r="1.000000"' in svg
        assert 'viewBox="-1.200000 -1.200000 2.400000 2.400000"' in svg

    def test_deterministic(self, pretzel_1):
        from geodesica.pipeline import pretzel_chain_clines

        clines = pretzel_chain_clines(pretzel_1)
        assert render_svg(clines) == render_svg(clines)
        # combinatorics of the published chain figure: 2 lines + 4 circles
        kinds = sorted(c.kind for c in clines)
        assert kinds == ["circle"] * 4 + ["line"] * 2

    def test_74_strip_config(self, census_records):
        from geodesica.pipeline import get_knot, strip_74_clines

        record = get_knot(census_records, "7_4")
        clines = strip_74_clines(record)
        kinds = [c.kind for c in clines]
        # H and x(H) vertical; C1, C2 hemispherical
        assert kinds == ["line", "line", "circle", "circle"]
