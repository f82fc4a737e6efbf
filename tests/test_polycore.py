from fractions import Fraction
from unittest import mock

import cmath
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import modp_reference
import ratpoly_reference

from geodesica.errors import (
    HalfPlaneUndecided,
    NotIsolating,
    RepeatedRoots,
    ZeroModulus,
    ZeroPolynomial,
)
from geodesica import polycore
from geodesica.polycore import (
    RatPoly,
    _corrections,
    _disks_disjoint,
    _durand_kerner,
    _fixed,
    _float_seeds,
    _newton_start,
    _weierstrass_radii,
    complex_roots,
    irreducibility_certificate,
    newton_enclosure,
    poly_gcd,
    rational_roots,
    right_half_plane_count,
    root_bound,
    refine_interval,
    square_free_part,
    sturm_chain,
    sturm_real_roots,
)
from geodesica.pipeline import load_census
from geodesica.pretzel import lambda_poly, psi_poly, psi_root_census

M74 = RatPoly([1, 4, -4, 1])  # z^3 - 4z^2 + 4z + 1
SEXTIC_73 = RatPoly([1, 5, -6, -4, 9, -5, 1])
PSI_1 = RatPoly([-1, -1, 0, 1, 0, -1, 1])       # x^6 - x^5 + x^3 - x - 1
PHI_1 = RatPoly([-1, -1, -1, 0, 0, 0, 1, -1, 1])  # x^8 - x^7 + x^6 - x^2 - x - 1


class TestReduceMod:
    def test_cubic_example(self):
        # long division of z^3 by the 15/11 cubic
        assert RatPoly([0, 0, 0, 1]).divmod(M74)[1] == RatPoly([-1, -4, 4])

    def test_already_reduced(self):
        assert RatPoly([0, 1]).divmod(M74)[1] == RatPoly([0, 1])

    def test_zero(self):
        assert RatPoly([]).divmod(M74)[1] == RatPoly([])

    def test_zero_modulus(self):
        with pytest.raises(ZeroModulus):
            RatPoly([1]).divmod(RatPoly([]))

    def test_remultiply_oracle(self):
        a = RatPoly([3, -2, 0, 7, 1, 5])
        q, r = a.divmod(M74)
        assert q * M74 + r == a
        assert r.degree < M74.degree


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
small_polys = st.lists(small_rationals, min_size=0, max_size=6).map(RatPoly)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_reduce_mod_multiplicative(a, b, m):
    if m.degree < 1:
        return
    lhs = (a * b).divmod(m)[1]
    rhs = (a.divmod(m)[1] * b.divmod(m)[1]).divmod(m)[1]
    assert lhs == rhs


def _ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


wide_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=1000)


@given(st.lists(wide_rationals, max_size=9).map(RatPoly), wide_rationals)
@settings(max_examples=80, deadline=None)
def test_eval_matches_the_reference_horner_loop(p, a):
    assert p.eval(a) == _ref_eval(p, a)


def count_roots_by_grid(p: RatPoly, step: Fraction = Fraction(1, 64)) -> int:
    """Independent oracle: count sign changes of the square-free part on a
    fine rational grid over the Cauchy box.  Misses nothing when the grid is
    finer than the minimal root gap; intended for test polynomials only.
    """
    sf = square_free_part(p)
    bound = root_bound(sf)
    x = -bound
    count = 0
    prev = sf.eval(x)
    while x < bound:
        x += step
        cur = sf.eval(x)
        if cur == 0:
            count += 1
            x += step / 2
            cur = sf.eval(x)
        elif (prev > 0) != (cur > 0):
            count += 1
        prev = cur
    return count


class TestSturm:
    def test_74_cubic(self):
        iso = sturm_real_roots(M74)
        assert iso.count == 1
        (lo, hi), = iso.real_intervals
        assert Fraction(-1) < lo < hi < Fraction(0)

    def test_no_real_roots(self):
        assert sturm_real_roots(RatPoly([1, 0, 1])).count == 0

    def test_73_sextic_two_real_places(self):
        assert sturm_real_roots(SEXTIC_73).count == 2

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            sturm_real_roots(RatPoly([]))

    def test_repeated_roots_handled(self):
        p = RatPoly([1, 1]) * RatPoly([1, 1]) * RatPoly([-2, 1])
        iso = sturm_real_roots(p)
        assert iso.count == 2
        assert not iso.multiplicity_free

    def test_a_chain_that_ends_in_a_square_takes_the_square_free_part(self):
        # p's own chain ends in gcd(p, p') = x^2 - 2, so p is isolated on the
        # chain of its square-free part (x^2 - 2)(x - 1)
        p = RatPoly([-2, 0, 1]) * RatPoly([-2, 0, 1]) * RatPoly([-1, 1])
        iso = sturm_real_roots(p)
        assert not iso.multiplicity_free
        roots = (-math.sqrt(2), 1.0, math.sqrt(2))
        assert len(iso.real_intervals) == 3
        for (lo, hi), root in zip(iso.real_intervals, roots):
            assert lo < root < hi

    def test_the_square_free_part_comes_from_the_chain_s_last_term(self, monkeypatch):
        # p's chain takes 3 remainder steps and ends in x^2 - 2, the chain of
        # p / (x^2 - 2) takes 3 more; gcd(p, p') is not computed again
        p = RatPoly([-2, 0, 1]) * RatPoly([-2, 0, 1]) * RatPoly([-1, 1])
        want = sturm_real_roots(square_free_part(p)).real_intervals
        steps = []
        remainder = polycore._primitive_remainder
        monkeypatch.setattr(
            polycore, "_primitive_remainder", lambda a, b: steps.append(1) or remainder(a, b)
        )
        assert sturm_real_roots(p).real_intervals == want
        assert len(steps) == 6

    def test_square_free_fields_build_one_chain(self, monkeypatch):
        # every census field's minpoly is square-free, which its own Sturm
        # chain shows by ending in a constant, so no square-free part is taken
        calls = []
        monkeypatch.setattr(
            polycore, "square_free_part", lambda p: calls.append(p) or square_free_part(p)
        )
        fields = [r.rep.field for r in load_census() if r.rep is not None]
        isolations = [K.real_isolation() for K in fields]
        assert len(fields) == 22 and all(iso.multiplicity_free for iso in isolations)
        assert calls == []

    @pytest.mark.parametrize(
        "coeffs",
        [
            [1, 4, -4, 1],
            [-6, 1, 7, 1],
            [1, 0, -5, 0, 4],          # (x^2-1)(x^2-4)
            [0, 1, 2, -3, 0, 1],
            [2, -3, 0, 0, 5, 1, 1],
            [1, 5, -6, -4, 9, -5, 1],
            [-3, 0, 0, 0, 0, 0, 0, 0, 1],
        ],
    )
    def test_grid_scan_oracle(self, coeffs):
        p = RatPoly(coeffs)
        assert sturm_real_roots(p).count == count_roots_by_grid(p)

    def test_intervals_isolate(self):
        p = RatPoly([1, 0, -5, 0, 4])
        iso = sturm_real_roots(p)
        assert iso.count == 4
        sf = square_free_part(p)
        for lo, hi in iso.real_intervals:
            assert (sf.eval(lo) > 0) != (sf.eval(hi) > 0)
        for (a, b), (c, d) in zip(iso.real_intervals, iso.real_intervals[1:]):
            assert b <= c

    def test_non_isolating_interval_raises(self):
        p = RatPoly([-1, 0, 1])  # roots -1 and 1
        width = Fraction(1, 8)
        # two roots inside: the endpoint signs agree
        with pytest.raises(NotIsolating):
            refine_interval(p, (Fraction(-2), Fraction(2)), width)
        # a root at an endpoint
        with pytest.raises(NotIsolating):
            refine_interval(p, (Fraction(1), Fraction(3)), width)
        # no root at all
        with pytest.raises(NotIsolating):
            refine_interval(p, (Fraction(2), Fraction(3)), width)


def _bisect_by_fractions(p, interval, width):
    """Reference bisection with exact Fraction evaluation."""
    a, b = interval
    sa = p.eval(a) > 0
    while b - a > width:
        mid = (a + b) / 2
        fm = p.eval(mid)
        if fm == 0:
            quarter = (b - a) / 8
            a, b = mid - quarter, mid + quarter
            sa = p.eval(a) > 0
            continue
        if (fm > 0) == sa:
            a = mid
        else:
            b = mid
    return a, b


@pytest.mark.parametrize("coeffs", [
    [1, 4, -4, 1],
    [Fraction(-1, 3), 0, 1],
    [1, 0, -5, 0, 4],                 # roots at the dyadic points +-1, +-2
    [Fraction(1, 2), Fraction(-7, 3), 0, 1],
    [1, 5, -6, -4, 9, -5, 1],
])
@pytest.mark.parametrize("bits", [3, 40, 200])
def test_refinement_endpoints_match_fraction_bisection(coeffs, bits):
    sf = square_free_part(RatPoly(coeffs))
    width = Fraction(1, 2 ** bits)
    for itv in sturm_real_roots(sf).real_intervals:
        assert refine_interval(sf, itv, width) == _bisect_by_fractions(sf, itv, width)


# The integer bisection against the Fraction loop: random square-free
# polynomials, walks resumed from a coarser enclosure, and rational roots
# that land on a midpoint.

_COEFFS = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=2, max_size=7
)


@given(_COEFFS, st.integers(1, 120), st.integers(0, 120))
@settings(max_examples=120, deadline=None)
def test_integer_bisection_matches_fraction_loop(coeffs, coarse_bits, extra_bits):
    p = RatPoly(coeffs)
    if p.is_zero() or p.degree < 1:
        return
    sf = square_free_part(p)
    coarse = Fraction(1, 2 ** coarse_bits)
    fine = Fraction(1, 2 ** (coarse_bits + extra_bits))
    for itv in sturm_real_roots(sf).real_intervals:
        got = refine_interval(sf, itv, coarse)
        assert got == _bisect_by_fractions(sf, itv, coarse)
        # resuming the walk from the coarser enclosure lands on the same
        # endpoints as one walk from the base interval
        assert refine_interval(sf, got, fine) == _bisect_by_fractions(sf, itv, fine)


@given(
    st.integers(-64, 64), st.integers(0, 6), st.integers(1, 8),
    st.integers(0, 3), st.integers(1, 80),
)
@settings(max_examples=120, deadline=None)
def test_integer_bisection_root_on_a_midpoint(n, k, j, shift, bits):
    # p = (x - r)(x^2 + 1) has the one real root r = n/2^k; the walk from
    # [r - d, r + (2^(shift+1) - 1) d] meets r as a midpoint after shift + 1 steps
    r, d = Fraction(n, 2 ** k), Fraction(1, 2 ** j)
    p = RatPoly([-r, 1]) * RatPoly([1, 0, 1])
    itv = (r - d, r + (2 ** (shift + 1) - 1) * d)
    width = Fraction(1, 2 ** bits)
    got = refine_interval(p, itv, width)
    assert got == _bisect_by_fractions(p, itv, width)
    assert got[0] < r < got[1]


@given(_COEFFS, st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_newton_enclosure_is_certified_or_absent(coeffs, bits):
    p = RatPoly(coeffs)
    if p.is_zero() or p.degree < 1:
        return
    sf = square_free_part(p)
    width = Fraction(1, 2 ** bits)
    for itv in sturm_real_roots(sf).real_intervals:
        got = newton_enclosure(sf, itv, bits)
        if got is None:
            continue
        lo, hi = got
        assert hi - lo <= width and itv[0] <= lo and hi <= itv[1]
        # both enclosures hold the one root of the isolating interval
        a, b = _bisect_by_fractions(sf, itv, width)
        assert lo < b and a < hi


def test_root_on_a_midpoint_next_to_two_roots_is_not_isolating():
    # [0, 1] holds the roots 1/2, 11/20 and 9/10 (so its endpoint signs
    # differ); the walk meets 1/2 as the first midpoint, and the centred
    # interval [3/8, 5/8] holds two roots
    p = RatPoly([-1, 2]) * RatPoly([-11, 20]) * RatPoly([-9, 10])
    with pytest.raises(NotIsolating):
        refine_interval(p, (Fraction(0), Fraction(1)), Fraction(1, 64))


def _disk_census(disks):
    """(real roots, per-quadrant counts, whether every right-half-plane root
    lies outside the unit circle) read off certified disks, none of which may
    meet the imaginary axis: a disk that meets the real axis is a real root,
    any other lies strictly inside its quadrant, and a right-half disk is
    outside the circle when |center| > 1 + radius, exactly."""
    real, quadrants, outside = 0, [0, 0, 0, 0], True
    for d in disks:
        assert abs(d.re) > d.radius
        if abs(d.im) <= d.radius:
            real += 1
        else:
            quadrants[(0 if d.im > 0 else 3) if d.re > 0 else (1 if d.im > 0 else 2)] += 1
        if d.re > 0:
            outside = outside and d.re ** 2 + d.im ** 2 > (1 + d.radius) ** 2
    return real, tuple(quadrants), outside


class TestComplexRoots:
    def test_gaussian_pair(self):
        rs = complex_roots(RatPoly([1, 0, 1]), 64)
        assert len(rs.roots) == 2
        for r in rs.roots:
            assert abs(abs(r.im) - 1) < 1e-15
            assert r.radius < Fraction(1, 2 ** 32)

    def test_psi1_census(self):
        # the certified disks, read by the test's own quadrant and
        # unit-circle arithmetic, agree with the exact census
        disks = _disk_census(complex_roots(PSI_1, 128).roots)
        assert disks == (2, (1, 1, 1, 1), True)
        assert disks[:2] == tuple(psi_root_census(1))[1:]

    def test_phi1_contains_psi1_and_gaussian_units(self):
        q, rem = PHI_1.divmod(RatPoly([1, 0, 1]))
        assert rem.is_zero() and q == PSI_1

    def test_repeated_roots_rejected(self):
        with pytest.raises(RepeatedRoots):
            complex_roots(RatPoly([1, 2, 1]), 64)

    @pytest.mark.parametrize("coeffs", [[1, 5, -6, -4, 9, -5, 1], [-1, -1, 0, 1, 0, -1, 1], [7, 0, -3, 1]])
    def test_vieta(self, coeffs):
        p = RatPoly(coeffs)
        rs = complex_roots(p, 96)
        d = p.degree
        total = (sum(r.re for r in rs.roots), sum(r.im for r in rs.roots))
        prod = (Fraction(1), Fraction(0))
        for r in rs.roots:
            prod = _cmul(prod, (r.re, r.im))
        c = p.coeffs
        rad = sum(r.radius for r in rs.roots) * 100 + Fraction(1, 10 ** 25)
        for (x, y), want in ((total, -c[d - 1] / c[d]), (prod, (-1) ** d * c[0] / c[d])):
            assert (x - want) ** 2 + y ** 2 < rad ** 2


@st.composite
def _factors_with_known_roots(draw):
    """An integer factor a x + b, root -b/a, or c ((x - u)^2 + v^2), roots
    u +- iv with u != 0: no root on the imaginary axis.  Roots are (re, im)."""
    if draw(st.booleans()):
        a, b = (draw(st.integers(-4, 4).filter(bool)) for _ in range(2))
        return RatPoly([b, a]), [(Fraction(-b, a), 0)]
    c, u = (draw(st.integers(-5, 5).filter(bool)) for _ in range(2))
    v = draw(st.integers(1, 5))
    return RatPoly([c * (u * u + v * v), -2 * c * u, c]), [(Fraction(u), v), (Fraction(u), -v)]


@given(st.lists(_factors_with_known_roots(), min_size=1, max_size=7))
@settings(max_examples=300, deadline=None)
def test_right_half_plane_count_matches_the_known_roots(factors):
    roots = [r for _, rs in factors for r in rs]
    # p(x) and p(-x) share no root, so the count is decided
    assume(all((-x, -y) not in roots for x, y in roots))
    p = math.prod((f for f, _ in factors), start=RatPoly.one())
    assert right_half_plane_count(p) == sum(x > 0 for x, _ in roots)


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [-1, 0, 1], [0, 1]])
def test_right_half_plane_count_refuses_opposite_roots(coeffs):
    # x^2 + 1 has roots on the imaginary axis, x^2 - 1 the pair 1 and -1,
    # and x the root 0
    with pytest.raises(HalfPlaneUndecided):
        right_half_plane_count(RatPoly(coeffs))


class TestIrreducibility:
    def test_linear(self):
        assert irreducibility_certificate(RatPoly([-1, 1])).is_irreducible

    def test_lambda1_cubic(self):
        v = irreducibility_certificate(RatPoly([-1, 3, -1, 1]))
        assert v.is_irreducible
        assert "no rational roots" in v.witness

    def test_phi1_reducible_with_factor(self):
        v = irreducibility_certificate(PHI_1)
        assert v.status == "reducible"
        assert v.factor == RatPoly([1, 0, 1])
        assert PHI_1.divmod(v.factor)[1].is_zero()

    def test_73_sextic(self):
        assert irreducibility_certificate(SEXTIC_73).is_irreducible

    def test_degree_patterns_certify_before_the_exact_factor_tests(self, monkeypatch):
        def not_needed(*args):
            raise AssertionError("an exact factor test ran before the degree patterns")

        monkeypatch.setattr(polycore, "rational_roots", not_needed)
        monkeypatch.setattr(RatPoly, "divmod", not_needed)
        assert irreducibility_certificate(SEXTIC_73).is_irreducible

    def test_reducible_past_degree_three_keeps_its_factor(self):
        # the degree patterns cannot certify these, so the exact tests after
        # them still find the factor: a rational root, then a probe factor
        with_root = RatPoly([-2, 1]) * RatPoly([1, 1, 0, 1])  # (z - 2)(z^3 + z + 1)
        assert irreducibility_certificate(with_root) == ("reducible", None, RatPoly([-2, 1]))
        # (z^2 + z + 1)(z^4 + z^2 + 2), neither factor with a rational root
        with_probe = RatPoly([1, 1, 1]) * RatPoly([2, 0, 1, 0, 1])
        assert irreducibility_certificate(with_probe) == ("reducible", None, RatPoly([1, 1, 1]))

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_never_irreducible_with_rational_root(self, roots):
        p = RatPoly([1])
        for r in roots:
            p = p * RatPoly([-r, 1])
        v = irreducibility_certificate(p)
        assert v.status == "reducible"
        assert not p.divmod(v.factor)[1].coeffs

    def test_rational_roots(self):
        p = RatPoly([Fraction(-1, 2), 1]) * RatPoly([3, 1]) * RatPoly([1, 0, 1])
        assert rational_roots(p) == [Fraction(-3), Fraction(1, 2)]

    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=9),
           st.sampled_from([3, 5, 7, 11, 13]))
    @settings(max_examples=60, deadline=None)
    def test_degree_pattern_against_sympy(self, coeffs, q):
        # the soundness of the "Irreducible" certificate rests on the
        # distinct-degree decomposition; check its degree multiset against an
        # independent factorization mod q
        sympy = pytest.importorskip("sympy")
        from geodesica.polycore import _distinct_degree_pattern, _mod_p_coeffs

        coeffs = coeffs + [1]  # monic, so q never divides the leading term
        f = _mod_p_coeffs(coeffs, q)
        if len(f) - 1 < 1:
            return
        ours = _distinct_degree_pattern(f, q)
        x = sympy.symbols("x")
        poly = sympy.Poly(list(reversed(coeffs)), x, modulus=q, symmetric=False)
        factors = poly.factor_list()[1]
        if any(mult > 1 for _, mult in factors):
            assert ours is None  # not square-free mod q
            return
        theirs = sorted(g.degree() for g, _ in factors)
        assert ours == theirs


def _mod_q_poly(coeffs, q):
    """A nonzero polynomial over F_q without trailing zeros, as the
    certificates' kernels take them."""
    f = polycore._mod_p_coeffs(coeffs, q)
    assume(f)
    return f


MOD_Q = st.sampled_from([2, 3, 5, 7, 11, 13, 37])
COEFFS = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


@given(COEFFS, COEFFS, MOD_Q)
@settings(max_examples=300, deadline=None)
def test_mod_q_products_and_divisions_match_the_reference(a, b, q):
    a, b = _mod_q_poly(a, q), _mod_q_poly(b, q)
    assert polycore._poly_mod_divmod(a, b, q) == modp_reference.poly_mod_divmod(a, b, q)


@given(COEFFS, MOD_Q)
@settings(max_examples=300, deadline=None)
def test_degree_pattern_matches_the_reference(coeffs, q):
    f = _mod_q_poly(coeffs, q)
    assert polycore._distinct_degree_pattern(f, q) == modp_reference.distinct_degree_pattern(f, q)


@given(COEFFS, st.sampled_from(polycore._PRIMES))
@settings(max_examples=300, deadline=None)
def test_frobenius_matrix_pattern_matches_the_reference(coeffs, q):
    f = _mod_q_poly(coeffs + [1], q)
    pattern = modp_reference.distinct_degree_pattern(f, q)
    assume(pattern is not None)  # square-free mod q
    rows = polycore._frobenius_matrix(f, q)
    assert [polycore._mod_p_coeffs(r, q) for r in rows] == [
        modp_reference.poly_mod_powmod([0, 1], q * i, f, q) for i in range(len(f) - 1)
    ]
    assert polycore._distinct_degree_pattern(f, q) == pattern


def test_census_certificates_match_the_reference_patterns(census_records, monkeypatch):
    minpolys = {r.rep.field.minpoly for r in census_records if r.rep is not None}
    ours = {p: irreducibility_certificate(p) for p in minpolys}
    monkeypatch.setattr(
        polycore, "_distinct_degree_pattern", modp_reference.distinct_degree_pattern
    )
    for p, verdict in ours.items():
        reference = irreducibility_certificate(p)
        assert (verdict.status, verdict.witness) == (reference.status, reference.witness)
    assert any("mod" in v.witness for v in ours.values())


def test_gcd_and_square_free():
    a = RatPoly([1, 1]) * RatPoly([1, 1]) * RatPoly([-2, 1])
    g = poly_gcd(a, a.derivative())
    assert g == RatPoly([1, 1])
    assert square_free_part(a) == (RatPoly([1, 1]) * RatPoly([-2, 1])).monic()


def test_json_round_trip():
    p = RatPoly([Fraction(1, 2), -3, 0, 7])
    assert RatPoly(Fraction(s) for s in p.to_json()) == p
    assert p.to_json() == ["1/2", "-3", "0", "7"]


# ---------------------------------------------------------------------------
# The integer vector over one denominator against the Fraction class it
# replaced (``ratpoly_reference``)
# ---------------------------------------------------------------------------


def test_canonical_form_is_structural():
    half = RatPoly([Fraction(2, 4)])
    assert (half.num, half.den) == ((1,), 2)
    for same in (RatPoly(["1/2"]), RatPoly([Fraction(1, 2), 0, Fraction(0, 7)]),
                 RatPoly([3]) * Fraction(1, 6), RatPoly(["5/6"]) - RatPoly(["1/3"])):
        assert (same.num, same.den, hash(same)) == (half.num, half.den, hash(half))
        assert same == half
    zero = RatPoly([])
    assert (zero.num, zero.den) == ((), 1)
    for same in (RatPoly([0, Fraction(0, 5)]), RatPoly(["3/4"]) - RatPoly([Fraction(6, 8)]),
                 RatPoly([Fraction(1, 3), 1]) * 0, RatPoly.zero()):
        assert (same.num, same.den, hash(same)) == ((), 1, hash(zero))
        assert same == zero and not same


exact_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
)
# zero, constants and longer polynomials, with small and large denominators
exact_coeffs = st.lists(exact_rationals, max_size=8)


def _same(got, want):
    """The package's polynomial got is the reference's want, in canonical
    form: no trailing zero, a positive denominator in lowest terms."""
    assert got.coeffs == want.coeffs
    assert not got.num or got.num[-1]
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1


@given(exact_coeffs, exact_coeffs, exact_coeffs, exact_coeffs, exact_rationals)
@example([], [], [], [], Fraction(0))
@example([Fraction(3, 4)], [Fraction(-2, 9)], [0, 1], [Fraction(1, 10 ** 40)], Fraction(1, 3))
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_the_fraction_reference(a, b, c, d, x):
    pa, pb, pc, pd = (RatPoly(v) for v in (a, b, c, d))
    ra, rb, rc, rd = (ratpoly_reference.RatPoly(v) for v in (a, b, c, d))
    _same(pa, ra)
    _same(pa + pb, ra + rb)
    _same(pa - pb, ra - rb)
    _same(-pa, -ra)
    _same(pa * pb, ra * rb)
    _same(x * pa + x, x * ra + x)
    _same(RatPoly.dot(pa, pb, pc, pd), ratpoly_reference.RatPoly.dot(ra, rb, rc, rd))
    _same(pa.derivative(), ra.derivative())
    # the common factor pc makes the gcd nontrivial
    _same(poly_gcd(pa * pc, pb * pc), ratpoly_reference.poly_gcd(ra * rc, rb * rc))
    assert pa.eval(x) == ra.eval(x)
    assert pa.to_json() == ra.to_json()
    assert repr(pa) == repr(ra)
    assert pa.degree == ra.degree
    assert (pa == x) == (ra == x)
    if ra.is_zero():
        with pytest.raises(ZeroPolynomial):
            pa.monic()
    else:
        _same(pa.monic(), ra.monic())
    if rb.is_zero():
        with pytest.raises(ZeroModulus):
            pa.divmod(pb)
    else:
        (q, r), (wq, wr) = pa.divmod(pb), ra.divmod(rb)
        _same(q, wq)
        _same(r, wr)


# the root bound, and so the bisection depth, grows with the coefficients
sturm_coeffs = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-40, max_value=40, max_denominator=10 ** 6)),
    max_size=7,
)


@given(sturm_coeffs, sturm_coeffs)
@example([Fraction(-1, 3), 0, 1], [])
@example([1, 0, -5, 0, 4], [1, 1])  # roots at the dyadic points +-1, +-2; a double root
@settings(max_examples=150, deadline=None)
def test_sturm_intervals_match_the_fraction_reference(a, b):
    p, want = RatPoly(a) * RatPoly(b), ratpoly_reference.RatPoly(a) * ratpoly_reference.RatPoly(b)
    if want.degree < 1:
        return
    assert sturm_chain(p) == ratpoly_reference.sturm_chain(want)
    assert sturm_real_roots(p) == ratpoly_reference.sturm_real_roots(want)


# ---------------------------------------------------------------------------
# Sparse integer products, the square-free test and Durand-Kerner against
# the loops they replace
# ---------------------------------------------------------------------------


def _fraction_product(a, b):
    """The Fraction double loop RatPoly.__mul__ ran before its integer form."""
    if not a.coeffs or not b.coeffs:
        return RatPoly.zero()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return RatPoly(out)


sparse_rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
sparse_polys = st.lists(sparse_rationals, max_size=12).map(RatPoly)


@given(sparse_polys, sparse_polys)
@settings(max_examples=300, deadline=None)
def test_integer_product_matches_fraction_loop(a, b):
    want = _fraction_product(a, b)
    for got in (a * b, b * a):
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)
    assert (a * 3).coeffs == _fraction_product(a, RatPoly([3])).coeffs
    assert (Fraction(1, 3) * a).coeffs == _fraction_product(RatPoly([Fraction(1, 3)]), a).coeffs


def _fraction_divmod(a, b):
    """The Fraction long division RatPoly.divmod ran before its integer form."""
    if b.is_zero():
        raise ZeroModulus("division by the zero polynomial")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    dlc = b.coeffs[-1]
    dd = b.degree
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        factor = rem[-1] / dlc
        q[shift] = factor
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return RatPoly(q), RatPoly(rem)


@given(sparse_polys, sparse_polys)
@example(RatPoly([]), RatPoly([Fraction(3, 7), 0, -2]))  # zero dividend
@example(RatPoly([1, 2]), RatPoly([Fraction(1, 3), 0, 5]))  # deg a < deg b
@example(RatPoly([Fraction(5, 6), 0, -3, 7]), RatPoly([Fraction(-2, 9)]))  # constant
@example(RatPoly([1, -4, 0, 9, 12, -8]), RatPoly([6, Fraction(1, 2), 0, -4]))  # non-monic
@example(RatPoly([1, 2, 3]), RatPoly([]))  # zero divisor
@settings(max_examples=300, deadline=None)
def test_integer_divmod_matches_fraction_loop(a, b):
    if b.is_zero():
        for divide in (RatPoly.divmod, _fraction_divmod):
            with pytest.raises(ZeroModulus):
                divide(a, b)
        return
    (q, r), (wq, wr) = a.divmod(b), _fraction_divmod(a, b)
    assert q.coeffs == wq.coeffs and r.coeffs == wr.coeffs
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)


def _fraction_gcd(a, b):
    """poly_gcd as it was: Euclid on Fraction remainders."""
    while not b.is_zero():
        a, b = b, _fraction_divmod(a, b)[1]
    return a.monic() if a else a


def _fraction_sturm_chain(p):
    """sturm_chain as it was, on Fraction remainders."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-_fraction_divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


@given(sparse_polys, sparse_polys, sparse_polys)
@settings(max_examples=150, deadline=None)
def test_integer_gcd_and_sturm_chain_match_fraction_euclid(a, b, c):
    # the factor c makes the gcd nontrivial
    assert poly_gcd(a * c, b * c) == _fraction_gcd(a * c, b * c)
    if (a * c).degree < 1:
        return
    got, want = sturm_chain(a * c), _fraction_sturm_chain(a * c)
    assert len(got) == len(want)
    for ints, q in zip(got, want):
        # a positive multiple of the rational term
        assert RatPoly(ints).monic() == q.monic() and (ints[-1] > 0) == (q.num[-1] > 0)


_ROOT_INPUTS = [f"{f}_{k}" for f in ("psi", "lambda") for k in (1, 2, 3, 4)] + ["7_4"]


def _root_input(name):
    """psi_k, lambda_k or the 7_4 minpoly, by name."""
    if name == "7_4":
        return M74
    family, k = name.split("_")
    return (psi_poly if family == "psi" else lambda_poly)(int(k))


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _exact_correction(p, zs, i):
    """W_i = p(z_i) / (lc prod_{j != i} (z_i - z_j)) in exact rational
    arithmetic, at points given as rational pairs."""
    zi = zs[i]
    num = (Fraction(0), Fraction(0))
    for c in reversed(p.coeffs):
        num = _cmul(num, zi)
        num = (num[0] + c, num[1])
    den = (p.coeffs[-1], Fraction(0))
    for j, zj in enumerate(zs):
        if j != i:
            den = _cmul(den, (zi[0] - zj[0], zi[1] - zj[1]))
    q = den[0] ** 2 + den[1] ** 2
    return (num[0] * den[0] + num[1] * den[1]) / q, (num[1] * den[0] - num[0] * den[1]) / q


def _nearest(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


def _durand_kerner_per_step(monic, start, s, max_iter):
    """The polish in exact rational arithmetic: each Fraction coefficient
    enters every Horner step as it is, and each step is the exact correction
    rounded to the nearest point of the grid 2^-s."""
    unit = 1 << s
    zs = list(start)
    for _ in range(max_iter):
        pts = [(Fraction(x, unit), Fraction(y, unit)) for x, y in zs]
        ws = [_exact_correction(monic, pts, i) for i in range(len(pts))]
        steps = [(_nearest(a * unit), _nearest(b * unit)) for a, b in ws]
        if all(x * x + y * y < 1 << 48 for x, y in steps):
            return zs, ws
        zs = [(x - u, y - v) for (x, y), (u, v) in zip(zs, steps)]
    return zs, None


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("poly", ["psi_1", "psi_2", "psi_3", "lambda_1", "lambda_2",
                                  "lambda_3", "7_4", "thirds_sevenths"])
def test_durand_kerner_converts_once_bit_identically(poly, bits):
    # the polish shifts the integer coefficients onto the grid once per
    # scale; its points and exact corrections must be those of the rational
    # step that converts nothing
    if poly == "thirds_sevenths":
        # coefficients with denominators: the integer multiple shows
        monic = RatPoly([Fraction(1, 7), Fraction(-1, 3), 0, 0, 1])
    else:
        monic = _root_input(poly).monic()
    s = bits + 20
    seeds = _float_seeds(monic)
    assert seeds is not None
    ints = list(monic.num)
    for start in ([(_fixed(z.real, s), _fixed(z.imag, s)) for z in seeds],
                  _newton_start(monic, s)):
        got, ws = _durand_kerner(ints, start, s)
        want, exact = _durand_kerner_per_step(monic, start, s, 400)
        assert got == want
        for ((a, b), (c, d)), (wr, wi) in zip(ws, exact):
            q = c * c + d * d
            assert (Fraction(a * c + b * d, q), Fraction(b * c - a * d, q)) == (wr * (1 << s), wi * (1 << s))


def _weierstrass_bound_squared(p, pts, i):
    """(n |W_i|)^2 in exact rational arithmetic."""
    wr, wi = _exact_correction(p, pts, i)
    return p.degree ** 2 * (wr ** 2 + wi ** 2)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", _ROOT_INPUTS + ["thirds_sevenths"])
def test_radii_bound_the_exact_weierstrass_correction(name, bits):
    if name == "thirds_sevenths":
        p = RatPoly([Fraction(1, 7), Fraction(-1, 3), 0, 0, 1])
    else:
        p = _root_input(name)
    s = bits + 20
    unit = 1 << s
    centers = []
    for r in complex_roots(p, bits).roots:
        x, y = r.re * unit, r.im * unit
        assert x.denominator == y.denominator == 1
        centers.append((int(x), int(y)))
    # at the certified centers |W_i| is near the grid's 2^-s, and at their
    # double roundings near 2^-53: a radius rounded to nearest would fall
    # below n |W_i| about half the time
    doubles = [(_fixed(float(Fraction(x, unit)), s), _fixed(float(Fraction(y, unit)), s))
               for x, y in centers]
    ints = list(p.num)
    for zs in (centers, doubles):
        radii = _weierstrass_radii(p.degree, _corrections(ints, zs, s))
        pts = [(Fraction(x, unit), Fraction(y, unit)) for x, y in zs]
        for i, r in enumerate(radii):
            assert Fraction(r, unit) ** 2 >= _weierstrass_bound_squared(p, pts, i)


@pytest.mark.parametrize("shift, disjoint", [(-1, False), (0, False), (1, True)])
def test_disks_disjoint_decides_below_double_precision(shift, disjoint):
    # centers 0 and i(1 + shift 2^-200), radii 1/2 and 1/2, over 2^400: the
    # gap differs from the sum of the radii by less than a double can show
    centers = [(0, 0), (0, (1 << 400) + shift * (1 << 200))]
    radii = [1 << 399, 1 << 399]
    assert _disks_disjoint(centers, radii) is disjoint


def _roots_of_unity_start():
    """The float stage declines, so every polish starts from the
    Newton-polygon fallback: roots of unity on one circle when the hull of
    the coefficient logarithms is a single edge, one circle per edge else."""
    return mock.patch.object(polycore, "_float_seeds", return_value=None)


def _disks_meet(a, b) -> bool:
    reach = a.radius + b.radius
    return (a.re - b.re) ** 2 + (a.im - b.im) ** 2 <= reach ** 2


def _assert_same_roots(p, bits=128):
    new = complex_roots(p, bits).roots
    with _roots_of_unity_start():
        old = complex_roots(p, bits).roots
    assert len(new) == len(old) == p.degree
    for disk in new:
        assert sum(_disks_meet(disk, o) for o in old) == 1


@pytest.mark.parametrize("name", _ROOT_INPUTS)
def test_seeded_roots_match_the_roots_of_unity_start(name):
    p = _root_input(name)
    assert _float_seeds(p.monic()) is not None
    _assert_same_roots(p)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=13))
@settings(max_examples=40, deadline=None)
def test_seeded_roots_match_on_square_free_integer_polys(coeffs):
    p = RatPoly(coeffs)
    if p.degree < 1:
        return
    _assert_same_roots(RatPoly(square_free_part(p).num))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_psi_root_census_is_the_same_from_either_start(k):
    # Durand-Kerner is the oracle: its disks from either start agree with
    # the exact census from the remainder chains
    seeded = _disk_census(complex_roots(psi_poly(k), 128).roots)
    with _roots_of_unity_start():
        unseeded = _disk_census(complex_roots(psi_poly(k), 128).roots)
    assert seeded == unseeded == (2, (k, k, k, k), True)
    assert seeded[:2] == tuple(psi_root_census(k))[1:]


@pytest.mark.parametrize("e", [20, 40, 60, 100])
def test_close_roots_still_certify(e):
    # (z - 1)(z - 1 - 2^-e)(z^2 + 1): two roots 2^-e apart
    p = RatPoly([-1, 1]) * RatPoly([-1 - Fraction(1, 2 ** e), 1]) * RatPoly([1, 0, 1])
    _assert_same_roots(p)


def test_lambda_30_gets_float_seeds():
    # from the Newton-polygon circles the float stage stays in range; from
    # a circle at the Cauchy bound its first sweep overflowed
    assert _float_seeds(lambda_poly(30).monic()) is not None


def test_float_overflow_certifies_through_the_fallback():
    # roots 10^400 - 10^-400 and about 10^-400; the float stage declines
    p = RatPoly([1, -10 ** 400, 1])
    assert _float_seeds(p.monic()) is None
    rs = complex_roots(p, 128)
    assert len(rs.roots) == 2
    small, big = ((r.re, r.im) for r in rs.roots)
    assert abs(big[0] - 10 ** 400) < 1 and abs(big[1]) < 1
    assert abs(small[0]) + abs(small[1]) < Fraction(1, 10 ** 399)


@pytest.mark.parametrize("times_z", [False, True])
def test_far_apart_moduli_certify_from_the_newton_polygon(times_z):
    # (z - 10^400)(z^2 + 1), and z times it: the float stage declines, and
    # the hull of (k, log2 |c_k|) has an edge of radius 1 and one of radius
    # 10^400 (a root at 0 starts at 0)
    p = RatPoly([-10 ** 400, 1]) * RatPoly([1, 0, 1])
    roots = [(Fraction(10 ** 400), Fraction(0)), (Fraction(0), Fraction(1)),
             (Fraction(0), Fraction(-1))]
    if times_z:
        p = p * RatPoly.x()
        roots.append((Fraction(0), Fraction(0)))
    assert _float_seeds(p.monic()) is None
    squares = sorted(x * x + y * y for x, y in _newton_start(p.monic(), 148))
    assert squares[:times_z] == [0] * times_z
    for m2, want in zip(squares[times_z:], [1, 1, 10 ** 400]):
        assert abs(Fraction(m2, 4 ** 148) / want ** 2 - 1) < Fraction(1, 10 ** 9)
    disks = complex_roots(p, 128).roots
    assert len(disks) == p.degree
    for rx, ry in roots:
        inside = [
            (d.re - rx) ** 2 + (d.im - ry) ** 2 <= d.radius ** 2
            for d in disks
        ]
        assert sum(inside) == 1


def test_newton_start_on_one_edge_is_a_circle_of_roots_of_unity():
    # z^3 - 8: one hull edge, radius 8^(1/3) = 2; the angles come from the
    # float cos and sin, so the points are good to a double's precision
    start = _newton_start(RatPoly([-8, 0, 0, 1]), 148)
    want = [2 * cmath.exp(2j * cmath.pi * (t + 0.25) / 3) for t in range(3)]
    for (x, y), w in zip(start, want):
        assert abs(complex(Fraction(x, 1 << 148), Fraction(y, 1 << 148)) - w) < 2 ** -50
