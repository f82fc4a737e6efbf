import inspect
import json
import random
from fractions import Fraction
from importlib import resources

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from geodesica import eulerclass
from geodesica.errors import MilnorWoodViolated, NoLiftExists, PrecisionExhausted
from geodesica.eulerclass import (
    CENSUS,
    EulerResult,
    Fact,
    euler_number,
    euler_tuple,
    obstruction_verdict,
    closed_surface_obstruction,
    solve_integer_system,
)
from geodesica.knotgroup import (
    Mat2,
    Word,
    build_representation,
    evaluate_word,
    flatten,
    riley_polynomial,
    two_bridge_presentation,
)
from geodesica.numfield import NumberField
from geodesica.pipeline import get_knot
from geodesica.polycore import RatPoly, irreducibility_certificate, rational_roots
from interval_reference import (
    ComplexIv,
    LiftedElement,
    abs_upper,
    canonical_section,
    embed_iv,
    embed_matrix,
    euler_number as reference_euler_number,
    iv,
    iv_atan,
    iv_cos_sin,
    iv_from_fraction,
    lift_representation,
    prec_guard,
    to_su11,
    ucover_eval,
    ucover_identity,
    ucover_inv,
    ucover_mul,
    ucover_pow,
)


def _iv4(a, b, c, d):
    return (iv.mpf(a), iv.mpf(b), iv.mpf(c), iv.mpf(d))


class TestToSU11:
    def test_identity(self):
        with prec_guard(96):
            lift = to_su11(_iv4(1, 0, 0, 1))
            assert float(abs_upper(lift.gamma)) < 1e-20
            assert abs(float(lift.omega.mid.a)) < 1e-20

    def test_parabolic_upper(self):
        # (1 1; 0 1) -> ((1+2i)/5, arctan(1/2))
        with prec_guard(96):
            lift = to_su11(_iv4(1, 1, 0, 1))
            assert abs(mp.mpf(lift.gamma.re.mid.a) - mp.mpf(1) / 5) < 1e-25
            assert abs(mp.mpf(lift.gamma.im.mid.a) - mp.mpf(2) / 5) < 1e-25
            assert abs(mp.mpf(lift.omega.mid.a) - mp.atan(mp.mpf(1) / 2)) < 1e-25

    def test_parabolic_lower_at_real_place(self, rep_73):
        # (1 0; z 1) -> (zi/(2-zi), -arctan(z/2)) for the negative real roots
        with prec_guard(128):
            place = rep_73.field.real_places()[0]
            z = embed_iv(place, rep_73.field.gen(), 96)
            lift = to_su11(_iv4(1, 0, z, 1))
            zm = mp.mpf(z.mid.a)
            expected_gamma = mp.mpc(0, zm) / (2 - mp.mpc(0, zm))
            got = mp.mpc(mp.mpf(lift.gamma.re.mid.a), mp.mpf(lift.gamma.im.mid.a))
            assert abs(got - expected_gamma) < 1e-25
            assert abs(mp.mpf(lift.omega.mid.a) - (-mp.atan(zm / 2))) < 1e-25

    def test_wide_interval_rejected(self):
        # alpha cannot vanish on exact SL(2,R) input (|alpha|^2 = 1 + |beta|^2),
        # but the guard must fire on hopelessly wide interval input
        with prec_guard(96):
            wide = iv.mpf([-10, 10])
            with pytest.raises(PrecisionExhausted):
                to_su11((wide, wide, wide, wide))


class TestGroupLaw:
    def test_identity_neutral(self):
        with prec_guard(96):
            x = to_su11(_iv4(1, 1, 0, 1))
            y = ucover_mul(x, ucover_identity())
            assert float(abs_upper(y.gamma - x.gamma)) < 1e-25
            assert abs(float((y.omega - x.omega).mid.a)) < 1e-25

    def test_central_element_squares(self):
        with prec_guard(96):
            c = LiftedElement(ComplexIv.zero(), iv.pi)
            c2 = ucover_mul(c, c)
            assert abs(float(c2.omega.mid.a) - float(2 * mp.pi)) < 1e-25
            assert float(abs_upper(c2.gamma)) < 1e-25

    def test_inverse(self):
        with prec_guard(96):
            x = to_su11(_iv4(2, 1, 1, 1))
            e = ucover_mul(x, ucover_inv(x))
            assert float(abs_upper(e.gamma)) < 1e-20
            assert abs(float(e.omega.mid.a)) < 1e-20

    def test_projection_oracle(self):
        # project(ucover product) == to_su11(matrix product), omega mod pi
        rng = random.Random(7)
        with prec_guard(160):
            for _ in range(15):
                mats = []
                for _ in range(2):
                    m = (1, 0, 0, 1)
                    for _ in range(rng.randint(1, 4)):
                        t = rng.randint(-3, 3)
                        if rng.random() < 0.5:
                            el = (1, t, 0, 1)
                        else:
                            el = (1, 0, t, 1)
                        m = (
                            m[0] * el[0] + m[1] * el[2],
                            m[0] * el[1] + m[1] * el[3],
                            m[2] * el[0] + m[3] * el[2],
                            m[2] * el[1] + m[3] * el[3],
                        )
                    mats.append(m)
                a, b = mats
                prod = (
                    a[0] * b[0] + a[1] * b[2],
                    a[0] * b[1] + a[1] * b[3],
                    a[2] * b[0] + a[3] * b[2],
                    a[2] * b[1] + a[3] * b[3],
                )
                try:
                    la, lb = to_su11(_iv4(*a)), to_su11(_iv4(*b))
                    lp = to_su11(_iv4(*prod))
                except PrecisionExhausted:
                    continue  # alpha = 0 (elliptic of order two); not in scope
                got = ucover_mul(la, lb)
                dg = float(abs_upper(got.gamma - lp.gamma))
                assert dg < 1e-30
                dw = float((got.omega - lp.omega).mid.a) / float(mp.pi)
                assert abs(dw - round(dw)) < 1e-30

    def test_pow_matches_repeated_mul(self):
        with prec_guard(96):
            x = to_su11(_iv4(1, 1, 0, 1))
            p3 = ucover_pow(x, 3)
            m3 = ucover_mul(ucover_mul(x, x), x)
            assert float(abs_upper(p3.gamma - m3.gamma)) < 1e-25
            p_neg = ucover_mul(p3, ucover_pow(x, -3))
            assert abs(float(p_neg.omega.mid.a)) < 1e-20


# Reference lift kernel: the group law on ((re, im), omega) with iv.mpf
# operators and separate iv.cos / iv.sin, every power started from the
# identity and every letter multiplied onto an identity-started product.


def _ref_cmul(p, q):
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c


def _ref_ucover_mul(x, y):
    (xg, xw), (yg, yw) = x, y
    t = -2 * xw
    g2ph = _ref_cmul(yg, (iv.cos(t), iv.sin(t)))
    p = _ref_cmul(g2ph, (xg[0], -xg[1]))
    u = (iv.mpf(1) + p[0], iv.mpf(0) + p[1])
    if not (u[0].a > 0):
        raise PrecisionExhausted("branch certificate")
    num = (xg[0] + g2ph[0], xg[1] + g2ph[1])
    den = u[0] * u[0] + u[1] * u[1]
    gamma = ((num[0] * u[0] + num[1] * u[1]) / den, (num[1] * u[0] - num[0] * u[1]) / den)
    return gamma, xw + yw + iv.atan2(u[1] / u[0], iv.mpf(1))


def _ref_ucover_inv(x):
    g, w = x
    t = 2 * w
    p = _ref_cmul(g, (iv.cos(t), iv.sin(t)))
    return (-p[0], -p[1]), -w


def _ref_identity():
    return (iv.mpf(0), iv.mpf(0)), iv.mpf(0)


def _ref_ucover_eval(letters, lifts):
    out = _ref_identity()
    for g, e in letters:
        x, n = lifts[g], e
        if n < 0:
            x, n = _ref_ucover_inv(x), -n
        power = _ref_identity()
        for _ in range(n):
            power = _ref_ucover_mul(power, x)
        out = _ref_ucover_mul(out, power)
    return out


def _endpoints(lift):
    if isinstance(lift, LiftedElement):
        return lift.gamma.re._mpi_, lift.gamma.im._mpi_, lift.omega._mpi_
    (re, im), w = lift
    return re._mpi_, im._mpi_, w._mpi_


_ENTRY = st.fractions(min_value=-5, max_value=5, max_denominator=50)


@st.composite
def _lift_case(draw):
    prec = draw(st.integers(min_value=64, max_value=320))
    ngens = draw(st.integers(min_value=1, max_value=3))
    mats = []
    for _ in range(ngens):
        a = draw(_ENTRY.filter(lambda q: q != 0))
        b, c = draw(_ENTRY), draw(_ENTRY)
        mats.append((a, b, c, (1 + b * c) / a, draw(st.integers(-2, 2))))
    letters = draw(st.lists(
        st.tuples(st.integers(0, ngens - 1), st.integers(-4, 4).filter(bool)),
        max_size=12,
    ))
    return prec, mats, letters


@given(_lift_case())
@settings(max_examples=120, deadline=None)
def test_ucover_eval_matches_identity_start_reference(case):
    prec, mats, letters = case
    with prec_guard(prec):
        lifts = []
        for *entries, shift in mats:
            try:
                lift = to_su11(tuple(iv_from_fraction(q) for q in entries))
            except PrecisionExhausted:
                assume(False)
            lifts.append(lift.central_shift(shift))
        w = Word(letters)
        ref_lifts = [((L.gamma.re, L.gamma.im), L.omega) for L in lifts]
        try:
            expected = _ref_ucover_eval(w.letters, ref_lifts)
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                ucover_eval(w, lifts)
            return
        assert _endpoints(ucover_eval(w, lifts)) == _endpoints(expected)
        for g, e in w.letters[:2]:
            got = ucover_pow(lifts[g], e)
            assert _endpoints(got) == _endpoints(_ref_ucover_eval(((g, e),), ref_lifts))


# Reference: the ComplexIv / iv_cos_sin / iv_atan formulas the raw-tuple
# product, inverse and power replaced.  They must agree endpoint for endpoint.


def _civ_ucover_mul(x, y):
    phase = ComplexIv(*iv_cos_sin(-2 * x.omega))
    g2ph = y.gamma * phase
    u = ComplexIv.one() + g2ph * x.gamma.conj()
    if not (u.re.a > 0):
        raise PrecisionExhausted("branch certificate Re(u) > 0 failed")
    gamma = (x.gamma + g2ph) / u
    omega = x.omega + y.omega + iv_atan(u.im / u.re)
    return LiftedElement(gamma, omega)


def _civ_ucover_inv(x):
    phase = ComplexIv(*iv_cos_sin(2 * x.omega))
    return LiftedElement(-(x.gamma * phase), -x.omega)


def _civ_ucover_pow(x, n):
    if n == 0:
        return ucover_identity()
    if n < 0:
        x, n = _civ_ucover_inv(x), -n
    out = x
    for _ in range(n - 1):
        out = _civ_ucover_mul(out, x)
    return out


@st.composite
def _raw_interval(draw, prec, lo, hi):
    """An iv.mpf of random centre in [lo, hi] and half-width 2^-k: narrow
    ones like the lifts of a certified walk, wide ones that break Re(u) > 0."""
    centre = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=2 ** 20))
    k = draw(st.integers(0, prec))
    with mp.workprec(prec + 40):
        c = mp.mpf(centre.numerator) / centre.denominator
        return iv.mpf([c - mp.ldexp(1, -k), c + mp.ldexp(1, -k)])


@st.composite
def _random_lift(draw, prec):
    re = draw(_raw_interval(prec, Fraction(-7, 10), Fraction(7, 10)))
    im = draw(_raw_interval(prec, Fraction(-7, 10), Fraction(7, 10)))
    return LiftedElement(ComplexIv(re, im), draw(_raw_interval(prec, -12, 12)))


def _both(fn, ref, *args):
    """fn(*args) and ref(*args), or None for each when both raise."""
    try:
        expected = ref(*args)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            fn(*args)
        return None, None
    return _endpoints(fn(*args)), _endpoints(expected)


@given(st.data(), st.integers(64, 512), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_raw_lift_kernels_match_complexiv_formulas(data, prec, n):
    with prec_guard(prec):
        x = data.draw(_random_lift(prec))
        y = data.draw(_random_lift(prec))
        got, want = _both(ucover_mul, _civ_ucover_mul, x, y)
        assert got == want
        assert _endpoints(ucover_inv(x)) == _endpoints(_civ_ucover_inv(x))
        got, want = _both(ucover_pow, _civ_ucover_pow, x, n)
        assert got == want


def test_raw_product_raises_where_the_formula_does():
    # a gamma rectangle this wide leaves 0 inside Re(u)
    with prec_guard(64):
        wide = LiftedElement(ComplexIv(iv.mpf([-0.9, 0.9]), iv.mpf([-0.9, 0.9])), iv.mpf(0))
        for fn in (ucover_mul, _civ_ucover_mul):
            with pytest.raises(PrecisionExhausted):
                fn(wide, wide)


class TestCanonicalSection:
    def test_tau_two(self):
        with prec_guard(96):
            s = canonical_section(iv.mpf(2))
            assert abs(float(s.gamma.re.mid.a) - 0.5) < 1e-25
            assert abs(float(s.gamma.im.mid.a) - 0.5) < 1e-25
            assert abs(float(s.omega.mid.a) - float(mp.pi / 4)) < 1e-25

    def test_tau_zero(self):
        with prec_guard(96):
            s = canonical_section(iv.mpf(0))
            assert float(abs_upper(s.gamma)) < 1e-25
            assert abs(float(s.omega.mid.a)) < 1e-25

    def test_pretzel_value(self, pretzel_1):
        with prec_guard(128):
            place = pretzel_1.field.real_places()[0]
            tau = embed_iv(place, pretzel_1.rep.longitude_translation(), 96)
            s = canonical_section(tau)
            # tau = -6/z is about -16.6; omega = arctan(tau/2) is near -pi/2
            assert float(s.omega.mid.a) < -1.4


class TestIntegerSolver:
    def test_two_bridge_shape(self):
        assert solve_integer_system([[1, -1]], [-3]) == [-3, 0]

    def test_pretzel_shape(self):
        m = solve_integer_system([[1, -1, 0], [0, 1, -1]], [2, 5])
        E = [[1, -1, 0], [0, 1, -1]]
        for row, b in zip(E, [2, 5]):
            assert sum(r * x for r, x in zip(row, m)) == b

    def test_inconsistent(self):
        with pytest.raises(NoLiftExists):
            solve_integer_system([[2, 0], [0, 2]], [1, 2])

    def test_random_solvable(self):
        rng = random.Random(3)
        for _ in range(25):
            E = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
            x = [rng.randint(-4, 4) for _ in range(3)]
            b = [sum(r * v for r, v in zip(row, x)) for row in E]
            m = solve_integer_system(E, b)
            for row, bb in zip(E, b):
                assert sum(r * v for r, v in zip(row, m)) == bb


class TestLifts:
    def test_relators_annihilated(self, rep_73):
        place = rep_73.field.real_places()[0]
        with prec_guard(160):
            lifts = lift_representation(rep_73, place, 128)
            for rel in rep_73.presentation.relators:
                val = ucover_eval(rel, lifts)
                assert float(abs_upper(val.gamma)) < 1e-9
                assert abs(float(val.omega.mid.a)) < 1e-9

    def test_broken_relator_fails(self, rep_73):
        # feed the defect solver an unsolvable system directly
        with pytest.raises(NoLiftExists):
            solve_integer_system([[0, 0]], [1])


class TestEulerNumbers:
    def test_73_anchor(self, rep_73):
        results = euler_tuple(rep_73)
        assert tuple(r.n for r in results) == (3, 1)

    def test_74_genus_one(self, rep_74):
        results = euler_tuple(rep_74)
        assert tuple(r.n for r in results) == (1,)

    def test_lift_independence_73(self, rep_73):
        rng = random.Random(11)
        place = rep_73.field.real_places()[0]
        base = euler_number(rep_73, place).n
        for _ in range(20):
            offsets = [rng.randint(-5, 5) for _ in range(2)]
            assert euler_number(rep_73, place, offsets=offsets).n == base

    def test_lift_independence_74(self, rep_74):
        rng = random.Random(13)
        place = rep_74.field.real_places()[0]
        base = euler_number(rep_74, place).n
        for _ in range(20):
            offsets = [rng.randint(-5, 5) for _ in range(2)]
            assert euler_number(rep_74, place, offsets=offsets).n == base

    def test_conjugation_invariance_73(self, rep_73):
        # replacing the longitude by a conjugate and conjugating the section
        # leaves the central gap unchanged
        place = rep_73.field.real_places()[0]
        with prec_guard(192):
            lifts = lift_representation(rep_73, place, 160)
            ell = rep_73.presentation.longitude
            tau = embed_iv(place, rep_73.longitude_translation(), 160)
            section = canonical_section(tau)
            base = ucover_eval(ell, lifts)
            n0 = round(float(((base.omega - section.omega) / iv.pi).mid.a))
            for conj in (Word.gen(0), Word.gen(1), Word.gen(0) * Word.gen(1, -1)):
                word = conj * ell * conj.inverse()
                lifted = ucover_eval(word, lifts)
                g = ucover_eval(conj, lifts)
                sec = ucover_mul(ucover_mul(g, section), ucover_inv(g))
                n = round(float(((lifted.omega - sec.omega) / iv.pi).mid.a))
                assert n == n0

    def test_pretzel_euler(self, pretzel_1):
        results = euler_tuple(pretzel_1.rep)
        assert tuple(abs(r.n) for r in results) == (1,)


class TestPrecisionCap:
    def test_tiny_cap_forces_failure(self, rep_73, monkeypatch):
        monkeypatch.setattr(eulerclass, "PRECISION_CAP", 64)
        place = rep_73.field.real_places()[0]
        with pytest.raises(PrecisionExhausted):
            euler_number(rep_73, place, precision_bits=128)


class TestVerdicts:
    def _closed(self, rep, flags=None, **census):
        return closed_surface_obstruction(rep, {**(flags or {}), **census})

    def test_closed_obstruction_74(self, rep_74):
        facts = self._closed(rep_74)
        assert facts.no_closed_tgs
        assert facts.no_real_subfield.source == "odd prime degree"

    def test_closed_obstruction_pretzel(self, pretzel_1):
        assert self._closed(pretzel_1.rep).no_closed_tgs

    def test_closed_obstruction_flagged_subfield(self, rep_73):
        facts = self._closed(rep_73, {"no_real_subfield": False})
        assert facts.no_closed_tgs is False

    @pytest.mark.parametrize("name, flags, no_real, certified, no_quadratic", [
        # an odd prime degree certifies no real subfield and ignores that flag
        ("7_4", {}, True, True, True),
        ("7_4", {"no_real_subfield": False, "no_quadratic_subfield": False},
         True, True, False),
        # other degrees take the real-subfield flag, or None
        ("8_4", {}, None, False, True),
        ("8_4", {"no_real_subfield": True, "no_quadratic_subfield": False},
         True, False, False),
        ("7_3", {}, None, False, None),
        ("7_3", {"no_real_subfield": False, "no_quadratic_subfield": True},
         False, False, True),
    ])
    def test_field_fact_precedence(self, census_records, name, flags, no_real,
                                   certified, no_quadratic):
        # the quadratic-subfield flag wins at any degree; without it the fact
        # holds at odd degree and is None at even degree
        rep = get_knot(census_records, name).rep
        facts = closed_surface_obstruction(rep, flags)
        assert facts.degree == Fact(rep.field.degree, "minimal polynomial")
        assert facts.no_real_subfield == Fact(no_real, "odd prime degree" if certified else CENSUS)
        odd = "no_quadratic_subfield" not in flags and rep.field.degree % 2
        assert facts.no_quadratic_subfield == Fact(no_quadratic, "odd degree" if odd else CENSUS)

    def test_the_verdict_reads_only_the_hypotheses(self):
        parameters = inspect.signature(obstruction_verdict).parameters
        assert list(parameters) == ["name", "hypotheses", "euler_results"]

    def test_thm_verdict(self, rep_73):
        results = euler_tuple(rep_73)
        facts = self._closed(rep_73, {"no_real_subfield": True, "no_quadratic_subfield": True},
                             genus=2, fibered=False)
        report = obstruction_verdict("7_3", facts, results)
        assert report.verdict == "NoTGS_euler_bound"
        assert "1 < 2g-1 = 3" in report.justification

    def test_genus_one_short_circuit(self, rep_74):
        results = euler_tuple(rep_74)
        facts = self._closed(rep_74, genus=1, fibered=False, known_unique=False)
        report = obstruction_verdict("7_4", facts, results)
        assert report.verdict == "NoClosedTGS_arithmetic"
        known = obstruction_verdict(
            "7_4", facts._replace(known_unique=Fact(True, CENSUS)), results
        )
        assert known.verdict == "KnownUniqueSurface"

    def test_fibered_rule(self, rep_73):
        results = euler_tuple(rep_73)
        facts = self._closed(rep_73, {"no_real_subfield": True}, genus=2, fibered=True)
        report = obstruction_verdict("6_2-style", facts, results)
        assert report.verdict == "NoTGS_fibered"

    def test_milnor_wood_violation_detected(self, rep_73):
        fake = (EulerResult(place_index=0, n=9, precision_bits=128),)
        facts = self._closed(rep_73, {"no_real_subfield": True}, genus=2, fibered=False)
        with pytest.raises(MilnorWoodViolated):
            obstruction_verdict("bogus", facts, fake)

    def test_milnor_wood_bound_on_census(self, rep_73, rep_74, pretzel_1):
        for rep, genus in ((rep_73, 2), (rep_74, 1), (pretzel_1.rep, 1)):
            for r in euler_tuple(rep):
                assert abs(r.n) <= 2 * genus - 1


# ---------------------------------------------------------------------------
# The exact winding count against the reference interval engine
# ---------------------------------------------------------------------------


def _census_reps(records):
    return [r.rep for r in records if r.rep is not None]


def _words(generator_count):
    letter = st.tuples(st.integers(0, generator_count - 1), st.integers(-3, 3).filter(bool))
    return st.lists(letter, min_size=1, max_size=8).map(Word)


def _factors(generator_count):
    """One to three factor words, each taken as itself or as its inverse."""
    factor = st.tuples(_words(generator_count), st.sampled_from((1, -1)))
    return st.lists(factor, min_size=1, max_size=3).map(tuple)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_winding_count_matches_reference_lift(census_records, data):
    rep = data.draw(st.sampled_from(_census_reps(census_records)), label="rep")
    place = data.draw(st.sampled_from(rep.field.real_places()), label="place")
    factors = data.draw(_factors(rep.presentation.generator_count), label="factors")
    lift, M = eulerclass.lift_representation(rep, place).product(factors)
    word = flatten(factors)
    assert M == evaluate_word(rep.images, word)
    bits = 160
    with prec_guard(bits + 32):
        gens = range(rep.presentation.generator_count)
        try:
            lifts = [to_su11(embed_matrix(rep, Word.gen(g), place, bits)) for g in gens]
            omega = ucover_eval(word, lifts).omega
        except PrecisionExhausted:
            assume(False)
        a, b, c, d = (embed_iv(place, x, bits) for x in M.entries())
        arg = iv.atan2(lift.sigma * (b - c), lift.sigma * (a + d))
        turns = (omega - arg) / (2 * iv.pi)
    # where the reference certifies omega, Arg alpha(sigma M) + 2 pi m is it
    assume(mp.mpf(turns.delta.b) < 0.25)
    assert turns.a <= lift.m <= turns.b
    if arg.a > 0:
        assert lift.upper
    if arg.b <= 0:
        assert not lift.upper


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_word_times_its_inverse_lifts_to_the_identity(census_records, data):
    rep = data.draw(st.sampled_from(_census_reps(census_records)), label="rep")
    place = data.draw(st.sampled_from(rep.field.real_places()), label="place")
    w = data.draw(_words(rep.presentation.generator_count), label="word")
    lifting = eulerclass.lift_representation(rep, place)
    for factors in (((w, 1), (w, -1)), ((w, -1), (w, 1))):
        assert lifting.product(factors)[0] == eulerclass.Lift(1, 0, False)


def test_inverse_over_a_negative_real_alpha_lifts_to_the_identity():
    # M = (-2, 1; 1, -1) has b = c and alpha(M) = -3/2, so the lift of M with
    # sigma = 1 sits at omega = pi, and its inverse over adj M at -pi: one
    # winding below the lift of adj M with the same sigma
    K = NumberField(RatPoly([1, 4, -4, 1]), "Q(z_74)")
    M = Mat2(*(K.rational(x) for x in (-2, 1, 1, -1)))
    place = K.real_places()[0]

    def sign(e):
        return place.sign(e, 128, 128)[0]

    for x in (
        eulerclass.Lift(1, 0, True),
        eulerclass.Lift(-1, 0, False),
        eulerclass.Lift(1, 2, True),
        eulerclass.Lift(-1, -3, False),
    ):
        y = eulerclass.ucover_inv(x, M)
        for pair, (P, G) in (((x, y), (M, M.adjugate())), ((y, x), (M.adjugate(), M))):
            assert P * G == Mat2.identity(K)
            (x1, y1), (x2, y2) = eulerclass._alpha2(P), eulerclass._alpha2(G)
            step = (K.dot(x1, x2, -y1, y2), K.dot(x1, y2, x2, y1)), eulerclass._alpha2(P * G)
            assert eulerclass.ucover_mul(*pair, step, sign) == eulerclass.Lift(1, 0, False)


def test_reference_ladder_agrees_with_winding_count(rep_73, rep_74, pretzel_1):
    for rep in (rep_73, rep_74, pretzel_1.rep):
        for place in rep.field.real_places():
            exact = euler_number(rep, place)
            assert exact.n == reference_euler_number(rep, place).n
            assert exact.precision_bits == 128


def test_winding_count_names_the_knot_and_place_when_exhausted(rep_73, monkeypatch):
    # the first place needs an 8-bit root enclosure
    place = rep_73.field.real_places()[0]
    monkeypatch.setattr(eulerclass, "PRECISION_CAP", 4)
    with pytest.raises(PrecisionExhausted, match="7_3: euler number at place 0 failed up to 4 bits"):
        euler_number(rep_73, place, precision_bits=1)
    monkeypatch.setattr(eulerclass, "PRECISION_CAP", 8)
    assert euler_number(rep_73, place, precision_bits=1).precision_bits == 8


# ---------------------------------------------------------------------------
# Schubert equivalence (Schubert, "Knoten mit zwei Bruecken", Math. Z. 65,
# 1956): K(p, q') is K(p, q) for q' = q^(+-1) mod p, and its mirror for
# q' = -q^(+-1) mod p
# ---------------------------------------------------------------------------

TWO_BRIDGE_ROWS = [
    "7_3", "7_5", "8_4", "8_6", "8_14", "9_3", "9_4", "9_6", "9_7", "9_8",
    "9_9", "9_10", "9_12", "9_13", "9_15", "9_18", "9_21", "9_23", "7_4",
]


def _equivalent_fractions(p, q):
    """Each q' != q in (0, p) with q' = +-q^(+-1) mod p, with the signs it
    takes: 1 for q^(+-1), -1 for -q^(+-1)."""
    inverse = pow(q, -1, p)
    out = {}
    for r, sign in ((q, 1), (inverse, 1), (p - q, -1), (p - inverse, -1)):
        if r != q:
            out.setdefault(r, set()).add(sign)
    return out


def _without_rational_roots(poly):
    for r in rational_roots(poly):
        poly, _ = poly.divmod(RatPoly([-r, 1]))
    return poly


def _bundled_fraction(name):
    """The row's (p, q), read from the bundled census JSON."""
    text = resources.files("geodesica").joinpath("data/census.json").read_text()
    row = next(r for r in json.loads(text)["knots"] if r["name"] == name)
    return row["p"], row["q"]


@pytest.mark.parametrize("name", TWO_BRIDGE_ROWS)
def test_schubert_equivalent_fractions_give_the_same_euler_numbers(census_records, name):
    record = get_knot(census_records, name)
    p, q = _bundled_fraction(name)
    euler = [r.n for r in euler_tuple(record.rep)]
    # the mirror over the row's own field negates every place's number
    mirror = build_representation(two_bridge_presentation(p, p - q), record.rep.field.minpoly)
    assert [r.n for r in euler_tuple(mirror)] == [-n for n in euler]
    # each other equivalent fraction whose Riley polynomial, rational roots
    # divided out, is certified irreducible: the same multiset over that
    # field, negated for a mirror (16 of the 19 rows have three such)
    for q2, signs in _equivalent_fractions(p, q).items():
        pres = two_bridge_presentation(p, q2)
        minpoly = _without_rational_roots(riley_polynomial(pres))
        if irreducibility_certificate(minpoly).status != "irreducible":
            continue
        got = sorted(r.n for r in euler_tuple(build_representation(pres, minpoly)))
        for sign in signs:
            assert got == sorted(sign * n for n in euler), (q2, sign)
