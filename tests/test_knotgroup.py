import json
import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

import riley_reference
from geodesica import knotgroup
from geodesica.errors import BadFraction, IdentityFailed, NotARepresentation
from geodesica.knotgroup import (
    Mat2,
    Word,
    build_representation,
    evaluate_word,
    riley_polynomial,
    two_bridge_presentation,
    verify_subgroup_identities,
)
from geodesica.numfield import NumberField
from geodesica.polycore import RatPoly

M74 = RatPoly([1, 4, -4, 1])
SEXTIC_73 = RatPoly([1, 5, -6, -4, 9, -5, 1])


class TestWord:
    def test_free_reduction(self):
        w = Word([(0, 1), (0, -1), (1, 2)])
        assert w == Word.gen(1, 2)

    def test_inverse_cancels(self):
        w = Word([(0, 2), (1, -1), (0, 3)])
        assert w * w.inverse() == Word.identity()

    def test_reversed_is_not_inverse(self):
        w = Word([(0, 1), (1, -1)])
        assert w.reversed_letters() == Word([(1, -1), (0, 1)])

    def test_parse_and_print(self):
        w = Word.from_string("a b^-1 a^2", ("a", "b"))
        assert w.letters == ((0, 1), (1, -1), (0, 2))
        assert w.to_string(("a", "b")) == "a b^-1 a^2"


words_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-2, 2).filter(bool)),
    min_size=0, max_size=6,
).map(Word)

_REP_CACHE = {}


def _rep74():
    if "rep" not in _REP_CACHE:
        _REP_CACHE["rep"] = build_representation(
            two_bridge_presentation(15, 11, "7_4"), M74
        )
    return _REP_CACHE["rep"]


@given(words_strategy, words_strategy)
@settings(max_examples=40, deadline=None)
def test_evaluate_word_homomorphism(w1, w2):
    rep = _rep74()
    assert evaluate_word(rep, w1 * w2) == (
        evaluate_word(rep, w1) * evaluate_word(rep, w2)
    )


class TestTwoBridge:
    def test_15_11_sign_sequence(self):
        pres = two_bridge_presentation(15, 11)
        w = pres.w
        # + - + + - + - - + - + + - +
        assert w.to_string(("a", "b")) == (
            "b a^-1 b a b^-1 a b^-1 a^-1 b a^-1 b a b^-1 a"
        )
        assert pres.longitude == w * w.reversed_letters() * Word.gen(0, -4)

    def test_13_9(self):
        pres = two_bridge_presentation(13, 9)
        w = pres.w
        assert w.to_string(("a", "b")) == "b a^-1 b a b^-1 a b a^-1 b a b^-1 a"
        assert pres.longitude == w * w.reversed_letters() * Word.gen(0, -8)

    def test_trefoil(self):
        pres = two_bridge_presentation(3, 1)
        assert pres.w == Word([(1, 1), (0, 1)])
        # relator a(ba)b^-1(ba)^-1 is equivalent to aba = bab
        assert pres.relators[0] == Word([(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)])

    @pytest.mark.parametrize("p,q", [(4, 1), (15, 3), (9, 11), (7, 0)])
    def test_bad_fractions(self, p, q):
        with pytest.raises(BadFraction):
            two_bridge_presentation(p, q)

    def test_even_q_builds_the_odd_representative(self):
        # 13/4 is built from 13/-9: every sign of 13/9 flipped
        assert two_bridge_presentation(13, 4).w == Word(
            [(g, -e) for g, e in two_bridge_presentation(13, 9).w.letters]
        )

    @given(st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_longitude_abelianization_vanishes(self, seed):
        # enumerate odd p coprime q pairs from the seed
        import math

        p = 2 * (seed % 20) + 3
        offset = seed % (p - 1)
        q = next(
            q for d in range(p - 1)
            if math.gcd(p, (q := 1 + (offset + d) % (p - 1))) == 1
        )
        pres = two_bridge_presentation(p, q)
        sums = pres.longitude.exponent_sums(2)
        assert sum(sums) == 0


class TestRiley:
    def test_15_11_factors(self):
        r = riley_polynomial(two_bridge_presentation(15, 11))
        assert r.degree == 7
        q, rem = r.divmod(M74)
        assert rem.is_zero()
        assert q.degree == 4

    def test_13_9_divisible_by_table_sextic(self):
        r = riley_polynomial(two_bridge_presentation(13, 9))
        assert r.divmod(SEXTIC_73)[1].is_zero()

    def test_trefoil(self):
        assert riley_polynomial(two_bridge_presentation(3, 1)) == RatPoly([1, 1])

    def test_even_q_riley_degree(self):
        # an even q once gave the constant 1 (5/2, 7/2, 7/4, 9/2, 13/4)
        for p in range(3, 32, 2):
            for q in range(2, p, 2):
                if math.gcd(p, q) == 1:
                    pres = two_bridge_presentation(p, q)
                    assert riley_polynomial(pres).degree == (p - 1) // 2, (p, q)

    def test_self_inverse_fraction_pairs(self):
        # q^2 = 1 mod p for the bundled fractions 15/11 and 45/19: the
        # equivalence q q' = 1 mod p pairs each with itself
        for p, q in ((15, 11), (45, 19)):
            assert (q * q) % p == 1
            r1 = riley_polynomial(two_bridge_presentation(p, q))
            r2 = riley_polynomial(two_bridge_presentation(p, q))
            assert r1 == r2

    def test_inverse_fraction_normalization_differs(self):
        # 9 * 3 = 1 mod 13, but the two normal forms give genuinely different
        # Riley normalizations; recorded as an observation, not an identity
        # (root selection is pinned per knot in the census data instead)
        r99 = riley_polynomial(two_bridge_presentation(13, 9))
        r33 = riley_polynomial(two_bridge_presentation(13, 3))
        assert r99.degree == r33.degree == 6
        assert r99 != r33

    def test_sympy_oracle_15_11(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        A = sympy.Matrix([[1, 1], [0, 1]])
        B = sympy.Matrix([[1, 0], [z, 1]])
        pres = two_bridge_presentation(15, 11)
        W = sympy.eye(2)
        for g, e in pres.w.letters:
            W = W * ((A if g == 0 else B) ** e)
        D = sympy.expand(A * W - W * B)
        g = sympy.gcd(sympy.gcd(D[0, 0], D[0, 1]), sympy.gcd(D[1, 0], D[1, 1]))
        ours = riley_polynomial(pres)
        theirs = RatPoly(
            [Fraction(int(c)) for c in reversed(sympy.Poly(g, z).all_coeffs())]
        ).monic()
        assert ours.monic() == theirs


class TestRepresentation:
    def test_74_longitude_matrix(self, rep_74):
        K = rep_74.field
        z = K.gen()
        L = rep_74.longitude_matrix()
        assert L.a == K.rational(-1) and L.d == K.rational(-1)
        assert L.c == K.zero()
        assert L.b == 2 * (2 * z * z - 6 * z + 5)
        assert rep_74.longitude_translation() == -2 * (2 * z * z - 6 * z + 5)

    def test_identity_word(self, rep_74):
        assert evaluate_word(rep_74, Word.identity()) == Mat2.identity(rep_74.field)

    def test_wrong_minpoly_rejected(self):
        pres = two_bridge_presentation(15, 11)
        with pytest.raises(NotARepresentation):
            build_representation(pres, RatPoly([-1, 0, 0, 1]))

    def test_73_representation_verifies(self, rep_73):
        for relator in rep_73.presentation.relators:
            assert evaluate_word(rep_73, relator).is_proj_identity()
        mer = evaluate_word(rep_73, rep_73.presentation.meridian)
        assert mer.trace() == rep_73.field.rational(2)

    def test_dets_exact(self, rep_73):
        for img in rep_73.images:
            assert img.det() == rep_73.field.one()

    def test_inverse_is_the_adjugate_of_a_det_one_matrix(self, rep_73):
        K = rep_73.field
        for img in rep_73.images:
            assert img.inverse() == img.adjugate()
            assert img * img.inverse() == Mat2.identity(K)

    def test_inverse_rejects_det_other_than_one(self, rep_74):
        K = rep_74.field
        with pytest.raises(NotARepresentation):
            Mat2(K.rational(2), K.zero(), K.zero(), K.one()).inverse()

    def test_longitude_computed_once_per_representation(self):
        rep = build_representation(two_bridge_presentation(13, 9), SEXTIC_73)
        L, tau = rep.longitude_matrix(), rep.longitude_translation()
        assert rep.longitude_matrix() is L
        assert rep.longitude_translation() is tau
        assert L == evaluate_word(rep, rep.presentation.longitude)


class TestSubgroupIdentities:
    def test_74_passes(self, rep_74):
        report = verify_subgroup_identities(rep_74)
        assert all(report.values())
        assert len(report) == 5

    def test_broken_rep_fails(self):
        # verify the checker actually bites: use the right field, wrong words
        pres = two_bridge_presentation(15, 11, "7_4")
        rep = build_representation(pres, M74)
        # tamper: swap generator images (still a representation of the mirror)
        tampered = Mat2(rep.images[1].a, rep.images[1].b, rep.images[1].c, rep.images[1].d)
        bad = type(rep)(
            presentation=pres,
            field=rep.field,
            images=(tampered, rep.images[0]),
        )
        with pytest.raises((IdentityFailed, NotARepresentation)):
            verify_subgroup_identities(bad)


class TestAbelianization:
    def test_74_longitude(self):
        pres = two_bridge_presentation(15, 11)
        assert pres.longitude.exponent_sums(2) == (-2, 2)

    def test_empty(self):
        assert Word.identity().exponent_sums(3) == (0, 0, 0)

    def test_w_15_11(self):
        pres = two_bridge_presentation(15, 11)
        assert pres.w.exponent_sums(2) == (1, 1)


def test_polymat_pow_adjugate():
    z = RatPoly.x()
    m = Mat2(RatPoly.one(), RatPoly.zero(), z, RatPoly.one())
    assert (m ** -1).c == -z
    assert (m ** 3).c == 3 * z


# ---------------------------------------------------------------------------
# Riley divisibility decided in Q[z]/(m) against riley_polynomial % m
# ---------------------------------------------------------------------------


def _bundled_two_bridge():
    rows = json.loads(resources.files("geodesica").joinpath("data/census.json").read_text())
    return [
        (row["p"], row["q"], RatPoly(Fraction(s) for s in row["minpoly"]))
        for row in rows["knots"] if row["kind"] == "two_bridge"
    ]


BUNDLED_TWO_BRIDGE = _bundled_two_bridge()
BUNDLED_MINPOLYS = [m for _, _, m in BUNDLED_TWO_BRIDGE]


def _decided_in_field(pres, m) -> bool:
    try:
        build_representation(pres, m)
    except NotARepresentation as exc:
        assert "minpoly does not divide the Riley polynomial" in str(exc)
        return False
    return True


@st.composite
def fraction_and_candidate(draw):
    if draw(st.booleans()):
        p, q, bundled = draw(st.sampled_from(BUNDLED_TWO_BRIDGE))
    else:
        p = draw(st.sampled_from(range(3, 32, 2)))
        q = draw(st.sampled_from([q for q in range(1, p) if math.gcd(p, q) == 1]))
        bundled = draw(st.sampled_from(BUNDLED_MINPOLYS))
    pres = two_bridge_presentation(p, q)
    riley = riley_polynomial(pres)
    kind = draw(st.sampled_from(["riley", "bundled", "riley_times_linear", "square", "random"]))
    if kind == "riley":
        m = riley
    elif kind == "bundled":
        m = bundled
    elif kind == "riley_times_linear":
        m = riley * RatPoly([draw(st.integers(-3, 3)), 1])
    elif kind == "square":
        base = draw(st.sampled_from([riley, bundled]))
        m = base * base
    else:
        low = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
        m = RatPoly(low + [1])
    # a constant Riley polynomial (3/2 is one) leaves no field to decide in
    assume(m.degree >= 1)
    return pres, riley, m, kind


@given(fraction_and_candidate())
@settings(max_examples=120, deadline=None)
def test_riley_decision_in_field_matches_riley_polynomial(data):
    pres, riley, m, kind = data
    decided = _decided_in_field(pres, m)
    assert decided == riley.divmod(m)[1].is_zero()
    if kind == "square":
        assert not decided
    if kind == "riley":
        assert decided


def test_bundled_minpolys_divide_their_riley_polynomials():
    for p, q, m in BUNDLED_TWO_BRIDGE:
        pres = two_bridge_presentation(p, q)
        assert riley_polynomial(pres).divmod(m)[1].is_zero()
        assert _decided_in_field(pres, m)
        assert not _decided_in_field(pres, m * m)


def test_repeated_factor_refused_where_the_relation_holds(monkeypatch):
    # the gcd of the entries of A.W - W.B is square-free for every two-bridge
    # fraction with p <= 31, so there a square m never satisfies A.W == W.B;
    # stand in a W that satisfies it in every ring, (1 1; z 0), to show that
    # the square-free test refuses m = f^2 on its own
    monkeypatch.setattr(knotgroup, "_riley_word", lambda w: ([1], [1], [0, 1], [0]))
    with pytest.raises(NotARepresentation, match="does not divide the Riley polynomial"):
        build_representation(two_bridge_presentation(15, 11), M74 * M74)


# ---------------------------------------------------------------------------
# The shear path against the matrix products over Q[z] it replaced
# ---------------------------------------------------------------------------


FRACTIONS_61 = [(p, q) for p in range(3, 62, 2) for q in range(1, p) if math.gcd(p, q) == 1]


@given(st.sampled_from(FRACTIONS_61))
@settings(max_examples=80, deadline=None)
def test_shear_riley_word_and_polynomial_match_the_reference(fraction):
    pres = two_bridge_presentation(*fraction)
    reference = riley_reference.riley_word(pres.w)
    assert tuple(map(RatPoly, knotgroup._riley_word(pres.w))) == reference.entries()
    assert riley_polynomial(pres) == riley_reference.riley_polynomial(pres)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_shears_match_the_reference_on_any_word_in_a_and_b(letters):
    w = Word(letters)
    reference = riley_reference.riley_word(w)
    assert tuple(map(RatPoly, knotgroup._riley_word(w))) == reference.entries()


def test_census_riley_words_are_the_reference_reduced_into_their_fields(census_records):
    reps = [r.rep for r in census_records if r.kind == "two_bridge"]
    assert len(reps) == 19
    for rep in reps:
        w, K = rep.presentation.w, rep.field
        reference = riley_reference.riley_word(w)
        assert rep.word_table[w] == Mat2(*(K.element(x.coeffs) for x in reference.entries()))


# ---------------------------------------------------------------------------
# The word table: factor products against the flattened words
# ---------------------------------------------------------------------------


def _assert_factors_match_flat_words(rep):
    pres = rep.presentation
    if pres.w is not None:
        # the Riley build enters W, its reverse v and the longitude's a^-2e
        # before the longitude is evaluated
        assert {w for w, _ in pres.longitude_factors} <= rep.word_table.keys()
    for r, factors in zip(pres.relators, pres.relator_factors):
        assert rep.factor_product(factors) == evaluate_word(rep, r)
    assert rep.longitude_matrix() == evaluate_word(rep, pres.longitude)
    for w, m in rep.word_table.items():
        assert m == evaluate_word(rep, w)


def test_word_table_matches_flat_words_on_the_bundled_census(census_records):
    reps = [r.rep for r in census_records if r.rep is not None]
    assert len(reps) == 22
    for rep in reps:
        _assert_factors_match_flat_words(rep)
    two_bridge = [r.rep for r in census_records if r.kind == "two_bridge"]
    for rep in two_bridge:
        # the W of the Riley decision is the table's entry for w
        assert rep.presentation.w in rep.word_table
        assert len(rep.presentation.relator_factors[0]) == 4


@given(st.sampled_from([
    (p, q) for p in range(3, 32, 2) for q in range(1, p) if math.gcd(p, q) == 1
]), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_word_table_matches_flat_words_on_random_fractions(fraction, c):
    pres = two_bridge_presentation(*fraction)
    riley = riley_polynomial(pres)
    # Q[z]/(riley) is a product of fields; the words are evaluated all the same
    _assert_factors_match_flat_words(build_representation(pres, riley))
    # z - c divides the Riley polynomial exactly when c is a root of it
    linear = RatPoly([-c, 1])
    if riley.eval(Fraction(c)) == 0:
        _assert_factors_match_flat_words(build_representation(pres, linear))
    else:
        with pytest.raises(NotARepresentation, match="does not divide the Riley polynomial"):
            build_representation(pres, linear)


# X -> J X^T J, J = (0 1; 1 0), reverses products and fixes the Riley images
# A = (1 1; 0 1) and B = (1 0; z 1), so a word spelled backwards evaluates to
# its matrix with the diagonal swapped: (a, b; c, d) -> (d, b; c, a)


def _diagonal_swap(M: Mat2) -> Mat2:
    return Mat2(M.d, M.b, M.c, M.a)


def test_longitude_v_is_w_with_its_diagonal_swapped_on_the_census(census_records):
    reps = [r.rep for r in census_records if r.kind == "two_bridge"]
    assert len(reps) == 19
    for rep in reps:
        w = rep.presentation.w
        v = w.reversed_letters()
        assert rep.word_table[v] == _diagonal_swap(rep.word_table[w]) == evaluate_word(rep, v)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_a_reversed_word_in_a_and_b_swaps_the_diagonal(letters):
    z = RatPoly.x()
    images = (
        Mat2(RatPoly.one(), RatPoly.one(), RatPoly.zero(), RatPoly.one()),
        Mat2(RatPoly.one(), RatPoly.zero(), z, RatPoly.one()),
    )
    w = Word(letters)
    assert evaluate_word(images, w.reversed_letters()) == _diagonal_swap(evaluate_word(images, w))


def test_factors_must_spell_the_words():
    pres = two_bridge_presentation(5, 3)
    with pytest.raises(ValueError, match="factors do not spell"):
        type(pres)(
            name="bad", generator_names=pres.generator_names,
            relators=pres.relators, meridian=pres.meridian,
            longitude=pres.longitude,
            relator_factors=(((pres.w, 1),),),
        )


def test_mat2_product_over_a_field_reduces_each_entry_once(monkeypatch):
    K = NumberField(M74)
    z = K.gen()
    x = Mat2(z / 2, 3 * z * z - 1, K.rational(Fraction(-5, 3)), z + 7)
    y = Mat2(z * z / 4, K.zero(), -z, K.rational(Fraction(2, 9)))
    want = [p * q + r * s for (p, r), (q, s) in (
        ((x.a, x.b), (y.a, y.c)), ((x.a, x.b), (y.b, y.d)),
        ((x.c, x.d), (y.a, y.c)), ((x.c, x.d), (y.b, y.d)),
    )]
    calls = []
    make = NumberField._make

    def counted(self, num, den):
        calls.append(den)
        return make(self, num, den)

    monkeypatch.setattr(NumberField, "_make", counted)
    got = x * y
    assert len(calls) == 4
    assert list(got.entries()) == want


# ---------------------------------------------------------------------------
# The relator sign the Riley decision gives
# ---------------------------------------------------------------------------


IDENTITY_OVER_QZ = (RatPoly.one(), RatPoly.zero(), RatPoly.zero(), RatPoly.one())


def _reference_relator(w: Word, m: RatPoly) -> tuple:
    """a w b^-1 w^-1 by the reference products over Q[z], each entry
    reduced mod m."""
    W = riley_reference.riley_word(w)
    R = riley_reference.A * W * riley_reference.B.adjugate() * W.adjugate()
    return tuple(x.divmod(m)[1] for x in R.entries())


def test_census_two_bridge_relators_are_the_identity(census_records):
    reps = [r.rep for r in census_records if r.kind == "two_bridge"]
    assert len(reps) == 19
    for rep in reps:
        assert rep.relator_signs == (1,)
        assert _reference_relator(rep.presentation.w, rep.field.minpoly) == IDENTITY_OVER_QZ


@given(st.sampled_from(FRACTIONS_61))
@settings(max_examples=40, deadline=None)
def test_the_riley_decision_gives_the_relator_sign(fraction):
    pres = two_bridge_presentation(*fraction)
    m = riley_polynomial(pres)
    assume(m.degree >= 1)
    rep = build_representation(pres, m)
    assert rep.relator_signs == (1,)
    assert _reference_relator(pres.w, m) == IDENTITY_OVER_QZ
    # multiplied out in K when no sign is given, the relator agrees
    assert type(rep)(presentation=pres, field=rep.field, images=rep.images).relator_signs == (1,)


def test_verify_multiplies_out_only_the_relators_without_a_sign(monkeypatch):
    pres = two_bridge_presentation(15, 11)
    (r,), (factors,) = pres.relators, pres.relator_factors
    # the relator again as one factor: its sign is not the Riley decision's
    doubled = type(pres)(
        name="doubled", generator_names=pres.generator_names, relators=(r, r),
        meridian=pres.meridian, longitude=pres.longitude,
        relator_factors=(factors, ((r, 1),)), longitude_factors=pres.longitude_factors,
        w=pres.w,
    )
    products = []
    factor_product = knotgroup.MatrixRep.factor_product

    def counted(self, fs):
        products.append(fs)
        return factor_product(self, fs)

    monkeypatch.setattr(knotgroup.MatrixRep, "factor_product", counted)
    rep = build_representation(doubled, M74)
    assert rep.relator_signs == (1, 1)
    assert products == [((r, 1),)]
