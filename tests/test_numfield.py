import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from geodesica import eulerclass, numfield
from geodesica.errors import DivisionByZero, PrecisionExhausted, Undecided
from geodesica.eulerclass import closed_surface_obstruction
from geodesica.numfield import (
    START_BITS,
    ComplexPlace,
    NumberField,
    RealPlace,
    is_algebraic_integer,
    minimal_polynomial,
    nf_inverse,
)
from geodesica.pipeline import ALL_CHECKS, get_knot, load_census, run
from geodesica.polycore import RatPoly, refine_interval

K74 = NumberField(RatPoly([1, 4, -4, 1]), "Q(z_74)")
K73 = NumberField(RatPoly([1, 5, -6, -4, 9, -5, 1]), "Q(z_73)")


class TestInverse:
    def test_gen_inverse(self):
        z = K74.gen()
        assert nf_inverse(z) == K74.element([-4, 4, -1])
        assert z * nf_inverse(z) == K74.one()

    def test_one(self):
        assert nf_inverse(K74.one()) == K74.one()

    def test_quadratic_element(self):
        z = K74.gen()
        e = z * z - 3 * z + 2
        expected = K74.element([Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)])
        assert nf_inverse(e) == expected

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            nf_inverse(K74.zero())


coeff3 = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    min_size=3, max_size=3,
)


@given(coeff3, coeff3, coeff3)
@settings(max_examples=50, deadline=None)
def test_field_axioms(a, b, c):
    x, y, w = K74.element(a), K74.element(b), K74.element(c)
    assert (x + y) * w == x * w + y * w
    assert (x * y) * w == x * (y * w)
    assert x + (-x) == K74.zero()
    if not x.is_zero():
        assert x * nf_inverse(x) == K74.one()


@given(coeff3)
@settings(max_examples=30, deadline=None)
def test_minimal_polynomial_annihilates(a):
    e = K74.element(a)
    m = minimal_polynomial(e)
    # evaluate m at e inside the field
    acc = K74.zero()
    for coeff in reversed(m.coeffs):
        acc = acc * e + K74.rational(coeff)
    assert acc.is_zero()


class TestMinimalPolynomial:
    def test_generator(self):
        assert minimal_polynomial(K74.gen()) == K74.minpoly

    def test_rational(self):
        assert minimal_polynomial(K74.rational(Fraction(5, 2))) == RatPoly(
            [Fraction(-5, 2), 1]
        )

    def test_half_generator(self):
        e = K74.element([0, Fraction(1, 2)])
        assert minimal_polynomial(e) == RatPoly([Fraction(1, 8), 1, -2, 1])


class TestAlgebraicIntegers:
    def test_generator(self):
        assert is_algebraic_integer(K74.gen())

    def test_inverse_of_generator(self):
        # 1/z = -z^2 + 4z - 4 is an integer combination here
        assert is_algebraic_integer(nf_inverse(K74.gen()))

    def test_half_generator_is_not(self):
        assert not is_algebraic_integer(K74.element([0, Fraction(1, 2)]))


def test_remark_conjugation_identity():
    # the structural identity behind the surface-subgroup entry pattern
    z = K74.gen()
    assert (z * z - 3 * z + 2) * (z * z - z - 1) == K74.rational(-2)


def _ends(x) -> tuple[Fraction, Fraction]:
    return Fraction(x.lo, 1 << x.s), Fraction(x.hi, 1 << x.s)


class TestEmbedding:
    def test_rational_exact(self):
        place = K74.real_places()[0]
        v = place.embed(K74.rational(Fraction(7, 3)), 64)
        lo, hi = _ends(v)
        assert lo <= Fraction(7, 3) <= hi and float(v.width()) < 1e-15

    def test_generator_in_unit_interval(self):
        place = K74.real_places()[0]
        lo, hi = _ends(place.embed(K74.gen(), 64))
        assert -1 < lo and hi < 0

    def test_homomorphism(self):
        place = K74.real_places()[0]
        z = K74.gen()
        a = place.embed(z + 2, 80)
        b = place.embed(z * z - 1, 80)
        ab = place.embed((z + 2) * (z * z - 1), 80)
        # both enclose the same real number, so they overlap
        prod = a * b
        assert not (prod < ab or prod > ab)

    def test_radius_shrinks_with_precision(self):
        place = K73.real_places()[0]
        w64 = place.embed(K73.gen(), 64).width()
        w256 = place.embed(K73.gen(), 256).width()
        assert w256 < w64

    def test_places_ordered_ascending(self):
        places = K73.real_places()
        assert len(places) == 2
        v0 = place_mid(places[0])
        v1 = place_mid(places[1])
        assert v0 < v1


class TestSign:
    def test_zero_is_decided_exactly(self):
        place = K73.real_places()[0]
        z = K73.gen()
        assert place.sign(K73.zero(), 128, 128) == (0, 128)
        assert place.sign(z * nf_inverse(z) - 1, 1, 1) == (0, 1)

    def test_enclosure_doubles_until_the_sign_certifies(self):
        # z - lo for the lower end lo of a 2^-60 root enclosure: 0 < z - lo <= 2^-60
        place = K73.real_places()[0]
        lo, _ = K73.real_root_enclosure(0, 60)
        s, bits = place.sign(K73.gen() - lo, 8, 1 << 16)
        assert s == 1 and bits >= 64 and bits & (bits - 1) == 0
        assert place.sign(K73.rational(lo) - K73.gen(), 8, 1 << 16) == (-1, bits)
        with pytest.raises(PrecisionExhausted, match=r"Q\(z_73\): sign at real place 0 .* 32 bits"):
            place.sign(K73.gen() - lo, 8, 32)

    def test_a_denominator_costs_no_doubling(self):
        # the enclosure's scale grows with e's denominator, so e / 10^60
        # certifies its sign at the bits e needs
        place = K73.real_places()[0]
        lo, _ = K73.real_root_enclosure(0, 60)
        for e in (K73.one(), -K73.one(), K73.gen() - lo):
            assert place.sign(e * Fraction(1, 10 ** 60), 8, 1 << 16) == place.sign(e, 8, 1 << 16)


def _embedded_sign(place, e) -> int:
    """The sign of e here from its embeddings alone: 0 for zero in K, else
    that of the first enclosure at 64, 128, ... bits that excludes 0."""
    if e.is_zero():
        return 0
    bits = 64
    while True:
        x = place.embed(e, bits)
        if x.lo > 0 or x.hi < 0:
            return 1 if x.lo > 0 else -1
        bits *= 2


def _random_elements(K):
    coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), max_size=6)
    return st.tuples(st.sampled_from(K.real_places()), coeffs.map(K.element))


@st.composite
def _near_a_root(draw, K):
    """z - q for a dyadic q within a few 2^-k of a real root, or that times
    m'(z), scaled by 1, -1/3 or 2^1100 + 1 (past the double range)."""
    place = draw(st.sampled_from(K.real_places()))
    k, j = draw(st.integers(30, 90)), draw(st.integers(-3, 3))
    lo, _ = K.real_root_enclosure(place.index, k + 4)
    e = K.gen() - Fraction(math.floor(lo * 2 ** k) + j, 2 ** k)
    if draw(st.booleans()):
        e = e * K.element(K.minpoly.derivative().coeffs)
    return place, e * draw(st.sampled_from([1, Fraction(-1, 3), 2 ** 1100 + 1]))


@given(data=st.data(), bits=st.sampled_from([8, 16, 64, 128, 256]))
@settings(max_examples=250, deadline=None)
def test_sign_agrees_with_the_embedding(census_records, data, bits):
    K918 = get_knot(census_records, "9_18").rep.field
    place, e = data.draw(st.one_of(
        _random_elements(K73), _near_a_root(K73), _near_a_root(K918)
    ))
    assert place.sign(e, bits, 1 << 16)[0] == _embedded_sign(place, e)


# z^3 - 4z has the dyadic roots -2, 0 and 2 (the arithmetic and the signs
# need no irreducible modulus).  e(2) = +-t for
# e = (+-t - 2b - 4c) + b z + c z^2: with b and c of 60 to 80 bits, the sign
# certifies only once the enclosure of 2 is narrower than about 2^-80.
DYADIC_ROOTS = NumberField(RatPoly([0, -4, 0, 1]), "Q(z^3 = 4z)")


@given(
    st.randoms(use_true_random=True),
    st.integers(1, 5),
    st.sampled_from([1, -1]),
    st.sampled_from([8, 128]),
)
@settings(max_examples=150, deadline=None)
def test_sign_at_an_exact_dyadic_root_is_the_known_value(rnd, t, sign, bits):
    # b and c from a seeded Random: the large integers hypothesis draws itself
    # sit next to powers of two
    b, c = (rnd.choice((1, -1)) * rnd.getrandbits(rnd.randint(60, 80)) for _ in "bc")
    e = DYADIC_ROOTS.element((sign * t - 2 * b - 4 * c, b, c))
    place = DYADIC_ROOTS.real_places()[2]
    assert place.sign(e, bits, 1 << 16)[0] == sign


def test_the_balls_decide_every_census_sign(monkeypatch):
    # the euler check over the bundled census decides its 5,570 signs on
    # balls at the places: no product is walked again on exact matrices, and
    # RealPlace.sign, the exact path, never runs
    decided, exact, fallbacks = [], [], []
    ball_sign, sign = RealPlace.ball_sign, RealPlace.sign
    product = eulerclass.PlaceLift.product

    def counted_ball_sign(x):
        s = ball_sign(x)
        decided.append(s)
        return s

    monkeypatch.setattr(RealPlace, "ball_sign", staticmethod(counted_ball_sign))
    monkeypatch.setattr(
        RealPlace, "sign", lambda self, e, *a: exact.append(e) or sign(self, e, *a)
    )
    monkeypatch.setattr(
        eulerclass.PlaceLift, "product",
        lambda self, factors: fallbacks.append(factors) or product(self, factors),
    )
    assert run(load_census(), checks=("euler",)).exit_status == 0
    assert len(decided) == 5570 and 0 not in decided
    assert (exact, fallbacks) == ([], [])


def test_the_exact_walk_alone_reproduces_every_census_euler_tuple(census_records, monkeypatch):
    # the exact walk is the soundness backstop behind the balls: with every
    # ball sign undecided, each product is walked on exact steps and every
    # sign is RealPlace.sign's, and the Euler tuples come out as before
    want = {
        r.name: [x.n for x in eulerclass.euler_tuple(r.rep)]
        for r in census_records if r.rep is not None
    }
    fallbacks = []
    product = eulerclass.PlaceLift.product

    def undecided(ball):
        raise Undecided("every ball holds 0")

    monkeypatch.setattr(RealPlace, "ball_sign", staticmethod(undecided))
    monkeypatch.setattr(
        eulerclass.PlaceLift, "product",
        lambda self, factors: fallbacks.append(factors) or product(self, factors),
    )
    report = run(load_census(), checks=("euler",))
    assert report.exit_status == 0
    got = {k["name"]: k["euler"]["euler"] for k in report.payload["knots"] if "euler" in k}
    assert got == want and len(want) == 22
    assert fallbacks


def test_every_census_complex_embedding_takes_one_rung(monkeypatch):
    # the full report realizes its clines by 94 complex embeddings, and each
    # is narrow enough at the root box of START_BITS, the ladder's first rung
    embedded, rungs = [], []
    embed, root_box = ComplexPlace.embed, ComplexPlace.root_box
    monkeypatch.setattr(
        ComplexPlace, "embed", lambda self, e: embedded.append(e) or embed(self, e)
    )
    monkeypatch.setattr(
        ComplexPlace, "root_box", lambda self, bits: rungs.append(bits) or root_box(self, bits)
    )
    assert run(load_census(), checks=ALL_CHECKS).exit_status == 0
    assert len(embedded) == 94
    assert rungs == [START_BITS] * 94


# x^5 - 2 (16 x - 1)^2: two real roots about 2^-13 apart next to 1/16, where
# |p''/2p'| is about 2^13.5, so the Newton steps lose more than their guard
# bits at 300 bits and the enclosure falls back to bisection
MIGNOTTE = RatPoly([-2, 64, -512, 0, 0, 1])


def _fallbacks(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(
        numfield, "refine_interval", lambda *a: calls.append(a) or refine_interval(*a)
    )
    return calls


def _check_enclosures(K: NumberField):
    for index, (a, b) in enumerate(K.real_isolation().real_intervals):
        for w in (8, 60, 128, 300):
            lo, hi = K.real_root_enclosure(index, w)
            assert hi - lo <= Fraction(1, 2 ** w)
            assert a <= lo < hi <= b
            assert K.minpoly.eval(lo) * K.minpoly.eval(hi) < 0


def test_newton_certifies_every_census_enclosure(census_records, monkeypatch):
    fallbacks = _fallbacks(monkeypatch)
    for minpoly in {r.rep.field.minpoly for r in census_records if r.rep is not None}:
        _check_enclosures(NumberField(minpoly))
    assert fallbacks == []


def test_close_roots_fall_back_to_bisection(monkeypatch):
    fallbacks = _fallbacks(monkeypatch)
    _check_enclosures(NumberField(MIGNOTTE, "Q(mignotte)"))
    assert Fraction(1, 2 ** 300) in {width for _, _, width in fallbacks}


def test_embedding_errors_name_the_field_and_the_place(monkeypatch):
    # a start precision above the cap runs no rung
    with pytest.raises(PrecisionExhausted, match=r"^Q\(z_73\): embedding at real place 1 "):
        K73.real_places()[1].embed(K73.gen(), 1 << 17)
    place = K73.geometric_place()
    monkeypatch.setattr(numfield, "_PRECISION_HARD_CAP", START_BITS // 2)
    with pytest.raises(
        PrecisionExhausted, match=rf"^Q\(z_73\): complex embedding at root {place.root_index} "
    ):
        place.embed(K73.gen())


def _box_bounds(box):
    return [Fraction(v, 1 << iv.s) for iv in (box.re, box.im) for v in (iv.lo, iv.hi)]


def test_complex_place_names_one_root_across_precisions(census_records):
    # a conjugate pair can sort in either order at a given precision, so the
    # index is read at the place's own precision only
    for record in census_records:
        if record.rep is None:
            continue
        K = record.rep.field
        for i in range(len(K.complex_root_set(128).roots)):
            place = ComplexPlace(K, i)
            re_lo, re_hi, im_lo, im_hi = _box_bounds(place.root_box(128))
            inner_re_lo, inner_re_hi, inner_im_lo, inner_im_hi = _box_bounds(place.root_box(256))
            assert re_lo <= inner_re_lo <= inner_re_hi <= re_hi, (record.name, i)
            assert im_lo <= inner_im_lo <= inner_im_hi <= im_hi, (record.name, i)


def test_complex_place_without_an_inner_disk_names_the_root():
    # the 64-bit disk is wider than the 128-bit one, so it cannot lie inside
    place = K74.geometric_place()
    with pytest.raises(
        PrecisionExhausted, match=rf"^Q\(z_74\): complex place at root {place.root_index}: "
    ):
        place.root_box(64)


def place_mid(place):
    return place.embed(place.field.gen(), 64).mid()


class TestSubfieldFlags:
    # the field facts of census reps, one per degree class
    def _facts(self, census_records, name, flags=None):
        return closed_surface_obstruction(get_knot(census_records, name).rep, flags or {})

    def test_cubic_certified(self, census_records):
        facts = self._facts(census_records, "7_4")
        assert facts.degree.value == 3 and facts.no_real_subfield.source != "census"
        assert facts.no_real_subfield.value is True

    def test_degree_seven_certified(self, census_records):
        facts = self._facts(census_records, "P(7,7,7)")
        assert facts.degree.value == 7 and facts.no_real_subfield.source != "census"

    def test_even_degree_needs_flag(self, census_records):
        facts = self._facts(census_records, "7_3")
        assert facts.degree.value == 6 and facts.no_real_subfield.source == "census"
        assert facts.no_real_subfield.value is None
        flagged = self._facts(
            census_records, "7_3", {"no_real_subfield": True, "no_quadratic_subfield": True}
        )
        assert flagged.no_real_subfield.value is True
        assert flagged.no_real_subfield.source == "census"

    def test_flagged_quadratic_subfield(self, census_records):
        # a flag that the field has a proper real subfield is taken as given
        facts = self._facts(census_records, "7_3", {"no_real_subfield": False})
        assert facts.no_real_subfield.value is False


# ---------------------------------------------------------------------------
# The integer kernel against the rational reference RatPoly(a)*RatPoly(b) mod m
# ---------------------------------------------------------------------------

# monic integer minimal polynomials: degree 1, the census cubic and sextic,
# and a reducible quartic (products and sums need no irreducibility)
KERNEL_FIELDS = [
    NumberField(RatPoly([-3, 1])),
    K74,
    K73,
    NumberField(RatPoly([1, 0, 2, 0, 1])),
]
IRREDUCIBLE_FIELDS = KERNEL_FIELDS[:3]


@st.composite
def field_and_vectors(draw, fields, count):
    K = draw(st.sampled_from(fields))
    # up to 2d coordinates, so inputs longer than the degree get reduced too
    coords = st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=0, max_size=2 * K.degree,
    )
    return K, [draw(coords) for _ in range(count)]


def reduced(K, p):
    return p.divmod(K.minpoly)[1]


def reference(K, coeffs):
    return reduced(K, RatPoly(coeffs))


def as_poly(e):
    return RatPoly(e.coeffs)


@given(field_and_vectors(KERNEL_FIELDS, 2))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_rational_reference(data):
    K, (a, b) = data
    x, y = K.element(a), K.element(b)
    ra, rb = reference(K, a), reference(K, b)
    assert as_poly(x) == ra
    assert as_poly(x + y) == reduced(K, ra + rb)
    assert as_poly(x - y) == reduced(K, ra - rb)
    assert as_poly(-x) == -ra
    assert as_poly(x * y) == reduced(K, ra * rb)
    assert len(x.coeffs) == K.degree
    # canonical form: positive denominator in lowest terms
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


@given(field_and_vectors(KERNEL_FIELDS, 2))
@settings(max_examples=200, deadline=None)
def test_kernel_equality_and_hash_are_structural(data):
    K, (a, b) = data
    x, y = K.element(a), K.element(b)
    same = reference(K, a) == reference(K, b)
    assert (x == y) == same
    # the same residue reached by another route is the same element
    shifted = K.element(list((RatPoly(a) + RatPoly(b) * K.minpoly).coeffs))
    assert shifted == x and hash(shifted) == hash(x)
    assert (x * y - y * x).is_zero()


@given(field_and_vectors(IRREDUCIBLE_FIELDS, 1))
@settings(max_examples=150, deadline=None)
def test_kernel_inverse_against_reference(data):
    K, (a,) = data
    x = K.element(a)
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            nf_inverse(x)
        return
    inv = nf_inverse(x)
    assert reduced(K, reference(K, a) * as_poly(inv)) == RatPoly([1])
    assert x * inv == K.one()


def _rational_inverse(e):
    """nf_inverse as it was: the extended Euclidean algorithm on RatPoly."""
    m = e.field.minpoly
    r0, r1 = RatPoly(e.coeffs), m
    s0, s1 = RatPoly.one(), RatPoly.zero()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise DivisionByZero("zero divisor")
    return e.field.element((s0 * (1 / r0.coeffs[0])).coeffs)


@given(field_and_vectors(KERNEL_FIELDS, 1))
@example((KERNEL_FIELDS[3], [[1, 0, 1]]))  # z^2 + 1 divides (z^2 + 1)^2
@example((KERNEL_FIELDS[3], [[0, 1]]))  # z is a unit there
@settings(max_examples=200, deadline=None)
def test_integer_inverse_matches_rational_euclid(data):
    K, (a,) = data
    x = K.element(a)
    if x.is_zero():
        return
    try:
        want = _rational_inverse(x)
    except DivisionByZero:
        with pytest.raises(DivisionByZero, match="zero divisor"):
            nf_inverse(x)
        return
    got = nf_inverse(x)
    assert (got.num, got.den) == (want.num, want.den)


def test_shared_constants():
    assert K73.one() is K73.one() and K73.zero() is K73.zero()
    assert K73.one() == K73.element([1]) and K73.zero() == K73.element([])


def test_coeffs_view_is_read_only():
    e = K74.element([Fraction(1, 2), 3])
    assert e.coeffs == (Fraction(1, 2), Fraction(3), Fraction(0))
    with pytest.raises(AttributeError):
        e.coeffs = (Fraction(0),) * 3


def test_integral_fast_path_agrees_with_minimal_polynomial():
    # z/2 + 1/2 has a nonintegral minimal polynomial; z^2 - 3 is in Z[z]
    z = K73.gen()
    for e, integral in ((z * z - 3, True), ((z + 1) / 2, False)):
        assert is_algebraic_integer(e) is integral
        assert all(c.denominator == 1 for c in minimal_polynomial(e).coeffs) is integral


def test_enclosure_resumed_from_coarser_matches_fresh():
    fresh, warm = NumberField(K73.minpoly), NumberField(K73.minpoly)
    for bits in (24, 72, 136):
        warm.real_root_enclosure(1, bits)
    assert warm.real_root_enclosure(1, 264) == fresh.real_root_enclosure(1, 264)


# ---------------------------------------------------------------------------
# Sparse products against a dense convolution reduced by the minpoly
# ---------------------------------------------------------------------------


def _dense_product(K, x, y):
    """Every term of x times every term of y, zeros included, reduced mod m."""
    a, b = x.coeffs, y.coeffs
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return reduced(K, RatPoly(out))


@st.composite
def sparse_element(draw, K):
    d = K.degree
    kind = draw(st.sampled_from(["zero", "unit", "power", "mostly_zero"]))
    if kind == "zero":
        return K.zero()
    if kind == "unit":
        return K.rational(draw(st.sampled_from([1, -1])))
    if kind == "power":
        # +-z^k, past the degree too so the reduction is exercised
        power = math.prod([K.gen()] * draw(st.integers(0, 2 * d)), start=K.one())
        return draw(st.sampled_from([1, -1])) * power
    terms = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )
    coords = draw(st.lists(terms, min_size=d, max_size=d))
    keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return K.element([c if k else 0 for c, k in zip(coords, keep)])


@st.composite
def sparse_pair(draw):
    K = draw(st.sampled_from(KERNEL_FIELDS))
    return K, draw(sparse_element(K)), draw(sparse_element(K))


@given(sparse_pair())
@settings(max_examples=300, deadline=None)
def test_sparse_products_match_dense_convolution(data):
    K, x, y = data
    want = _dense_product(K, x, y)
    for got in (x * y, y * x):
        assert as_poly(got) == want
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    if x == K.one():
        assert x * y == y
    if x.is_zero():
        assert (x * y).is_zero()


# ---------------------------------------------------------------------------
# The fused product kernel against two products and a sum
# ---------------------------------------------------------------------------

# one monic minimal polynomial of each degree 1..12 (products need no
# irreducibility): z^d + sum_k ((k mod 3) - 1) z^k - 2
DOT_FIELDS = [
    NumberField(RatPoly([-2] + [(k % 3) - 1 for k in range(1, d)] + [1]))
    for d in range(1, 13)
]


@st.composite
def dot_operands(draw):
    K = draw(st.sampled_from(DOT_FIELDS))
    return K, [draw(sparse_element(K)) for _ in range(4)]


@given(dot_operands())
@settings(max_examples=300, deadline=None)
def test_dot_matches_two_products_and_a_sum(data):
    K, (a, b, c, d) = data
    got, want = K.dot(a, b, c, d), a * b + c * d
    assert (got.num, got.den) == (want.num, want.den)
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    assert reduced(K, RatPoly.dot(*map(as_poly, (a, b, c, d)))) == as_poly(want)


@st.composite
def dot_vectors(draw):
    K = draw(st.sampled_from(KERNEL_FIELDS + DOT_FIELDS))
    # vectors up to twice the degree long, with small and large denominators
    coords = st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
        ),
        max_size=2 * K.degree,
    )
    return K, [draw(coords) for _ in range(4)]


@given(dot_vectors())
@settings(max_examples=300, deadline=None)
def test_field_dot_is_the_polynomial_dot_reduced_by_the_minpoly(data):
    # one shared kernel: the field's a*b + c*d is the polynomial one reduced
    # mod m, numerator for numerator and over the same denominator
    K, vectors = data
    got = K.dot(*(K.element(v) for v in vectors))
    want = RatPoly.dot(*(RatPoly(v) for v in vectors)).divmod(K.minpoly)[1]
    assert got.num == want.num + (0,) * (K.degree - len(want.num))
    assert got.den == want.den
