"""The Euler walk on integer balls at the real places: the balls enclose the
exact matrices, every sign a ball decides is the exact sign, and a relator
closed on its last factor has the central defect of its full exact product."""

import functools
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from geodesica import eulerclass
from geodesica.errors import Undecided
from geodesica.knotgroup import Mat2, Word, evaluate_word
from geodesica.numfield import START_BITS, NumberField
from geodesica.pipeline import get_knot
from geodesica.polycore import RatPoly

# two two-bridge knots with two real places each, and a three-generator pretzel
BALL_PLACES = [("7_3", 0), ("7_3", 1), ("9_18", 0), ("9_18", 1), ("P(5,5,5)", 0)]


def _relator_defect(lift, M):
    """Central defect, in units of pi, of a lift over M = +-I: omega is
    2 pi m at sigma M = I and pi + 2 pi m at sigma M = -I."""
    return 2 * lift.m + ((lift.sigma > 0) != (M.a == 1))


def _inside(place, ball, scale, e) -> bool:
    """Whether the embedding of e here lies in the real ball (m, r) over
    2^scale."""
    m, r = ball
    x = place.embed(e, 2 * START_BITS)
    return (m - r) << x.s <= x.lo << scale and x.hi << scale <= (m + r) << x.s


def _same_sign(place, ball, e) -> bool:
    """Whether the ball's sign, when it decides one, is e's exact sign."""
    try:
        s = place.ball_sign(ball)
    except Undecided:
        return True
    return s == place.sign(e, START_BITS, 1 << 16)[0]


def _gauss(M):
    return M.a + M.d, M.b - M.c


def _words(generator_count):
    letter = st.tuples(st.integers(0, generator_count - 1), st.integers(-3, 3).filter(bool))
    return st.lists(letter, min_size=1, max_size=8).map(Word)


def _factors(generator_count):
    """One to three factor words, each taken as itself or as its inverse."""
    factor = st.tuples(_words(generator_count), st.sampled_from((1, -1)))
    return st.lists(factor, min_size=1, max_size=3).map(tuple)


def test_the_ball_places_are_every_real_place_of_their_knots(census_records):
    for name in {name for name, _ in BALL_PLACES}:
        places = get_knot(census_records, name).rep.field.real_places()
        assert [(name, p.index) for p in places] == [bp for bp in BALL_PLACES if bp[0] == name]


@pytest.mark.parametrize("name, index", BALL_PLACES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_ball_products_and_pairs_enclose_the_exact_entries(census_records, name, index, data):
    rep = get_knot(census_records, name).rep
    place = rep.field.real_places()[index]
    u = data.draw(_words(rep.presentation.generator_count), label="u")
    v = data.draw(_words(rep.presentation.generator_count), label="v")
    lifting = eulerclass.lift_representation(rep, place)
    (_, P), (_, G) = lifting.word(u), lifting.word(v)
    U, V = evaluate_word(rep.images, u), evaluate_word(rep.images, v)
    s = P.s
    for ball, M in ((P, U), (G, V), (P * G, U * V), (P.adjugate(), U.adjugate())):
        for m, e in zip((ball.a, ball.b, ball.c, ball.d), M.entries()):
            assert _inside(place, (m, ball.r), s, e)
        for z, e in zip(ball.alpha2(), _gauss(M)):
            assert _inside(place, z, s, e) and _same_sign(place, z, e)
    (x1, y1), (x2, y2) = _gauss(U), _gauss(V)
    for z, e in zip(P.pair(G), (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1)):
        assert _inside(place, z, 2 * s, e) and _same_sign(place, z, e)


@pytest.mark.parametrize("name, index", BALL_PLACES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_the_ball_walk_and_the_exact_walk_agree(census_records, name, index, data):
    rep = get_knot(census_records, name).rep
    place = rep.field.real_places()[index]
    factors = data.draw(_factors(rep.presentation.generator_count), label="factors")
    balls = eulerclass.lift_representation(rep, place)
    # a product whose balls leave a sign undecided is the exact walk itself,
    # so it compares nothing
    balls.product = lambda factors: assume(False)
    lift = balls.lift(factors)[0]
    assert lift == eulerclass.lift_representation(rep, place).product(factors)[0]


def test_closed_relators_have_the_defects_of_their_full_products(census_records):
    pairs = 0
    for rep in (r.rep for r in census_records if r.rep is not None):
        pres = rep.presentation
        for place in rep.field.real_places():
            lifting = eulerclass.lift_representation(rep, place)
            for factors, sign in zip(pres.relator_factors, rep.relator_signs):
                full = _relator_defect(*lifting.product(factors))
                assert lifting.relator_defect(factors, sign) == full
                pairs += 1
    assert pairs == 37


def test_a_relator_whose_two_lifts_differ_in_sign_closes_on_the_gap():
    # G = (0, -1; 1, 0) turns by pi/2 and G^2 = -I.  Closing g^2 compares
    # the lift of g with the inverse lift of g: sign * sigma_x = -sigma_y,
    # the branch no census relator takes, at +1 for g^n and -1 for g^-n
    K = NumberField(RatPoly([-2, 0, 1]), "Q(sqrt 2)")
    branches = set()
    for entries in ((0, -1, 1, 0), (1, 1, -1, 0), (0, -1, 1, -1), (1, -1, 1, 0)):
        G = Mat2(*(K.rational(x) for x in entries))
        rep = SimpleNamespace(
            images=(G,), field=K, word_matrix=functools.partial(evaluate_word, (G,))
        )
        g = Word.gen(0)
        for place in K.real_places():
            lifting = eulerclass.PlaceLift(rep, place, START_BITS)
            for n in range(1, 13):
                M = G ** n
                if not M.is_proj_identity():
                    continue
                sign = 1 if M.a == K.one() else -1
                for e in (1, -1):
                    for factors in (
                        ((Word.gen(0, e * n), 1),),
                        ((Word.gen(0, e), 1), (Word.gen(0, e * (n - 1)), 1)),
                        ((Word.gen(0, -e * (n - 1)), -1), (Word.gen(0, -e), -1)),
                    ):
                        closed = lifting.relator_defect(factors, sign)
                        assert closed == _relator_defect(*lifting.product(factors))
                    x = lifting.word(Word.gen(0, e * (n - 1)))[0]
                    y = lifting.factor(g, -e)[0]
                    if x.sigma * sign != y.sigma:
                        branches.add(closed - 2 * (x.m - y.m))
    assert branches == {1, -1}


# every two-bridge row of the census: phi(X) = J X^T J fixes A and B
TWO_BRIDGE = [
    "7_3", "7_5", "8_4", "8_6", "8_14", "9_3", "9_4", "9_6", "9_7", "9_8",
    "9_9", "9_10", "9_12", "9_13", "9_15", "9_18", "9_21", "9_23", "7_4",
]


def test_two_bridge_is_every_two_bridge_row(census_records):
    assert sorted(TWO_BRIDGE) == sorted(r.name for r in census_records if r.kind == "two_bridge")


@pytest.mark.parametrize("name", TWO_BRIDGE)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_a_backward_word_takes_the_lift_of_the_word(census_records, name, data):
    rep = get_knot(census_records, name).rep
    assert eulerclass.fixed_by_phi(rep.images)
    w = data.draw(_words(2), label="w")
    back = w.reversed_letters()
    W, V = evaluate_word(rep.images, w), evaluate_word(rep.images, back)
    assert V == Mat2(W.d, W.b, W.c, W.a)
    for place in rep.field.real_places():
        lifting = eulerclass.lift_representation(rep, place)
        assert lifting.reversible
        lifting.word(w)
        # back is w, or its lift is w's: it is not walked
        lifting.lift = lambda factors: pytest.fail(f"{back!r} walked at place {place.index}")
        lift, ball = lifting.word(back)
        walking = eulerclass.lift_representation(rep, place)
        walking.reversible = False
        assert lift == walking.word(back)[0]
        for m, e in zip((ball.a, ball.b, ball.c, ball.d), V.entries()):
            assert _inside(place, (m, ball.r), ball.s, e)


def test_a_pretzel_place_never_takes_the_shortcut(census_records):
    # the pretzel image s3 has a != d, so phi does not fix the images
    s = [Word.gen(g) for g in range(3)]
    w = s[0] * s[1] ** -1 * s[2] * s[2]
    places = 0
    for name in ("P(3,3,3)", "P(5,5,5)", "P(7,7,7)"):
        rep = get_knot(census_records, name).rep
        assert not eulerclass.fixed_by_phi(rep.images)
        for place in rep.field.real_places():
            lifting = eulerclass.lift_representation(rep, place)
            assert not lifting.reversible
            lifting.word(w)
            walked, lift = [], lifting.lift
            lifting.lift = lambda factors: walked.append(factors) or lift(factors)
            lifting.word(w.reversed_letters())
            assert walked
            places += 1
    assert places == 3
