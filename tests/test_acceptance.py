"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime.  Run with `pytest tests/test_acceptance.py -s` to see
the lines; any assertion failure marks the criterion red.
"""

import random
import time
from fractions import Fraction

import pytest

from geodesica.eulerclass import euler_number, euler_tuple, closed_surface_obstruction
from geodesica.knotgroup import Word, evaluate_word, verify_subgroup_identities
from geodesica.mobius import excludes_surface, uniqueness_system
from geodesica.numfield import nf_inverse
from geodesica.pipeline import get_knot, load_census, run
from geodesica.polycore import RatPoly
from geodesica.pretzel import (
    lambda_closed_formula,
    lambda_poly,
    pretzel_holonomy,
    psi_root_census,
    relator_factorization_check,
    tangency_chain,
)
from geodesica.slopes import Slope, slope_set_for_knot, solve_system, build_system

TABLE_ANCHORS = {
    "7_3": (3, 1),
    "7_5": (3, 1),
    "8_4": (1,),
    "8_6": (-1,),
    "8_14": (-1,),
    "9_3": (5, 3, 1),
    "9_4": (3, 1),
    "9_6": (5, 1),
    "9_7": (3, 1),
    "9_8": (1,),
    "9_9": (5, 3, 1),
    "9_10": (3, 1),
    "9_12": (1,),
    "9_13": (3, 1),
    "9_15": (1,),
    "9_18": (3, 1),
    "9_21": (1,),
    "9_23": (1,),
}


def _report(num: int, elapsed: float, detail: str):
    print(f"ACCEPTANCE {num:2d}: PASS ({elapsed:6.2f}s) {detail}")


def test_criterion_01_pretzel_recursions():
    t0 = time.perf_counter()
    assert lambda_poly(0) == RatPoly([-1, 1])
    assert lambda_poly(1) == RatPoly([-1, 3, -1, 1])
    for k in range(11):
        lam = lambda_poly(k)
        assert lam.degree == 2 * k + 1
        assert lam == lambda_closed_formula(k)
        if k >= 2:
            assert lam == RatPoly([2, 0, 1]) * lambda_poly(k - 1) - lambda_poly(k - 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "lambda_k recursion/closed form exact for k = 0..10")


def test_criterion_02_pretzel_relators():
    t0 = time.perf_counter()
    for k in range(1, 6):
        pretzel_holonomy(k)  # constructor verifies both relators mod lambda_k
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, elapsed, "both pretzel relators exact mod lambda_k for k = 1..5")


def test_criterion_03_root_census():
    t0 = time.perf_counter()
    for k in range(1, 6):
        census = psi_root_census(k)
        assert census.real_count == 2
        assert census.per_quadrant == (k, k, k, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, elapsed, "psi_k census: 2 real, k per quadrant, |x| > 1 on the right")


def test_criterion_04_slope_sets(census_records):
    t0 = time.perf_counter()
    knot_74 = get_knot(census_records, "7_4")
    res = slope_set_for_knot(knot_74.rep, knot_74.slope_cases)
    assert [str(s) for s in res["slopes"]] == ["-2", "2"]
    assert res["exhaustive"]
    for name in ("P(3,3,3)", "P(5,5,5)", "P(7,7,7)"):
        rec = get_knot(census_records, name)
        res_p = slope_set_for_knot(rec.rep, rec.slope_cases)
        assert [str(s) for s in res_p["slopes"]] == ["0"]
        assert res_p["exhaustive"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0

    # brute-force oracle over |p|,|q|,|m|,|n| <= 20 for the free systems
    numpy = pytest.importorskip("numpy")
    K = knot_74.rep.field
    tau = knot_74.rep.longitude_translation()
    for weight_coeffs in ([-1, -1, 1], [0, -2, 1]):
        system = build_system(tau, K.element(weight_coeffs))
        got = set(solve_system(system).pairs)
        assert got == _brute_force(numpy, system.equations)
    pret = get_knot(census_records, "P(3,3,3)")
    system = build_system(pret.rep.longitude_translation(), pret.rep.field.gen())
    assert set(solve_system(system).pairs) == _brute_force(numpy, system.equations)
    _report(4, elapsed, "slope sets {-2, 2} and {0}; brute-force oracle agrees")


def _brute_force(np, equations, bound=20):
    rng = np.arange(-bound, bound + 1)
    P, Q, M, N = np.meshgrid(rng, rng, rng, rng, indexing="ij", sparse=True)
    ok = np.ones(np.broadcast_shapes(P.shape, Q.shape, M.shape, N.shape), dtype=bool)
    for c1, c2, c3, c4 in equations:
        ok &= (c1 * M * P + c2 * M * Q + c3 * N * P + c4 * N * Q) == 0
    ok &= ~((P == 0) & (Q == 0))
    ok &= ~((M == 0) & (N == 0))
    pairs = set()
    for i, j, k, l in np.argwhere(ok):
        pairs.add((Slope.of(int(rng[i]), int(rng[j])), Slope.of(int(rng[k]), int(rng[l]))))
    return pairs


def test_criterion_05_74_subgroup_identities(rep_74):
    t0 = time.perf_counter()
    report = verify_subgroup_identities(rep_74)
    assert report == {
        "a = x^2 ell": True,
        "b = w y^-1 x y^-1 x y^-1": True,
        "c = x^-1 w x y^-1 x w^-1 x^2 w^-1 x": True,
        "d = a^-1 c b^-1 c^-1 b": True,
        "w d w^-1 = x^-2 ell": True,
    }
    _report(5, time.perf_counter() - t0, "all five 7_4 subgroup matrix identities exact")


def test_criterion_06_tangency_chain():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        report = tangency_chain(pretzel_holonomy(k))
        assert report["g2k_fixed_point"]
        assert report["sigma_squared"]
        assert report["sigma_conjugation"]
        assert report["loop_traces_nonintegral"]
    _report(6, time.perf_counter() - t0,
            "g_2k(0) = (z-1)/(2z), sigma^2 = -I, conjugation identities, k = 1..3")


def test_criterion_07_euler_table(census_records):
    t0 = time.perf_counter()
    failures = []
    for name, expected in TABLE_ANCHORS.items():
        rec = get_knot(census_records, name)
        results = euler_tuple(rec.rep)
        got = tuple(r.n for r in results)
        if got != expected:
            failures.append((name, got, expected))
        for r in results:
            assert r.precision_bits <= 1024
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 300.0
    _report(7, elapsed, f"all {len(TABLE_ANCHORS)} two-bridge Euler tuples match the table")


def test_criterion_08_milnor_wood(census_records):
    t0 = time.perf_counter()
    for rec in census_records:
        if rec.rep is None or rec.hypotheses.genus.value is None:
            continue
        bound = 2 * rec.hypotheses.genus.value - 1
        for r in euler_tuple(rec.rep):
            assert abs(r.n) <= bound, (rec.name, r.n, bound)
    knot_74 = get_knot(census_records, "7_4")
    values = tuple(abs(r.n) for r in euler_tuple(knot_74.rep))
    assert values == (1,)
    _report(8, time.perf_counter() - t0,
            "|e| <= 2g-1 across the census; 7_4 gives |e| = 1 exactly")


def test_criterion_09_lift_independence(rep_73, rep_74):
    t0 = time.perf_counter()
    rng = random.Random(20_26)
    for rep in (rep_73, rep_74):
        for place in rep.field.real_places():
            base = euler_number(rep, place, 128).n
            for _ in range(20):
                offsets = [rng.randint(-5, 5) for _ in range(2)]
                assert euler_number(rep, place, 128, offsets=offsets).n == base
    _report(9, time.perf_counter() - t0,
            "n invariant under 20 random central lift offsets (7_3 and 7_4, all places)")


def test_criterion_10_uniqueness_systems(rep_74, pretzel_1):
    t0 = time.perf_counter()
    K74 = rep_74.field
    z = K74.gen()
    dir74 = (z - 1) * (z - 2)
    sys1, v1 = uniqueness_system(Word.gen(1), dir74, rep_74, "7_4 case 1")
    sys2, v2 = uniqueness_system(
        Word.gen(0) * Word.gen(1, -1), dir74, rep_74, "7_4 case 2"
    )
    Kp = pretzel_1.field
    dirp = nf_inverse(Kp.gen())
    sysj1, vj1 = uniqueness_system(pretzel_1.words["g1"], dirp, pretzel_1.rep, "9_35 j=1")
    sysj2, vj2 = uniqueness_system(pretzel_1.words["g2"], dirp, pretzel_1.rep, "9_35 j=2")

    # published coefficient matrices on (e1, e2), rows z^1 then z^2
    assert [r[:2] for r in sys1.rows] == [(-2, 3), (1, -2)]
    assert [r[:2] for r in sys2.rows] == [(2, 3), (-1, -2)]
    assert [r[:2] for r in sysj1.rows] == [(-1, 0), (0, 1)]
    assert [r[:2] for r in sysj2.rows] == [(2, 0), (-1, 1)]

    assert v1 == v2 == vj1 == "OnlyZeroSolution"
    # j = 2 carries a constant column (see the j=2 note in the README):
    # the unique solution (e1, e2) = (1, 1) admits no real sigma pair, so the
    # candidate surface is excluded all the same
    assert vj2 == "NoRealPair"
    assert sysj2.constants() == (Fraction(-2), Fraction(0))
    for verdict in (v1, v2, vj1, vj2):
        assert excludes_surface(verdict)
    _report(10, time.perf_counter() - t0,
            "four uniqueness systems exclude; matrices match the published rows")


@pytest.mark.xfail(
    strict=True,
    reason="the 9_35 j=2 system is affine with unique solution (1,1), not "
    "(0,0): the published OnlyZeroSolution claim does not hold verbatim for "
    "this case (exclusion holds via NoRealPair instead)",
)
def test_criterion_10_j2_only_zero_as_stated(pretzel_1):
    Kp = pretzel_1.field
    _, verdict = uniqueness_system(
        pretzel_1.words["g2"], nf_inverse(Kp.gen()), pretzel_1.rep, "9_35 j=2"
    )
    assert verdict == "OnlyZeroSolution"


def test_criterion_11_verdict_regression():
    t0 = time.perf_counter()
    records = load_census()
    report = run(records, checks=("euler", "slopes", "uniqueness"))
    assert report.anchor_mismatches == 0
    assert report.hard_errors == 0
    by_name = {k["name"]: k for k in report.payload["knots"]}
    for name in TABLE_ANCHORS:
        assert by_name[name]["euler"]["verdict"] == "NoTGS_euler_bound"
    assert by_name["7_4"]["euler"]["verdict"] == "KnownUniqueSurface"
    assert by_name["P(3,3,3)"]["euler"]["verdict"] == "KnownUniqueSurface"
    assert by_name["P(5,5,5)"]["euler"]["verdict"] == "NoClosedTGS_arithmetic"
    assert by_name["P(7,7,7)"]["euler"]["verdict"] == "NoClosedTGS_arithmetic"

    # byte-identical JSON on a fresh re-run
    report2 = run(load_census(), checks=("euler", "slopes", "uniqueness"))
    assert report.to_json_bytes() == report2.to_json_bytes()
    _report(11, time.perf_counter() - t0,
            "verdict engine reproduces the classification; JSON byte-identical")
