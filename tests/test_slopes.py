from fractions import Fraction

import pytest

from geodesica.errors import IncompleteCaseAnalysis
from geodesica.slopes import (
    Slope,
    SlopeCase,
    build_system,
    slope_set_for_knot,
    solve_fixed_peripheral,
    solve_system,
)


@pytest.fixture(scope="module")
def sys_74_case1(rep_74):
    K = rep_74.field
    return build_system(rep_74.longitude_translation(), K.element([-1, -1, 1]))


@pytest.fixture(scope="module")
def sys_74_case2(rep_74):
    K = rep_74.field
    return build_system(rep_74.longitude_translation(), K.element([0, -2, 1]))


@pytest.fixture(scope="module")
def sys_pretzel(pretzel_1):
    K = pretzel_1.field
    return build_system(pretzel_1.rep.longitude_translation(), K.gen())


class TestBuildSystem:
    def test_74_case1_equations(self, sys_74_case1):
        assert set(sys_74_case1.equations) == {
            (7, -6, -6, -4),
            (3, 2, 2, -20),
        }

    def test_74_case2_equations(self, sys_74_case2):
        assert set(sys_74_case2.equations) == {
            (1, 6, 6, 4),
            (0, 1, 1, 0),
        }

    def test_74_round2_case2_equations(self, rep_74):
        K = rep_74.field
        system = build_system(rep_74.longitude_translation(), K.element([-1, -2, 1]))
        # reduced against (2,1) these are the published n = 0, m + 18n = 0
        sol = solve_fixed_peripheral(system, 2, 1)
        assert sol.pairs == () and sol.exhaustive

    def test_pretzel_equations(self, sys_pretzel):
        assert set(sys_pretzel.equations) == {(0, 1, 1, 0), (1, 0, 0, 0)}

    def test_pretzel_coefficient_columns(self, sys_pretzel, pretzel_1):
        # weight^2 (nq tau^2 + (mq+np) tau + mp) = 36 nq - 6(mq+np) z + mp z^2
        z, tau = pretzel_1.field.gen(), pretzel_1.rep.longitude_translation()
        w2 = z * z
        col_mp, col_mq, col_nq = w2, w2 * tau, w2 * tau * tau
        assert list(col_mp.coeffs) == [0, 0, 1]
        assert list(col_mq.coeffs) == [0, -6, 0]
        assert list(col_nq.coeffs) == [36, 0, 0]
        # one equation per non-constant coefficient: z is -6(mq+np), z^2 is mp
        assert sys_pretzel.equations == ((0, 1, 1, 0), (1, 0, 0, 0))


class TestSolve:
    def test_74_case1_unique_pair(self, sys_74_case1):
        sol = solve_system(sys_74_case1)
        assert sol.exhaustive
        assert sol.pairs == ((Slope.of(2, 1), Slope.of(2, 1)),)

    def test_74_case2_pairs(self, sys_74_case2):
        sol = solve_system(sys_74_case2)
        assert sol.exhaustive
        assert set(sol.pairs) == {
            (Slope.of(2, 1), Slope.of(-2, 1)),
            (Slope.of(-2, 1), Slope.of(2, 1)),
        }

    def test_74_fixed_slope_two(self, sys_74_case2):
        sol = solve_fixed_peripheral(sys_74_case2, 2, 1)
        assert sol.pairs == ((Slope.of(2, 1), Slope.of(-2, 1)),)

    def test_pretzel_zero_slope(self, sys_pretzel):
        sol = solve_system(sys_pretzel)
        assert sol.exhaustive
        assert sol.pairs == ((Slope.of(0, 1), Slope.of(0, 1)),)

    def test_degree_one_field_no_constraints(self):
        from geodesica.numfield import NumberField
        from geodesica.polycore import RatPoly

        K = NumberField(RatPoly([-2, 1]))  # Q itself
        system = build_system(K.rational(3), K.one())
        sol = solve_system(system)
        assert not sol.exhaustive


def _brute_force_pairs(equations, bound=20):
    numpy = pytest.importorskip("numpy")
    np = numpy
    rng = np.arange(-bound, bound + 1)
    P, Q, M, N = np.meshgrid(rng, rng, rng, rng, indexing="ij", sparse=True)
    ok = np.ones(np.broadcast_shapes(P.shape, Q.shape, M.shape, N.shape), dtype=bool)
    for c1, c2, c3, c4 in equations:
        val = c1 * M * P + c2 * M * Q + c3 * N * P + c4 * N * Q
        ok &= val == 0
    ok &= ~((P == 0) & (Q == 0))
    ok &= ~((M == 0) & (N == 0))
    idx = np.argwhere(ok)
    pairs = set()
    for i, j, k, l in idx:
        p, q, m, n = int(rng[i]), int(rng[j]), int(rng[k]), int(rng[l])
        pairs.add((Slope.of(p, q), Slope.of(m, n)))
    return pairs


class TestBruteForceOracle:
    def test_74_case1(self, sys_74_case1):
        got = set(solve_system(sys_74_case1).pairs)
        assert got == _brute_force_pairs(sys_74_case1.equations)

    def test_74_case2(self, sys_74_case2):
        got = set(solve_system(sys_74_case2).pairs)
        assert got == _brute_force_pairs(sys_74_case2.equations)

    def test_pretzel(self, sys_pretzel):
        got = set(solve_system(sys_pretzel).pairs)
        assert got == _brute_force_pairs(sys_pretzel.equations)


class TestInvariants:
    def test_round_trip(self, sys_74_case1, rep_74):
        # substituting the solved pair back kills the non-constant coefficients
        K = rep_74.field
        tau = rep_74.longitude_translation()
        weight = K.element([-1, -1, 1])  # the weight of sys_74_case1
        for s_pq, s_mn in solve_system(sys_74_case1).pairs:
            p, q = s_pq.p, s_pq.q
            m, n = s_mn.p, s_mn.q
            val = (weight * weight) * (
                K.rational(n * q) * tau * tau
                + K.rational(m * q + n * p) * tau
                + K.rational(m * p)
            )
            assert all(c == 0 for c in val.coeffs[1:])

    def test_weight_scaling_invariance(self, rep_74):
        K = rep_74.field
        tau = rep_74.longitude_translation()
        w = K.element([-1, -1, 1])
        s1 = solve_system(build_system(tau, w))
        s2 = solve_system(build_system(tau, w * K.rational(Fraction(-7, 3))))
        assert s1.pairs == s2.pairs


class TestKnotLevel:
    def test_74_complete_case_analysis(self, rep_74):
        cases = [
            SlopeCase("case 1", (Fraction(-1), Fraction(-1), Fraction(1))),
            SlopeCase("case 2", (Fraction(0), Fraction(-2), Fraction(1))),
            SlopeCase("round 2 case 1", (Fraction(0), Fraction(-2), Fraction(1)), (2, 1)),
            SlopeCase("round 2 case 2", (Fraction(-1), Fraction(-2), Fraction(1)), (2, 1)),
        ]
        res = slope_set_for_knot(rep_74, cases)
        assert [str(s) for s in res["slopes"]] == ["-2", "2"]
        assert res["exhaustive"]

    def test_pretzel_knots(self):
        from geodesica.pretzel import pretzel_holonomy

        for k in (1, 2, 3):
            data = pretzel_holonomy(k)
            res = slope_set_for_knot(
                data.rep, [SlopeCase("seifert", (Fraction(0), Fraction(1)))]
            )
            assert [str(s) for s in res["slopes"]] == ["0"]
            assert res["exhaustive"]

    def test_missing_cases(self, rep_74):
        with pytest.raises(IncompleteCaseAnalysis):
            slope_set_for_knot(rep_74, [])


def test_slope_normalization():
    assert Slope.of(4, 2) == Slope.of(2, 1)
    assert Slope.of(-4, -2) == Slope.of(2, 1)
    assert Slope.of(3, 0) == Slope.of(1, 0)
    assert str(Slope.of(1, 0)) == "inf"
    assert str(Slope.of(-6, 3)) == "-2"
    with pytest.raises(ValueError):
        Slope.of(0, 0)
