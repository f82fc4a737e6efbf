from fractions import Fraction

import pytest

from geodesica.errors import FactorIdentityFailed
from geodesica.knotgroup import Word, evaluate_word
from geodesica.polycore import RatPoly
from geodesica.pretzel import (
    alpha_beta_delta,
    lambda_closed_formula,
    lambda_poly,
    pretzel_holonomy,
    pretzel_words,
    psi_poly,
    psi_root_census,
    relator_factorization_check,
    sigma_conjugation_matrix,
    tangency_chain,
)


def phi_poly(k: int) -> RatPoly:
    """phi_k = (x^2 + 1) psi_k = x^{4k+4} - x^{4k+3} + x^{4k+2} - x^2 - x - 1."""
    return RatPoly((1, 0, 1)) * psi_poly(k)


def psi_from_lambda(k: int) -> RatPoly:
    """x^{2k+1} lambda_k(x - 1/x), expanded exactly as a polynomial.

    Since (x - 1/x)^i x^{2k+1} = (x^2-1)^i x^{2k+1-i}, the Laurent expansion
    collapses to an honest polynomial.
    """
    lam = lambda_poly(k)
    x2m1 = RatPoly((-1, 0, 1))
    out, power = RatPoly.zero(), RatPoly.one()  # power = (x^2 - 1)^i
    for i, c in enumerate(lam.coeffs):
        if i:
            power = power * x2m1
        if c == 0:
            continue
        term = power * RatPoly([c])
        shift = 2 * k + 1 - i
        term = term * RatPoly([0] * shift + [1]) if shift else term
        out = out + term
    return out


class TestLambda:
    def test_initial_values(self):
        assert lambda_poly(0) == RatPoly([-1, 1])
        assert lambda_poly(1) == RatPoly([-1, 3, -1, 1])

    def test_k2(self):
        # one application of the recursion
        assert lambda_poly(2) == RatPoly([-1, 5, -3, 5, -1, 1])

    @pytest.mark.parametrize("k", range(11))
    def test_recursion_vs_closed_form(self, k):
        assert lambda_poly(k) == lambda_closed_formula(k)
        assert lambda_poly(k).degree == 2 * k + 1
        assert lambda_poly(k).coeffs[-1] == 1

    def test_recursion_identity(self):
        for k in range(2, 11):
            assert lambda_poly(k) == RatPoly([2, 0, 1]) * lambda_poly(k - 1) - lambda_poly(k - 2)


class TestAlphaBetaDelta:
    def test_initial(self):
        assert alpha_beta_delta(0) == (RatPoly([1]), RatPoly([]), RatPoly([1]))
        assert alpha_beta_delta(1) == (
            RatPoly([1, -1, 1]),
            RatPoly([-1]),
            RatPoly([1, 1]),
        )

    def test_k2(self):
        a, b, d = alpha_beta_delta(2)
        assert a == RatPoly([1, -2, 3, -1, 1])
        assert b == RatPoly([-2, 0, -1])
        assert d == RatPoly([1, 2, 1, 1])

    @pytest.mark.parametrize("k", range(11))
    def test_delta_identity(self, k):
        a, b, d = alpha_beta_delta(k)
        z = RatPoly.x()
        assert d == a - RatPoly([0, 2]) * b + RatPoly([0, 0, 1]) * b

    def test_matrix_power_oracle(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        S2 = sympy.Matrix([[1, 0], [-z ** 2, 1]])
        S3 = sympy.Matrix([[1 + z, 1], [-z ** 2, 1 - z]])
        M = S3 ** -1 * S2
        for k in (1, 2, 3):
            P = sympy.expand(M ** k)
            a, b, d = alpha_beta_delta(k)
            for ours, theirs in ((a, P[0, 0]), (b, P[0, 1]), (d, P[1, 1])):
                coeffs = [
                    Fraction(int(c))
                    for c in reversed(sympy.Poly(theirs, z).all_coeffs())
                ]
                assert ours == RatPoly(coeffs)


class TestEntryIdentities:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_identities(self, k):
        report = relator_factorization_check(k)
        assert all(report.values())

    def test_perturbed_beta_fails(self, monkeypatch):
        import geodesica.pretzel as pz

        real = pz.alpha_beta_delta

        def bad(k):
            a, b, d = real(k)
            return a, b + RatPoly([1]), d

        monkeypatch.setattr(pz, "alpha_beta_delta", bad)
        with pytest.raises(FactorIdentityFailed):
            pz.relator_factorization_check(1)


class TestHolonomy:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_relators_verify(self, k):
        data = pretzel_holonomy(k)  # MatrixRep construction verifies relators
        K = data.field
        z = K.gen()
        rep = data.rep
        t12 = evaluate_word(rep, Word.gen(0) * Word.gen(1)).trace()
        assert t12 == K.rational(2) - z * z

    def test_trace_field_generators_k1(self, pretzel_1):
        K = pretzel_1.field
        z = K.gen()
        rep = pretzel_1.rep
        t123 = evaluate_word(rep, Word.gen(0) * Word.gen(1) * Word.gen(2)).trace()
        assert t123 == K.rational(2) - 3 * z * z - z * z * z

    def test_longitude_translation_k1(self, pretzel_1):
        from geodesica.numfield import nf_inverse

        K = pretzel_1.field
        tau = pretzel_1.rep.longitude_translation()
        assert tau == K.rational(-6) * nf_inverse(K.gen())
        # upper-right entry of the longitude is -tau = 6/z
        L = pretzel_1.rep.longitude_matrix()
        assert L.b == K.rational(6) * nf_inverse(K.gen())

    def test_irreducibility_certified_small_k(self):
        for k in (1, 2, 3):
            assert pretzel_holonomy(k).irreducibility == "certified"


class TestPsi:
    def test_psi1(self):
        assert psi_poly(1) == RatPoly([-1, -1, 0, 1, 0, -1, 1])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_substitution_identity(self, k):
        assert psi_from_lambda(k) == psi_poly(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_phi_factorization(self, k):
        q, rem = phi_poly(k).divmod(psi_poly(k))
        assert rem.is_zero()
        assert q == RatPoly([1, 0, 1])

    def test_phi1_closed_form(self):
        assert phi_poly(1) == RatPoly([-1, -1, -1, 0, 0, 0, 1, -1, 1])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_root_census(self, k):
        census = psi_root_census(k)
        assert census.real_count == 2
        assert census.per_quadrant == (k, k, k, k)
        assert census.right_half_moduli_exceed_one


class TestTangencyChain:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chain(self, k):
        report = tangency_chain(pretzel_holonomy(k))
        assert all(report.values())

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            tangency_chain(pretzel_holonomy(4))  # 2k+1 = 9 is not prime

    def test_g2k_fixed_point_is_sigma_axis(self, pretzel_1):
        K = pretzel_1.field
        z = K.gen()
        rep = pretzel_1.rep
        g2 = evaluate_word(rep, pretzel_1.words["g2"])
        val = g2.b / g2.d  # image of 0
        assert val == (z - K.one()) / (K.rational(2) * z)

    def test_sigma_formula(self, pretzel_1):
        K = pretzel_1.field
        T = sigma_conjugation_matrix(K)
        assert T * T == type(T).identity(K)


def test_words_shapes():
    words = pretzel_words(2)
    # v = (s3^-1 s2)^2 s3^-1 (s1 s3^-1)^2
    v = words["v"]
    assert v.letters[0] == (2, -1)
    assert len(words["g4"].letters) >= 2
    assert words["g1"] == Word.gen(1)
    assert words["h2"].letters[-1][0] == 0
