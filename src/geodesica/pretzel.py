"""The balanced pretzel family P(2k+1, 2k+1, 2k+1): trace-field recursions,
holonomy, the psi_k root census from remainder chains, and the
tangency-chain identities.

Polynomial identities are verified over Z[z] (no modulus) wherever the
source identity is polynomial; representation identities are verified in
Q[z]/(lambda_k).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

from .errors import BadArgument, FactorIdentityFailed, NotARepresentation, RepeatedRoots
from .knotgroup import (
    KnotPresentation,
    Mat2,
    MatrixRep,
    Word,
    evaluate_word,
)
from .numfield import NumberField, is_prime, nf_inverse
from .polycore import (
    RatPoly,
    cauchy_index,
    irreducibility_certificate,
    right_half_plane_count,
    sturm_chain,
)

# the largest k: the whole `geodesica pretzel --k 60 --check all` takes
# 0.8-1.4 s (2 vCPUs, Python 3.11); the census has k <= 3
MAX_PRETZEL_K = 60


@lru_cache(maxsize=None)
def lambda_poly(k: int) -> RatPoly:
    """Trace-field polynomial of P(2k+1,2k+1,2k+1), degree 2k+1.

    Defined by lambda_k = (z^2+2) lambda_{k-1} - lambda_{k-2} with
    lambda_0 = z-1 and lambda_1 = z^3-z^2+3z-1; the closed binomial formula
    is checked against the recursion in the test suite.
    """
    if k < 0:
        raise BadArgument("k must be nonnegative")
    if k == 0:
        return RatPoly((-1, 1))
    if k == 1:
        return RatPoly((-1, 3, -1, 1))
    mult = RatPoly((2, 0, 1))
    prev, cur = lambda_poly(0), lambda_poly(1)
    for _ in range(k - 1):
        prev, cur = cur, mult * cur - prev
    return cur


def lambda_closed_formula(k: int) -> RatPoly:
    """The binomial closed form for lambda_k, expanded exactly."""
    if k < 0:
        raise BadArgument("k must be nonnegative")
    coeffs = [0] * (2 * k + 2)
    for j in range(k + 1):
        coeffs[2 * j] -= math.comb(k + j, 2 * j)
        coeffs[2 * j + 1] += math.comb(k + j, 2 * j + 1) + math.comb(k + j + 1, 2 * j + 1)
    return RatPoly(coeffs)


@lru_cache(maxsize=None)
def alpha_beta_delta(k: int) -> tuple[RatPoly, RatPoly, RatPoly]:
    """(alpha_k, beta_k, delta_k): entries of the k-th power of the tangle
    matrix, via the shared Cayley-Hamilton recursion.

    Verifies delta_k = alpha_k - 2 beta_k z + beta_k z^2 before returning.
    """
    if k < 0:
        raise BadArgument("k must be nonnegative")
    a0, b0, d0 = RatPoly.one(), RatPoly.zero(), RatPoly.one()
    a1 = RatPoly((1, -1, 1))
    b1 = RatPoly((-1,))
    d1 = RatPoly((1, 1))
    seq = [(a0, b0, d0), (a1, b1, d1)]
    mult = RatPoly((2, 0, 1))
    while len(seq) <= k:
        (pa, pb, pd), (ca, cb, cd) = seq[-2], seq[-1]
        seq.append((mult * ca - pa, mult * cb - pb, mult * cd - pd))
    a, b, d = seq[k]
    if d != a - RatPoly((0, 2)) * b + RatPoly((0, 0, 1)) * b:
        raise FactorIdentityFailed(f"delta identity failed at k={k}")  # pragma: no cover
    return a, b, d


# generator images over Z[z] (no modulus)

def _poly_generators() -> tuple[Mat2, Mat2, Mat2]:
    one, zero, z = RatPoly.one(), RatPoly.zero(), RatPoly.x()
    z2 = RatPoly((0, 0, 1))
    s1 = Mat2(one, one, zero, one)
    s2 = Mat2(one, zero, -z2, one)
    s3 = Mat2(one + z, one, -z2, one - z)
    return s1, s2, s3


def pretzel_words(k: int) -> dict[str, Word]:
    """The standard words: relator conjugators v, w; Seifert generators x, y;
    longitude; and the chain words g_j, h_j for 0 <= j <= 2k.

    Generators are indexed 0, 1, 2 for s1, s2, s3.
    """
    s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
    v = (s3.inverse() * s2) ** k * s3.inverse() * (s1 * s3.inverse()) ** k
    w = (s1.inverse() * s3) ** k * s1.inverse() * (s2 * s1.inverse()) ** k
    x = (s1 * s2.inverse()) ** (k + 1) * (s3 * s2.inverse()) ** k
    y = (s2 * s3.inverse()) ** (k + 1) * (s1 * s3.inverse()) ** k
    longitude = y.inverse() * x * y * x.inverse()
    words = {"v": v, "w": w, "x": x, "y": y, "longitude": longitude}
    for j in range(0, 2 * k + 1):
        if j % 2 == 1:
            words[f"g{j}"] = (s2 * s1.inverse()) ** ((j - 1) // 2) * s2
            words[f"h{j}"] = (s1 * s3.inverse()) ** ((j + 1) // 2)
        else:
            words[f"g{j}"] = (s2 * s1.inverse()) ** (j // 2)
            words[f"h{j}"] = (s1 * s3.inverse()) ** (j // 2) * s1
    return words


def pretzel_presentation(k: int, name: Optional[str] = None) -> KnotPresentation:
    """Group presentation <s1,s2,s3 | v s1 = s2 v, w s2 = s3 w> with the
    Seifert-surface longitude.  The balanced pretzel Seifert surface has
    genus 1."""
    words = pretzel_words(k)
    v, w = words["v"], words["w"]
    rel1 = v * Word.gen(0) * v.inverse() * Word.gen(1, -1)
    rel2 = w * Word.gen(1) * w.inverse() * Word.gen(2, -1)
    return KnotPresentation(
        name=name or f"P({2*k+1},{2*k+1},{2*k+1})",
        generator_names=("s1", "s2", "s3"),
        relators=(rel1, rel2),
        meridian=Word.gen(0),
        longitude=words["longitude"],
    )


class PretzelData:
    """The verified holonomy of P(2k+1, 2k+1, 2k+1) over Q[z]/(lambda_k)."""

    def __init__(self, k: int, lam: RatPoly, field: NumberField, rep: MatrixRep,
                 words: dict[str, Word], irreducibility: str):
        self.k, self.lam, self.field, self.rep, self.words = k, lam, field, rep, words
        self.irreducibility = irreducibility  # "certified" | "assumed"

    @cached_property
    def chain(self) -> dict:
        """``tangency_chain(self)``, verified on first use and shared by every
        check that reads it (2k+1 must be prime)."""
        return tangency_chain(self)


def pretzel_holonomy(k: int, name: Optional[str] = None) -> PretzelData:
    """Holonomy representation of P(2k+1,...) over Q[z]/(lambda_k).

    Verifies both relators, the trace-field generator traces, and the
    longitude shape (-1, -tau; 0, -1) with tau = -6/z.
    """
    if not 1 <= k <= MAX_PRETZEL_K:
        raise BadArgument(f"k must be from 1 to {MAX_PRETZEL_K}, got {k}")
    lam = lambda_poly(k)
    cert = irreducibility_certificate(lam)
    K = NumberField(lam, name or f"Q(z_{k})")
    z = K.gen()
    one, zero = K.one(), K.zero()
    images = (
        Mat2(one, one, zero, one),
        Mat2(one, zero, -(z * z), one),
        Mat2(one + z, one, -(z * z), one - z),
    )
    pres = pretzel_presentation(k, name)
    rep = MatrixRep(presentation=pres, field=K, images=images)  # verifies relators

    # trace-field generators (the census degree fact rests on these)
    t12 = rep.word_matrix(Word.gen(0) * Word.gen(1)).trace()
    t23 = rep.word_matrix(Word.gen(1) * Word.gen(2)).trace()
    t123 = rep.word_matrix(Word.gen(0) * Word.gen(1) * Word.gen(2)).trace()
    if t12 != K.rational(2) - z * z or t23 != t12:
        raise NotARepresentation(f"P(k={k}): tr(s1 s2) != 2 - z^2")
    if t123 != K.rational(2) - 3 * z * z - z * z * z:
        raise NotARepresentation(f"P(k={k}): tr(s1 s2 s3) != 2 - 3z^2 - z^3")

    tau = rep.longitude_translation()
    if tau != K.rational(-6) * nf_inverse(z):
        raise NotARepresentation(f"P(k={k}): longitude translation is not -6/z")

    return PretzelData(
        k=k,
        lam=lam,
        field=K,
        rep=rep,
        words=pretzel_words(k),
        irreducibility="certified" if cert.is_irreducible else "assumed",
    )


# ---------------------------------------------------------------------------
# Entry/factorization identities over Z[z]
# ---------------------------------------------------------------------------


def relator_factorization_check(k: int) -> dict:
    """Verify the pinned entry identities of the conjugator matrices over
    Z[z]: the v11 factorization, v21 = -z^2 v12, the two w-entry identities,
    and the doubled-trace identity.  All sides are computed independently
    (matrix products on one side, recursions on the other).
    """
    if k < 1:
        raise BadArgument("k must be >= 1")
    s1, s2, s3 = _poly_generators()
    a, b, _d = alpha_beta_delta(k)
    z = RatPoly.x()
    z2 = RatPoly((0, 0, 1))

    words = pretzel_words(k)
    V = evaluate_word((s1, s2, s3), words["v"])
    W = evaluate_word((s1, s2, s3), words["w"])

    quad = b * z2 + (b - a) * z + a     # equals -lambda_k
    linear = -(b * z) + a
    report = {}

    if V.a != linear * quad:
        raise FactorIdentityFailed(f"k={k}: v11 != (-beta z + alpha)(beta z^2 + (beta-alpha) z + alpha)")
    report["v11_factorization"] = True
    if quad != -lambda_poly(k):
        raise FactorIdentityFailed(f"k={k}: quadratic-form combination is not -lambda_k")
    report["quad_is_minus_lambda"] = True
    if V.c != -(z2 * V.b):
        raise FactorIdentityFailed(f"k={k}: v21 != -z^2 v12")
    report["v21_identity"] = True
    if (W.a - W.d) * z + W.c != RatPoly.zero():
        raise FactorIdentityFailed(f"k={k}: (w11 - w22) z + w21 != 0")
    report["w_offdiag_identity"] = True
    if W.b * z + W.d != linear * quad:
        raise FactorIdentityFailed(f"k={k}: w12 z + w22 != v11 factorization")
    report["w_entry_identity"] = True

    prefix = evaluate_word((s1, s2, s3), (Word.gen(0) * Word.gen(2, -1)) ** k * Word.gen(0))
    if prefix.trace() != RatPoly((2,)) * linear:
        raise FactorIdentityFailed(f"k={k}: tr((s1 s3^-1)^k s1) != 2(-beta z + alpha)")
    report["trace_identity"] = True

    # the four closed forms of Lemma-style powers, against direct matrix powers
    t32 = (s3.adjugate() * s2) ** k
    if (t32.a, t32.b, t32.c, t32.d) != (a, b, RatPoly((0, 0, 0, 1)) * b, _d):
        raise FactorIdentityFailed(f"k={k}: (s3^-1 s2)^k closed form failed")
    report["power_closed_forms"] = True
    return report


# ---------------------------------------------------------------------------
# Psi_k root census
# ---------------------------------------------------------------------------


def psi_poly(k: int) -> RatPoly:
    """psi_k(x) = x^{4k+2} - 1 + sum_{j=0}^{2k} (-1)^{j+1} x^{2j+1}."""
    if not 1 <= k <= MAX_PRETZEL_K:
        raise BadArgument(f"k must be from 1 to {MAX_PRETZEL_K}, got {k}")
    coeffs = [0] * (4 * k + 3)
    coeffs[0] = -1
    coeffs[4 * k + 2] = 1
    for j in range(2 * k + 1):
        coeffs[2 * j + 1] += (-1) ** (j + 1)
    return RatPoly(coeffs)


class PsiCensus(NamedTuple):
    k: int
    real_count: int
    per_quadrant: tuple[int, int, int, int]


def psi_root_census(k: int) -> PsiCensus:
    """Exact census of the roots of psi_k: 2 real roots, k per open
    quadrant, and every right-half-plane root outside the unit circle.

    The Sturm chain of psi_k, which must end in a constant, counts its real
    roots and, as psi_k(0) = -1, the positive ones; Routh-Hurwitz counts the
    n_R roots in Re x > 0.  Roots come in conjugate pairs, so Q1 = Q4 =
    (n_R - positive) / 2 and Q2 = Q3 = (n - n_R - negative) / 2.  The moduli
    follow from the exact identity (1 + x^2) psi_k = x^N (x^2 - x + 1) -
    (x^2 + x + 1), N = 4k + 2: at a root x^2 - x + 1 != 0 (else x^2 + x + 1
    = 0 too, so x = 0), so |x|^N = |x^2 + x + 1| / |x^2 - x + 1|, and
    |x^2 + x + 1|^2 - |x^2 - x + 1|^2 = 4 Re x (|x|^2 + 1) > 0 when Re x > 0.
    A census that returns has checked that identity; else it raises
    ``FactorIdentityFailed``.
    """
    psi = psi_poly(k)
    chain = sturm_chain(psi)
    if len(chain[-1]) > 1:
        raise RepeatedRoots(f"psi_{k} is not square-free")
    n = 4 * k + 2
    if RatPoly((1, 0, 1)) * psi != RatPoly([-1, -1, -1] + [0] * (n - 3) + [1, -1, 1]):
        raise FactorIdentityFailed(f"k={k}: (1 + x^2) psi_k != x^N (x^2 - x + 1) - (x^2 + x + 1)")
    real, positive = cauchy_index(chain), cauchy_index(chain, 0)
    right = right_half_plane_count(psi)
    upper_right, upper_left = (right - positive) // 2, (n - right - real + positive) // 2
    return PsiCensus(k, real, (upper_right, upper_left, upper_left, upper_right))


# ---------------------------------------------------------------------------
# Tangency chain (order-two symmetry and the shared tangency point)
# ---------------------------------------------------------------------------


def sigma_conjugation_matrix(K: NumberField) -> Mat2:
    """The rotation sigma factored as i * T with T defined over the field;
    sigma-conjugation of field matrices equals T-conjugation, and
    sigma^2 = -I is equivalent to T^2 = I."""
    z = K.gen()
    return Mat2(K.one(), (K.one() - z) / z, K.zero(), -K.one())


def tangency_chain(data: PretzelData) -> dict:
    """Verify the exact identities behind the chain-of-tangent-circles
    picture for prime 2k+1, on the holonomy ``pretzel_holonomy`` built: the
    shared point g_{2k}(0) = (z-1)/(2z), the order-two symmetry, its
    conjugation action on the generators, and the non-integrality of
    tr((s2 s1^-1)^r) for 1 <= r <= k.
    """
    k = data.k
    if not is_prime(2 * k + 1):
        raise BadArgument(f"tangency chain requires 2k+1 prime, got {2*k+1}")
    K, rep = data.field, data.rep
    z = K.gen()
    report = {}

    g2k = rep.word_matrix(data.words[f"g{2*k}"])
    # Mobius image of 0 is b/d
    val = g2k.b / g2k.d
    target = (z - K.one()) / (K.rational(2) * z)
    if val != target:
        raise FactorIdentityFailed(f"k={k}: g_2k(0) != (z-1)/(2z)")
    report["g2k_fixed_point"] = True

    T = sigma_conjugation_matrix(K)
    if not (T * T == Mat2.identity(K)):
        raise FactorIdentityFailed(f"k={k}: T^2 != I (sigma^2 != -I)")
    report["sigma_squared"] = True
    # T^2 = I, so T is its own inverse (det T = -1; Mat2.inverse needs det 1)

    s = [Word.gen(i) for i in range(3)]
    conj_targets = {
        1: s[0] * s[2] ** -1 * s[0] ** -1,  # sigma s2 sigma^-1
        2: s[0] * s[1] ** -1 * s[0] ** -1,  # sigma s3 sigma^-1
    }
    for gen_index, word in conj_targets.items():
        lhs = T * rep.images[gen_index] * T
        rhs = rep.word_matrix(word)
        if not lhs.proj_equal(rhs):
            raise FactorIdentityFailed(
                f"k={k}: sigma s{gen_index+1} sigma^-1 != {word!r}"
            )
    report["sigma_conjugation"] = True

    # sigma s1 sigma^-1 lands back in the group; the exact image is s1^-1
    lhs = T * rep.images[0] * T
    if not lhs.proj_equal(rep.images[0].inverse()):
        raise FactorIdentityFailed(f"k={k}: sigma s1 sigma^-1 != s1^-1")
    report["sigma_s1"] = True

    # trace degree: tr((s2 s1^-1)^r) = 2 alpha_r - 2 beta_r z + beta_r z^2
    # has exact degree 2r over Z[z], hence cannot be an integer in the field
    for r in range(1, k + 1):
        a_r, b_r, _ = alpha_beta_delta(r)
        tr = RatPoly((2,)) * a_r - RatPoly((0, 2)) * b_r + RatPoly((0, 0, 1)) * b_r
        M = evaluate_word(_poly_generators(), (Word.gen(1) * Word.gen(0, -1)) ** r)
        if M.trace() != tr:
            raise FactorIdentityFailed(f"k={k}: trace recursion failed at r={r}")
        if tr.degree != 2 * r or not (1 <= tr.degree < 2 * k + 1):
            raise FactorIdentityFailed(
                f"k={k}: tr((s2 s1^-1)^{r}) degree {tr.degree}, expected {2*r}"
            )
    report["loop_traces_nonintegral"] = True
    return report
