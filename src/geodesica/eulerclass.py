"""Relative Euler class at real places, computed in the universal cover of
PSL(2,R), plus the obstruction verdict engine.

Elements of the cover are (gamma, omega) with |gamma| < 1 and omega a real
lift (not reduced mod pi).  All numerics are outward-rounded intervals; an
integer is only reported when the certified residual clears the tolerance,
so the rounded output is sound at the stated precision.

Sign convention: places are ordered by ascending real root, generators get
principal lifts (omega in [0, pi)), and e = (omega_lift - omega_section)/pi.
That convention reproduces the published anchor value +3 for the first real
place of the 13/9 two-bridge knot; it is a convention, not a theorem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp

from .errors import (
    BadArgument,
    MilnorWoodViolated,
    NoLiftExists,
    PrecisionExhausted,
    require_positive_int,
)
from .intervals import (
    ONE, ZERO, ComplexIv, cx_add, cx_conj, cx_div, cx_mul, cx_neg, iv, iv_atan,
    iv_contains_zero, lower_positive, mpi_add, mpi_atan2, mpi_cos_sin, mpi_div,
    mpi_mul, mpi_neg, prec_guard,
)
from .knotgroup import MatrixRep, Word, evaluate_word
from .numfield import RealPlace, contains_obvious_subfield_flags, is_algebraic_integer

DEFAULT_START_BITS = 128
DEFAULT_PRECISION_CAP = 1024
RESIDUAL_TOL = mp.mpf("1e-9")
EULER_SIGN = 1  # fixed by the 7_3 -> (3, 1) anchor


def precision_cap() -> int:
    env = os.environ.get("GEODESICA_PRECISION_CAP")
    if not env:
        return DEFAULT_PRECISION_CAP
    try:
        cap = int(env)
    except ValueError:
        raise BadArgument(
            f"GEODESICA_PRECISION_CAP must be a positive integer, got {env!r}"
        ) from None
    return require_positive_int(cap, "GEODESICA_PRECISION_CAP")


@dataclass
class LiftedElement:
    """Point (gamma, omega) of the universal cover, |gamma| < 1."""

    gamma: ComplexIv
    omega: object  # iv.mpf

    def central_shift(self, k: int) -> "LiftedElement":
        return LiftedElement(self.gamma, self.omega + k * iv.pi)


def _arg_mod_pi(z: ComplexIv):
    """Angle of the line through z, as an interval near [0, pi).

    The boundary cases (z near the real axis) keep the representative near 0
    or pi rather than splitting the interval; any resulting central offset is
    absorbed by the relator-defect correction.
    """
    re, im = z.re, z.im
    if not iv_contains_zero(re):
        theta = iv_atan(im / re)
        if theta.b < 0:
            theta = theta + iv.pi
        return theta
    if not iv_contains_zero(im):
        return iv.pi / 2 - iv_atan(re / im)
    raise PrecisionExhausted("argument of an interval containing 0")


def to_su11(entries: Sequence) -> LiftedElement:
    """Principal lift of a real det-1 matrix through the disk-model
    isomorphism: alpha = (a+d+(b-c)i)/2, beta = (a-d-(b+c)i)/2,
    gamma = conj(beta)/alpha, omega = arg(alpha) mod pi."""
    a, b, c, d = entries
    alpha = ComplexIv((a + d) / 2, (b - c) / 2)
    beta = ComplexIv((a - d) / 2, -(b + c) / 2)
    if alpha.contains_zero():
        raise PrecisionExhausted("alpha enclosure contains 0 in to_su11")
    gamma = beta.conj() / alpha
    if not (gamma.abs2().b < 1):
        raise PrecisionExhausted("could not certify |gamma| < 1")
    return LiftedElement(gamma, _arg_mod_pi(alpha))


# the exact factors of the phases e^{-2i omega} (product) and e^{2i omega}
# (inverse)
_MINUS_TWO = iv.mpf(-2)._mpi_
_TWO = iv.mpf(2)._mpi_


def ucover_mul(x: LiftedElement, y: LiftedElement) -> LiftedElement:
    """Group law of the universal cover.

    The log factor in the published formula is arg(u) for
    u = 1 + gamma_2 conj(gamma_1) e^{-2 i omega_1}; |gamma_i| < 1 keeps
    Re(u) > 0, so the principal branch never meets the cut.  Runs on raw
    endpoint tuples, with the operands and order of the ComplexIv and iv.mpf
    operators, so it gives their endpoints.
    """
    prec = iv.prec
    xg, xw = x.gamma.raw(), x.omega._mpi_
    g2ph = cx_mul(y.gamma.raw(), mpi_cos_sin(mpi_mul(_MINUS_TWO, xw, prec), prec), prec)
    u = cx_add((ONE, ZERO), cx_mul(g2ph, cx_conj(xg, prec), prec), prec)
    if not lower_positive(u[0]):
        raise PrecisionExhausted("branch certificate Re(u) > 0 failed in ucover_mul")
    gamma = cx_div(cx_add(xg, g2ph, prec), u, prec)
    turn = mpi_atan2(mpi_div(u[1], u[0], prec), ONE, prec)
    omega = mpi_add(mpi_add(xw, y.omega._mpi_, prec), turn, prec)
    return LiftedElement(ComplexIv.from_raw(gamma), iv.make_mpf(omega))


def ucover_inv(x: LiftedElement) -> LiftedElement:
    prec = iv.prec
    xw = x.omega._mpi_
    phase = mpi_cos_sin(mpi_mul(_TWO, xw, prec), prec)
    gamma = cx_neg(cx_mul(x.gamma.raw(), phase, prec), prec)
    return LiftedElement(ComplexIv.from_raw(gamma), iv.make_mpf(mpi_neg(xw, prec)))


def ucover_identity() -> LiftedElement:
    return LiftedElement(ComplexIv.zero(), iv.mpf(0))


def ucover_pow(x: LiftedElement, n: int) -> LiftedElement:
    """x^n, started from x: the identity is an exact left unit of
    ucover_mul (phase exactly (1, 0), u = 1, atan2(0, 1) = 0), so skipping
    the identity product leaves every endpoint unchanged."""
    if n == 0:
        return ucover_identity()
    if n < 0:
        x, n = ucover_inv(x), -n
    out = x
    for _ in range(n - 1):
        out = ucover_mul(out, x)
    return out


def ucover_eval(w: Word, lifts: Sequence[LiftedElement]) -> LiftedElement:
    """Lift of a word: each distinct (generator, exponent) power is built
    once per call, and the product starts from the first letter's power."""
    powers: dict[tuple[int, int], LiftedElement] = {}
    out: Optional[LiftedElement] = None
    for letter in w.letters:
        p = powers.get(letter)
        if p is None:
            g, e = letter
            p = powers[letter] = ucover_pow(lifts[g], e)
        out = p if out is None else ucover_mul(out, p)
    return ucover_identity() if out is None else out


def embed_matrix(rep: MatrixRep, w: Word, place: RealPlace, bits: int):
    m = evaluate_word(rep, w)
    return tuple(place.embed(entry, bits) for entry in m.entries())


# ---------------------------------------------------------------------------
# Integer linear algebra for the defect system (Smith-style)
# ---------------------------------------------------------------------------


def solve_integer_system(E: Sequence[Sequence[int]], b: Sequence[int]) -> list[int]:
    """A particular integer solution of E m = b, or NoLiftExists.

    Elementary unimodular row/column operations (a small Smith reduction);
    sizes here are at most 2 x 3.
    """
    rows = [list(r) for r in E]
    rhs = list(b)
    ncols = len(rows[0]) if rows else 0
    col_ops: list[list[int]] = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        # find a pivot in column >= c with minimal nonzero |entry|
        pivot = None
        for i in range(r, len(rows)):
            for j in range(c, ncols):
                v = rows[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(rows[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        rows[r], rows[pi] = rows[pi], rows[r]
        rhs[r], rhs[pi] = rhs[pi], rhs[r]
        for row in rows:
            row[c], row[pj] = row[pj], row[c]
        col_ops[c], col_ops[pj] = col_ops[pj], col_ops[c]
        # clear the column below and the row to the right, Euclid-style
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    rhs[i] -= q * rhs[r]
                    if rows[i][c] != 0:
                        rows[r], rows[i] = rows[i], rows[r]
                        rhs[r], rhs[i] = rhs[i], rhs[r]
                    changed = True
            for j in range(c + 1, ncols):
                if rows[r][j] != 0:
                    q = rows[r][j] // rows[r][c]
                    for row in rows:
                        row[j] -= q * row[c]
                    col_ops[j] = [x - q * y for x, y in zip(col_ops[j], col_ops[c])]
                    if rows[r][j] != 0:
                        for row in rows:
                            row[c], row[j] = row[j], row[c]
                        col_ops[c], col_ops[j] = col_ops[j], col_ops[c]
                    changed = True
        r += 1

    y = [0] * ncols
    for i in range(len(rows)):
        d = rows[i][i] if i < ncols else 0
        if d == 0:
            if rhs[i] != 0:
                raise NoLiftExists("relator defect system is inconsistent")
            continue
        if rhs[i] % d != 0:
            raise NoLiftExists("relator defect system has no integer solution")
        y[i] = rhs[i] // d
    # m = col_ops . y  (col_ops[j] is the j-th transformed basis column)
    m = [0] * ncols
    for j in range(ncols):
        for i in range(ncols):
            m[i] += col_ops[j][i] * y[j]
    return m


# ---------------------------------------------------------------------------
# Lifting a representation and reading off the Euler number
# ---------------------------------------------------------------------------


def _integer_defect(omega, tol) -> tuple[int, mp.mpf]:
    mid = mp.mpf(omega.mid.a)
    ratio = mid / mp.pi
    k = int(mp.nint(ratio))
    residual = abs(ratio - k)
    width = mp.mpf(omega.delta.b) / mp.pi
    return k, residual + width


def lift_representation(
    rep: MatrixRep,
    place: RealPlace,
    precision_bits: int = DEFAULT_START_BITS,
    offsets: Optional[Sequence[int]] = None,
    tol=RESIDUAL_TOL,
) -> list[LiftedElement]:
    """Principal lifts of the generator images with every relator defect
    annihilated.

    Starts from the principal lift of each generator (optionally shifted by
    the given central offsets, exercising lift-independence), measures the
    central defect c^{k_r} of each relator, and solves the integer system
    E m = -k over the relator abelianization matrix E.
    """
    with prec_guard(precision_bits + 32):
        lifts = [
            to_su11(embed_matrix(rep, Word.gen(i), place, precision_bits))
            for i in range(rep.presentation.generator_count)
        ]
        if offsets:
            lifts = [L.central_shift(k) for L, k in zip(lifts, offsets)]
        defects = []
        for relator in rep.presentation.relators:
            val = ucover_eval(relator, lifts)
            if not (val.gamma.abs2().b < float(tol) ** 2):
                raise PrecisionExhausted(
                    "relator gamma defect not certified small; raise precision"
                )
            k, residual = _integer_defect(val.omega, tol)
            if residual > tol:
                raise PrecisionExhausted(
                    f"relator omega defect {residual} not within {tol} of an integer"
                )
            defects.append(k)
        if any(defects):
            name = rep.presentation.name
            E = rep.presentation.relator_exponent_matrix()
            try:
                m = solve_integer_system(E, [-k for k in defects])
            except NoLiftExists as exc:
                raise NoLiftExists(f"{name}: place {place.index}: {exc}") from None
            lifts = [L.central_shift(mi) for L, mi in zip(lifts, m)]
            for relator in rep.presentation.relators:
                val = ucover_eval(relator, lifts)
                k, residual = _integer_defect(val.omega, tol)
                if k != 0 or residual > tol:
                    raise NoLiftExists(
                        f"{name}: place {place.index}: defect correction failed "
                        "to annihilate a relator"
                    )
        return lifts


def canonical_section(tau_value) -> LiftedElement:
    """Canonical boundary section at the longitude (-1, -tau; 0, -1):
    s(l) = (i tau / (2 + i tau), arctan(tau / 2))."""
    tau = tau_value if isinstance(tau_value, iv.mpf) else iv.mpf(tau_value)
    denom = ComplexIv(iv.mpf(2), tau)
    gamma = ComplexIv(iv.mpf(0), tau) / denom
    omega = iv_atan(tau / 2)
    return LiftedElement(gamma, omega)


@dataclass(frozen=True)
class EulerResult:
    place_index: int
    n: int
    residual: float
    precision_bits: int


def euler_number(
    rep: MatrixRep,
    place: RealPlace,
    precision_bits: int = DEFAULT_START_BITS,
    offsets: Optional[Sequence[int]] = None,
    cap: Optional[int] = None,
) -> EulerResult:
    """Euler number e([F]) at a real place: the central gap between the
    lifted longitude and the canonical section, with a precision ladder.
    """
    require_positive_int(precision_bits, "precision_bits")
    cap = precision_cap() if cap is None else require_positive_int(cap, "cap")
    name = rep.presentation.name
    if cap < precision_bits:
        raise PrecisionExhausted(
            f"{name}: euler number at place {place.index}: no rung ran, the start "
            f"precision {precision_bits} bits exceeds the cap {cap} bits"
        )
    bits = precision_bits
    last_err: Exception | None = None
    while bits <= cap:
        try:
            return _euler_once(rep, place, bits, offsets)
        except PrecisionExhausted as exc:
            last_err = exc
            bits *= 2
    raise PrecisionExhausted(
        f"{name}: euler number at place {place.index} failed up to {cap} bits: {last_err}"
    )


def _euler_once(rep, place, bits, offsets) -> EulerResult:
    with prec_guard(bits + 32):
        lifts = lift_representation(rep, place, bits, offsets)
        lifted = ucover_eval(rep.presentation.longitude, lifts)
        tau = place.embed(rep.longitude_translation(), bits)
        section = canonical_section(tau)
        # the projections must agree: certified sanity check on gamma
        diff = lifted.gamma - section.gamma
        if not (diff.abs2().b < float(RESIDUAL_TOL) ** 2):
            raise PrecisionExhausted(
                "lifted longitude and section disagree beyond tolerance"
            )
        gap = lifted.omega - section.omega
        n, residual = _integer_defect(gap, RESIDUAL_TOL)
        if residual > RESIDUAL_TOL:
            raise PrecisionExhausted(
                f"omega gap {residual} not within tolerance of an integer multiple of pi"
            )
        return EulerResult(
            place_index=place.index,
            n=EULER_SIGN * n,
            residual=float(residual),
            precision_bits=bits,
        )


def euler_tuple(rep: MatrixRep, precision_bits: int = DEFAULT_START_BITS) -> tuple[EulerResult, ...]:
    """Euler numbers at every real place, ordered by ascending real root."""
    return tuple(
        euler_number(rep, place, precision_bits)
        for place in rep.field.real_places()
    )


# ---------------------------------------------------------------------------
# Obstruction predicates and the verdict engine
# ---------------------------------------------------------------------------


def _trace_generating_words(rep: MatrixRep) -> list[Word]:
    n = rep.presentation.generator_count
    gens = [Word.gen(i) for i in range(n)]
    words = list(gens)
    for i in range(n):
        for j in range(i + 1, n):
            words.append(gens[i] * gens[j])
    if n >= 3:
        words.append(gens[0] * gens[1] * gens[2])
    return words


def closed_surface_obstruction(rep: MatrixRep, manual_flags: Optional[dict] = None) -> dict:
    """Arithmetic closed-surface obstruction: odd degree, no proper real
    subfield (certified at prime degree, flag-driven otherwise), and integral
    traces over a generating set of traces."""
    flags = contains_obvious_subfield_flags(rep.field, manual_flags)
    integral = all(
        is_algebraic_integer(evaluate_word(rep, w).trace())
        for w in _trace_generating_words(rep)
    )
    holds = bool(
        flags["degree_odd"]
        and flags["no_proper_real_subfield"]
        and integral
    )
    return {
        "odd_degree": flags["degree_odd"],
        "no_real_subfield": flags["no_proper_real_subfield"],
        "no_real_subfield_certified": flags["certified"],
        "integral_traces": integral,
        "no_closed_tgs": holds,
        "field": flags,
    }


VERDICT_NO_TGS_FIBERED = "NoTGS_fibered"
VERDICT_NO_TGS_EULER = "NoTGS_euler_bound"
VERDICT_NO_CLOSED = "NoClosedTGS_arithmetic"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_KNOWN_UNIQUE = "KnownUniqueSurface"


@dataclass
class ObstructionReport:
    name: str
    field_facts: dict
    genus: Optional[int]
    fibered: Optional[bool]
    euler: tuple[int, ...]
    verdict: str
    justification: str
    euler_details: tuple[EulerResult, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "field": {
                "degree": self.field_facts.get("degree"),
                "odd_degree": self.field_facts.get("odd_degree"),
                "no_real_subfield": self.field_facts.get("no_real_subfield"),
                "no_real_subfield_certified": self.field_facts.get(
                    "no_real_subfield_certified"
                ),
                "no_quadratic_subfield": self.field_facts.get("no_quadratic_subfield"),
                "integral_traces": self.field_facts.get("integral_traces"),
            },
            "genus": self.genus,
            "fibered": self.fibered,
            "euler": list(self.euler),
            "verdict": self.verdict,
            "justification": self.justification,
        }


def obstruction_verdict(
    name: str,
    genus: Optional[int],
    fibered: Optional[bool],
    euler_results: Sequence[EulerResult],
    arith_record: dict,
    no_quadratic_subfield: Optional[bool] = None,
    known_unique: bool = False,
) -> ObstructionReport:
    """Apply the obstruction rules in their fixed order.

    Milnor-Wood is checked first for every computed value (|e| <= 2g-1);
    a violation aborts, since it can only mean a computation bug.  Then:
    known-unique tag, genus-1 short circuit, fibered rule, the
    Euler-vs-genus inequality, and the closed-surface fallback.
    """
    euler = tuple(r.n for r in euler_results)
    facts = dict(arith_record)
    facts["degree"] = arith_record["field"]["degree"]
    facts["odd_degree"] = arith_record["odd_degree"]
    facts["no_quadratic_subfield"] = (
        no_quadratic_subfield
        if no_quadratic_subfield is not None
        else arith_record["field"].get("no_quadratic_subfield")
    )

    if genus is not None:
        bound = 2 * genus - 1
        for r in euler_results:
            if abs(r.n) > bound:
                raise MilnorWoodViolated(
                    f"{name}: |e| = {abs(r.n)} exceeds 2g-1 = {bound} at place {r.place_index}"
                )

    def report(verdict, justification):
        return ObstructionReport(
            name=name,
            field_facts=facts,
            genus=genus,
            fibered=fibered,
            euler=euler,
            verdict=verdict,
            justification=justification,
            euler_details=tuple(euler_results),
        )

    if known_unique:
        return report(
            VERDICT_KNOWN_UNIQUE,
            "unique totally geodesic surface established in the literature; "
            "Euler data cannot improve on it (genus-1 bound is saturated)",
        )
    if genus == 1:
        if arith_record["no_closed_tgs"]:
            return report(
                VERDICT_NO_CLOSED,
                "genus 1 saturates the Milnor-Wood bound (|e| = 2g-1), so the "
                "Euler-class rule cannot apply; arithmetic rule still excludes "
                "closed totally geodesic surfaces",
            )
        return report(
            VERDICT_INCONCLUSIVE,
            "genus 1: |e| = 2g-1 is forced, no obstruction applies",
        )
    if fibered:
        return report(
            VERDICT_NO_TGS_FIBERED,
            "fibered knot: the fibered-case Euler-class obstruction applies at "
            "every real place",
        )
    hypotheses = (
        arith_record["no_real_subfield"] and facts["no_quadratic_subfield"]
    )
    if genus is not None and euler and hypotheses:
        bound = 2 * genus - 1
        best = min(abs(n) for n in euler)
        if best < bound:
            cert = "certified" if arith_record["no_real_subfield_certified"] else "data-flagged"
            return report(
                VERDICT_NO_TGS_EULER,
                f"some real place has |e| = {best} < 2g-1 = {bound} and the field "
                f"hypotheses hold ({cert}); no totally geodesic surfaces",
            )
    if arith_record["no_closed_tgs"]:
        return report(
            VERDICT_NO_CLOSED,
            "arithmetic rule excludes closed totally geodesic surfaces; nothing "
            "stronger applies",
        )
    return report(VERDICT_INCONCLUSIVE, "no obstruction rule applies")
