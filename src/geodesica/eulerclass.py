"""Relative Euler class at real places, computed exactly in the universal
cover of PSL(2,R), plus the obstruction verdict engine.

A point of the cover over an exact det-1 matrix M over K = Q[z]/(m) is a sign
sigma and a winding count m: its angle is omega = Arg alpha(sigma M) + 2 pi m,
with alpha(M) = ((a + d) + i(b - c))/2 and Arg in (-pi, pi].  A product adds
the winding counts and two carries read off half-planes (``ucover_mul``), so
every decision is the sign of a real number at a real place: no angle is
computed, and the Euler number comes out as an exact integer.

Each sign is read from integer balls at the place (``RealPlace.ball``): the
generator images are embedded once at the lifting's bits, and each product of
lifts walks their ball products.  A ball never guesses; when one holds 0, the
product is walked again on the exact matrices of the representation's word
table (``PlaceLift.product``), and each of its signs is ``RealPlace.sign``'s,
over a root enclosure refined as far as the cap.  When phi(X) = J X^T J fixes
every generator image, as it fixes the two-bridge A and B, a word spelled
backwards takes the lift of the word itself (``fixed_by_phi``), so the
longitude's v is not walked.

Sign convention: places are ordered by ascending real root, generators get
principal lifts (omega in [0, pi)), and e = (omega_lift - omega_section)/pi,
where the canonical section lifts the longitude (-1, -tau; 0, -1) with
omega = arctan(tau/2).  That convention reproduces the published anchor value
+3 for the first real place of the 13/9 two-bridge knot; it is a convention,
not a theorem.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .errors import (
    MilnorWoodViolated,
    NoLiftExists,
    PrecisionExhausted,
    Undecided,
    require_positive_int,
)
from .knotgroup import Factors, Mat2, MatrixRep, Word, flatten
from .numfield import START_BITS, FieldElement, RealPlace, is_algebraic_integer, is_prime

# an Euler sign decision starts at START_BITS and gives up past PRECISION_CAP
# with a PrecisionExhausted naming the knot and the place
PRECISION_CAP = 1024
EULER_SIGN = 1  # fixed by the 7_3 -> (3, 1) anchor


# 2 alpha(M) = (a + d) + i (b - c) as its (re, im) pair: two elements of K, or
# two balls at a place (``RealPlace.ball``)
Gauss = tuple[FieldElement, FieldElement]
Sign = Callable[[FieldElement], int]
# one product of lifts over M1 and M2: 4 alpha(M1) alpha(M2) and 2 alpha(M1 M2)
Step = tuple[Gauss, Gauss]


def _alpha2(M: Mat2) -> Gauss:
    return M.a + M.d, M.b - M.c


class Lift(NamedTuple):
    """Point of the universal cover over an exact matrix M, which the walk
    holds: omega = Arg alpha(sigma M) + 2 pi m.  ``upper`` records whether
    alpha(sigma M) lies in U = {Arg in (0, pi]} or in L = {Arg in (-pi, 0]}."""

    sigma: int
    m: int
    upper: bool


def _upper(z: Gauss, sigma: int, sign: Sign) -> bool:
    """Whether sigma z lies in U: Im > 0, or Im = 0 and Re < 0 (z != 0)."""
    return sigma * (sign(z[1]) or -sign(z[0])) > 0


def ucover_mul(x: Lift, y: Lift, step: Step, sign: Sign) -> Lift:
    """Group law of the universal cover, over the product M1 M2 of ``step``.

    omega12 = omega1 + omega2 + Arg u with u = alpha12 / (alpha1 alpha2) and
    Re u > 0, so m12 = m1 + m2 + c(alpha1, alpha2) + c(alpha1 alpha2, u).
    The carry c(z1, z2) = (Arg z1 + Arg z2 - Arg z1 z2) / 2 pi is +1 when z1
    and z2 lie in U and z1 z2 in L, -1 when z1 and z2 lie in L and z1 z2 in
    U, and 0 otherwise.  Because Re u > 0, c(alpha1 alpha2, u) is nonzero
    exactly when Re(alpha1 alpha2) < 0 and alpha1 alpha2 and alpha12 lie in
    opposite half-planes, +1 when alpha1 alpha2 lies in U.  The factors'
    half-planes are known, so a step decides only the signs of
    alpha1 alpha2 and alpha12.
    """
    pair, alpha = step
    sigma = x.sigma * y.sigma
    pair_upper = _upper(pair, sigma, sign)
    upper = _upper(alpha, sigma, sign)
    m = x.m + y.m
    if x.upper == y.upper != pair_upper:
        m += 1 if x.upper else -1
    if pair_upper != upper and sigma * sign(pair[0]) < 0:
        m += 1 if pair_upper else -1
    return Lift(sigma, m, upper)


def _inverse(x: Lift, real: bool) -> Lift:
    """Inverse of a lift over M: -omega over adj M, whose alpha is conj
    alpha(M).  Conjugation swaps U and L off the real axis; a negative real
    alpha(sigma M) keeps Arg pi, so its count drops by one more.  ``real``
    says whether alpha(M) is real, b = c."""
    if real:
        return Lift(x.sigma, -x.m - int(x.upper), x.upper)
    return Lift(x.sigma, -x.m, not x.upper)


def ucover_inv(x: Lift, M: Mat2) -> Lift:
    """Inverse of a lift over the exact matrix M (see ``_inverse``)."""
    return _inverse(x, M.b == M.c)


def _central_gap(x: Lift, y: Lift, sign: int) -> int:
    """omega_x - omega_y in units of pi, for lifts x over P and y over Q
    with P = sign Q.  When x.sigma sign = y.sigma, both lie over one matrix
    of SL(2, R) and the gap is 2 (m_x - m_y).  Otherwise
    alpha(x.sigma P) = -alpha(y.sigma Q), whose Arg is pi less than x's when
    x lies in U and pi more when it lies in L."""
    gap = 2 * (x.m - y.m)
    if x.sigma * sign != y.sigma:
        gap += 1 if x.upper else -1
    return gap


def fixed_by_phi(images: Sequence[Mat2]) -> bool:
    """Whether phi(X) = J X^T J, J = (0 1; 1 0), fixes every image, that is
    a = d: phi sends (a b; c d) to (d b; c a).  phi is an anti-automorphism
    of SL(2, R), so it then sends the matrix of each word to the matrix of
    the word spelled backwards.  It keeps alpha, so it lifts to the cover
    keeping omega and fixing each principal generator lift: the lift of the
    backward word is the word's own lift, the same sigma, m and ``upper``."""
    return all(M.a == M.d for M in images)


def _letters(w: Word) -> Factors:
    """w as the product of its letters, each a generator or its inverse."""
    return tuple((Word.gen(g), 1 if e > 0 else -1) for g, e in w.letters for _ in range(abs(e)))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


class PlaceLift:
    """A representation lifted at one real place: principal generator lifts
    (+-G with Arg alpha in [0, pi)), each word lifted once next to its ball
    (``RealPlace.ball`` of its matrix), and the central shifts (in units of
    pi, one per generator) under which every relator lifts to the identity.
    The generator balls are built at ``bits``.  A sign a ball leaves
    undecided is decided exactly, on the matrices of rep's word table
    (``product``), and ``bits`` then grows to the widest root enclosure such
    a decision needed.  When ``fixed_by_phi`` holds for rep's images, a word
    whose backward spelling is lifted already is not walked (``word``)."""

    def __init__(self, rep: MatrixRep, place: RealPlace, bits: int):
        self.rep, self.place, self.bits = rep, place, bits
        self.reversible = fixed_by_phi(rep.images)
        # word -> (its lift, the ball of its matrix)
        self.words: dict[Word, tuple] = {}
        for g, M in enumerate(rep.images):
            B = place.ball(M.entries(), bits)
            (re, im), (x, y) = B.alpha2(), _alpha2(M)
            s = self.decide(im, y)
            lift = Lift(s, 0, True) if s else Lift(self.decide(re, x), 0, False)
            self.words[Word.gen(g)] = lift, B
        self.one = B.one()  # the identity, at the scale of every ball here
        self.shifts: tuple[int, ...] = (0,) * len(rep.images)

    def sign(self, e: FieldElement) -> int:
        s, self.bits = self.place.sign(e, self.bits, PRECISION_CAP)
        return s

    def decide(self, ball, e: FieldElement) -> int:
        """The sign of e here, from its ball, or exactly when the ball holds 0."""
        try:
            return self.place.ball_sign(ball)
        except Undecided:
            return self.sign(e)

    def word(self, w: Word) -> tuple:
        """(lift of w under the principal generator lifts, ball of w).  When
        phi fixes every image and w's backward spelling is lifted already, w
        takes that lift, and that ball with its diagonal swapped, which
        encloses w's matrix (``fixed_by_phi``); else w is walked."""
        data = self.words.get(w)
        if data is None:
            back = self.reversible and self.words.get(w.reversed_letters())
            if back:
                data = back[0], back[1].swap_diagonal()
            else:
                data = self.lift(_letters(w))
            self.words[w] = data
        return data

    def factor(self, w: Word, s: int) -> tuple:
        """(lift, ball) of the factor w, or of w^-1 for s < 0: the inverse of
        w's lift over the adjugate of w's ball."""
        lift, B = self.word(w)
        if s > 0:
            return lift, B
        try:
            self.place.ball_sign(B.alpha2()[1])  # alpha(M) is not real
        except Undecided:
            return ucover_inv(lift, self.rep.word_matrix(w)), B.adjugate()
        return _inverse(lift, False), B.adjugate()

    def lift(self, factors: Factors) -> tuple:
        """(lift, ball) of a product of factor words under the principal
        generator lifts (the shifts are not applied): the lift is walked on
        the balls, or on the exact matrices (``product``) when a ball holds 0."""
        if not factors:
            return Lift(1, 0, False), self.one
        lifts, balls = zip(*(self.factor(w, s) for w, s in factors))
        prefixes = list(itertools.accumulate(balls, operator.mul))
        lift = lifts[0]
        try:
            for P, G, PG, y in zip(prefixes, balls[1:], prefixes[1:], lifts[1:]):
                lift = ucover_mul(lift, y, (P.pair(G), PG.alpha2()), self.place.ball_sign)
        except Undecided:
            lift = self.product(factors)[0]
        return lift, prefixes[-1]

    def product(self, factors: Factors) -> tuple[Lift, Mat2]:
        """Lift of a product of one or more factor words under the principal
        generator lifts, with its exact matrix: walked on the factors'
        matrices from the representation's word table, each step's pair
        4 alpha1 alpha2 one ``dot``, and every sign decided exactly.  The
        factors' own lifts are ``word``'s, so a backward word is not walked
        here either."""
        dot, matrix = self.rep.field.dot, self.rep.word_matrix
        mats = [matrix(w) if s > 0 else matrix(w).adjugate() for w, s in factors]
        lifts = [self.factor(w, s)[0] for w, s in factors]
        lift, M = lifts[0], mats[0]
        x1, y1 = _alpha2(M)
        for G, y in zip(mats[1:], lifts[1:]):
            (x2, y2), M = _alpha2(G), M * G
            pair = dot(x1, x2, -y1, y2), dot(x1, y2, x2, y1)
            x1, y1 = alpha = _alpha2(M)
            lift = ucover_mul(lift, y, (pair, alpha), self.sign)
        return lift, M

    def relator_defect(self, factors: Factors, sign: int) -> int:
        """Central defect, in units of pi, of the lift of a relator whose
        factors evaluate to sign * I: the gap between the lift of all its
        factors but the last and the inverse lift of the last, which lie
        over sign-related matrices.  A one-factor relator closes on its
        last letter."""
        if len(factors) == 1:
            factors = _letters(flatten(factors))
        *head, (w, s) = factors
        return _central_gap(self.lift(tuple(head))[0], self.factor(w, -s)[0], sign)


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


def lift_representation(
    rep: MatrixRep,
    place: RealPlace,
    precision_bits: int = START_BITS,
    offsets: Optional[Sequence[int]] = None,
) -> PlaceLift:
    """Principal lifts of the generator images with every relator defect
    annihilated: starts from the principal lift of each generator (shifted by
    the optional central offsets, exercising lift-independence), measures the
    central defect c^{k_r} of each relator, and solves E m = -k over the
    relator abelianization matrix E.  A central shift moves a word's lift by
    its exponent sums, so no word is walked twice."""
    require_positive_int(precision_bits, "precision_bits")
    pres = rep.presentation
    start = (list(offsets or ()) + [0] * pres.generator_count)[:pres.generator_count]
    lifting = PlaceLift(rep, place, precision_bits)
    E = pres.relator_exponent_matrix()
    defects = [
        lifting.relator_defect(factors, sign) + _dot(row, start)
        for factors, sign, row in zip(pres.relator_factors, rep.relator_signs, E)
    ]
    shifts = start
    if any(defects):
        where = f"{pres.name}: place {place.index}"
        try:
            m = solve_integer_system(E, [-k for k in defects])
        except NoLiftExists as exc:
            raise NoLiftExists(f"{where}: {exc}") from None
        if any(_dot(row, m) + k for row, k in zip(E, defects)):
            raise NoLiftExists(f"{where}: defect correction failed to annihilate a relator")
        shifts = [s + k for s, k in zip(start, m)]
    lifting.shifts = tuple(shifts)
    return lifting


class EulerResult(NamedTuple):
    place_index: int
    n: int
    precision_bits: int  # the widest root enclosure a sign decision needed


def euler_number(
    rep: MatrixRep,
    place: RealPlace,
    precision_bits: int = START_BITS,
    offsets: Optional[Sequence[int]] = None,
) -> EulerResult:
    """Euler number e([F]) at a real place: the central gap, in units of pi,
    between the lifted longitude and the canonical section.  The longitude
    lifts over sigma (-1, -tau; 0, -1) with count m: for sigma = -1 its Arg
    is the section's arctan(tau/2), so the gap is 2m; for sigma = 1 its Arg
    is arctan(tau/2) + pi if tau <= 0, else arctan(tau/2) - pi.  The relator
    shifts then add their exponent sums along the longitude."""
    require_positive_int(precision_bits, "precision_bits")
    pres = rep.presentation
    name = pres.name
    if PRECISION_CAP < precision_bits:
        raise PrecisionExhausted(
            f"{name}: euler number at place {place.index}: no rung ran, the start "
            f"precision {precision_bits} bits exceeds the cap {PRECISION_CAP} bits"
        )
    try:
        lifting = lift_representation(rep, place, precision_bits, offsets)
        lift, ball = lifting.lift(pres.longitude_factors)
        tau = rep.longitude_translation()
        flip = rep.longitude_matrix().a == -1  # tau = -b, else tau = b
        sigma = lift.sigma if flip else -lift.sigma
        n = 2 * lift.m
        if sigma == 1:
            n += 1 if lifting.decide((-ball.b if flip else ball.b, ball.r), tau) <= 0 else -1
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(
            f"{name}: euler number at place {place.index} failed up to {PRECISION_CAP} bits: {exc}"
        ) from None
    n += _dot(pres.longitude.exponent_sums(pres.generator_count), lifting.shifts)
    return EulerResult(
        place_index=place.index,
        n=EULER_SIGN * n,
        precision_bits=lifting.bits,
    )


def euler_tuple(rep: MatrixRep) -> tuple[EulerResult, ...]:
    """Euler numbers at every real place, ordered by ascending real root."""
    return tuple(euler_number(rep, place) for place in rep.field.real_places())


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


CENSUS = "census"  # the source of a fact the census row states


class Fact(NamedTuple):
    """One hypothesis of the verdict: its value, and its source, ``CENSUS``
    or the name of the certificate that decided it."""

    value: Any
    source: str


class Hypotheses(NamedTuple):
    """Every fact the verdict engine reads, decided once per knot."""

    genus: Fact
    fibered: Fact
    known_unique: Fact
    degree: Fact
    no_real_subfield: Fact
    no_quadratic_subfield: Fact
    integral_traces: Fact

    @property
    def no_closed_tgs(self) -> bool:
        """The arithmetic rule: odd degree, no proper real subfield and
        integral traces exclude closed totally geodesic surfaces."""
        return bool(self.degree.value % 2 and self.no_real_subfield.value
                    and self.integral_traces.value)


def closed_surface_obstruction(rep: MatrixRep, census: dict) -> Hypotheses:
    """The hypotheses of rep's knot: each fact is its row's census value
    (``census`` maps a fact's name to it) unless a certificate decides it
    and names itself as the fact's source.  The degree is the minimal
    polynomial's.  An odd prime degree certifies "no proper real subfield"
    and ignores the flag; otherwise that fact is the census flag, or None.
    "No quadratic subfield" is the census flag when one is present, at any
    degree; without one an odd degree certifies it, and it is None at even
    degree.  Traces are integral when they are over the trace-generating
    words."""
    d = rep.field.degree
    facts = {key: Fact(census.get(key), CENSUS) for key in Hypotheses._fields}
    facts["degree"] = Fact(d, "minimal polynomial")
    if d % 2 and is_prime(d):
        facts["no_real_subfield"] = Fact(True, "odd prime degree")
    if d % 2 and census.get("no_quadratic_subfield") is None:
        facts["no_quadratic_subfield"] = Fact(True, "odd degree")
    words = _trace_generating_words(rep)
    integral = all(is_algebraic_integer(rep.word_matrix(w).trace()) for w in words)
    facts["integral_traces"] = Fact(integral, "trace-generating words")
    return Hypotheses(**facts)


VERDICT_NO_TGS_FIBERED = "NoTGS_fibered"
VERDICT_NO_TGS_EULER = "NoTGS_euler_bound"
VERDICT_NO_CLOSED = "NoClosedTGS_arithmetic"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_KNOWN_UNIQUE = "KnownUniqueSurface"


class ObstructionReport(NamedTuple):
    euler: tuple[int, ...]
    verdict: str
    justification: str


def obstruction_verdict(
    name: str, hypotheses: Hypotheses, euler_results: Sequence[EulerResult]
) -> ObstructionReport:
    """Apply the obstruction rules in their fixed order, reading every fact
    from ``hypotheses``.

    Milnor-Wood is checked first for every computed value (|e| <= 2g-1);
    a violation aborts, since it can only mean a computation bug.  Then:
    known-unique tag, genus-1 short circuit, fibered rule, the
    Euler-vs-genus inequality, and the closed-surface fallback.  The
    inequality's justification calls the field hypotheses "data-flagged"
    when the census states "no proper real subfield", else "certified".
    """
    euler = tuple(r.n for r in euler_results)
    genus = hypotheses.genus.value

    if genus is not None:
        bound = 2 * genus - 1
        for r in euler_results:
            if abs(r.n) > bound:
                raise MilnorWoodViolated(
                    f"{name}: |e| = {abs(r.n)} exceeds 2g-1 = {bound} at place {r.place_index}"
                )

    def report(verdict, justification):
        return ObstructionReport(euler, verdict, justification)

    if hypotheses.known_unique.value:
        return report(
            VERDICT_KNOWN_UNIQUE,
            "unique totally geodesic surface established in the literature; "
            "Euler data cannot improve on it (genus-1 bound is saturated)",
        )
    if genus == 1:
        if hypotheses.no_closed_tgs:
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
    if hypotheses.fibered.value:
        return report(
            VERDICT_NO_TGS_FIBERED,
            "fibered knot: the fibered-case Euler-class obstruction applies at "
            "every real place",
        )
    no_real = hypotheses.no_real_subfield
    if genus is not None and euler and no_real.value and hypotheses.no_quadratic_subfield.value:
        bound = 2 * genus - 1
        best = min(abs(n) for n in euler)
        if best < bound:
            cert = "data-flagged" if no_real.source == CENSUS else "certified"
            return report(
                VERDICT_NO_TGS_EULER,
                f"some real place has |e| = {best} < 2g-1 = {bound} and the field "
                f"hypotheses hold ({cert}); no totally geodesic surfaces",
            )
    if hypotheses.no_closed_tgs:
        return report(
            VERDICT_NO_CLOSED,
            "arithmetic rule excludes closed totally geodesic surfaces; nothing "
            "stronger applies",
        )
    return report(VERDICT_INCONCLUSIVE, "no obstruction rule applies")
