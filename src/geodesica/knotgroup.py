"""Free-group words, 2x2 matrices over a number field, two-bridge
presentations, and Riley representations.

All group-theoretic equality checks are projective: matrices compare equal
iff they agree up to a global sign, since everything downstream happens in
PSL(2).
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

from .errors import (
    BadFraction,
    IdentityFailed,
    NotARepresentation,
    NotTwoBridge,
)
from .numfield import FieldElement, NumberField
from .polycore import RatPoly, poly_gcd, square_free_part

# the largest two-bridge p: a census row at p = 3001 spends 0.9 s building W
# before its minpoly is checked (2 vCPUs, Python 3.11); the census has p <= 45
MAX_TWO_BRIDGE_P = 3001


class Word:
    """Freely reduced word over indexed generators.

    Stored as a tuple of (generator index, nonzero exponent) with adjacent
    letters having distinct indices.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[tuple[int, int]] = ()):
        self.letters: tuple[tuple[int, int], ...] = self._reduce(letters)

    @staticmethod
    def _reduce(letters) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        for g, e in letters:
            if e == 0:
                continue
            if out and out[-1][0] == g:
                s = out[-1][1] + e
                out.pop()
                if s != 0:
                    out.append((g, s))
            else:
                out.append((g, e))
        return tuple(out)

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def gen(cls, g: int, e: int = 1) -> "Word":
        return cls(((g, e),))

    @classmethod
    def from_string(cls, text: str, names: Sequence[str]) -> "Word":
        """Parse words like "a b^-1 a^2" or "s1 s2^-1" over named generators."""
        index = {n: i for i, n in enumerate(names)}
        letters = []
        for tok in text.split():
            m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(-?\d+))?", tok)
            if not m or m.group(1) not in index:
                raise ValueError(f"cannot parse word token {tok!r} over {list(names)}")
            letters.append((index[m.group(1)], int(m.group(2) or 1)))
        return cls(letters)

    def to_string(self, names: Sequence[str]) -> str:
        parts = []
        for g, e in self.letters:
            parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        return " ".join(parts) if parts else "1"

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def reversed_letters(self) -> "Word":
        """The word spelled backwards (NOT the inverse).  Reversal keeps a
        reduced word reduced, so the letters are shared, not reduced again."""
        out = Word.__new__(Word)
        out.letters = self.letters[::-1]
        return out

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word.identity()
        base = self if n > 0 else self.inverse()
        return Word(base.letters * abs(n))

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return sum(abs(e) for _, e in self.letters)

    def __repr__(self):
        return f"Word({list(self.letters)})"

    def exponent_sums(self, generator_count: int) -> tuple[int, ...]:
        sums = [0] * generator_count
        for g, e in self.letters:
            sums[g] += e
        return tuple(sums)


class Mat2:
    """2x2 matrix over an exact ring: a number field, or Q[z] as RatPoly for
    the pretzel entry identities, where no modulus is in play.  The ring
    supplies 0 and 1 through ``one()`` and ``zero()``, and each product entry
    a*b + c*d through ``dot``."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, ring) -> "Mat2":
        """The identity over ``ring``: a NumberField, or the RatPoly class."""
        return cls(ring.one(), ring.zero(), ring.zero(), ring.one())

    def ring(self):
        """What supplies the entries' 0 and 1 (see ``identity``)."""
        return self.a.field if isinstance(self.a, FieldElement) else type(self.a)

    def __mul__(self, o: "Mat2") -> "Mat2":
        dot = self.ring().dot
        return Mat2(
            dot(self.a, o.a, self.b, o.c),
            dot(self.a, o.b, self.b, o.d),
            dot(self.c, o.a, self.d, o.c),
            dot(self.c, o.b, self.d, o.d),
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inverse(self) -> "Mat2":
        """Inverse of a det-1 matrix: its adjugate, after an exact det check."""
        if self.det() != self.ring().one():
            raise NotARepresentation("Mat2.inverse needs a det-1 matrix")
        return self.adjugate()

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.c == other.c and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def proj_equal(self, other: "Mat2") -> bool:
        """Equality in PSL(2): equal or negatives."""
        return self == other or self == -other

    def is_proj_identity(self) -> bool:
        return self.proj_equal(Mat2.identity(self.ring()))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}; {self.c!r}, {self.d!r})"

    def __pow__(self, n: int) -> "Mat2":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Mat2.identity(self.ring()) if out is None else out


# A word held as a product of factor words: (word, 1) for the word itself and
# (word, -1) for its inverse.  A representation evaluates each distinct
# factor word once.
Factors = tuple[tuple[Word, int], ...]


def flatten(factors: Factors) -> Word:
    """The freely reduced word a product of factor words spells."""
    return Word(tuple(
        letter
        for word, sign in factors
        for letter in (word if sign > 0 else word.inverse()).letters
    ))


class KnotPresentation:
    """Finite presentation with a marked meridian and homological longitude.

    Each relator and the longitude are also held as products of factor
    words; by default each is its own single factor.  A two-bridge
    presentation keeps its word w, and factors its relator as a w b^-1 w^-1
    and its longitude as w v a^-2e.
    """

    def __init__(self, name: str, generator_names: tuple[str, ...],
                 relators: tuple[Word, ...], meridian: Word, longitude: Word,
                 relator_factors: Optional[tuple[Factors, ...]] = None,
                 longitude_factors: Optional[Factors] = None, w: Optional[Word] = None):
        self.name, self.generator_names, self.relators = name, generator_names, relators
        self.meridian, self.longitude, self.w = meridian, longitude, w
        if relator_factors is None:
            relator_factors = tuple(((r, 1),) for r in relators)
        if longitude_factors is None:
            longitude_factors = ((longitude, 1),)
        self.relator_factors, self.longitude_factors = relator_factors, longitude_factors
        if (
            tuple(map(flatten, self.relator_factors)) != tuple(self.relators)
            or flatten(self.longitude_factors) != self.longitude
        ):
            raise ValueError(f"{self.name}: factors do not spell the relators and longitude")
        n = len(self.generator_names)
        total = sum(self.longitude.exponent_sums(n))
        if total != 0:
            raise ValueError(
                f"{self.name}: longitude abelianization total is {total}, expected 0"
            )

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    def relator_exponent_matrix(self) -> list[list[int]]:
        n = self.generator_count
        return [list(r.exponent_sums(n)) for r in self.relators]


def two_bridge_presentation(p: int, q: int, name: str | None = None) -> KnotPresentation:
    """Standard two-bridge presentation for the fraction p/q.

    Generators a, b; relator a w b^-1 w^-1 with
    w = b^{e_1} a^{e_2} ... a^{e_{p-1}}, e_i = (-1)^floor(i q / p);
    longitude w v a^{-2e} with v the word w spelled backwards and
    e = sum(e_i).  The sign formula needs an odd q, so an even q is replaced
    by q - p, which names the same knot (K(p, q) depends on q mod p).
    """
    if p <= 0 or p % 2 == 0 or not (0 < q < p) or math.gcd(p, q) != 1:
        raise BadFraction(f"invalid two-bridge fraction {p}/{q}")
    if p > MAX_TWO_BRIDGE_P:
        raise BadFraction(f"two-bridge p = {p} exceeds the bound {MAX_TWO_BRIDGE_P}")
    odd_q = q if q % 2 else q - p
    eps = [1 if ((i * odd_q) // p) % 2 == 0 else -1 for i in range(1, p)]
    # odd positions are b
    w = Word([(1 if i % 2 == 1 else 0, e) for i, e in enumerate(eps, start=1)])
    a, b = Word.gen(0), Word.gen(1)
    relator = ((a, 1), (w, 1), (b, -1), (w, -1))
    e = sum(eps)
    longitude = ((w, 1), (w.reversed_letters(), 1))
    if e:
        longitude += ((Word.gen(0, -2 * e), 1),)
    return KnotPresentation(
        name=name or f"two_bridge({p}/{q})",
        generator_names=("a", "b"),
        relators=(flatten(relator),),
        meridian=a,
        longitude=flatten(longitude),
        relator_factors=(relator,),
        longitude_factors=longitude,
        w=w,
    )


def _two_bridge_word(pres: KnotPresentation) -> Word:
    if pres.w is None:
        raise NotTwoBridge(f"{pres.name}: not a two-bridge presentation")
    return pres.w


def _shear(x: list[int], y: list[int], e: int, shift: int):
    """x += e z^shift y, in place, for integer coefficient lists over Z[z]."""
    x.extend([0] * (len(y) + shift - len(x)))
    for i, v in enumerate(y, shift):
        x[i] += e * v


def _riley_word(w: Word) -> tuple[list[int], list[int], list[int], list[int]]:
    """The entries (a, b; c, d) of W, the image of w under a -> A = (1 1; 0 1)
    and b -> B = (1 0; z 1), as integer coefficient lists over Z[z].  Each
    letter is a column shear (Riley 1972): right-multiplying by A^e adds e
    times column 1 to column 2, and by B^e adds e z times column 2 to column 1."""
    a, b, c, d = [1], [0], [0], [1]
    for g, e in w.letters:
        if g == 0:
            _shear(b, a, e, 0)
            _shear(d, c, e, 0)
        else:
            _shear(a, b, e, 1)
            _shear(c, d, e, 1)
    return a, b, c, d


def riley_polynomial(pres: KnotPresentation) -> RatPoly:
    """Square-free polynomial whose roots parameterize the parabolic
    representations a -> (1 1; 0 1), b -> (1 0; z 1) of a two-bridge group.

    A W - W B = (W.c - z W.b, W.d; -z W.d, 0) over Z[z], so this is the
    monic square-free part of gcd(W.c - z W.b, W.d).
    """
    _, b, c, d = _riley_word(_two_bridge_word(pres))
    _shear(c, b, -1, 1)  # c is now W.c - z W.b
    g = poly_gcd(RatPoly(c), RatPoly(d))
    if g.is_zero():
        raise NotTwoBridge("a.w == w.b identically; degenerate presentation")
    return square_free_part(g)


# ---------------------------------------------------------------------------
# Representations over a number field
# ---------------------------------------------------------------------------


class MatrixRep:
    """Assignment of generators to det-1 matrices over a number field,
    verified on construction."""

    def __init__(self, presentation: KnotPresentation, field: NumberField,
                 images: tuple[Mat2, ...], word_table: Optional[dict[Word, Mat2]] = None,
                 relator_signs: Optional[Sequence[Optional[int]]] = None):
        self.presentation, self.field, self.images = presentation, field, images
        # exact matrices of words (the presentation's factor words among
        # them), each evaluated once and shared by verify, the longitude and
        # every place; build_representation enters the W of its Riley decision
        self.word_table = {} if word_table is None else word_table
        # exact peripheral data, computed on first use and shared by every
        # place, precision rung and check that reads it
        self._longitude: Optional[Mat2] = None
        self._tau: Optional[FieldElement] = None
        self.verify(relator_signs)

    def verify(self, relator_signs: Optional[Sequence[Optional[int]]] = None):
        """Check det 1, relators +-I and a parabolic meridian; record in
        ``relator_signs`` each relator's sign, +1 for I and -1 for -I.  A
        relator whose sign the caller gives (not None) is not multiplied out."""
        K = self.field
        for i, m in enumerate(self.images):
            if m.det() != K.one():
                raise NotARepresentation(
                    f"{self.presentation.name}: generator {i} image has det != 1"
                )
        pres = self.presentation
        signs = list(relator_signs or [None] * len(pres.relators))
        for i, (r, factors) in enumerate(zip(pres.relators, pres.relator_factors)):
            if signs[i] is None:
                M = self.factor_product(factors)
                if not M.is_proj_identity():
                    raise NotARepresentation(
                        f"{pres.name}: relator {r!r} does not evaluate to +-I"
                    )
                signs[i] = 1 if M.a == K.one() else -1
        self.relator_signs = tuple(signs)
        tr = self.word_matrix(pres.meridian).trace()
        if tr != K.rational(2) and tr != K.rational(-2):
            raise NotARepresentation(f"{pres.name}: meridian image is not parabolic")

    def word_matrix(self, w: Word) -> Mat2:
        m = self.word_table.get(w)
        if m is None:
            m = self.word_table[w] = evaluate_word(self.images, w)
        return m

    def factor_product(self, factors: Factors) -> Mat2:
        """Product of factor words, an inverse factor taken as the adjugate
        (verify checks first that every image has det 1)."""
        out = None
        for w, sign in factors:
            m = self.word_matrix(w)
            if sign < 0:
                m = m.adjugate()
            out = m if out is None else out * m
        return Mat2.identity(self.field) if out is None else out

    def longitude_matrix(self) -> Mat2:
        if self._longitude is None:
            self._longitude = self.factor_product(self.presentation.longitude_factors)
        return self._longitude

    def longitude_translation(self) -> FieldElement:
        """tau with longitude image (-1, -tau; 0, -1), after sign normalization."""
        if self._tau is None:
            L = self.longitude_matrix()
            K = self.field
            if L.c != K.zero():
                raise NotARepresentation(
                    f"{self.presentation.name}: longitude image is not upper triangular"
                )
            if L.a == K.rational(-1):
                self._tau = -L.b
            elif L.a == K.rational(1):
                self._tau = L.b  # (-1)*(matrix) has the (-1,-tau;0,-1) shape
            else:
                raise NotARepresentation(
                    f"{self.presentation.name}: longitude image diagonal is not +-1"
                )
        return self._tau


def evaluate_word(images: Sequence[Mat2], w: Word) -> Mat2:
    """Exact product of generator-image powers.  A representation's words
    are read through ``MatrixRep.word_matrix``, whose table calls this once
    per word; the pretzel identities call it on their images over Q[z]."""
    out = None
    for g, e in w.letters:
        m = images[g] ** e
        out = m if out is None else out * m
    return Mat2.identity(images[0].ring()) if out is None else out


def build_representation(pres: KnotPresentation, minpoly: RatPoly, name: str = "Q(z)") -> MatrixRep:
    """Riley representation of a two-bridge presentation over Q[z]/(minpoly).

    The minpoly must divide the Riley polynomial, the square-free part of
    the gcd of the entries of A.W - W.B: decided in K = Q[z]/(minpoly) as
    A.W == W.B, which reads W.d = 0 and W.c = z W.b, and minpoly square-free.
    W is built by shears over Z[z] and each entry reduced into K once.
    A.W == W.B is the relator a w b^-1 w^-1 = I, so its sign is +1; any
    other relator is verified to evaluate to +-I.

    X -> J X^T J with J = (0 1; 1 0) is an anti-automorphism that fixes A
    and B, so the longitude's v, w spelled backwards, evaluates to
    (W.d, W.b; W.c, W.a); the word table holds it next to W, with the
    longitude's last factor a^k, k = -2e, as A^k = (1 k; 0 1).
    """
    K = NumberField(minpoly, name)
    one, zero, z = K.one(), K.zero(), K.gen()
    images = (Mat2(one, one, zero, one), Mat2(one, zero, z, one))
    w = _two_bridge_word(pres)
    W = Mat2(*(K._make(x, 1) for x in _riley_word(w)))
    if W.d != zero or W.c != z * W.b or poly_gcd(minpoly, minpoly.derivative()).degree > 0:
        raise NotARepresentation(
            f"{pres.name}: minpoly does not divide the Riley polynomial"
        )
    table = {w: W, w.reversed_letters(): Mat2(W.d, W.b, W.c, W.a)}
    k = -2 * sum(e for _, e in w.letters)
    if k:
        table[Word.gen(0, k)] = Mat2(one, K.rational(k), zero, one)
    riley = ((Word.gen(0), 1), (w, 1), (Word.gen(1), -1), (w, -1))
    signs = [1 if factors == riley else None for factors in pres.relator_factors]
    return MatrixRep(pres, K, images, word_table=table, relator_signs=signs)


def normalize_peripheral(rep: MatrixRep) -> MatrixRep:
    """Conjugate so the meridian image fixes infinity (upper triangular).

    The commuting longitude shares the parabolic fixed point, so it becomes
    upper triangular as well; downstream sectioning relies on that shape.
    User-supplied explicit representations arrive in arbitrary position, so
    the census loader funnels everything through here.  Conjugation fixes
    +-I, so the result keeps rep's relator signs and multiplies none out.
    """
    m = rep.word_matrix(rep.presentation.meridian)
    K = rep.field
    if m.c.is_zero():
        return rep
    # a parabolic has the double fixed point (a - d) / (2c)
    x = (m.a - m.d) / (K.rational(2) * m.c)
    g = Mat2(K.zero(), -K.one(), K.one(), -x)  # det 1, sends x to infinity
    ginv = g.inverse()
    images = tuple(g * im * ginv for im in rep.images)
    return MatrixRep(rep.presentation, K, images, relator_signs=rep.relator_signs)


# ---------------------------------------------------------------------------
# 7_4 subgroup identities (the twice-punctured torus inside 15/11)
# ---------------------------------------------------------------------------


def verify_subgroup_identities(rep: MatrixRep) -> dict:
    """Check the pinned matrix identities for the 7_4 surface subgroup.

    Raises IdentityFailed naming the first failing word; returns a record of
    the verified matrices on success.
    """
    pres = rep.presentation
    K = rep.field
    z = K.gen()
    x = Word.gen(0)
    y = Word.gen(1)
    w = _two_bridge_word(pres)
    ell = pres.longitude

    u = (z - 1) * (z - 2)  # (z-1)(z-2)
    s = z * z - z - 1

    expected = {
        "a = x^2 ell": (x * x * ell, Mat2(K.rational(-1), 4 * u, K.zero(), K.rational(-1))),
        "b = w y^-1 x y^-1 x y^-1": (
            w * y ** -1 * x * y ** -1 * x * y ** -1,
            Mat2(K.rational(5), 3 * u, s, K.rational(-1)),
        ),
        "c = x^-1 w x y^-1 x w^-1 x^2 w^-1 x": (
            x ** -1 * w * x * y ** -1 * x * w.inverse() * x * x * w.inverse() * x,
            Mat2(K.rational(7), 11 * u, s, K.rational(-3)),
        ),
    }
    verified = {}
    mats = {}
    for label, (word, target) in expected.items():
        got = rep.word_matrix(word)
        if not (got == target):
            raise IdentityFailed(f"7_4 identity failed for word {label}")
        verified[label] = True
        mats[label.split(" ")[0]] = got

    a_m, b_m, c_m = mats["a"], mats["b"], mats["c"]
    d_m = a_m.inverse() * c_m * b_m.inverse() * c_m.inverse() * b_m
    d_target = Mat2(K.rational(-1), K.zero(), 4 * s, K.rational(-1))
    if not (d_m == d_target):
        raise IdentityFailed("7_4 identity failed for word d = a^-1 c b^-1 c^-1 b")
    verified["d = a^-1 c b^-1 c^-1 b"] = True

    w_m = rep.word_matrix(w)
    lhs = w_m * d_m * w_m.inverse()
    rhs = rep.word_matrix(x ** -2 * ell)
    if not lhs.proj_equal(rhs):
        raise IdentityFailed("7_4 identity failed: w d w^-1 != x^-2 ell")
    verified["w d w^-1 = x^-2 ell"] = True
    return verified
