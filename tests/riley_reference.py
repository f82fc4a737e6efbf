"""The two-bridge Riley word and Riley polynomial as the package computed them
before W was built by column shears over Z[z]: W as a product of matrix
powers over Q[z] (Fraction-coefficient ``RatPoly``), and the monic
square-free gcd of the four entries of A W - W B.  Kept as the reference the
property tests compare the shear path against.
"""

from geodesica.errors import NotTwoBridge
from geodesica.knotgroup import Mat2, Word
from geodesica.polycore import RatPoly, poly_gcd, square_free_part

Z = RatPoly.x()
A = Mat2(RatPoly.one(), RatPoly.one(), RatPoly.zero(), RatPoly.one())
B = Mat2(RatPoly.one(), RatPoly.zero(), Z, RatPoly.one())


def evaluate_word(images, w: Word) -> Mat2:
    """Product of the generator-image powers w spells."""
    out = None
    for g, e in w.letters:
        m = images[g] ** e
        out = m if out is None else out * m
    return Mat2.identity(images[0].ring()) if out is None else out


def riley_word(w: Word) -> Mat2:
    """W, the image of w under a -> A = (1 1; 0 1), b -> B = (1 0; z 1)."""
    return evaluate_word((A, B), w)


def riley_polynomial(pres) -> RatPoly:
    W = riley_word(pres.w)
    g = RatPoly.zero()
    for x, y in zip((A * W).entries(), (W * B).entries()):
        entry = x - y
        g = entry if g.is_zero() else poly_gcd(g, entry)
    if g.is_zero():
        raise NotTwoBridge("a.w == w.b identically; degenerate presentation")
    return square_free_part(g)
