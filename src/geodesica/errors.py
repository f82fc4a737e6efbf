"""Exception hierarchy shared across the toolkit.

Every named failure mode raises a distinct class so callers (and the
pipeline's report assembly) can branch on the type rather than parse
messages.
"""


class GeodesicaError(Exception):
    """Base class for all library errors."""


class ZeroModulus(GeodesicaError):
    """Polynomial reduction attempted with the zero modulus."""


class ZeroPolynomial(GeodesicaError):
    """Operation undefined for the zero polynomial."""


class RepeatedRoots(GeodesicaError):
    """Root finder requires a square-free input; caller must deflate."""


class HalfPlaneUndecided(GeodesicaError):
    """p(x) and p(-x) share a root, so Routh-Hurwitz cannot split p's roots."""


class NotIsolating(GeodesicaError):
    """A root-isolating interval has a root at an endpoint or no sign change."""


class DivisionByZero(GeodesicaError):
    """Field inverse of zero."""


class PrecisionExhausted(GeodesicaError):
    """Certified decision impossible within the precision cap."""


class Undecided(Exception):
    """A ball holds 0, so its sign is not decided at its precision; the
    caller decides the sign exactly instead.  It never leaves the package,
    so it is not a GeodesicaError."""


class NoComplexPlace(GeodesicaError):
    """The field has no certified root with positive imaginary part, so it
    has no geometric (holonomy) embedding."""


class BadFraction(GeodesicaError):
    """Invalid two-bridge fraction (p even, or gcd(p, q) != 1, or q out of range)."""


class NotTwoBridge(GeodesicaError):
    """Presentation does not have the two-bridge relator shape a w b^-1 w^-1."""


class NotARepresentation(GeodesicaError):
    """Generator images fail to satisfy the group relators."""


class IdentityFailed(GeodesicaError):
    """A pinned matrix identity failed; the offending word is in the message."""


class FactorIdentityFailed(GeodesicaError):
    """A pretzel entry/factorization identity failed."""


class NoLiftExists(GeodesicaError):
    """Relator defect system has no integer solution (signals bad input data)."""


class MilnorWoodViolated(GeodesicaError):
    """A computed Euler number exceeded 2g-1; signals a computation bug."""


class IncompleteCaseAnalysis(GeodesicaError):
    """Slope case descriptors missing for a knot; result would not be exhaustive."""


class UnsupportedCase(GeodesicaError):
    """Uniqueness-system expansion shape not supported."""


class DegenerateCline(GeodesicaError):
    """Three defining points do not determine a circle or line."""


class BadCensus(GeodesicaError):
    """Census file violates the schema; message carries record name and field."""


class BadArgument(GeodesicaError, ValueError):
    """A flag or argument lies outside its valid range
    (also a ValueError, for callers that catch the builtin)."""


def require_positive_int(value, what: str) -> int:
    """value if it is an int >= 1 (bool excluded); otherwise BadArgument
    naming `what`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise BadArgument(f"{what} must be a positive integer, got {value!r}")
    return value
