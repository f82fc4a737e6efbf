"""Exact-arithmetic toolkit for totally geodesic surface obstructions in
hyperbolic knot complements.

Layers, bottom up: exact polynomials (`polycore`), number-field arithmetic
(`numfield`), words and matrix representations (`knotgroup`), the balanced
pretzel family (`pretzel`), boundary-slope systems (`slopes`), the relative
Euler class and verdict engine (`eulerclass`), boundary geometry and SVG
(`mobius`), and census orchestration (`pipeline`).
"""

from .errors import GeodesicaError
from .polycore import (
    RatPoly,
    complex_roots,
    irreducibility_certificate,
    sturm_real_roots,
)
from .numfield import (
    FieldElement,
    NumberField,
    RealPlace,
    is_algebraic_integer,
    minimal_polynomial,
    nf_inverse,
)
from .knotgroup import (
    KnotPresentation,
    Mat2,
    MatrixRep,
    Word,
    build_representation,
    evaluate_word,
    riley_polynomial,
    two_bridge_presentation,
)
from .pretzel import (
    alpha_beta_delta,
    lambda_poly,
    pretzel_holonomy,
    psi_root_census,
    tangency_chain,
)
from .slopes import SlopeCase, build_system, slope_set_for_knot, solve_system
from .eulerclass import (
    EulerResult,
    euler_number,
    euler_tuple,
    lift_representation,
    obstruction_verdict,
    closed_surface_obstruction,
    ucover_mul,
)
from .mobius import (
    Cline,
    ExactCline,
    INF,
    mobius_apply,
    render_svg,
    tangency,
    uniqueness_system,
)
from .pipeline import load_census, run

__version__ = "0.1.0"
