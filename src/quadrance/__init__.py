"""Exact one-dimensional metrical geometry.

Quadrance on the affine line, projective quadrance over arbitrary
non-degenerate forms, spread polynomials, chromogeometry, and the blue,
red, and green projective isometry groups, all in exact arithmetic over
the rationals or any odd prime field, with randomized and exhaustive
verification of every identity.

``import quadrance`` loads the kernels only.  The verifier, ``Report`` and
``run_suite``, is imported from ``quadrance.verify`` the first time either
name is read.
"""

from .affine import (
    AffineIsometry,
    AffinePoint,
    archimedes,
    brahmagupta_product,
    heron_product,
    is_quad_triple,
    isometry_apply,
    isometry_classify,
    isometry_compose,
    isometry_invert,
    quadrance,
    quadruple_quad_fn,
    solve_quad_triple_pair,
)
from .chromo import Color, colored_form, colored_quadrance, perpendicular_point, reciprocal_sum
from .errors import QuadranceError
from .field import Fp, FieldContext, PrimeContext, RationalContext, make_context
from .isometry import (
    IsoKind,
    ProjIsometry,
    ProjMatrix,
    blue_sqrt,
    classify,
    compose,
    make_isometry,
    multiply_points,
    point_power,
)
from .isometry import apply as isometry_apply_projective
from .projective import (
    Form,
    ProjPoint,
    discriminant,
    is_null,
    is_perpendicular,
    is_spread_triple,
    p_quadrance,
    projective_quadruple_check,
    quadruple_spread_fn,
    solve_spread_triple_pair,
    triple_spread_fn,
)
from .spreadpoly import (
    IntPolynomial,
    chebyshev_T,
    poly_compose,
    poly_eval,
    spread_at_green_ratio,
    spread_cyclotomic,
    spread_poly,
    spread_via_chebyshev,
)

__version__ = "0.1.0"

__all__ = [
    "AffineIsometry",
    "AffinePoint",
    "Color",
    "FieldContext",
    "Form",
    "Fp",
    "IntPolynomial",
    "IsoKind",
    "PrimeContext",
    "ProjIsometry",
    "ProjMatrix",
    "ProjPoint",
    "QuadranceError",
    "RationalContext",
    "Report",
    "archimedes",
    "blue_sqrt",
    "brahmagupta_product",
    "chebyshev_T",
    "classify",
    "colored_form",
    "colored_quadrance",
    "compose",
    "discriminant",
    "heron_product",
    "is_null",
    "is_perpendicular",
    "is_quad_triple",
    "is_spread_triple",
    "isometry_apply",
    "isometry_apply_projective",
    "isometry_classify",
    "isometry_compose",
    "isometry_invert",
    "make_context",
    "make_isometry",
    "multiply_points",
    "p_quadrance",
    "perpendicular_point",
    "point_power",
    "poly_compose",
    "poly_eval",
    "projective_quadruple_check",
    "quadrance",
    "quadruple_quad_fn",
    "quadruple_spread_fn",
    "reciprocal_sum",
    "run_suite",
    "solve_quad_triple_pair",
    "solve_spread_triple_pair",
    "spread_at_green_ratio",
    "spread_cyclotomic",
    "spread_poly",
    "spread_via_chebyshev",
    "triple_spread_fn",
]

_VERIFY_NAMES = frozenset({"Report", "run_suite"})


def __getattr__(name: str):
    """Read the verifier's names from quadrance.verify, importing it on first use."""
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _VERIFY_NAMES)
