from fractions import Fraction as Fr

import pytest

from quadrance.chromo import Color
from quadrance.errors import InvalidArgument, QuadranceError
from quadrance.isometry import ProjMatrix, point_power
from quadrance.projective import Form, ProjPoint
from quadrance.spreadpoly import (
    chebyshev_T,
    spread_at_green_ratio,
    spread_cyclotomic,
    spread_poly,
    spread_via_chebyshev,
)

INVALID_CALLS = {
    "zero-point": lambda: ProjPoint(Fr(0), Fr(0)),
    "zero-form": lambda: Form(0, 0, 0),
    "zero-matrix": lambda: ProjMatrix(0, 0, 0, 0),
    "point-power-zero": lambda: point_power(Color.BLUE, ProjPoint(1, 2), 0),
    "spread-poly-negative": lambda: spread_poly(-1),
    "chebyshev-negative": lambda: chebyshev_T(-1),
    "spread-via-chebyshev-zero": lambda: spread_via_chebyshev(0),
    "spread-cyclotomic-zero": lambda: spread_cyclotomic(0),
    "green-ratio-zero": lambda: spread_at_green_ratio(Fr(1), Fr(2), 0),
}


@pytest.mark.parametrize("site", sorted(INVALID_CALLS))
def test_invalid_arguments_raise_a_library_error(site):
    # a QuadranceError for the CLI, and still a ValueError for older callers
    with pytest.raises(InvalidArgument) as info:
        INVALID_CALLS[site]()
    assert isinstance(info.value, QuadranceError)
    assert isinstance(info.value, ValueError)
