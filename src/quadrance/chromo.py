"""The blue, red, and green metrical structures and their interactions.

The three distinguished forms are blue (1:0:1), red (1:0:-1), and green
(0:1:0).  Each color has its own perpendicular map and its own p-quadrance,
computed here from the per-color closed formulas, which stay: the same
(num, den) from the general form's discriminant and form values made the
ten rational verify suites (200 trials) about 20% slower, in 6 of 6
alternating runs (Python 3.11, 2 vCPUs).  Their agreement with the
general-form projective quadrance is checked in tests/test_chromo.py; the
verification suites do not check it.  colored_quadrance clears rational
coordinates to integers (field.clear_denominators) before it applies the
formula.
"""

from __future__ import annotations

import enum

from .errors import CoincidentPoints, NullPoint
from .field import clear_denominators, exact_div
from .projective import Form, ProjPoint


class Color(enum.Enum):
    BLUE = "blue"
    RED = "red"
    GREEN = "green"

    def __str__(self):
        return self.value


# The members bound once: on Python 3.10 and 3.11 reading Color.BLUE goes
# through EnumType.__getattr__, about 13 times the cost of a module global,
# so every function body compares against these names.
BLUE, RED, GREEN = Color.BLUE, Color.RED, Color.GREEN

_FORMS = {BLUE: Form(1, 0, 1), RED: Form(1, 0, -1), GREEN: Form(0, 1, 0)}


def colored_form(color: Color) -> Form:
    """The fixed form attached to a color."""
    return _FORMS[color]


def perpendicular_point(color: Color, a: ProjPoint) -> ProjPoint:
    """The color's perpendicular of [x:y]: blue [-y:x], red [y:x], green [x:-y]."""
    if color is BLUE:
        return ProjPoint(-a.y, a.x)
    if color is RED:
        return ProjPoint(a.y, a.x)
    return ProjPoint(a.x, -a.y)


def _null_value(color: Color, a: ProjPoint):
    if color is BLUE:
        return a.x * a.x + a.y * a.y
    if color is RED:
        return a.x * a.x - a.y * a.y
    return a.x * a.y


def is_null_for(color: Color, a: ProjPoint) -> bool:
    """Whether the point is null for the color's form."""
    return _null_value(color, a) == 0


def colored_quadrance_fraction(color: Color, a1: ProjPoint, a2: ProjPoint):
    """The color's p-quadrance as an uncancelled pair (num, den), no null checks.

    Blue is cross^2 / ((x1^2+y1^2)(x2^2+y2^2)); red is the same with minus
    signs throughout; green is -cross^2 / (4 x1 y1 x2 y2).  The coefficients
    are integers, so over F_p the pair may be computed on int residues and
    reduced afterwards; den is 0 exactly when a point is null.
    """
    cross = a1.x * a2.y - a2.x * a1.y
    den = _null_value(color, a1) * _null_value(color, a2)
    if color is BLUE:
        return cross * cross, den
    if color is RED:
        return -(cross * cross), den
    return -(cross * cross), 4 * den


def colored_quadrance(color: Color, a1: ProjPoint, a2: ProjPoint):
    """The color's p-quadrance, via its closed formula (colored_quadrance_fraction)
    on the cleared points: rational coordinates scaled to ints by one factor.
    Scaled coordinates (field.lift_scaled) pass through clear_denominators
    unchanged and stay Scaled until the final exact_div."""
    values = (a1.x, a1.y, a2.x, a2.y)
    cleared = clear_denominators(values)
    if cleared is not values:
        x1, y1, x2, y2 = cleared
        a1, a2 = ProjPoint(x1, y1), ProjPoint(x2, y2)
    num, den = colored_quadrance_fraction(color, a1, a2)
    if den == 0:
        if is_null_for(color, a1):
            raise NullPoint(f"first point {a1} is {color}-null", argument="a1")
        raise NullPoint(f"second point {a2} is {color}-null", argument="a2")
    return exact_div(num, den)


def reciprocal_sum(a1: ProjPoint, a2: ProjPoint):
    """1/q_blue + 1/q_red + 1/q_green; always 2 for valid pairs.

    Needs distinct points that are non-null in all three colors.
    """
    if a1 == a2:
        raise CoincidentPoints("coincident points have quadrance zero in every color")
    total = None
    for color in Color:
        q = colored_quadrance(color, a1, a2)
        term = exact_div(1, q)
        total = term if total is None else total + term
    return total
