"""The projective line with a fixed non-degenerate form.

Points [x:y] and forms (d:e:f) are proportions: equality is cross-product
based, never componentwise.  The projective quadrance q of two non-null
points is (df - e^2)(x1 y2 - x2 y1)^2 over the product of the two form
values; q = 1 exactly at perpendicularity, and triples/quadruples of
p-quadrances annihilate the triple and quadruple spread functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .affine import archimedes, det4
from .errors import DegenerateDenominator, DegenerateForm, InvalidArgument, NullPoint
from .field import decimal_str, exact_div


def canonical(values) -> tuple:
    """A proportion's values divided by the first nonzero one."""
    lead = next(v for v in values if v != 0)
    return tuple(exact_div(v, lead) for v in values)


class ProjPoint:
    """A proportion [x:y], not both zero.

    Equality is x1*y2 - x2*y1 == 0; the stored representative is arbitrary.
    ``canonical()`` rescales so the first nonzero coordinate is 1 (used for
    display and hashing only).
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if x == 0 and y == 0:
            raise InvalidArgument("projective point needs a nonzero coordinate")
        self.x = x
        self.y = y

    def canonical(self):
        return canonical((self.x, self.y))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.x * other.y - other.x * self.y == 0

    def __hash__(self):
        return hash(self.canonical())

    def __str__(self):
        return "[" + ":".join(map(decimal_str, self.canonical())) + "]"

    def __repr__(self):
        return f"ProjPoint({self.x!r}, {self.y!r})"


class Form:
    """A proportion (d:e:f), not all zero, for the form d x^2 + 2e xy + f y^2."""

    __slots__ = ("d", "e", "f")

    def __init__(self, d, e, f):
        if d == 0 and e == 0 and f == 0:
            raise InvalidArgument("form needs a nonzero coefficient")
        self.d = d
        self.e = e
        self.f = f

    def canonical(self):
        return canonical((self.d, self.e, self.f))

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.d * other.e - other.d * self.e == 0
                and self.d * other.f - other.d * self.f == 0
                and self.e * other.f - other.e * self.f == 0)

    def __hash__(self):
        return hash(self.canonical())

    def __str__(self):
        return "(" + ":".join(map(decimal_str, self.canonical())) + ")"

    def __repr__(self):
        return f"Form({self.d!r}, {self.e!r}, {self.f!r})"


def discriminant(form: Form):
    """df - e^2 of the stored representative; zero exactly when degenerate."""
    return form.d * form.f - form.e * form.e


def form_value(form: Form, a: ProjPoint):
    """d x^2 + 2e xy + f y^2 on the point's representative."""
    return form.d * a.x * a.x + 2 * form.e * a.x * a.y + form.f * a.y * a.y


def pairing(form: Form, a1: ProjPoint, a2: ProjPoint):
    """Symmetric bilinear pairing d x1x2 + e x1y2 + e x2y1 + f y1y2."""
    return (form.d * a1.x * a2.x + form.e * a1.x * a2.y
            + form.e * a2.x * a1.y + form.f * a1.y * a2.y)


def _require_nondegenerate(form: Form):
    if discriminant(form) == 0:
        raise DegenerateForm(f"form {form} has zero discriminant")


def is_null(form: Form, a: ProjPoint) -> bool:
    """Whether the form vanishes on the point (scale-invariant)."""
    _require_nondegenerate(form)
    return form_value(form, a) == 0


def is_perpendicular(form: Form, a1: ProjPoint, a2: ProjPoint) -> bool:
    """Whether the bilinear pairing of the two points vanishes."""
    _require_nondegenerate(form)
    return pairing(form, a1, a2) == 0


def p_quadrance(form: Form, a1: ProjPoint, a2: ProjPoint):
    """Projective quadrance of two non-null points.

    Symmetric, scale-invariant in either point and in the form, zero only
    for equal points, and 1 exactly at perpendicularity.
    """
    _require_nondegenerate(form)
    v1 = form_value(form, a1)
    if v1 == 0:
        raise NullPoint(f"first point {a1} is null for form {form}", argument="a1")
    v2 = form_value(form, a2)
    if v2 == 0:
        raise NullPoint(f"second point {a2} is null for form {form}", argument="a2")
    cross = a1.x * a2.y - a2.x * a1.y
    return exact_div(discriminant(form) * cross * cross, v1 * v2)


def triple_spread_fn(a, b, c):
    """Triple spread function (a+b+c)^2 - 2(a^2+b^2+c^2) - 4abc."""
    return archimedes(a, b, c) - 4 * a * b * c


def triple_spread_forms(a, b, c) -> list:
    """The seven alternate expressions for the triple spread function."""
    return [
        archimedes(a, b, c) - 4 * a * b * c,
        2 * (a * c + b * c + a * b) - (a * a + b * b + c * c) - 4 * a * b * c,
        4 * (a * b + b * c + c * a) - (a + b + c) ** 2 - 4 * a * b * c,
        4 * (1 - a) * (1 - b) * (1 - c) - (a + b + c - 2) ** 2,
        4 * (1 - a) * b * c - (a - b - c) ** 2,
        -det4([[0, a, b, 1], [a, 0, c, 1], [b, c, 0, 1], [1, 1, 1, 2]]),
        4 * b * c * (1 - b) * (1 - c) - (a - b - c + 2 * b * c) ** 2,
    ]


def is_spread_triple(a, b, c) -> bool:
    """True when {a, b, c} annihilates the triple spread function."""
    return triple_spread_fn(a, b, c) == 0


def spread_triple_pair_fraction(a, b, c, d):
    """(num, den) with x = num / den the solution of solve_spread_triple_pair.

    Nothing is divided, so this works on any ring elements, plain ints
    included.  den is 2(a + b - c - d - 2ab + 2cd); in the supported fields
    (no characteristic 2) it vanishes exactly when x is undetermined.
    """
    return (a - b) ** 2 - (c - d) ** 2, 2 * (a + b - c - d - 2 * a * b + 2 * c * d)


def solve_spread_triple_pair(a, b, c, d):
    """The common x with {a,b,x} and {c,d,x} both spread triples.

    Requires a + b - 2ab != c + d - 2cd.
    """
    num, den = spread_triple_pair_fraction(a, b, c, d)
    if den == 0:
        raise DegenerateDenominator("a + b - 2ab = c + d - 2cd leaves x undetermined")
    return exact_div(num, den)


def quadruple_spread_fn(a, b, c, d):
    """Quadruple spread function; symmetric, vanishing on p-quadrance 4-tuples."""
    s = a + b + c + d
    inner = (s * s - 2 * (a * a + b * b + c * c + d * d)
             - 4 * (a * b * c + a * b * d + a * c * d + b * c * d)
             + 8 * a * b * c * d)
    return inner * inner - 64 * a * b * c * d * (1 - a) * (1 - b) * (1 - c) * (1 - d)


@dataclass(frozen=True)
class QuadrupleResult:
    """Quadruple function value plus the two diagonal quadrances when defined."""

    value: object
    q13: Optional[object]
    q24: Optional[object]


def projective_quadruple_check(form: Form, a1, a2, a3, a4) -> QuadrupleResult:
    """The quadruple spread function on the four side p-quadrances.

    ``value`` is always zero for genuine non-null points; q13 and q24 come
    from the solution fractions and are None on a vanishing denominator.
    """
    for name, a in (("a1", a1), ("a2", a2), ("a3", a3), ("a4", a4)):
        if is_null(form, a):
            raise NullPoint(f"point {name} = {a} is null for form {form}", argument=name)
    q12, q23 = p_quadrance(form, a1, a2), p_quadrance(form, a2, a3)
    q34, q14 = p_quadrance(form, a3, a4), p_quadrance(form, a1, a4)

    def diagonal(num, den):
        return None if den == 0 else exact_div(num, den)

    return QuadrupleResult(quadruple_spread_fn(q12, q23, q34, q14),
                           diagonal(*spread_triple_pair_fraction(q12, q23, q34, q14)),
                           diagonal(*spread_triple_pair_fraction(q23, q34, q12, q14)))
