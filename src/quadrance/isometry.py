"""Projective isometries of the blue, red, and green p-quadrances.

Matrices act on the right: [x:y] M = [ax+cy : bx+dy] for M = [[a,b],[c,d]],
and composing isometries multiplies their matrices in application order.
Each color's isometries split into rotations and reflections parameterized
by a non-null point; rotations induce a commutative multiplication on the
non-null points, and on the blue unit circle a distinguished square root
exists without any field extension.
"""

from __future__ import annotations

import enum

from .chromo import BLUE, GREEN, RED, Color, is_null_for
from .errors import (ColorMismatch, FrozenRecord, InvalidArgument, NotIsometry, NotUnitCircle,
                     NullParameter)
from .field import decimal_str, exact_div, field_sqrt
from .projective import ProjPoint, _Proportion


class ProjMatrix(_Proportion):
    """A 2x2 projective matrix [[a,b],[c,d]], equal up to common scaling."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a == 0 and b == 0 and c == 0 and d == 0:
            raise InvalidArgument("projective matrix needs a nonzero entry")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * p.x + self.c * p.y, self.b * p.x + self.d * p.y)

    def __matmul__(self, other):
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        return ProjMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"ProjMatrix({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        a, b, c, d = map(decimal_str, self.entries())
        return f"[[{a},{b}],[{c},{d}]]"


# the slots' own setters: a frozen value's __init__ stores through these
_set_a, _set_b, _set_c, _set_d = (ProjMatrix.a.__set__, ProjMatrix.b.__set__,
                                  ProjMatrix.c.__set__, ProjMatrix.d.__set__)


class IsoKind(enum.Enum):
    ROTATION = "rho"
    REFLECTION = "sigma"

    def __str__(self):
        return self.value


# bound once, as chromo binds the colours
ROTATION, REFLECTION = IsoKind.ROTATION, IsoKind.REFLECTION


class ProjIsometry(FrozenRecord):
    """A color-tagged rotation or reflection with a non-null parameter point."""

    __slots__ = ("color", "kind", "param")

    def __init__(self, color: Color, kind: IsoKind, param: ProjPoint):
        _set_color(self, color)
        _set_kind(self, kind)
        _set_param(self, param)


_set_color, _set_kind, _set_param = (ProjIsometry.color.__set__, ProjIsometry.kind.__set__,
                                     ProjIsometry.param.__set__)


def make_isometry(color: Color, kind: IsoKind, param: ProjPoint) -> ProjIsometry:
    """Build an isometry, rejecting parameters null for the color."""
    if is_null_for(color, param):
        raise NullParameter(f"parameter {param} is {color}-null")
    return ProjIsometry(color, kind, param)


def matrix_of(iso: ProjIsometry) -> ProjMatrix:
    """The matrix realization of an isometry."""
    a, b = iso.param.x, iso.param.y
    rot = iso.kind is ROTATION
    if iso.color is BLUE:
        return ProjMatrix(a, b, -b, a) if rot else ProjMatrix(a, b, b, -a)
    if iso.color is RED:
        return ProjMatrix(a, b, b, a) if rot else ProjMatrix(a, b, -b, -a)
    return ProjMatrix(a, 0, 0, b) if rot else ProjMatrix(0, a, b, 0)


def apply(iso: ProjIsometry, p: ProjPoint) -> ProjPoint:
    """Image of a point (null points transform fine)."""
    return matrix_of(iso).apply(p)


def compose(iso1: ProjIsometry, iso2: ProjIsometry) -> ProjIsometry:
    """The isometry "apply iso1, then iso2", by the closed-form tables.

    Reflections compose to rotations, mixed pairs to reflections; every
    entry agrees with the product of the matrix realizations.
    """
    if iso1.color is not iso2.color:
        raise ColorMismatch(f"cannot compose {iso1.color} with {iso2.color}")
    color = iso1.color
    a, b = iso1.param.x, iso1.param.y
    c, d = iso2.param.x, iso2.param.y
    r1 = iso1.kind is ROTATION
    r2 = iso2.kind is ROTATION
    kind = ROTATION if r1 == r2 else REFLECTION
    # blue and red: the parameter depends only on the second factor's kind
    if color is BLUE:
        param = (a * c - b * d, a * d + b * c) if r2 else (a * c + b * d, a * d - b * c)
    elif color is RED:
        param = (a * c + b * d, a * d + b * c) if r2 else (a * c - b * d, a * d - b * c)
    else:
        # green: rho-first gives [ac:bd], sigma-first gives [ad:bc],
        # whatever the second factor's kind
        param = (a * c, b * d) if r1 else (a * d, b * c)
    return ProjIsometry(color, kind, ProjPoint(*param))


def classify(matrix: ProjMatrix, color: Color) -> ProjIsometry:
    """Recognize a matrix as one of the color's rotation/reflection shapes:
    the kind whose matrix_of, with the parameter read off the first row (for
    green, the diagonal or the anti-diagonal), has exactly these entries.

    The parameter found is never null: each shape's determinant vanishes
    exactly when its parameter is null, and a singular matrix is refused."""
    if matrix.det() == 0:
        raise NotIsometry(f"matrix {matrix} is singular")
    a, b, c, d = entries = matrix.entries()
    if color is GREEN:
        params = {ROTATION: (a, d), REFLECTION: (b, c)}
    else:
        params = dict.fromkeys(IsoKind, (a, b))
    for kind, (x, y) in params.items():
        if x == 0 and y == 0:
            continue  # a zero parameter gives the zero matrix, not this one
        iso = ProjIsometry(color, kind, ProjPoint(x, y))
        if matrix_of(iso).entries() == entries:
            break
    else:
        raise NotIsometry(f"matrix {matrix} has no {color} isometry shape")
    return iso


def point_identity(color: Color) -> ProjPoint:
    """Identity of the color's multiplication: [1:0] for blue/red, [1:1] for green."""
    if color is GREEN:
        return ProjPoint(1, 1)
    return ProjPoint(1, 0)


def multiply_points(color: Color, p1: ProjPoint, p2: ProjPoint) -> ProjPoint:
    """The commutative multiplication induced by rotation composition."""
    if is_null_for(color, p1):
        raise NullParameter(f"p1 = {p1} is {color}-null")
    if is_null_for(color, p2):
        raise NullParameter(f"p2 = {p2} is {color}-null")
    a, b = p1.x, p1.y
    c, d = p2.x, p2.y
    if color is BLUE:
        return ProjPoint(a * c - b * d, a * d + b * c)
    if color is RED:
        return ProjPoint(a * c + b * d, a * d + b * c)
    return ProjPoint(a * c, b * d)


def point_inverse(color: Color, p: ProjPoint) -> ProjPoint:
    """Inverse under the color's multiplication: [a:-b] (blue/red), [b:a] (green)."""
    if is_null_for(color, p):
        raise NullParameter(f"{p} is {color}-null")
    if color is GREEN:
        return ProjPoint(p.y, p.x)
    return ProjPoint(p.x, -p.y)


def point_power(color: Color, p: ProjPoint, n: int) -> ProjPoint:
    """n-fold product of p with itself, n >= 1."""
    if n < 1:
        raise InvalidArgument("exponent must be positive")
    if is_null_for(color, p):
        raise NullParameter(f"{p} is {color}-null")
    acc = p
    for _ in range(n - 1):
        acc = multiply_points(color, acc, p)
    return acc


def blue_sqrt(p: ProjPoint) -> ProjPoint:
    """The distinguished blue square root of a unit-circle point.

    The point must scale onto x^2 + y^2 = 1, which needs that value to be
    a nonzero square in the field; [1:0] is its own root.  The result r
    satisfies r x_b r = p.
    """
    x, y = p.canonical()
    t = x * x + y * y
    if t == 0:
        raise NotUnitCircle(f"{p} is blue-null")
    r = field_sqrt(t)
    if r is None:
        raise NotUnitCircle(f"x^2 + y^2 = {t} is not a square for {p}")
    a = exact_div(x, r)
    b = exact_div(y, r)
    if b == 0:
        return ProjPoint(1, 0)
    return ProjPoint(a + 1, b)
