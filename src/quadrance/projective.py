"""The projective line with a fixed non-degenerate form.

Points [x:y], forms (d:e:f) and isometry.ProjMatrix are proportions:
values up to a common nonzero factor.  Two proportions of one type are
equal when every 2x2 minor of their values vanishes, never componentwise,
and both are hashed and shown by canonical(), the values divided by the
first nonzero one.  The projective quadrance q of two non-null
points is (df - e^2)(x1 y2 - x2 y1)^2 over the product of the two form
values; q = 1 exactly at perpendicularity, and triples/quadruples of
p-quadrances annihilate the triple and quadruple spread functions.  Only
p_quadrance_fraction clears rational coordinates to integers first
(field.clear_denominators) and computes in int; the other kernels, is_null
included, compute on the stored representative.  It clears and rebuilds in
line: one helper shared with chromo.colored_quadrance made a call 32-47%
slower here and 24-34% there (timeit, 200 random rational points, 2 vCPUs).
"""

from __future__ import annotations

from . import affine
from .errors import (DegenerateDenominator, DegenerateForm, Frozen, FrozenRecord, InvalidArgument,
                     NullPoint)
from .field import clear_denominators, decimal_str, exact_div


def canonical(values) -> tuple:
    """A proportion's values divided by the first nonzero one."""
    lead = next(v for v in values if v != 0)
    return tuple(exact_div(v, lead) for v in values)


class _Proportion(Frozen):
    """Values up to a common nonzero factor, given by ``entries()``."""

    __slots__ = ()

    def canonical(self):
        return canonical(self.entries())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        u, v = self.entries(), other.entries()
        n = len(u)
        return all(u[i] * v[j] - v[i] * u[j] == 0 for i in range(n) for j in range(i + 1, n))

    def __hash__(self):
        return hash(self.canonical())

    def __reduce__(self):
        return type(self), self.entries()


class ProjPoint(_Proportion):
    """A proportion [x:y], not both zero; the stored representative is
    arbitrary."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if x == 0 and y == 0:
            raise InvalidArgument("projective point needs a nonzero coordinate")
        _set_x(self, x)
        _set_y(self, y)

    def entries(self):
        return (self.x, self.y)

    def __str__(self):
        return "[" + ":".join(map(decimal_str, self.canonical())) + "]"

    def __repr__(self):
        return f"ProjPoint({self.x!r}, {self.y!r})"


class Form(_Proportion):
    """A proportion (d:e:f), not all zero, for the form d x^2 + 2e xy + f y^2."""

    __slots__ = ("d", "e", "f")

    def __init__(self, d, e, f):
        if d == 0 and e == 0 and f == 0:
            raise InvalidArgument("form needs a nonzero coefficient")
        _set_d(self, d)
        _set_e(self, e)
        _set_f(self, f)

    def entries(self):
        return (self.d, self.e, self.f)

    def __str__(self):
        return "(" + ":".join(map(decimal_str, self.canonical())) + ")"

    def __repr__(self):
        return f"Form({self.d!r}, {self.e!r}, {self.f!r})"


# the slots' own setters: a frozen value's __init__ stores through these
_set_x, _set_y = ProjPoint.x.__set__, ProjPoint.y.__set__
_set_d, _set_e, _set_f = Form.d.__set__, Form.e.__set__, Form.f.__set__


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


def p_quadrance_fraction(form: Form, a1: ProjPoint, a2: ProjPoint):
    """The projective quadrance as an uncancelled pair (num, den), no checks.

    num is (df - e^2)(x1 y2 - x2 y1)^2 and den the product of the two form
    values, both on the cleared form and points: rational coordinates are
    scaled to ints by one common factor (field.clear_denominators), which
    leaves num / den unchanged.  den is 0 exactly when a point is null.
    """
    values = (form.d, form.e, form.f, a1.x, a1.y, a2.x, a2.y)
    cleared = clear_denominators(values)
    if cleared is not values:
        d, e, f, x1, y1, x2, y2 = cleared
        form, a1, a2 = Form(d, e, f), ProjPoint(x1, y1), ProjPoint(x2, y2)
    cross = a1.x * a2.y - a2.x * a1.y
    return discriminant(form) * cross * cross, form_value(form, a1) * form_value(form, a2)


def p_quadrance(form: Form, a1: ProjPoint, a2: ProjPoint):
    """Projective quadrance of two non-null points (p_quadrance_fraction).

    Symmetric, scale-invariant in either point and in the form, zero only
    for equal points, and 1 exactly at perpendicularity.
    """
    num, den = p_quadrance_fraction(form, a1, a2)
    # a degenerate form makes num zero, so only then is the form checked
    if num == 0:
        _require_nondegenerate(form)
    if den == 0:
        if is_null(form, a1):
            raise NullPoint(f"first point {a1} is null for form {form}", argument="a1")
        raise NullPoint(f"second point {a2} is null for form {form}", argument="a2")
    return exact_div(num, den)


def triple_spread_fn(a, b, c):
    """Triple spread function (a+b+c)^2 - 2(a^2+b^2+c^2) - 4abc."""
    return affine.archimedes(a, b, c) - 4 * a * b * c


def triple_spread_forms(a, b, c) -> list:
    """The seven alternate expressions for the triple spread function."""
    return [
        affine.archimedes(a, b, c) - 4 * a * b * c,
        2 * (a * c + b * c + a * b) - (a * a + b * b + c * c) - 4 * a * b * c,
        4 * (a * b + b * c + c * a) - (a + b + c) ** 2 - 4 * a * b * c,
        4 * (1 - a) * (1 - b) * (1 - c) - (a + b + c - 2) ** 2,
        4 * (1 - a) * b * c - (a - b - c) ** 2,
        -affine.det4([[0, a, b, 1], [a, 0, c, 1], [b, c, 0, 1], [1, 1, 1, 2]]),
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


class QuadrupleResult(FrozenRecord):
    """Quadruple function value plus the two diagonal quadrances when defined
    (None otherwise)."""

    __slots__ = ("value", "q13", "q24")

    def __init__(self, value, q13, q24):
        _set_value(self, value)
        _set_q13(self, q13)
        _set_q24(self, q24)


_set_value, _set_q13, _set_q24 = (QuadrupleResult.value.__set__, QuadrupleResult.q13.__set__,
                                  QuadrupleResult.q24.__set__)


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
