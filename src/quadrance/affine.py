"""The affine line: quadrance, quad triples, and affine isometries.

Quadrance Q between points [x1] and [x2] is (x2 - x1)^2.  Three numbers
form a quad triple when Archimedes' function vanishes; four quadrances of
collinear points annihilate the quadruple quad function.  Every isometry
is a translation x -> x + a or a reflection x -> a - x.
"""

from __future__ import annotations

from .errors import DegenerateDenominator, FrozenRecord, NotIsometry
from .field import exact_div


class AffinePoint(FrozenRecord):
    """A point [x] of the affine line; any field value is valid."""

    __slots__ = ("x",)

    def __init__(self, x):
        _set_x(self, x)


# the slots' own setters: a frozen value's __init__ stores through these
_set_x = AffinePoint.x.__set__


def quadrance(a1: AffinePoint, a2: AffinePoint):
    """Squared separation (x2 - x1)^2; zero exactly when the points coincide."""
    d = a2.x - a1.x
    return d * d


def archimedes(a, b, c):
    """Archimedes' function (a+b+c)^2 - 2(a^2+b^2+c^2)."""
    s = a + b + c
    return s * s - 2 * (a * a + b * b + c * c)


def det4(m):
    # Laplace expansion along the first two rows; no minor lists built
    (a00, a01, a02, a03), (a10, a11, a12, a13) = m[0], m[1]
    (a20, a21, a22, a23), (a30, a31, a32, a33) = m[2], m[3]
    c01 = a00 * a11 - a01 * a10
    c02 = a00 * a12 - a02 * a10
    c03 = a00 * a13 - a03 * a10
    c12 = a01 * a12 - a02 * a11
    c13 = a01 * a13 - a03 * a11
    c23 = a02 * a13 - a03 * a12
    d01 = a20 * a31 - a21 * a30
    d02 = a20 * a32 - a22 * a30
    d03 = a20 * a33 - a23 * a30
    d12 = a21 * a32 - a22 * a31
    d13 = a21 * a33 - a23 * a31
    d23 = a22 * a33 - a23 * a32
    return (c01 * d23 - c02 * d13 + c03 * d12
            + c12 * d03 - c13 * d02 + c23 * d01)


def archimedes_forms(a, b, c) -> list:
    """All five alternate expressions for Archimedes' function."""
    return [
        4 * a * b - (a + b - c) ** 2,
        2 * (a * b + b * c + c * a) - (a * a + b * b + c * c),
        4 * (a * b + b * c + c * a) - (a + b + c) ** 2,
        (2 * a) * (2 * b) - (a + b - c) * (a + b - c),  # det [[2a, a+b-c], [a+b-c, 2b]]
        -det4([[0, a, b, 1], [a, 0, c, 1], [b, c, 0, 1], [1, 1, 1, 0]]),
    ]


def is_quad_triple(a, b, c) -> bool:
    """True when {a, b, c} annihilates Archimedes' function."""
    return archimedes(a, b, c) == 0


def heron_product(d1, d2, d3):
    """(d1+d2+d3)(-d1+d2+d3)(d1-d2+d3)(d1+d2-d3); equals archimedes(d1^2, d2^2, d3^2)."""
    return ((d1 + d2 + d3) * (-d1 + d2 + d3) * (d1 - d2 + d3) * (d1 + d2 - d3))


def quad_triple_pair_fraction(a, b, c, d):
    """(num, den) with x = num / den the solution of solve_quad_triple_pair.

    Nothing is divided, so this works on any ring elements, plain ints
    included.  den is 2(a + b - c - d); in the supported fields (no
    characteristic 2) it vanishes exactly when x is undetermined.
    """
    return (a - b) ** 2 - (c - d) ** 2, 2 * (a + b - c - d)


def solve_quad_triple_pair(a, b, c, d):
    """The unique x with {a,b,x} and {c,d,x} both quad triples.

    Requires a + b != c + d.
    """
    num, den = quad_triple_pair_fraction(a, b, c, d)
    if den == 0:
        raise DegenerateDenominator("a + b = c + d leaves x undetermined")
    return exact_div(num, den)


def quadruple_quad_fn(a, b, c, d):
    """((a+b+c+d)^2 - 2(a^2+b^2+c^2+d^2))^2 - 64abcd; symmetric in all four."""
    s = a + b + c + d
    inner = s * s - 2 * (a * a + b * b + c * c + d * d)
    return inner * inner - 64 * a * b * c * d


def brahmagupta_product(d12, d23, d34, d14):
    """Eight-factor product equal to quadruple_quad_fn of the four squares."""
    return ((d12 - d14 + d23 + d34)
            * (d12 + d14 + d23 - d34)
            * (d14 - d12 + d23 + d34)
            * (d12 + d14 - d23 + d34)
            * (d12 + d14 + d23 + d34)
            * (d12 - d14 - d23 + d34)
            * (d12 - d14 + d23 - d34)
            * (d23 - d14 - d12 + d34))


class AffineIsometry(FrozenRecord):
    """x -> parity * x + shift with parity +1 (translation) or -1 (reflection)."""

    __slots__ = ("parity", "shift")

    def __init__(self, parity: int, shift):
        if parity not in (1, -1):
            raise NotIsometry(f"parity must be +1 or -1, got {parity!r}")
        _set_parity(self, parity)
        _set_shift(self, shift)


_set_parity, _set_shift = AffineIsometry.parity.__set__, AffineIsometry.shift.__set__


def isometry_apply(iso: AffineIsometry, a: AffinePoint) -> AffinePoint:
    if iso.parity == 1:
        return AffinePoint(a.x + iso.shift)
    return AffinePoint(iso.shift - a.x)


def isometry_compose(s1: AffineIsometry, s2: AffineIsometry) -> AffineIsometry:
    """The isometry "apply s1, then s2"."""
    return AffineIsometry(s1.parity * s2.parity, s2.parity * s1.shift + s2.shift)


def isometry_invert(iso: AffineIsometry) -> AffineIsometry:
    """The inverse isometry; reflections are their own inverses."""
    if iso.parity == 1:
        return AffineIsometry(1, -iso.shift)
    return iso


def isometry_classify(image_o: AffinePoint, image_i: AffinePoint) -> AffineIsometry:
    """Recover the isometry sending [0] to image_o and [1] to image_i."""
    if quadrance(image_o, image_i) != 1:
        raise NotIsometry("images of [0] and [1] must have quadrance 1")
    alpha, beta = image_o.x, image_i.x
    if beta == alpha + 1:
        return AffineIsometry(1, alpha)
    return AffineIsometry(-1, alpha)
