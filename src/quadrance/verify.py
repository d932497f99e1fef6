"""Randomized and exhaustive verification suites with structured reports.

Over the rationals each suite runs seeded random trials; over a prime
field it enumerates every case (all point tuples, all shape parameters),
skipping and counting tuples that are null where non-null inputs are
required.  Every report satisfies passed + failed + skipped = attempted,
and identical seeds and arguments reproduce identical results.

Each identity is checked by one function, which both drivers call.  A
check takes ``p=None`` over Q; the F_p sweep passes int residues 0..p-1
and the prime p, and the check compares mod p.  This is exact because
the polynomial identities (triple and quadruple quad and spread
formulas, Heron, Brahmagupta, generalized Fibonacci) have integer
coefficients: the library's own kernels run on the residues and each
side is reduced once.  No check re-derives a kernel: the generalized
Fibonacci identity runs through projective.discriminant, pairing and
form_value, on plain records so that zero coefficients and vectors count
too.  Solution fractions are checked cleared of their denominator
(num == den * q); coloured quadrances before and after an isometry are
compared cleared (num * den' == num' * den), and points and matrices by
their cross products.  The isometry sweep runs on the points [1:t] and
[0:1] with int coordinates, and the spreadpoly sweep evaluates the
recurrence and composition checks on int residues.  Values are lifted to
Fp only to report a failure.  What needs field division or square roots
stays on Fp: the chromo suite, blue square roots, the green power bridge
and the green ratio check.  The free-variable identities (the alternate
forms, the rearrangement identities, rescaling invariance) are
random-input checks and run over Q only.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Optional

from . import affine, chromo, isometry, projective, spreadpoly
from .chromo import Color
from .errors import FactorizationFailure, NotUnitCircle, UnknownSuite
from .field import FieldContext, Fp, exact_div
from .isometry import IsoKind
from .projective import Form, ProjPoint

SUITE_NAMES = (
    "triple-quad",
    "quadruple-quad",
    "heron",
    "brahmagupta",
    "fibonacci",
    "triple-spread",
    "quadruple-spread",
    "chromo",
    "isometry",
    "spreadpoly",
)

FORM_NAMES = ("blue", "red", "green", "general")

GENERAL_FORM = Form(1, 2, 3)


def named_form(name: str) -> Form:
    """One of the three colored forms, or the fixed general form (1:2:3)."""
    if name == "general":
        return GENERAL_FORM
    return chromo.colored_form(Color(name))


@dataclass
class Report:
    """Outcome of one suite run over one field.  The suites tally their
    cases on it, and it keeps the first counterexample in exact form."""

    suite: str = ""
    field: str = ""
    attempted: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    skip_reasons: dict = dataclass_field(default_factory=dict)
    counterexample: Optional[dict] = None
    seed: Optional[int] = None
    elapsed_ms: int = 0

    def skip(self, reason: str, count: int = 1):
        if count:
            self.attempted += count
            self.skipped += count
            self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + count

    def case(self, failure: Optional[dict]):
        self.attempted += 1
        if failure is None:
            self.passed += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                self.counterexample = failure

    def to_dict(self) -> dict:
        """The JSON report, in field order; counterexample and seed only when set."""
        out = {k: v for k, v in asdict(self).items() if v is not None}
        out["skip_reasons"] = dict(sorted(self.skip_reasons.items()))
        return out


def mismatch(identity: str, inputs: dict, lhs, rhs) -> dict:
    return {
        "identity": identity,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


# -- sampling and enumeration -------------------------------------------------

def random_element(ctx: Optional[FieldContext], rng: random.Random):
    """A small random rational; only the rational driver samples, so ``ctx``
    is ignored.  It stays because perfbench's field probes pass one."""
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def random_nonzero(rng):
    while True:
        x = random_element(None, rng)
        if x != 0:
            return x


def random_point(rng) -> ProjPoint:
    while True:
        x, y = random_element(None, rng), random_element(None, rng)
        if x != 0 or y != 0:
            return ProjPoint(x, y)


def random_nonnull_point(form: Form, rng) -> ProjPoint:
    while True:
        a = random_point(rng)
        if not projective.is_null(form, a):
            return a


def _residue_points(p: int) -> list[ProjPoint]:
    """All p+1 projective points over F_p with int coordinates:
    [1:0], [1:1], ..., [1:p-1], [0:1]."""
    return [ProjPoint(1, t) for t in range(p)] + [ProjPoint(0, 1)]


def proj_points(ctx: FieldContext) -> list[ProjPoint]:
    """_residue_points with coordinates in F_p."""
    return [_lift(ctx.p, a) for a in _residue_points(ctx.p)]


# -- identity checks, shared by the rational and the F_p driver ---------------
#
# Each check returns (identity, lhs, rhs) for the first law that fails, in
# report order, or None.  Over Q it takes field values and p=None; the F_p
# sweeps pass int residues and the prime p, and values are compared mod p.

def _reduce(x, p=None):
    """x itself, or its residue mod p."""
    return x if p is None else x % p


def _quotient(num, den, p=None):
    """num / den, as a residue mod p when p is given."""
    return exact_div(num, den) if p is None else num * pow(den, -1, p) % p


def _solution_mismatch(num, den, want, p=None):
    """num/den where it differs from ``want``; None when equal or den = 0."""
    if p is None:
        settled = den == 0 or num == den * want
    else:
        settled = den % p == 0 or (num - den * want) % p == 0
    return None if settled else _quotient(num, den, p)


def _triple_quad_law(q1, q2, q3, p=None) -> Optional[tuple]:
    """Archimedes' function vanishes on the quadrances of three points."""
    value = affine.archimedes(q1, q2, q3)
    if p is not None:
        value %= p
    return None if value == 0 else ("triple-quad-formula", value, 0)


def _triple_spread_laws(q1, q2, q3, perp12: bool, p=None) -> Optional[tuple]:
    """The p-quadrances of three points annihilate the triple spread
    function and its proof-step identity, and the first two points are
    perpendicular (``perp12``) exactly when q3 = 1."""
    value = projective.triple_spread_fn(q1, q2, q3)
    lhs = (q1 + q2 - q3) ** 2
    rhs = 4 * q1 * q2 * (1 - q3)
    if p is not None:
        value, lhs, rhs = value % p, lhs % p, rhs % p
    if value != 0:
        return ("triple-spread-formula", value, 0)
    if lhs != rhs:
        return ("triple-spread-proof-identity", lhs, rhs)
    if perp12 != (q3 == 1):
        return ("perpendicular-iff-q1", perp12, q3)
    return None


def _quadruple_laws(name: str, fn, fraction, q12, q23, q34, q14, q13, q24,
                    p=None) -> Optional[tuple]:
    """The six quadrances of four points: ``fn`` of the four sides vanishes,
    and each diagonal equals its solution ``fraction`` where that is defined."""
    value = fn(q12, q23, q34, q14)
    if p is not None:
        value %= p
    if value != 0:
        return (f"{name}-formula", value, 0)
    got = _solution_mismatch(*fraction(q12, q23, q34, q14), q13, p)
    if got is not None:
        return (f"{name}-q13", got, q13)
    got = _solution_mismatch(*fraction(q23, q34, q12, q14), q24, p)
    if got is not None:
        return (f"{name}-q24", got, q24)
    return None


def _colored_fraction(color, a1, a2, p=None) -> tuple:
    """The color's quadrance of two points as (num, den), mod p when given.
    A null point (den = 0) raises as colored_quadrance does."""
    num, den = chromo.colored_quadrance_fraction(color, a1, a2)
    if p is not None:
        num, den = num % p, den % p
    if den == 0:
        chromo.colored_quadrance(color, _lift(p, a1), _lift(p, a2))
    return num, den


def _preservation_law(color, before: tuple, after: tuple, p=None) -> Optional[tuple]:
    """An isometry keeps the color's quadrance of two points; ``before`` and
    ``after`` are _colored_fraction pairs, compared cleared of denominators."""
    (num0, den0), (num, den) = before, after
    diff = num * den0 - num0 * den
    if (diff if p is None else diff % p) == 0:
        return None
    return (f"isometry-preservation-{color}", _quotient(num, den, p), _quotient(num0, den0, p))


def _points_differ(u: ProjPoint, v: ProjPoint, p=None) -> bool:
    """u != v as projective points.

    With p the coordinates are int residues and the points are compared
    over F_p.  A point that is 0 mod p differs from every point, so its
    case fails, and reporting it raises InvalidArgument as building it over
    F_p does.
    """
    if p is None:
        return u != v
    return ((u.x * v.y - v.x * u.y) % p != 0
            or not (u.x % p or u.y % p) or not (v.x % p or v.y % p))


def _matrices_differ(m, n, p=None) -> bool:
    """m != n as projective matrices; over F_p like _points_differ."""
    if p is None:
        return m != n
    a, b, c, d = m.entries()
    e, f, g, h = n.entries()
    return bool((a * f - e * b) % p or (a * g - e * c) % p or (a * h - e * d) % p
                or (b * g - f * c) % p or (b * h - f * d) % p or (c * h - g * d) % p
                or not (a % p or b % p or c % p or d % p)
                or not (e % p or f % p or g % p or h % p))


def _composition_case(iso1, m1, iso2, m2, p=None) -> Optional[dict]:
    """The composition table entry for iso1 then iso2 (matrices m1, m2)
    against the matrix product, its kind and non-null parameter, and the
    blue/red Fibonacci identity: the colour form's value at the composed
    parameter is the product of its values at the two parameters."""
    color, kind1, p1, kind2, p2 = iso1.color, iso1.kind, iso1.param, iso2.kind, iso2.param
    composed = isometry.compose(iso1, iso2)
    table = isometry.matrix_of(composed)
    product = m1 @ m2
    expected_kind = IsoKind.ROTATION if kind1 == kind2 else IsoKind.REFLECTION
    form = chromo.colored_form(color)
    value = _reduce(projective.form_value(form, composed.param), p)
    if _matrices_differ(table, product, p):
        failure = ("composition-table-vs-matrix", table, product)
    elif composed.kind is not expected_kind:
        failure = ("composition-kind-parity", composed.kind, expected_kind)
    elif value == 0:
        failure = ("composition-nonnull-closure", composed.param, "non-null")
    elif color is Color.GREEN:
        # green's 2xy is multiplicative only up to the factor 2
        return None
    else:
        expected = _reduce(projective.form_value(form, p1) * projective.form_value(form, p2), p)
        if value == expected:
            return None
        failure = (f"fibonacci-identity-{color}", value, expected)
    inputs = {"color": color, "kind1": kind1, "p1": p1, "kind2": kind2, "p2": p2}
    return _failed(failure, inputs, p)


def _associativity_law(color, p1, p3, ab, bc, p=None) -> Optional[tuple]:
    """(p1 p2) p3 = p1 (p2 p3), given the products ab = p1 p2 and bc = p2 p3."""
    left = isometry.multiply_points(color, ab, p3)
    right = isometry.multiply_points(color, p1, bc)
    if _points_differ(left, right, p):
        return ("multiplication-associativity", left, right)
    return None


def _unit_laws(color, a, p=None) -> Optional[tuple]:
    """The first failing law of a*1 = a, a*a^-1 = 1."""
    ident = isometry.point_identity(color)
    a_ident = isometry.multiply_points(color, a, ident)
    if _points_differ(a_ident, a, p):
        return ("multiplication-identity", a_ident, a)
    a_inv = isometry.multiply_points(color, a, isometry.point_inverse(color, a))
    if _points_differ(a_inv, ident, p):
        return ("multiplication-inverse", a_inv, ident)
    return None


def _pair_laws(color, p1, p2, ab, ba, unit_failure, p=None) -> Optional[tuple]:
    """The multiplication laws after associativity, in report order:
    p1*p2 = p2*p1 (``ab``, ``ba``), the unit laws of p1 (``unit_failure``
    from _unit_laws), and p1*p2 = the parameter of rotation p1 then p2."""
    if _points_differ(ab, ba, p):
        return ("multiplication-commutativity", ab, ba)
    if unit_failure is not None:
        return unit_failure
    rot = isometry.compose(isometry.make_isometry(color, IsoKind.ROTATION, p1),
                           isometry.make_isometry(color, IsoKind.ROTATION, p2))
    if _points_differ(rot.param, ab, p):
        return ("multiplication-vs-rotation-composition", rot.param, ab)
    return None


def _lift(p, value):
    """A point or matrix with int-residue coordinates as the F_p one it
    stands for, so that reports print it as a sweep over Fp objects would."""
    if p is not None:
        if isinstance(value, ProjPoint):
            return ProjPoint(Fp(value.x, p), Fp(value.y, p))
        if isinstance(value, isometry.ProjMatrix):
            return isometry.ProjMatrix(*(Fp(v, p) for v in value.entries()))
    return value


def _failed(failure: tuple, inputs: dict, p=None) -> dict:
    """The mismatch of a check's (identity, lhs, rhs).  With p, points and
    matrices with int-residue coordinates are lifted to F_p."""
    identity, lhs, rhs = failure
    return mismatch(identity, {k: _lift(p, v) for k, v in inputs.items()},
                    _lift(p, lhs), _lift(p, rhs))


# -- drivers and pairwise tables ------------------------------------------------

def _check_identity(rec, ctx, rng, trials, identity, names, sides):
    """One case per argument tuple: ``sides(*args)`` must return equal (lhs, rhs).

    Over Q the tuples are ``trials`` random ones.  Over F_p they are every
    tuple of residues, and both sides are compared, and reported, mod p.
    """
    if rng is not None:
        p = None
        cases = (tuple(random_element(ctx, rng) for _ in names) for _ in range(trials))
    else:
        p = ctx.p
        cases = itertools.product(range(p), repeat=len(names))
    for args in cases:
        lhs, rhs = sides(*args)
        if p is not None:
            lhs, rhs = lhs % p, rhs % p
        if lhs == rhs:
            rec.case(None)
        else:
            rec.case(mismatch(identity, dict(zip(names, args)), lhs, rhs))


def _live_indices(rec, null: list, arity: int) -> list:
    """Indices of the non-null points; the tuples with a null entry are skipped."""
    live = [i for i, is_null in enumerate(null) if not is_null]
    rec.skip("null-point", len(null) ** arity - len(live) ** arity)
    return live


def _pair_table(n: int, live, fn: Callable) -> list:
    """The n x n table of fn(i, j) over the ``live`` indices; None elsewhere."""
    table = [[None] * n for _ in range(n)]
    for i in live:
        row = table[i]
        for j in live:
            row[j] = fn(i, j)
    return table


def _quadrance_table(p: int) -> list:
    """Residues of the quadrances between all points of the affine line over F_p."""
    pts = [affine.AffinePoint(t) for t in range(p)]
    return _pair_table(p, range(p), lambda i, j: affine.quadrance(pts[i], pts[j]) % p)


def _p_quadrance_table(form, pts, live) -> list:
    """Residues of the p-quadrances between the ``live`` (non-null) points."""
    return _pair_table(len(pts), live,
                       lambda i, j: projective.p_quadrance(form, pts[i], pts[j]).r)


def _sweep_quadruple(rec, p: int, qtab, live, name: str, fn, fraction, inputs: Callable):
    """_quadruple_laws on every 4-tuple of ``live`` indices of the residue
    table ``qtab``; ``inputs(i, j, k, m)`` names a failing tuple."""
    for i in live:
        row_i = qtab[i]
        for j in live:
            q12, row_j = row_i[j], qtab[j]
            for k in live:
                q23, row_k, q13 = row_j[k], qtab[k], row_i[k]
                for m in live:
                    failure = _quadruple_laws(name, fn, fraction, q12, q23, row_k[m], row_i[m],
                                              q13, row_j[m], p)
                    rec.case(None if failure is None else _failed(failure, inputs(i, j, k, m)))


# -- individual suites --------------------------------------------------------

def _triple_quad_case(t1, t2, t3) -> Optional[dict]:
    a1, a2, a3 = affine.AffinePoint(t1), affine.AffinePoint(t2), affine.AffinePoint(t3)
    quadrance = affine.quadrance
    failure = _triple_quad_law(quadrance(a2, a3), quadrance(a1, a3), quadrance(a1, a2))
    if failure is not None:
        return _failed(failure, {"x1": t1, "x2": t2, "x3": t3})
    base = affine.archimedes(t1, t2, t3)
    for i, alt in enumerate(affine.archimedes_forms(t1, t2, t3)):
        if alt != base:
            return mismatch(f"archimedes-alternate-{i + 1}",
                            {"a": t1, "b": t2, "c": t3}, alt, base)
    return None


def _suite_triple_quad(rec, ctx, rng, trials, colors):
    if rng is None:
        p = ctx.p
        qtab = _quadrance_table(p)
        for i in range(p):
            row_i = qtab[i]
            for j in range(p):
                q3, row_j = row_i[j], qtab[j]
                for k in range(p):
                    failure = _triple_quad_law(row_j[k], row_i[k], q3, p)
                    rec.case(None if failure is None
                             else _failed(failure, {"x1": i, "x2": j, "x3": k}))
    else:
        for _ in range(trials):
            rec.case(_triple_quad_case(*(random_element(ctx, rng) for _ in range(3))))


def _quadruple_quad_case(t1, t2, t3, t4) -> Optional[dict]:
    a1, a2, a3, a4 = (affine.AffinePoint(t) for t in (t1, t2, t3, t4))
    quadrance = affine.quadrance
    failure = _quadruple_laws("quadruple-quad", affine.quadruple_quad_fn,
                              affine.quad_triple_pair_fraction,
                              quadrance(a1, a2), quadrance(a2, a3), quadrance(a3, a4),
                              quadrance(a1, a4), quadrance(a1, a3), quadrance(a2, a4))
    if failure is not None:
        return _failed(failure, {"x1": t1, "x2": t2, "x3": t3, "x4": t4})
    a, b, c, d = t1, t2, t3, t4
    lhs = ((a - b) ** 2 - (c - d) ** 2 - 2 * (a + b - c - d) * (a + b)) ** 2 \
        - 16 * a * b * (a + b - c - d) ** 2
    rhs = affine.quadruple_quad_fn(a, b, c, d)
    if lhs != rhs:
        return mismatch("two-quad-triples-rearrangement",
                        {"a": a, "b": b, "c": c, "d": d}, lhs, rhs)
    return None


def _suite_quadruple_quad(rec, ctx, rng, trials, colors):
    if rng is None:
        p = ctx.p
        _sweep_quadruple(rec, p, _quadrance_table(p), range(p), "quadruple-quad",
                         affine.quadruple_quad_fn, affine.quad_triple_pair_fraction,
                         lambda i, j, k, m: {"x1": i, "x2": j, "x3": k, "x4": m})
    else:
        for _ in range(trials):
            rec.case(_quadruple_quad_case(*(random_element(ctx, rng) for _ in range(4))))


def _heron_sides(d1, d2, d3):
    return affine.heron_product(d1, d2, d3), affine.archimedes(d1 * d1, d2 * d2, d3 * d3)


def _suite_heron(rec, ctx, rng, trials, colors):
    _check_identity(rec, ctx, rng, trials, "heron-identity", ("d1", "d2", "d3"),
                    _heron_sides)


def _brahmagupta_sides(d12, d23, d34, d14):
    return (affine.brahmagupta_product(d12, d23, d34, d14),
            affine.quadruple_quad_fn(d12 * d12, d23 * d23, d34 * d34, d14 * d14))


def _suite_brahmagupta(rec, ctx, rng, trials, colors):
    _check_identity(rec, ctx, rng, trials, "brahmagupta-identity",
                    ("d12", "d23", "d34", "d14"), _brahmagupta_sides)


# The generalized Fibonacci identity also holds for the zero vector and the
# zero coefficient triple, which ProjPoint and Form reject; the projective
# kernels read only these fields.
_Vector = namedtuple("_Vector", "x y")
_Coefficients = namedtuple("_Coefficients", "d e f")


def _fibonacci_sides(form, disc, v1, value1, v2, value2):
    """Both sides of the generalized Fibonacci identity, given the form's
    discriminant and its values at v1 and v2: disc (x1 y2 - x2 y1)^2 +
    pairing^2 and value1 value2."""
    cross = v1.x * v2.y - v2.x * v1.y
    pair = projective.pairing(form, v1, v2)
    return disc * cross * cross + pair * pair, value1 * value2


def _suite_fibonacci(rec, ctx, rng, trials, colors):
    names = ("d", "e", "f", "x1", "y1", "x2", "y2")
    value = projective.form_value
    if rng is not None:
        def sides(d, e, f, x1, y1, x2, y2):
            form, v1, v2 = _Coefficients(d, e, f), _Vector(x1, y1), _Vector(x2, y2)
            return _fibonacci_sides(form, projective.discriminant(form),
                                    v1, value(form, v1), v2, value(form, v2))
        _check_identity(rec, ctx, rng, trials, "generalized-fibonacci", names, sides)
        return
    # The identity has seven free variables; enumerating them all is
    # infeasible, so the four standard forms are paired with every
    # coordinate 4-tuple.  Each form's discriminant and values are taken once.
    p = ctx.p
    vectors = [_Vector(x, y) for x, y in itertools.product(range(p), repeat=2)]
    for form in map(named_form, FORM_NAMES):
        disc = projective.discriminant(form)
        values = [value(form, v) for v in vectors]
        for v1, value1 in zip(vectors, values):
            for v2, value2 in zip(vectors, values):
                lhs, rhs = _fibonacci_sides(form, disc, v1, value1, v2, value2)
                lhs, rhs = lhs % p, rhs % p
                rec.case(None if lhs == rhs else mismatch(
                    "generalized-fibonacci",
                    dict(zip(names, (form.d, form.e, form.f) + v1 + v2)), lhs, rhs))


def _triple_spread_case(form, a1, a2, a3, free) -> Optional[dict]:
    p_quadrance = projective.p_quadrance
    failure = _triple_spread_laws(p_quadrance(form, a2, a3), p_quadrance(form, a1, a3),
                                  p_quadrance(form, a1, a2),
                                  projective.is_perpendicular(form, a1, a2))
    if failure is not None:
        return _failed(failure, {"form": form, "a1": a1, "a2": a2, "a3": a3})
    u, v, w = free
    base = projective.triple_spread_fn(u, v, w)
    for i, alt in enumerate(projective.triple_spread_forms(u, v, w)):
        if alt != base:
            return mismatch(f"triple-spread-alternate-{i + 1}",
                            {"a": u, "b": v, "c": w}, alt, base)
    return None


def _scale_invariance_case(form, a1, a2, lam) -> Optional[dict]:
    q = projective.p_quadrance(form, a1, a2)
    scaled_pt = ProjPoint(lam * a1.x, lam * a1.y)
    q_pt = projective.p_quadrance(form, scaled_pt, a2)
    if q_pt != q:
        return mismatch("point-rescaling-invariance",
                        {"form": form, "a1": a1, "a2": a2, "lambda": lam}, q_pt, q)
    scaled_form = Form(lam * form.d, lam * form.e, lam * form.f)
    q_form = projective.p_quadrance(scaled_form, a1, a2)
    if q_form != q:
        return mismatch("form-rescaling-invariance",
                        {"form": form, "a1": a1, "a2": a2, "lambda": lam}, q_form, q)
    return None


def _selected_forms(colors) -> list[str]:
    if not colors:
        return list(FORM_NAMES)
    return [c for c in FORM_NAMES if c in colors]


def _exhaustive_triple_spread_form(rec, p: int, form, pts):
    """_triple_spread_laws on every non-null ordered triple, from tables of
    the pairwise p-quadrances and perpendicularities."""
    live = _live_indices(rec, [projective.is_null(form, a) for a in pts], 3)
    qtab = _p_quadrance_table(form, pts, live)
    perp = _pair_table(len(pts), live,
                       lambda i, j: projective.is_perpendicular(form, pts[i], pts[j]))
    for i in live:
        row_i, perp_i = qtab[i], perp[i]
        for j in live:
            q3, perp_ij, row_j = row_i[j], perp_i[j], qtab[j]
            for k in live:
                failure = _triple_spread_laws(row_j[k], row_i[k], q3, perp_ij, p)
                rec.case(None if failure is None else _failed(
                    failure, {"form": form, "a1": pts[i], "a2": pts[j], "a3": pts[k]}))


def _suite_triple_spread(rec, ctx, rng, trials, colors):
    names = _selected_forms(colors)
    if rng is None:
        pts = proj_points(ctx)
        for name in names:
            _exhaustive_triple_spread_form(rec, ctx.p, named_form(name), pts)
    else:
        for t in range(trials):
            form = named_form(names[t % len(names)])
            a1 = random_nonnull_point(form, rng)
            a2 = random_nonnull_point(form, rng)
            a3 = random_nonnull_point(form, rng)
            free = tuple(random_element(ctx, rng) for _ in range(3))
            failure = _triple_spread_case(form, a1, a2, a3, free)
            if failure is None:
                failure = _scale_invariance_case(form, a1, a2, random_nonzero(rng))
            rec.case(failure)


def _quadruple_spread_case(form, a1, a2, a3, a4, free) -> Optional[dict]:
    p_quadrance = projective.p_quadrance
    failure = _quadruple_laws("quadruple-spread", projective.quadruple_spread_fn,
                              projective.spread_triple_pair_fraction,
                              p_quadrance(form, a1, a2), p_quadrance(form, a2, a3),
                              p_quadrance(form, a3, a4), p_quadrance(form, a1, a4),
                              p_quadrance(form, a1, a3), p_quadrance(form, a2, a4))
    if failure is not None:
        return _failed(failure, {"form": form, "a1": a1, "a2": a2, "a3": a3, "a4": a4})
    a, b, c, d = free
    den = a + b - c - d - 2 * a * b + 2 * c * d
    lhs = ((a - b) ** 2 - (c - d) ** 2 - 2 * den * (a + b - 2 * a * b)) ** 2 \
        - 16 * a * b * (1 - a) * (1 - b) * den ** 2
    rhs = projective.quadruple_spread_fn(a, b, c, d)
    if lhs != rhs:
        return mismatch("two-spread-triples-rearrangement",
                        {"a": a, "b": b, "c": c, "d": d}, lhs, rhs)
    return None


def _suite_quadruple_spread(rec, ctx, rng, trials, colors):
    names = _selected_forms(colors)
    if rng is None:
        pts = proj_points(ctx)
        for name in names:
            form = named_form(name)
            live = _live_indices(rec, [projective.is_null(form, a) for a in pts], 4)
            _sweep_quadruple(rec, ctx.p, _p_quadrance_table(form, pts, live), live,
                             "quadruple-spread", projective.quadruple_spread_fn,
                             projective.spread_triple_pair_fraction,
                             lambda i, j, k, m: {"form": form, "a1": pts[i], "a2": pts[j],
                                                 "a3": pts[k], "a4": pts[m]})
    else:
        for t in range(trials):
            form = named_form(names[t % len(names)])
            quad = [random_nonnull_point(form, rng) for _ in range(4)]
            free = tuple(random_element(ctx, rng) for _ in range(4))
            rec.case(_quadruple_spread_case(form, *quad, free))


_CYCLIC_COLORS = ((Color.BLUE, Color.RED, Color.GREEN), (Color.RED, Color.GREEN, Color.BLUE),
                  (Color.GREEN, Color.BLUE, Color.RED))


def _chromo_case(a1, a2) -> Optional[dict]:
    inputs = {"a1": a1, "a2": a2}
    # red and green numerators are -num_blue, so the reciprocal sum is
    # (den_blue - den_red - den_green) / num_blue, and it is 2
    fraction = chromo.colored_quadrance_fraction
    num, den = fraction(Color.BLUE, a1, a2)
    lhs = den - fraction(Color.RED, a1, a2)[1] - fraction(Color.GREEN, a1, a2)[1]
    rhs = 2 * num
    if lhs != rhs:
        return mismatch("reciprocal-sum-proof-identity", inputs, lhs, rhs)
    if a1 != a2:
        total = chromo.reciprocal_sum(a1, a2)
        if total != 2:
            return mismatch("reciprocal-sum", inputs, total, 2)
    perps1 = {c: chromo.perpendicular_point(c, a1) for c in Color}
    for c, u, v in _CYCLIC_COLORS:
        val = chromo.colored_quadrance(c, perps1[u], perps1[v])
        if val != 1:
            return mismatch(f"cyclic-perpendicularity-{c}", {"a": a1}, val, 1)
    for c in Color:
        base = chromo.colored_quadrance(c, a1, a2)
        for e in Color:
            b1 = chromo.perpendicular_point(e, a1)
            b2 = chromo.perpendicular_point(e, a2)
            moved = chromo.colored_quadrance(c, b1, b2)
            if moved != base:
                return mismatch(f"color-invariance-{c}-{e}", inputs, moved, base)
    for c, u, v in _CYCLIC_COLORS:
        lhs_q = chromo.colored_quadrance(c, chromo.perpendicular_point(u, a1),
                                         chromo.perpendicular_point(v, a2))
        rhs_q = chromo.colored_quadrance(c, chromo.perpendicular_point(v, a1),
                                         chromo.perpendicular_point(u, a2))
        if lhs_q != rhs_q:
            return mismatch(f"cross-symmetry-{c}", inputs, lhs_q, rhs_q)
    for c in Color:
        back = chromo.perpendicular_point(c, chromo.perpendicular_point(c, a1))
        if back != a1:
            return mismatch(f"perpendicular-involution-{c}", {"a": a1}, back, a1)
    return None


def _all_colors_nonnull(a: ProjPoint) -> bool:
    return not any(chromo.is_null_for(c, a) for c in Color)


def _suite_chromo(rec, ctx, rng, trials, colors):
    if rng is None:
        pts = proj_points(ctx)
        good = [_all_colors_nonnull(a) for a in pts]
        for i, a1 in enumerate(pts):
            for j, a2 in enumerate(pts):
                if not (good[i] and good[j]):
                    rec.skip("null-point")
                    continue
                rec.case(_chromo_case(a1, a2))
    else:
        for _ in range(trials):
            pair = []
            while len(pair) < 2:
                a = random_point(rng)
                if _all_colors_nonnull(a):
                    pair.append(a)
            rec.case(_chromo_case(*pair))


def _multiplication_case(color, p1, p2, p3) -> Optional[dict]:
    multiply = isometry.multiply_points
    ab = multiply(color, p1, p2)
    failure = (_associativity_law(color, p1, p3, ab, multiply(color, p2, p3))
               or _pair_laws(color, p1, p2, ab, multiply(color, p2, p1), _unit_laws(color, p1)))
    if failure is None:
        return None
    return _failed(failure, {"color": color, "p1": p1, "p2": p2, "p3": p3})


def _blue_sqrt_case(p: ProjPoint) -> Optional[dict]:
    root = isometry.blue_sqrt(p)
    square = isometry.multiply_points(Color.BLUE, root, root)
    if square != p:
        return mismatch("blue-sqrt-round-trip", {"p": p, "root": root}, square, p)
    return None


def _green_power_case(p: ProjPoint, n: int) -> Optional[dict]:
    one_one = isometry.point_identity(Color.GREEN)
    s = chromo.colored_quadrance(Color.GREEN, one_one, p)
    pn = isometry.point_power(Color.GREEN, p, n)
    lhs = chromo.colored_quadrance(Color.GREEN, one_one, pn)
    rhs = spreadpoly.poly_eval(spreadpoly.spread_poly(n), s)
    if lhs != rhs:
        return mismatch("green-power-spread-bridge", {"p": p, "n": n}, lhs, rhs)
    return None


def _residue_preservation(rec, p: int, color, res, live, isos):
    """Every isometry of the color (``isos``, keyed by kind and parameter
    index) on every pair of live points: the quadrances before (one table)
    and after (images once per isometry)."""
    n = len(res)
    apply = isometry.apply
    before = _pair_table(n, live, lambda i, j: _colored_fraction(color, res[i], res[j], p))
    for kind in IsoKind:
        rec.skip("null-parameter", n - len(live))
        for k in live:
            rec.skip("null-point", n * n - len(live) ** 2)
            iso = isos[kind, k]
            images = [apply(iso, a) for a in res]
            for i in live:
                image, before_i = images[i], before[i]
                for j in live:
                    after = _colored_fraction(color, image, images[j], p)
                    failure = _preservation_law(color, before_i[j], after, p)
                    rec.case(None if failure is None else _failed(
                        failure, {"kind": kind, "param": iso.param, "a1": res[i], "a2": res[j]},
                        p))


def _residue_composition(rec, p: int, color, res, live, isos):
    """Every composition table entry of two live parameters, against the
    product of matrices built once per isometry."""
    n = len(res)
    matrices = {key: isometry.matrix_of(iso) for key, iso in isos.items()}
    for kind1 in IsoKind:
        for kind2 in IsoKind:
            rec.skip("null-parameter", n * n - len(live) ** 2)
            for i in live:
                iso1, m1 = isos[kind1, i], matrices[kind1, i]
                for j in live:
                    rec.case(_composition_case(iso1, m1, isos[kind2, j], matrices[kind2, j], p))


def _residue_multiplication(rec, p: int, color, res, live):
    """The multiplication laws on every live triple.  The products p1*p2 and
    the laws that involve only p1 and p2 are evaluated once per pair, so a
    triple costs the two associativity products and table lookups."""
    n = len(res)
    rec.skip("null-parameter", n ** 3 - len(live) ** 3)
    ab = _pair_table(n, live, lambda i, j: isometry.multiply_points(color, res[i], res[j]))
    unit = {i: _unit_laws(color, res[i], p) for i in live}
    pair = _pair_table(n, live, lambda i, j: _pair_laws(color, res[i], res[j], ab[i][j],
                                                        ab[j][i], unit[i], p))
    for i in live:
        p1, ab_i, pair_i = res[i], ab[i], pair[i]
        for j in live:
            ab_j, pair_failure = ab[j], pair_i[j]
            for k in live:
                failure = (_associativity_law(color, p1, res[k], ab_i[j], ab_j[k], p)
                           or pair_failure)
                rec.case(None if failure is None else _failed(
                    failure, {"color": color, "p1": p1, "p2": res[j], "p3": res[k]}, p))


def _suite_isometry(rec, ctx, rng, trials, colors):
    wanted = [c for c in Color if not colors or c.value in colors]
    if rng is None:
        # Preservation, composition and the multiplication laws run the
        # library's kernels on int-residue points and compare mod p; blue
        # square roots and the green power bridge need field division and
        # square roots, so they stay on Fp points.
        pts = proj_points(ctx)
        res = _residue_points(ctx.p)
        for color in wanted:
            null = [chromo.is_null_for(color, a) for a in pts]
            live = [i for i, is_null in enumerate(null) if not is_null]
            isos = {(kind, i): isometry.make_isometry(color, kind, res[i])
                    for kind in IsoKind for i in live}
            _residue_preservation(rec, ctx.p, color, res, live, isos)
            _residue_composition(rec, ctx.p, color, res, live, isos)
            _residue_multiplication(rec, ctx.p, color, res, live)
            if color is Color.BLUE:
                for a in pts:
                    try:
                        rec.case(_blue_sqrt_case(a))
                    except NotUnitCircle:
                        rec.skip("not-unit-circle")
            if color is Color.GREEN:
                for i, a in enumerate(pts):
                    if null[i]:
                        rec.skip("null-point", 8)
                        continue
                    for power in range(1, 9):
                        rec.case(_green_power_case(a, power))
    else:
        for t in range(trials):
            color = wanted[t % len(wanted)]
            form = chromo.colored_form(color)
            p1 = random_nonnull_point(form, rng)
            p2 = random_nonnull_point(form, rng)
            p3 = random_nonnull_point(form, rng)
            a1 = random_nonnull_point(form, rng)
            a2 = random_nonnull_point(form, rng)
            kind = IsoKind.ROTATION if rng.randrange(2) else IsoKind.REFLECTION
            kind2 = IsoKind.ROTATION if rng.randrange(2) else IsoKind.REFLECTION
            iso1 = isometry.make_isometry(color, kind, p1)
            iso2 = isometry.make_isometry(color, kind2, p2)
            before = _colored_fraction(color, a1, a2)
            after = _colored_fraction(color, isometry.apply(iso1, a1), isometry.apply(iso1, a2))
            failure = _preservation_law(color, before, after)
            if failure is not None:
                failure = _failed(failure, {"kind": kind, "param": p1, "a1": a1, "a2": a2})
            else:
                failure = _composition_case(iso1, isometry.matrix_of(iso1),
                                            iso2, isometry.matrix_of(iso2))
            if failure is None:
                failure = _multiplication_case(color, p1, p2, p3)
            if failure is None and color is Color.BLUE:
                t_param = random_element(ctx, rng)
                unit = ProjPoint(1 - t_param * t_param, 2 * t_param)
                failure = _blue_sqrt_case(unit)
            if failure is None and color is Color.GREEN:
                failure = _green_power_case(p1, 1 + t % 8)
            rec.case(failure)


def _spreadpoly_fixed_cases(rec):
    for n in range(1, 17):
        poly = spreadpoly.spread_poly(n)
        lead = poly.leading
        if poly.degree != n or abs(lead) != 4 ** (n - 1):
            rec.case(mismatch("spread-degree-leading", {"n": n},
                              f"deg={poly.degree}, lead={lead}",
                              f"deg={n}, |lead|=4^{n - 1}"))
        else:
            rec.case(None)
    logistic = spreadpoly.IntPolynomial([0, 4, -4])
    rec.case(None if spreadpoly.spread_poly(2) == logistic
             else mismatch("spread-2-logistic", {}, spreadpoly.spread_poly(2), logistic))
    for n in range(1, 7):
        for m in range(1, 7):
            comp = spreadpoly.poly_compose(spreadpoly.spread_poly(n),
                                           spreadpoly.spread_poly(m))
            target = spreadpoly.spread_poly(n * m)
            rec.case(None if comp == target
                     else mismatch("spread-composition", {"n": n, "m": m}, comp, target))
    for n in range(1, 17):
        via = spreadpoly.spread_via_chebyshev(n)
        rec.case(None if via == spreadpoly.spread_poly(n)
                 else mismatch("spread-via-chebyshev", {"n": n},
                               via, spreadpoly.spread_poly(n)))
    for n in range(1, 13):
        product = spreadpoly.IntPolynomial([1])
        try:
            for k in spreadpoly.divisors(n):
                product = product * spreadpoly.spread_cyclotomic(k)
        except FactorizationFailure as exc:
            # a wrong S_k does not factor; report it as this case's failure
            product = f"FactorizationFailure: {exc}"
        rec.case(None if product == spreadpoly.spread_poly(n)
                 else mismatch("spread-cyclotomic-product", {"n": n},
                               product, spreadpoly.spread_poly(n)))


def _recurrence_case(s, p: Optional[int] = None) -> Optional[dict]:
    """S_{n-1}(s), s, S_n(s) annihilate the triple spread function, n = 1..12.

    With ``p`` the argument is an int residue and values are reduced mod p;
    spread polynomials have integer coefficients, so this is exact over F_p.
    """
    prev = spreadpoly.poly_eval(spreadpoly.spread_poly(0), s)
    for n in range(1, 13):
        cur = spreadpoly.poly_eval(spreadpoly.spread_poly(n), s)
        val = projective.triple_spread_fn(prev, s, cur)
        if p is not None:
            cur, val = cur % p, val % p
        if val != 0:
            return mismatch("spread-recurrence-triple", {"n": n, "s": s}, val, 0)
        prev = cur
    return None


def _composition_eval_case(s: int, p: int) -> Optional[dict]:
    """S_n(S_m(s)) = S_nm(s) for n, m = 1..6, at an int residue s mod p."""
    poly_eval, spread_poly = spreadpoly.poly_eval, spreadpoly.spread_poly
    for n in range(1, 7):
        for m in range(1, 7):
            lhs = poly_eval(spread_poly(n), poly_eval(spread_poly(m), s) % p) % p
            rhs = poly_eval(spread_poly(n * m), s) % p
            if lhs != rhs:
                return mismatch("spread-composition-eval", {"n": n, "m": m, "s": s}, lhs, rhs)
    return None


def _green_ratio_case(x, y, ns) -> Optional[dict]:
    for n in ns:
        res = spreadpoly.spread_at_green_ratio(x, y, n)
        if res.sn_of_s != res.closed_form:
            return mismatch("green-ratio-closed-form", {"x": x, "y": y, "n": n},
                            res.sn_of_s, res.closed_form)
    return None


def _suite_spreadpoly(rec, ctx, rng, trials, colors):
    _spreadpoly_fixed_cases(rec)
    if rng is None:
        # Recurrence and composition on int residues; the green ratio
        # divides, so it stays on Fp.
        for s in range(ctx.p):
            rec.case(_recurrence_case(s, ctx.p) or _composition_eval_case(s, ctx.p))
        elems = list(ctx.enumerate_elements())
        for x in elems:
            for y in elems:
                if x == 0 or y == 0:
                    rec.skip("zero-coordinate")
                    continue
                rec.case(_green_ratio_case(x, y, range(1, 9)))
    else:
        for t in range(trials):
            s = random_element(ctx, rng)
            failure = _recurrence_case(s)
            if failure is None:
                x, y = random_nonzero(rng), random_nonzero(rng)
                failure = _green_ratio_case(x, y, [1 + t % 8])
            rec.case(failure)


_SUITES: dict[str, Callable] = {
    "triple-quad": _suite_triple_quad,
    "quadruple-quad": _suite_quadruple_quad,
    "heron": _suite_heron,
    "brahmagupta": _suite_brahmagupta,
    "fibonacci": _suite_fibonacci,
    "triple-spread": _suite_triple_spread,
    "quadruple-spread": _suite_quadruple_spread,
    "chromo": _suite_chromo,
    "isometry": _suite_isometry,
    "spreadpoly": _suite_spreadpoly,
}


def run_suite(suite: str, ctx: FieldContext, *, trials: int = 1000,
              seed: int = 0, colors=None) -> Report:
    """Run one suite (or "all") over a field and return its report.

    Rational contexts use ``trials`` seeded random cases; prime fields are
    enumerated exhaustively and ignore ``trials`` and ``seed``.
    """
    if suite != "all" and suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of "
                           f"{', '.join(SUITE_NAMES)} or 'all'")
    randomized = ctx.kind == "rationals"
    rng = random.Random(seed) if randomized else None
    report = Report(suite, ctx.descriptor, seed=seed if randomized else None)
    started = time.perf_counter()
    for name in SUITE_NAMES if suite == "all" else (suite,):
        _SUITES[name](report, ctx, rng, trials, colors)
    report.elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    assert report.passed + report.failed + report.skipped == report.attempted
    return report
