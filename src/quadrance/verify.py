"""Randomized and exhaustive verification suites with structured reports.

Over the rationals each suite runs seeded random trials; over a prime
field it enumerates every case (all point tuples, all shape parameters),
skipping and counting tuples that are null where non-null inputs are
required.  Every report satisfies passed + failed + skipped = attempted,
and identical seeds and arguments reproduce identical results.

The polynomial identities (triple and quadruple quad and spread formulas,
Heron, Brahmagupta, generalized Fibonacci) have integer coefficients, so
their F_p sweeps call the library's own kernels on plain int residues
0..p-1 and reduce mod p once per side.  Solution fractions are checked
cleared of their denominator: num == den * q (mod p).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Optional

from . import affine, chromo, isometry, projective, spreadpoly
from .chromo import Color
from .errors import NotUnitCircle, UnknownSuite
from .field import FieldContext
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
    """Outcome of one suite run over one field."""

    suite: str
    field: str
    attempted: int
    passed: int
    failed: int
    skipped: int
    skip_reasons: dict
    counterexample: Optional[dict]
    seed: Optional[int]
    elapsed_ms: int

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "field": self.field,
            "attempted": self.attempted,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "skip_reasons": {k: self.skip_reasons[k] for k in sorted(self.skip_reasons)},
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.seed is not None:
            out["seed"] = self.seed
        out["elapsed_ms"] = self.elapsed_ms
        return out


@dataclass
class Recorder:
    """Tallies cases; keeps the first counterexample in exact form."""

    attempted: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    skip_reasons: dict = dataclass_field(default_factory=dict)
    counterexample: Optional[dict] = None

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


def mismatch(identity: str, inputs: dict, lhs, rhs) -> dict:
    return {
        "identity": identity,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


# -- sampling and enumeration -------------------------------------------------

def random_element(ctx: FieldContext, rng: random.Random):
    """A small random field element (uniform residue over F_p)."""
    if ctx.kind == "fp":
        return ctx.from_int(rng.randrange(ctx.p))
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def random_nonzero(ctx, rng):
    while True:
        x = random_element(ctx, rng)
        if x != 0:
            return x


def random_point(ctx, rng) -> ProjPoint:
    while True:
        x, y = random_element(ctx, rng), random_element(ctx, rng)
        if x != 0 or y != 0:
            return ProjPoint(x, y)


def random_nonnull_point(form: Form, ctx, rng) -> ProjPoint:
    while True:
        a = random_point(ctx, rng)
        if projective.form_value(form, a) != 0:
            return a


def proj_points(ctx: FieldContext) -> list[ProjPoint]:
    """All p+1 projective points over F_p: [1:0], [1:1], ..., [1:p-1], [0:1]."""
    one = ctx.one()
    pts = [ProjPoint(one, ctx.from_int(t)) for t in range(ctx.p)]
    pts.append(ProjPoint(ctx.zero(), one))
    return pts


# -- identity drivers and residue sweeps over F_p -----------------------------

def _check_sides(rec, identity: str, names, sides: Callable, cases,
                 p: Optional[int] = None):
    """One case per argument tuple: ``sides(*args)`` must return equal (lhs, rhs).

    With ``p`` the arguments are int residues and both sides are compared,
    and reported, reduced mod p.
    """
    for args in cases:
        lhs, rhs = sides(*args)
        if p is not None:
            lhs, rhs = lhs % p, rhs % p
        if lhs == rhs:
            rec.case(None)
        else:
            rec.case(mismatch(identity, dict(zip(names, args)), lhs, rhs))


def _solution_mismatch(num, den, want: int, p: int):
    """num/den mod p where it differs from ``want``; None when equal or den = 0 mod p."""
    if den % p == 0 or (num - den * want) % p == 0:
        return None
    return num * pow(den, -1, p) % p


def _live_indices(rec, null: list, arity: int) -> list:
    """Indices of the non-null points; the tuples with a null entry are skipped."""
    live = [i for i, is_null in enumerate(null) if not is_null]
    rec.skip("null-point", len(null) ** arity - len(live) ** arity)
    return live


def _sweep_quadruple(rec, p: int, qtab, fn, fraction, name: str, inputs, live):
    """Every 4-tuple over ``live`` indices of the residue table ``qtab``.

    ``fn`` of the four sides must vanish mod p, and each diagonal must equal
    its solution fraction whenever that fraction's denominator is nonzero.
    """
    for i in live:
        row_i = qtab[i]
        for j in live:
            q12, row_j = row_i[j], qtab[j]
            for k in live:
                q23, row_k, q13 = row_j[k], qtab[k], row_i[k]
                for m in live:
                    q34, q14, q24 = row_k[m], row_i[m], row_j[m]
                    value = fn(q12, q23, q34, q14) % p
                    if value:
                        rec.case(mismatch(f"{name}-formula", inputs(i, j, k, m), value, 0))
                        continue
                    got = _solution_mismatch(*fraction(q12, q23, q34, q14), q13, p)
                    if got is not None:
                        rec.case(mismatch(f"{name}-q13", inputs(i, j, k, m), got, q13))
                        continue
                    got = _solution_mismatch(*fraction(q23, q34, q12, q14), q24, p)
                    if got is not None:
                        rec.case(mismatch(f"{name}-q24", inputs(i, j, k, m), got, q24))
                        continue
                    rec.case(None)


def _check_identity(rec, ctx, rng, trials, identity, names, sides, residue_cases=None):
    """``sides`` on ``trials`` random argument tuples, or over F_p on
    ``residue_cases`` (by default every tuple of residues)."""
    if rng is None:
        if residue_cases is None:
            residue_cases = itertools.product(range(ctx.p), repeat=len(names))
        _check_sides(rec, identity, names, sides, residue_cases, ctx.p)
    else:
        cases = (tuple(random_element(ctx, rng) for _ in names) for _ in range(trials))
        _check_sides(rec, identity, names, sides, cases)


def _residue_quadrance_table(p: int) -> list:
    """Residues of the quadrances (b - a)^2 between all points of the affine line."""
    return [[(b - a) ** 2 % p for b in range(p)] for a in range(p)]


def _p_quadrance_table(form, pts, live) -> list:
    """Residues of the p-quadrances between the ``live`` (non-null) points."""
    n = len(pts)
    qtab = [[None] * n for _ in range(n)]
    for i in live:
        for j in live:
            qtab[i][j] = projective.p_quadrance(form, pts[i], pts[j]).r
    return qtab


# -- individual suites --------------------------------------------------------

def _triple_quad_case(t1, t2, t3) -> Optional[dict]:
    a1, a2, a3 = affine.AffinePoint(t1), affine.AffinePoint(t2), affine.AffinePoint(t3)
    q1 = affine.quadrance(a2, a3)
    q2 = affine.quadrance(a1, a3)
    q3 = affine.quadrance(a1, a2)
    val = affine.archimedes(q1, q2, q3)
    if val != 0:
        return mismatch("triple-quad-formula", {"x1": t1, "x2": t2, "x3": t3}, val, 0)
    base = affine.archimedes(t1, t2, t3)
    for i, alt in enumerate(affine.archimedes_forms(t1, t2, t3)):
        if alt != base:
            return mismatch(f"archimedes-alternate-{i + 1}",
                            {"a": t1, "b": t2, "c": t3}, alt, base)
    proof = 4 * t1 * t2 - (t1 + t2 - t3) ** 2
    if proof != base:
        return mismatch("triple-quad-proof-identity",
                        {"a": t1, "b": t2, "c": t3}, proof, base)
    return None


def _suite_triple_quad(rec, ctx, rng, trials, colors):
    if rng is None:
        # The theorem itself over all p^3 ordered point triples; the
        # free-variable alternate/proof identities are random-input checks
        # and live in the randomized mode below.
        p = ctx.p
        archimedes = affine.archimedes
        qtab = _residue_quadrance_table(p)
        for i in range(p):
            row_i = qtab[i]
            for j in range(p):
                q3 = row_i[j]
                row_j = qtab[j]
                for k in range(p):
                    val = archimedes(row_j[k], row_i[k], q3) % p
                    if val == 0:
                        rec.case(None)
                    else:
                        rec.case(mismatch("triple-quad-formula",
                                          {"x1": i, "x2": j, "x3": k}, val, 0))
    else:
        for _ in range(trials):
            rec.case(_triple_quad_case(*(random_element(ctx, rng) for _ in range(3))))


def _quadruple_quad_case(t1, t2, t3, t4) -> Optional[dict]:
    pts = [affine.AffinePoint(t) for t in (t1, t2, t3, t4)]
    res = affine.quadruple_quad_check(*pts)
    inputs = {"x1": t1, "x2": t2, "x3": t3, "x4": t4}
    if res.value != 0:
        return mismatch("quadruple-quad-formula", inputs, res.value, 0)
    if res.q13 is not None:
        direct = affine.quadrance(pts[0], pts[2])
        if res.q13 != direct:
            return mismatch("quadruple-quad-q13", inputs, res.q13, direct)
    if res.q24 is not None:
        direct = affine.quadrance(pts[1], pts[3])
        if res.q24 != direct:
            return mismatch("quadruple-quad-q24", inputs, res.q24, direct)
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
        # theorem sweep over all p^4 point tuples: value and both fractions;
        # the free-variable rearrangement identity is a random-input check
        p = ctx.p
        _sweep_quadruple(rec, p, _residue_quadrance_table(p), affine.quadruple_quad_fn,
                         affine.quad_triple_pair_fraction, "quadruple-quad",
                         lambda i, j, k, m: {"x1": i, "x2": j, "x3": k, "x4": m},
                         range(p))
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


def _fibonacci_sides(d, e, f, x1, y1, x2, y2):
    """Both sides of the generalized Fibonacci identity for the form (d:e:f):
    (df - e^2)(x1 y2 - x2 y1)^2 + pairing^2 and the product of the form values."""
    disc = d * f - e * e
    cross = x1 * y2 - x2 * y1
    pair = d * x1 * x2 + e * x1 * y2 + e * x2 * y1 + f * y1 * y2
    v1 = d * x1 * x1 + 2 * e * x1 * y1 + f * y1 * y1
    v2 = d * x2 * x2 + 2 * e * x2 * y2 + f * y2 * y2
    return disc * cross * cross + pair * pair, v1 * v2


def _suite_fibonacci(rec, ctx, rng, trials, colors):
    residue_cases = None
    if rng is None:
        # The identity has seven free variables; enumerating them all is
        # infeasible, so the four standard forms are paired with every
        # coordinate 4-tuple.
        coords = list(itertools.product(range(ctx.p), repeat=4))
        residue_cases = ((form.d, form.e, form.f) + xy
                         for form in map(named_form, FORM_NAMES) for xy in coords)
    _check_identity(rec, ctx, rng, trials, "generalized-fibonacci",
                    ("d", "e", "f", "x1", "y1", "x2", "y2"), _fibonacci_sides, residue_cases)


def _triple_spread_case(form, a1, a2, a3, free) -> Optional[dict]:
    q1 = projective.p_quadrance(form, a2, a3)
    q2 = projective.p_quadrance(form, a1, a3)
    q3 = projective.p_quadrance(form, a1, a2)
    inputs = {"form": form, "a1": a1, "a2": a2, "a3": a3}
    val = projective.triple_spread_fn(q1, q2, q3)
    if val != 0:
        return mismatch("triple-spread-formula", inputs, val, 0)
    lhs = (q1 + q2 - q3) ** 2
    rhs = 4 * q1 * q2 * (1 - q3)
    if lhs != rhs:
        return mismatch("triple-spread-proof-identity", inputs, lhs, rhs)
    perp = projective.is_perpendicular(form, a1, a2)
    if perp != (q3 == 1):
        return mismatch("perpendicular-iff-q1", inputs, perp, q3)
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


def _exhaustive_triple_spread_form(rec, ctx, form, pts):
    # Theorem sweep: triple spread formula, its proof-step identity, and
    # perpendicularity <=> q = 1 on every non-null ordered triple, via
    # precomputed pairwise quadrance and pairing tables.
    p = ctx.p
    live = _live_indices(rec, [projective.form_value(form, a) == 0 for a in pts], 3)
    qtab = _p_quadrance_table(form, pts, live)
    perp = {(i, j): projective.pairing(form, pts[i], pts[j]) == 0 for i in live for j in live}
    triple_spread_fn = projective.triple_spread_fn
    for i in live:
        for j in live:
            q3, perp_ij = qtab[i][j], perp[i, j]
            for k in live:
                q1, q2 = qtab[j][k], qtab[i][k]
                val = triple_spread_fn(q1, q2, q3) % p
                lhs = (q1 + q2 - q3) ** 2 % p
                rhs = 4 * q1 * q2 * (1 - q3) % p
                if val:
                    failure = ("triple-spread-formula", val, 0)
                elif lhs != rhs:
                    failure = ("triple-spread-proof-identity", lhs, rhs)
                elif perp_ij != (q3 == 1):
                    failure = ("perpendicular-iff-q1", perp_ij, q3)
                else:
                    rec.case(None)
                    continue
                identity, lhs, rhs = failure
                rec.case(mismatch(identity, {"form": form, "a1": pts[i], "a2": pts[j],
                                             "a3": pts[k]}, lhs, rhs))


def _suite_triple_spread(rec, ctx, rng, trials, colors):
    names = _selected_forms(colors)
    if rng is None:
        pts = proj_points(ctx)
        for name in names:
            _exhaustive_triple_spread_form(rec, ctx, named_form(name), pts)
    else:
        for t in range(trials):
            form = named_form(names[t % len(names)])
            a1 = random_nonnull_point(form, ctx, rng)
            a2 = random_nonnull_point(form, ctx, rng)
            a3 = random_nonnull_point(form, ctx, rng)
            free = tuple(random_element(ctx, rng) for _ in range(3))
            failure = _triple_spread_case(form, a1, a2, a3, free)
            if failure is None:
                failure = _scale_invariance_case(form, a1, a2, random_nonzero(ctx, rng))
            rec.case(failure)


def _quadruple_spread_case(form, a1, a2, a3, a4, free) -> Optional[dict]:
    res = projective.projective_quadruple_check(form, a1, a2, a3, a4)
    inputs = {"form": form, "a1": a1, "a2": a2, "a3": a3, "a4": a4}
    if res.value != 0:
        return mismatch("quadruple-spread-formula", inputs, res.value, 0)
    if res.q13 is not None:
        direct = projective.p_quadrance(form, a1, a3)
        if res.q13 != direct:
            return mismatch("quadruple-spread-q13", inputs, res.q13, direct)
    if res.q24 is not None:
        direct = projective.p_quadrance(form, a2, a4)
        if res.q24 != direct:
            return mismatch("quadruple-spread-q24", inputs, res.q24, direct)
    a, b, c, d = free
    den = a + b - c - d - 2 * a * b + 2 * c * d
    lhs = ((a - b) ** 2 - (c - d) ** 2 - 2 * den * (a + b - 2 * a * b)) ** 2 \
        - 16 * a * b * (1 - a) * (1 - b) * den ** 2
    rhs = projective.quadruple_spread_fn(a, b, c, d)
    if lhs != rhs:
        return mismatch("two-spread-triples-rearrangement",
                        {"a": a, "b": b, "c": c, "d": d}, lhs, rhs)
    return None


def _exhaustive_quadruple_spread_form(rec, ctx, form, pts):
    # Pairwise p-quadrances are precomputed; each 4-tuple case then checks
    # the quadruple formula and both solution fractions by table lookup.
    # The free-variable rearrangement identity is a random-input check.
    live = _live_indices(rec, [projective.form_value(form, a) == 0 for a in pts], 4)
    _sweep_quadruple(rec, ctx.p, _p_quadrance_table(form, pts, live),
                     projective.quadruple_spread_fn, projective.spread_triple_pair_fraction,
                     "quadruple-spread",
                     lambda i, j, k, m: {"form": form, "a1": pts[i], "a2": pts[j],
                                         "a3": pts[k], "a4": pts[m]},
                     live)


def _suite_quadruple_spread(rec, ctx, rng, trials, colors):
    names = _selected_forms(colors)
    if rng is None:
        pts = proj_points(ctx)
        for name in names:
            _exhaustive_quadruple_spread_form(rec, ctx, named_form(name), pts)
    else:
        for t in range(trials):
            form = named_form(names[t % len(names)])
            quad = [random_nonnull_point(form, ctx, rng) for _ in range(4)]
            free = tuple(random_element(ctx, rng) for _ in range(4))
            rec.case(_quadruple_spread_case(form, *quad, free))


def _chromo_case(a1, a2) -> Optional[dict]:
    inputs = {"a1": a1, "a2": a2}
    x1, y1, x2, y2 = a1.x, a1.y, a2.x, a2.y
    lhs = (x1 * x1 + y1 * y1) * (x2 * x2 + y2 * y2) \
        - (x1 * x1 - y1 * y1) * (x2 * x2 - y2 * y2) - 4 * x1 * y1 * x2 * y2
    rhs = 2 * (x1 * y2 - x2 * y1) ** 2
    if lhs != rhs:
        return mismatch("reciprocal-sum-proof-identity", inputs, lhs, rhs)
    if a1 != a2:
        total = chromo.reciprocal_sum(a1, a2)
        if total != 2:
            return mismatch("reciprocal-sum", inputs, total, 2)
    perps1 = {c: chromo.perpendicular_point(c, a1) for c in Color}
    cyc = [
        ("blue", chromo.colored_quadrance(Color.BLUE, perps1[Color.RED], perps1[Color.GREEN])),
        ("red", chromo.colored_quadrance(Color.RED, perps1[Color.GREEN], perps1[Color.BLUE])),
        ("green", chromo.colored_quadrance(Color.GREEN, perps1[Color.BLUE], perps1[Color.RED])),
    ]
    for cname, val in cyc:
        if val != 1:
            return mismatch(f"cyclic-perpendicularity-{cname}", {"a": a1}, val, 1)
    for c in Color:
        base = chromo.colored_quadrance(c, a1, a2)
        for e in Color:
            b1 = chromo.perpendicular_point(e, a1)
            b2 = chromo.perpendicular_point(e, a2)
            moved = chromo.colored_quadrance(c, b1, b2)
            if moved != base:
                return mismatch(f"color-invariance-{c}-{e}", inputs, moved, base)
    cross_pairs = (
        (Color.BLUE, Color.RED, Color.GREEN),
        (Color.RED, Color.GREEN, Color.BLUE),
        (Color.GREEN, Color.BLUE, Color.RED),
    )
    for c, u, v in cross_pairs:
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
                a = random_point(ctx, rng)
                if _all_colors_nonnull(a):
                    pair.append(a)
            rec.case(_chromo_case(*pair))


def _preservation_case(iso, a1, a2) -> Optional[dict]:
    before = chromo.colored_quadrance(iso.color, a1, a2)
    after = chromo.colored_quadrance(iso.color, isometry.apply(iso, a1),
                                     isometry.apply(iso, a2))
    if before != after:
        return mismatch(
            f"isometry-preservation-{iso.color}",
            {"kind": iso.kind, "param": iso.param, "a1": a1, "a2": a2},
            after, before,
        )
    return None


def _composition_case(color, kind1, p1, kind2, p2) -> Optional[dict]:
    iso1 = isometry.ProjIsometry(color, kind1, p1)
    iso2 = isometry.ProjIsometry(color, kind2, p2)
    composed = isometry.compose(iso1, iso2)
    inputs = {"color": color, "kind1": kind1, "p1": p1, "kind2": kind2, "p2": p2}
    product = isometry.matrix_of(iso1) @ isometry.matrix_of(iso2)
    if isometry.matrix_of(composed) != product:
        return mismatch("composition-table-vs-matrix", inputs,
                        isometry.matrix_of(composed), product)
    expected_kind = IsoKind.ROTATION if kind1 == kind2 else IsoKind.REFLECTION
    if composed.kind is not expected_kind:
        return mismatch("composition-kind-parity", inputs, composed.kind, expected_kind)
    if chromo.is_null_for(color, composed.param):
        return mismatch("composition-nonnull-closure", inputs, composed.param, "non-null")
    if color is Color.BLUE:
        a, b, c, d = p1.x, p1.y, p2.x, p2.y
        lhs = (a * c + b * d) ** 2 + (a * d - b * c) ** 2
        mid = (a * a + b * b) * (c * c + d * d)
        rhs = (a * c - b * d) ** 2 + (a * d + b * c) ** 2
        if not (lhs == mid == rhs):
            return mismatch("fibonacci-identity-blue", inputs, lhs, mid)
    if color is Color.RED:
        a, b, c, d = p1.x, p1.y, p2.x, p2.y
        lhs = (a * c - b * d) ** 2 - (a * d - b * c) ** 2
        mid = (a * a - b * b) * (c * c - d * d)
        rhs = (a * c + b * d) ** 2 - (a * d + b * c) ** 2
        if not (lhs == mid == rhs):
            return mismatch("fibonacci-identity-red", inputs, lhs, mid)
    return None


def _multiplication_case(color, p1, p2, p3) -> Optional[dict]:
    inputs = {"color": color, "p1": p1, "p2": p2, "p3": p3}
    left = isometry.multiply_points(color, isometry.multiply_points(color, p1, p2), p3)
    right = isometry.multiply_points(color, p1, isometry.multiply_points(color, p2, p3))
    if left != right:
        return mismatch("multiplication-associativity", inputs, left, right)
    ab = isometry.multiply_points(color, p1, p2)
    ba = isometry.multiply_points(color, p2, p1)
    if ab != ba:
        return mismatch("multiplication-commutativity", inputs, ab, ba)
    ident = isometry.point_identity(color)
    if isometry.multiply_points(color, p1, ident) != p1:
        return mismatch("multiplication-identity", inputs,
                        isometry.multiply_points(color, p1, ident), p1)
    inv1 = isometry.point_inverse(color, p1)
    if isometry.multiply_points(color, p1, inv1) != ident:
        return mismatch("multiplication-inverse", inputs,
                        isometry.multiply_points(color, p1, inv1), ident)
    rot = isometry.compose(
        isometry.ProjIsometry(color, IsoKind.ROTATION, p1),
        isometry.ProjIsometry(color, IsoKind.ROTATION, p2),
    )
    if rot.param != ab:
        return mismatch("multiplication-vs-rotation-composition", inputs, rot.param, ab)
    return None


def _blue_sqrt_case(p: ProjPoint) -> Optional[dict]:
    root = isometry.blue_sqrt(p)
    square = isometry.multiply_points(Color.BLUE, root, root)
    if square != p:
        return mismatch("blue-sqrt-round-trip", {"p": p, "root": root}, square, p)
    return None


def _green_power_case(p: ProjPoint, n: int) -> Optional[dict]:
    one_one = ProjPoint(1, 1)
    s = chromo.colored_quadrance(Color.GREEN, one_one, p)
    pn = isometry.point_power(Color.GREEN, p, n)
    lhs = chromo.colored_quadrance(Color.GREEN, one_one, pn)
    rhs = spreadpoly.poly_eval(spreadpoly.spread_poly(n), s)
    if lhs != rhs:
        return mismatch("green-power-spread-bridge", {"p": p, "n": n}, lhs, rhs)
    return None


def _suite_isometry(rec, ctx, rng, trials, colors):
    wanted = [c for c in Color if not colors or c.value in colors]
    if rng is None:
        pts = proj_points(ctx)
        for color in wanted:
            null = [chromo.is_null_for(color, a) for a in pts]
            before = [[None if null[i] or null[j]
                       else chromo.colored_quadrance(color, pts[i], pts[j])
                       for j in range(len(pts))] for i in range(len(pts))]
            for kind in IsoKind:
                for pi, param in enumerate(pts):
                    if null[pi]:
                        rec.skip("null-parameter")
                        continue
                    iso = isometry.ProjIsometry(color, kind, param)
                    images = [isometry.apply(iso, a) for a in pts]
                    for i in range(len(pts)):
                        for j in range(len(pts)):
                            if null[i] or null[j]:
                                rec.skip("null-point")
                                continue
                            after = chromo.colored_quadrance(color, images[i], images[j])
                            if before[i][j] != after:
                                rec.case(mismatch(
                                    f"isometry-preservation-{color}",
                                    {"kind": kind, "param": param,
                                     "a1": pts[i], "a2": pts[j]},
                                    after, before[i][j]))
                            else:
                                rec.case(None)
            for kind1 in IsoKind:
                for kind2 in IsoKind:
                    for i, p1 in enumerate(pts):
                        for j, p2 in enumerate(pts):
                            if null[i] or null[j]:
                                rec.skip("null-parameter")
                                continue
                            rec.case(_composition_case(color, kind1, p1, kind2, p2))
            for i, p1 in enumerate(pts):
                for j, p2 in enumerate(pts):
                    for k, p3 in enumerate(pts):
                        if null[i] or null[j] or null[k]:
                            rec.skip("null-parameter")
                            continue
                        rec.case(_multiplication_case(color, p1, p2, p3))
            if color is Color.BLUE:
                for a in pts:
                    try:
                        rec.case(_blue_sqrt_case(a))
                    except NotUnitCircle:
                        rec.skip("not-unit-circle")
            if color is Color.GREEN:
                for i, a in enumerate(pts):
                    for n in range(1, 9):
                        if null[i]:
                            rec.skip("null-point")
                            continue
                        rec.case(_green_power_case(a, n))
    else:
        for t in range(trials):
            color = wanted[t % len(wanted)]
            form = chromo.colored_form(color)
            p1 = random_nonnull_point(form, ctx, rng)
            p2 = random_nonnull_point(form, ctx, rng)
            p3 = random_nonnull_point(form, ctx, rng)
            a1 = random_nonnull_point(form, ctx, rng)
            a2 = random_nonnull_point(form, ctx, rng)
            kind = IsoKind.ROTATION if rng.randrange(2) else IsoKind.REFLECTION
            kind2 = IsoKind.ROTATION if rng.randrange(2) else IsoKind.REFLECTION
            failure = _preservation_case(isometry.ProjIsometry(color, kind, p1), a1, a2)
            if failure is None:
                failure = _composition_case(color, kind, p1, kind2, p2)
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
        for k in spreadpoly.divisors(n):
            product = product * spreadpoly.spread_cyclotomic(k)
        rec.case(None if product == spreadpoly.spread_poly(n)
                 else mismatch("spread-cyclotomic-product", {"n": n},
                               product, spreadpoly.spread_poly(n)))


def _recurrence_case(s) -> Optional[dict]:
    prev = spreadpoly.poly_eval(spreadpoly.spread_poly(0), s)
    for n in range(1, 13):
        cur = spreadpoly.poly_eval(spreadpoly.spread_poly(n), s)
        val = projective.triple_spread_fn(prev, s, cur)
        if val != 0:
            return mismatch("spread-recurrence-triple", {"n": n, "s": s}, val, 0)
        prev = cur
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
        elems = list(ctx.enumerate_elements())
        for s in elems:
            failure = _recurrence_case(s)
            if failure is None:
                for n in range(1, 7):
                    for m in range(1, 7):
                        lhs = spreadpoly.poly_eval(
                            spreadpoly.spread_poly(n),
                            spreadpoly.poly_eval(spreadpoly.spread_poly(m), s))
                        rhs = spreadpoly.poly_eval(spreadpoly.spread_poly(n * m), s)
                        if lhs != rhs:
                            failure = mismatch("spread-composition-eval",
                                               {"n": n, "m": m, "s": s}, lhs, rhs)
                            break
                    if failure is not None:
                        break
            rec.case(failure)
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
                x, y = random_nonzero(ctx, rng), random_nonzero(ctx, rng)
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
    rec = Recorder()
    started = time.perf_counter()
    names = SUITE_NAMES if suite == "all" else (suite,)
    for name in names:
        _SUITES[name](rec, ctx, rng, trials, colors)
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    assert rec.passed + rec.failed + rec.skipped == rec.attempted
    return Report(
        suite=suite,
        field=ctx.descriptor,
        attempted=rec.attempted,
        passed=rec.passed,
        failed=rec.failed,
        skipped=rec.skipped,
        skip_reasons=rec.skip_reasons,
        counterexample=rec.counterexample,
        seed=seed if randomized else None,
        elapsed_ms=elapsed_ms,
    )
