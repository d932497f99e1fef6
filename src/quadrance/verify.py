"""Randomized and exhaustive verification suites with structured reports.

Over the rationals each suite runs seeded random trials; over a prime
field it enumerates every case (all point tuples, all shape parameters),
skipping and counting tuples that are null where non-null inputs are
required.  Every report satisfies passed + failed + skipped = attempted,
and identical seeds and arguments reproduce identical results.

Each suite's null test is one ``keep`` predicate, the kernels' own:
projective.is_null for the two spread suites, and chromo.is_null_for for
the isometry suite (make_isometry checks it) and, in every colour, for
the chromo suite.  random_point clears each draw to ints once
(field.clear_denominators), redraws until ``keep`` accepts it, and
returns it with the drawn point, so each suite takes the one it computes
on; 1,000 rejections in a row (a broken test) raise NullPoint.  The F_p
sweep skips the points ``keep`` rejects (_live_indices).  Nullity depends
only on [x:y], so the kernels accept every point either driver keeps.

Each identity is checked by one function, which both drivers call, and
only the drivers pick the representation; a check computes on, and
prints, what it is given.  The rational sampler lifts each case's
rationals together to field.Scaled values over one common denominator
(field.lift_scaled), so the kernels add and multiply them in ints, and a
Scaled prints exactly as its Fraction.  The F_p sweep passes int residues
0..p-1 with the prime p, a check compares mod p, and values are lifted to
Fp only to print a failure.  Both are exact because the identities have
integer coefficients.  No check re-derives a kernel: the generalized
Fibonacci identity runs through projective.discriminant, pairing and
form_value, on plain slotted records, so that zero coefficients and
vectors count too; not on namedtuples, whose field reads cost twice a slot
read on the sweep's hottest loop.  Solution fractions are checked cleared
of their denominator (num == den * q); coloured quadrances, in the
isometry and the chromo suites, are compared cleared (num * den' == num' *
den), and points and matrices by their cross products.  The exceptions:
the spread cases lift the p-quadrances they compute, and the spread
recurrence lifts s with S_0(s)..S_12(s) from spreadpoly.poly_eval.  The
chromo suite's points are set out at _chromo_case.  The blue square roots
need field square roots.  The free-variable identities run over Q only.
The alternate forms and the two rearrangement identities are identities
in Z[a, b, c(, d)]: each rational call first evaluates them once on
symbolic.Poly variables (_proved), with the kernels it reads at that
moment, and its trials check them only where that proof fails, on the
values they still draw.  Rescaling invariance, an identity of rational
functions, is sampled on every trial.  The spread recurrence for n <= 12,
an identity in Z[s] for each n, is proved once per rational call too,
after a first trial that samples it through poly_eval's Fraction path,
which a Poly never takes, and only when that trial passes and another
remains; the later trials still draw s and skip it when it holds.

The triple and quadruple sweeps check each distinct tuple of table values
once per call: a verdict is a pure function of the values it reads,
so every point tuple that reads the same values reuses it, and the counts
and the first counterexample are unchanged.  The spreadpoly suite reads
S_0..S_36 and phi_1..phi_12 from one list each per call, and its sweep
S_k(r) mod p from one table per call (_spread_table).  One function,
_recurrence_sides, writes the spread recurrence for the proof, the trials
and the sweep; spread_poly builds each row from its explicit coefficients,
so the recurrence compares two independent constructions of S_n.  The
isometry sweep builds each colour's rotations and reflections once per
call, and every law of the colour reads them; the composition laws take
each parameter's form value once per isometry, and the green power bridge
reads S_1..S_8 from one list per call.  The Fibonacci sweep evaluates one
row of cases per (form, v1), with one pairing call per case: over int
residues the identity holds in Z, so a row of exact zeros passes at once,
and any other row is compared case by case mod p.
Nothing outlives the call, and no kernel keeps a value from one call to
the next (the only cache holds immutable field contexts), so a kernel
patched between runs is always seen.

One error rule serves both drivers: where a case's inputs passed the
suite's checks, a QuadranceError a kernel raises comes from a broken
kernel, and it is the failure of the identity checked, with the error as
lhs, not raised.  It covers the guarded calls only: every rational
triple-quad, quadruple-quad, triple-spread (rescaling included) and
quadruple-spread case, where an error fails the identity the case checks
first; the F_p sweeps' p-quadrance tables; the chromo laws from the proof
identity on, the isometry suite, the heron, brahmagupta and fibonacci
cases, and every call of the spreadpoly suite: its rows, their values
(poly_eval), the recurrence (triple_spread_fn, and affine.archimedes
through it), green-ratio and fixed cases.  Elsewhere (e.g.
affine.archimedes in the F_p triple-quad sweep, projective.pairing in the
F_p triple-spread sweep, the suites' null tests) an error leaves
run_suite.  A proof that raises is not proved, so the trials check its
identity.  An error in a p-quadrance table fails every F_p tuple of the
form, one in a form's discriminant or values every F_p fibonacci case of
the form, one building S_0..S_36 every spreadpoly case, one building the
spreadpoly sweep's table every sweep case, one building S_1..S_8 every
green power case, and one elsewhere in the isometry sweep the colour
once; a heron, brahmagupta, fibonacci or spreadpoly case fails alone, and
the loop resumes after it.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections.abc import Callable
from fractions import Fraction

from . import affine, chromo, isometry, projective, spreadpoly
from .chromo import BLUE, GREEN, RED, Color
from .errors import (DivisionByZero, InvalidArgument, NotUnitCircle, NullPoint, QuadranceError,
                     Record, UnknownSuite)
from .field import FieldContext, Fp, clear_denominators, exact_div, lift_scaled
from .isometry import REFLECTION, ROTATION, IsoKind
from .projective import Form, ProjPoint
from .suites import FORM_NAMES, SUITE_NAMES

GENERAL_FORM = Form(1, 2, 3)


def named_form(name: str) -> Form:
    """One of the three colored forms, or the fixed general form (1:2:3)."""
    return GENERAL_FORM if name == "general" else chromo.colored_form(Color(name))


class _DataclassFields:
    """A record's ``__dataclass_fields__``, made on first read, so that
    ``dataclasses.replace`` still takes a Report (perfbench's report checks
    build their broken reports with it) while the verifier loads no
    dataclasses."""

    def __get__(self, record, cls):
        from dataclasses import make_dataclass

        fields = make_dataclass(cls.__name__, cls.__slots__).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class Report(Record):
    """Outcome of one suite run over one field.  The suites tally their
    cases on it, and it keeps the first counterexample in exact form."""

    __slots__ = ("suite", "field", "attempted", "passed", "failed", "skipped", "skip_reasons",
                 "counterexample", "seed", "elapsed_ms")
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, suite: str = "", field: str = "", attempted: int = 0, passed: int = 0,
                 failed: int = 0, skipped: int = 0, skip_reasons: dict | None = None,
                 counterexample: dict | None = None, seed: int | None = None,
                 elapsed_ms: int = 0):
        self.suite = suite
        self.field = field
        self.attempted = attempted
        self.passed = passed
        self.failed = failed
        self.skipped = skipped
        self.skip_reasons = {} if skip_reasons is None else skip_reasons
        self.counterexample = counterexample
        self.seed = seed
        self.elapsed_ms = elapsed_ms

    def skip(self, reason: str, count: int = 1):
        if count:
            self.attempted += count
            self.skipped += count
            self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + count

    def add_passes(self, count: int):
        self.attempted += count
        self.passed += count

    def case(self, failure: dict | None, count: int = 1):
        """``count`` cases with one verdict: passed when ``failure`` is None."""
        self.attempted += count
        if failure is None:
            self.passed += count
        else:
            self.failed += count
            if self.counterexample is None and count:
                self.counterexample = failure

    def to_dict(self) -> dict:
        """The JSON report, in field order; counterexample and seed only when set."""
        out = {k: v for k, v in zip(self.__slots__, self._values()) if v is not None}
        out["skip_reasons"] = dict(sorted(self.skip_reasons.items()))
        return out


def mismatch(identity: str, inputs: dict, lhs, rhs) -> dict:
    return {
        "identity": identity,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _raised(identity: str, inputs: dict, exc: QuadranceError, p=None) -> dict:
    """The mismatch of an identity whose kernels raised on valid inputs;
    with p, int-residue points among the inputs are lifted to F_p."""
    return _failed((identity, f"{type(exc).__name__}: {exc}", "no error"), inputs, p)


# -- sampling and enumeration -------------------------------------------------

# _SMALL_RATIONALS[n + 12][d - 1] is Fraction(n, d), built once
_SMALL_RATIONALS = [[Fraction(n, d) for d in range(1, 13)] for n in range(-12, 13)]


def random_element(ctx: FieldContext | None, rng: random.Random):
    """A small random rational, Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
    read from a table.  It makes randint's own two draws, by the same
    rejection sampling: getrandbits(5) until it is below 25, then
    getrandbits(4) until it is below 12, so the stream is unchanged.  Only
    the rational driver samples, and its callers pass ``ctx=None``; the
    parameter stays only for perfbench's field probes, which pass a context."""
    bits = rng.getrandbits
    n = bits(5)
    while n >= 25:
        n = bits(5)
    d = bits(4)
    while d >= 12:
        d = bits(4)
    return _SMALL_RATIONALS[n][d]


def random_nonzero(rng):
    while True:
        x = random_element(None, rng)
        if x != 0:
            return x


# consecutive draws random_point rejects before it gives up; the real null
# tests never come near it
_MAX_REDRAWS = 1000


def random_point(rng, keep: Callable = lambda a: True) -> tuple[ProjPoint, ProjPoint]:
    """(drawn, cleared): a random projective point, as drawn and cleared to
    ints, whose cleared form ``keep`` accepts.  ``keep`` is the null test of
    the suite's kernels, which its F_p sweep applies too.  After
    _MAX_REDRAWS rejected draws in a row it raises NullPoint."""
    for _ in range(_MAX_REDRAWS):
        x, y = random_element(None, rng), random_element(None, rng)
        if x != 0 or y != 0:
            cleared = ProjPoint(*clear_denominators((x, y)))
            if keep(cleared):
                return ProjPoint(x, y), cleared
    raise NullPoint(f"the suite's null test rejected every draw "
                    f"({_MAX_REDRAWS} random points in a row)")


def _random_lifted(rng, k: int) -> list:
    """k random rationals, lifted together (field.lift_scaled)."""
    return lift_scaled([random_element(None, rng) for _ in range(k)])


def _cycled(items, trials: int):
    """``trials`` items, cycling through ``items``; none when it is empty."""
    return itertools.islice(itertools.cycle(items), trials)


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
# report order, or None.  It takes p=None over Q and the prime p over F_p.

def _reduce(x, p=None):
    """x itself, or its residue mod p."""
    return x if p is None else x % p


def _quotient(num, den, p=None):
    """num / den, as a residue mod p when p is given; den = 0 raises
    DivisionByZero."""
    if p is None:
        return exact_div(num, den)
    if den % p == 0:
        raise DivisionByZero(f"division by zero in F_{p}")
    return num * pow(den, -1, p) % p


def _solution_mismatch(num, den, want, p=None):
    """num/den where it differs from ``want``; None when equal or den = 0."""
    if _reduce(den, p) == 0 or _reduce(num, p) == _reduce(den * want, p):
        return None
    return _quotient(num, den, p)


def _triple_quad_law(q1, q2, q3, p=None) -> tuple | None:
    """Archimedes' function vanishes on the quadrances of three points."""
    value = _reduce(affine.archimedes(q1, q2, q3), p)
    return None if value == 0 else ("triple-quad-formula", value, 0)


def _triple_spread_laws(q1, q2, q3, perp12: bool, p=None) -> tuple | None:
    """The p-quadrances of three points annihilate the triple spread
    function and its proof-step identity, and the first two points are
    perpendicular (``perp12``) exactly when q3 = 1."""
    value = _reduce(projective.triple_spread_fn(q1, q2, q3), p)
    if value != 0:
        return ("triple-spread-formula", value, 0)
    lhs, rhs = _reduce((q1 + q2 - q3) ** 2, p), _reduce(4 * q1 * q2 * (1 - q3), p)
    if lhs != rhs:
        return ("triple-spread-proof-identity", lhs, rhs)
    if perp12 != (q3 == 1):
        return ("perpendicular-iff-q1", perp12, q3)
    return None


def _quadruple_laws(name: str, fn, fraction, q12, q23, q34, q14, q13, q24,
                    p=None) -> tuple | None:
    """The six quadrances of four points: ``fn`` of the four sides vanishes,
    and each diagonal equals its solution ``fraction`` where that is defined."""
    value = _reduce(fn(q12, q23, q34, q14), p)
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


def _fraction_mismatch(identity: str, got: tuple, want: tuple, p=None) -> tuple | None:
    """None when the (num, den) pairs ``got`` and ``want`` are equal cleared
    of denominators (num * den' == num' * den); else (identity, got, want)
    as quotients, for the report."""
    (num, den), (num0, den0) = got, want
    if _reduce(num * den0 - num0 * den, p) == 0:
        return None
    return (identity, _quotient(num, den, p), _quotient(num0, den0, p))


def _points_differ(u: ProjPoint, v: ProjPoint, p=None) -> bool:
    """u != v as projective points.

    With p the coordinates are int residues and the points are compared
    over F_p.  A point that is 0 mod p differs from every point, so its
    case fails.  The cross product is written out here, not taken from
    projective's proportion rule: in the isometry sweep's inner loops a
    generic minor loop took about 10x as long per call.
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


def _composition_case(iso1, m1, value1, iso2, m2, value2, form, p=None) -> dict | None:
    """The composition table entry for iso1 then iso2 (matrices m1, m2)
    against the matrix product, its kind and non-null parameter, and the
    blue/red Fibonacci identity: the colour ``form``'s value at the composed
    parameter is the product of its values value1 and value2 at the two
    parameters (None for green, where it is not checked)."""
    color, kind1, p1, kind2, p2 = iso1.color, iso1.kind, iso1.param, iso2.kind, iso2.param
    composed = isometry.compose(iso1, iso2)
    table = isometry.matrix_of(composed)
    product = m1 @ m2
    expected_kind = ROTATION if kind1 == kind2 else REFLECTION
    value = _reduce(projective.form_value(form, composed.param), p)
    if _matrices_differ(table, product, p):
        failure = ("composition-table-vs-matrix", table, product)
    elif composed.kind is not expected_kind:
        failure = ("composition-kind-parity", composed.kind, expected_kind)
    elif value == 0:
        failure = ("composition-nonnull-closure", composed.param, "non-null")
    elif color is GREEN:
        # green's 2xy is multiplicative only up to the factor 2
        return None
    else:
        expected = _reduce(value1 * value2, p)
        if value == expected:
            return None
        failure = (f"fibonacci-identity-{color}", value, expected)
    inputs = {"color": color, "kind1": kind1, "p1": p1, "kind2": kind2, "p2": p2}
    return _failed(failure, inputs, p)


def _associativity_law(color, p1, p3, ab, bc, p=None) -> tuple | None:
    """(p1 p2) p3 = p1 (p2 p3), given the products ab = p1 p2 and bc = p2 p3."""
    left = isometry.multiply_points(color, ab, p3)
    right = isometry.multiply_points(color, p1, bc)
    if _points_differ(left, right, p):
        return ("multiplication-associativity", left, right)
    return None


def _unit_laws(color, a, p=None) -> tuple | None:
    """The first failing law of a*1 = a, a*a^-1 = 1."""
    ident = isometry.point_identity(color)
    a_ident = isometry.multiply_points(color, a, ident)
    if _points_differ(a_ident, a, p):
        return ("multiplication-identity", a_ident, a)
    a_inv = isometry.multiply_points(color, a, isometry.point_inverse(color, a))
    if _points_differ(a_inv, ident, p):
        return ("multiplication-inverse", a_inv, ident)
    return None


def _pair_laws(rot1, rot2, ab, ba, unit_failure, p=None) -> tuple | None:
    """The multiplication laws after associativity, in report order, for the
    rotations by p1 and p2: p1*p2 = p2*p1 (``ab``, ``ba``), the unit laws of
    p1 (``unit_failure`` from _unit_laws), and p1*p2 = rot1 then rot2."""
    if _points_differ(ab, ba, p):
        return ("multiplication-commutativity", ab, ba)
    if unit_failure is not None:
        return unit_failure
    rot = isometry.compose(rot1, rot2)
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


def _free_identity(name: str, lhs, rhs, free) -> dict | None:
    """The sampled check of a free-variable identity, at the lifted values
    ``free`` (named a, b, c, d): the mismatch ``name`` when ``lhs(*free)``
    differs from ``rhs(*free)``, or, when lhs lists alternate forms, the
    first that differs as ``<name>-<i>``.  symbolic.proves takes the same
    lhs and rhs."""
    want, got = rhs(*free), lhs(*free)
    shown = dict(zip("abcd", free))
    if not isinstance(got, list):
        return None if got == want else mismatch(name, shown, got, want)
    for i, alt in enumerate(got):
        if alt != want:
            return mismatch(f"{name}-{i + 1}", shown, alt, want)
    return None


# -- drivers and pairwise tables ------------------------------------------------

def _check_identity(rec, ctx, rng, trials, identity, names, sides):
    """One case per argument tuple: ``sides(*args)`` must return equal (lhs, rhs).

    Over Q the tuples are ``trials`` random ones, lifted.  Over F_p they are
    every tuple of residues, and both sides are compared, and reported, mod p.
    A QuadranceError from a kernel fails its tuple, and the loop resumes
    after it: the ``try`` sits outside the loop, and ``cases`` is an iterator.
    """
    if rng is not None:
        p = None
        cases = (_random_lifted(rng, len(names)) for _ in range(trials))
    else:
        p = ctx.p
        cases = itertools.product(range(p), repeat=len(names))
    passed = 0
    while True:
        try:
            for args in cases:
                lhs, rhs = sides(*args)
                if p is not None:
                    lhs, rhs = lhs % p, rhs % p
                if lhs == rhs:
                    passed += 1
                else:
                    rec.case(mismatch(identity, dict(zip(names, args)), lhs, rhs))
            break
        except QuadranceError as exc:
            rec.case(_raised(identity, dict(zip(names, args)), exc, p))
    rec.add_passes(passed)


def _live_indices(rec, keep: Callable, pts, arity: int) -> list:
    """Indices of the ``pts`` the suite's null test ``keep`` accepts; the
    ``arity``-tuples with a rejected entry are skipped (none for arity 0)."""
    live = [i for i, a in enumerate(pts) if keep(a)]
    rec.skip("null-point", len(pts) ** arity - len(live) ** arity)
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


def _p_quadrance_table(rec, p: int, form, keep, pts, identity: str, arity: int) -> tuple:
    """(live, table): the indices of the points ``pts`` (proj_points) that
    ``keep`` accepts, with the ``arity``-tuples that hold another point
    skipped, and the residues of the p-quadrances between the live points
    of _residue_points(p).

    An error on live points, such as a zero denominator, comes from a
    broken kernel.  Then every live ``arity``-tuple of the form fails
    ``identity``, with the error as lhs, and the table is None.
    """
    live = _live_indices(rec, keep, pts, arity)
    res = _residue_points(p)
    fraction = projective.p_quadrance_fraction
    try:
        return live, _pair_table(len(res), live,
                                 lambda i, j: _quotient(*fraction(form, res[i], res[j]), p))
    except QuadranceError as exc:
        rec.case(_raised(identity, {"form": form}, exc), len(live) ** arity)
        return live, None


def _sweep_quadruple(rec, p: int, qtab, live, name: str, fn, fraction, inputs: Callable):
    """_quadruple_laws on every 4-tuple of ``live`` indices of the residue
    table ``qtab``; ``inputs(i, j, k, m)`` names a failing tuple.  Each
    distinct tuple of six table values is checked once per call (see the
    module docstring)."""
    verdicts, passed = {}, 0
    for i in live:
        row_i = qtab[i]
        for j in live:
            q12, row_j = row_i[j], qtab[j]
            for k in live:
                q23, row_k, q13 = row_j[k], qtab[k], row_i[k]
                for m in live:
                    key = (q12, q23, row_k[m], row_i[m], q13, row_j[m])
                    try:
                        failure = verdicts[key]
                    except KeyError:
                        failure = verdicts[key] = _quadruple_laws(name, fn, fraction, *key, p)
                    if failure is None:
                        passed += 1
                    else:
                        rec.case(_failed(failure, inputs(i, j, k, m)))
    rec.add_passes(passed)


def _sweep_triple(rec, p: int, qtab, live, laws: Callable, inputs: Callable, perp=None):
    """``laws(q1, q2, q3, p)`` on every triple (i, j, k) of ``live`` indices
    of the residue table ``qtab``, where q1, q2, q3 are its entries (j, k),
    (i, k), (i, j); given the table ``perp``, ``laws(q1, q2, q3, perp12, p)``
    with perp12 its entry (i, j).  ``inputs(i, j, k)`` names a failing
    triple.  Each distinct tuple of table values is checked once per call,
    as in _sweep_quadruple."""
    verdicts, passed = {}, 0
    for i in live:
        row_i = qtab[i]
        for j in live:
            row_j = qtab[j]
            last = (row_i[j],) if perp is None else (row_i[j], perp[i][j])
            for k in live:
                key = (row_j[k], row_i[k]) + last
                try:
                    failure = verdicts[key]
                except KeyError:
                    failure = verdicts[key] = laws(*key, p)
                if failure is None:
                    passed += 1
                else:
                    rec.case(_failed(failure, inputs(i, j, k)))
    rec.add_passes(passed)


# -- individual suites --------------------------------------------------------

def _proved(lhs, rhs, nvars: int) -> bool:
    """symbolic.proves: whether the kernels ``lhs`` and ``rhs``, as the
    caller reads them now, give one polynomial over Z.  A rational suite
    asks once per call, and its trials skip the identity when it holds: the
    free-variable identities before the first trial, the spread recurrence
    after a first trial that sampled it and passed, when a trial remains.
    Only a rational run loads the symbolic module."""
    from .symbolic import proves

    return proves(lhs, rhs, nvars)


def _triple_quad_case(x1, x2, x3, proved: bool) -> dict | None:
    """The triple quad formula, then, unless ``proved``, the alternate forms
    of Archimedes' function.  A QuadranceError is the failure of the triple
    quad formula."""
    inputs = {"x1": x1, "x2": x2, "x3": x3}
    try:
        a1, a2, a3 = affine.AffinePoint(x1), affine.AffinePoint(x2), affine.AffinePoint(x3)
        quadrance = affine.quadrance
        failure = _triple_quad_law(quadrance(a2, a3), quadrance(a1, a3), quadrance(a1, a2))
        if failure is not None:
            return _failed(failure, inputs)
        if proved:
            return None
        return _free_identity("archimedes-alternate", affine.archimedes_forms, affine.archimedes,
                              (x1, x2, x3))
    except QuadranceError as exc:
        return _raised("triple-quad-formula", inputs, exc)


def _suite_triple_quad(rec, ctx, rng, trials, colors):
    if rng is None:
        p = ctx.p
        _sweep_triple(rec, p, _quadrance_table(p), range(p), _triple_quad_law,
                      lambda i, j, k: {"x1": i, "x2": j, "x3": k})
    else:
        proved = _proved(affine.archimedes_forms, affine.archimedes, 3)
        for _ in range(trials):
            rec.case(_triple_quad_case(*_random_lifted(rng, 3), proved))


def _quad_rearranged(a, b, c, d):
    """The two-quad-triples rearrangement of quadruple_quad_fn(a, b, c, d)."""
    return ((a - b) ** 2 - (c - d) ** 2 - 2 * (a + b - c - d) * (a + b)) ** 2 \
        - 16 * a * b * (a + b - c - d) ** 2


def _quadruple_quad_case(a, b, c, d, proved: bool) -> dict | None:
    """The quadruple quad formula and its diagonals, then, unless ``proved``,
    the rearrangement identity.  A QuadranceError is the failure of the
    quadruple quad formula."""
    inputs = {"x1": a, "x2": b, "x3": c, "x4": d}
    try:
        a1, a2, a3, a4 = (affine.AffinePoint(u) for u in (a, b, c, d))
        quadrance = affine.quadrance
        failure = _quadruple_laws("quadruple-quad", affine.quadruple_quad_fn,
                                  affine.quad_triple_pair_fraction,
                                  quadrance(a1, a2), quadrance(a2, a3), quadrance(a3, a4),
                                  quadrance(a1, a4), quadrance(a1, a3), quadrance(a2, a4))
        if failure is not None:
            return _failed(failure, inputs)
        if proved:
            return None
        return _free_identity("two-quad-triples-rearrangement", _quad_rearranged,
                              affine.quadruple_quad_fn, (a, b, c, d))
    except QuadranceError as exc:
        return _raised("quadruple-quad-formula", inputs, exc)


def _suite_quadruple_quad(rec, ctx, rng, trials, colors):
    if rng is None:
        p = ctx.p
        _sweep_quadruple(rec, p, _quadrance_table(p), range(p), "quadruple-quad",
                         affine.quadruple_quad_fn, affine.quad_triple_pair_fraction,
                         lambda i, j, k, m: {"x1": i, "x2": j, "x3": k, "x4": m})
    else:
        proved = _proved(_quad_rearranged, affine.quadruple_quad_fn, 4)
        for _ in range(trials):
            rec.case(_quadruple_quad_case(*_random_lifted(rng, 4), proved))


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
# kernels read only these fields.  They are plain slotted records, not
# namedtuples: pairing and the cross product read sixteen fields a case,
# and a slot read costs about half a namedtuple field read.
class _Vector:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


class _Coefficients:
    __slots__ = ("d", "e", "f")

    def __init__(self, d, e, f):
        self.d, self.e, self.f = d, e, f


def _fibonacci_sides(disc, v1, value1, row, values, pairings) -> list:
    """The gap of the generalized Fibonacci identity for v1 against each v2
    of ``row``: disc (x1 y2 - x2 y1)^2 + pairing^2 - value1 value2, given
    the form's discriminant, its values at v1 and along the row, and the
    pairings of v1 with the row.  The identity holds where the gap is 0."""
    x1, y1 = v1.x, v1.y
    return [disc * (cross := x1 * v2.y - v2.x * y1) * cross + pair * pair - value1 * value2
            for v2, value2, pair in zip(row, values, pairings)]


def _row_pairings(form, v1, row) -> tuple[list, bool]:
    """(pairings, raised): projective.pairing of v1 with each v2 of ``row``,
    one call each, in row order.  A QuadranceError a call raises takes its
    place, and the map resumes after it: list.extend keeps what it appended
    before the raise."""
    calls = map(projective.pairing, itertools.repeat(form), itertools.repeat(v1), row)
    pairings, raised = [], False
    while True:
        try:
            pairings.extend(calls)
            return pairings, raised
        except QuadranceError as exc:
            pairings.append(exc)
            raised = True


def _suite_fibonacci(rec, ctx, rng, trials, colors):
    names = ("d", "e", "f", "x1", "y1", "x2", "y2")
    identity = "generalized-fibonacci"
    value = projective.form_value
    if rng is not None:
        def sides(d, e, f, x1, y1, x2, y2):
            form, v1, v2 = _Coefficients(d, e, f), _Vector(x1, y1), _Vector(x2, y2)
            disc, value1, value2 = projective.discriminant(form), value(form, v1), value(form, v2)
            gap, = _fibonacci_sides(disc, v1, value1, (v2,), (value2,),
                                    (projective.pairing(form, v1, v2),))
            return gap + value1 * value2, value1 * value2
        _check_identity(rec, ctx, rng, trials, identity, names, sides)
        return
    # The identity has seven free variables; enumerating them all is
    # infeasible, so the four standard forms are paired with every
    # coordinate 4-tuple, one row of p^2 cases per (form, v1).  Each form's
    # discriminant and values are taken once; an error there fails every
    # case of the form, and the next form still runs.  Over int residues the
    # identity holds in Z, so a row whose gaps are all exactly 0 passes at
    # once; any other row is walked case by case mod p, on the same
    # pairings, and a pairing that raised fails its case alone.
    p = ctx.p
    vectors = [_Vector(x, y) for x, y in itertools.product(range(p), repeat=2)]

    def inputs(form, v1, v2):
        return dict(zip(names, (form.d, form.e, form.f, v1.x, v1.y, v2.x, v2.y)))

    for form in map(named_form, FORM_NAMES):
        try:
            disc = projective.discriminant(form)
            values = [value(form, v) for v in vectors]
        except QuadranceError as exc:
            rec.case(_raised(identity, {"d": form.d, "e": form.e, "f": form.f}, exc),
                     len(vectors) ** 2)
            continue
        passed = 0
        for v1, value1 in zip(vectors, values):
            pairings, raised = _row_pairings(form, v1, vectors)
            if not (raised or any(_fibonacci_sides(disc, v1, value1, vectors, values, pairings))):
                passed += len(vectors)
                continue
            for v2, value2, pair in zip(vectors, values, pairings):
                if isinstance(pair, QuadranceError):
                    rec.case(_raised(identity, inputs(form, v1, v2), pair, p))
                    continue
                gap, = _fibonacci_sides(disc, v1, value1, (v2,), (value2,), (pair,))
                rhs = value1 * value2
                lhs, rhs = (gap + rhs) % p, rhs % p
                if lhs == rhs:
                    passed += 1
                else:
                    rec.case(mismatch(identity, inputs(form, v1, v2), lhs, rhs))
        rec.add_passes(passed)


def _triple_spread_case(form, a1, a2, a3, free) -> dict | None:
    """The triple spread laws on three points, then the alternate forms of
    the triple spread function at the lifted ``free`` values, unless the
    forms were proved (``free`` is None).  A QuadranceError is the failure
    of the triple spread formula."""
    inputs = {"form": form, "a1": a1, "a2": a2, "a3": a3}
    p_quadrance = projective.p_quadrance
    try:
        quadrances = (p_quadrance(form, a2, a3), p_quadrance(form, a1, a3),
                      p_quadrance(form, a1, a2))
        failure = _triple_spread_laws(*lift_scaled(quadrances),
                                      projective.is_perpendicular(form, a1, a2))
        if failure is not None:
            return _failed(failure, inputs)
        if free is not None:
            return _free_identity("triple-spread-alternate", projective.triple_spread_forms,
                                  projective.triple_spread_fn, free)
    except QuadranceError as exc:
        return _raised("triple-spread-formula", inputs, exc)
    return None


def _scale_invariance_case(form, a1, a2, lam) -> dict | None:
    """p_quadrance is unchanged by scaling a1, then the form, by ``lam``.  A
    QuadranceError is the failure of point rescaling invariance."""
    inputs = {"form": form, "a1": a1, "a2": a2, "lambda": lam}
    try:
        q = projective.p_quadrance(form, a1, a2)
        scaled_pt = ProjPoint(lam * a1.x, lam * a1.y)
        q_pt = projective.p_quadrance(form, scaled_pt, a2)
        if q_pt != q:
            return mismatch("point-rescaling-invariance", inputs, q_pt, q)
        scaled_form = Form(lam * form.d, lam * form.e, lam * form.f)
        q_form = projective.p_quadrance(scaled_form, a1, a2)
        if q_form != q:
            return mismatch("form-rescaling-invariance", inputs, q_form, q)
    except QuadranceError as exc:
        return _raised("point-rescaling-invariance", inputs, exc)
    return None


def _free_values(rng, k: int, proved: bool) -> list | None:
    """k random rationals for a free-variable identity, lifted together, or
    None when the identity is proved; they are drawn either way, so every
    later draw is unchanged."""
    drawn = [random_element(None, rng) for _ in range(k)]
    return None if proved else lift_scaled(drawn)


def _selected_forms(colors) -> list[str]:
    """The FORM_NAMES a run selects: all of them when ``colors`` is empty."""
    return [c for c in FORM_NAMES if not colors or c in colors]


def _null_tests(is_null: Callable, items) -> list[tuple]:
    """(item, keep) for each item: ``keep``, the suite's null test for both
    drivers, accepts the points a that ``is_null(item, a)`` does not."""
    return [(x, lambda a, x=x: not is_null(x, a)) for x in items]


def _suite_triple_spread(rec, ctx, rng, trials, colors):
    forms = _null_tests(projective.is_null, map(named_form, _selected_forms(colors)))
    if rng is None:
        p, pts = ctx.p, proj_points(ctx)
        for form, keep in forms:
            live, qtab = _p_quadrance_table(rec, p, form, keep, pts, "triple-spread-formula", 3)
            if qtab is not None:
                perp = _pair_table(len(pts), live,
                                   lambda i, j: projective.is_perpendicular(form, pts[i], pts[j]))
                _sweep_triple(rec, p, qtab, live, _triple_spread_laws,
                              lambda i, j, k: {"form": form, "a1": pts[i], "a2": pts[j],
                                               "a3": pts[k]}, perp)
    else:
        proved = _proved(projective.triple_spread_forms, projective.triple_spread_fn, 3)
        for form, keep in _cycled(forms, trials):
            a1, a2, a3 = (random_point(rng, keep)[0] for _ in range(3))
            failure = _triple_spread_case(form, a1, a2, a3, _free_values(rng, 3, proved))
            if failure is None:
                failure = _scale_invariance_case(form, a1, a2, random_nonzero(rng))
            rec.case(failure)


def _spread_rearranged(a, b, c, d):
    """The two-spread-triples rearrangement of quadruple_spread_fn(a, b, c, d)."""
    den = a + b - c - d - 2 * a * b + 2 * c * d
    return ((a - b) ** 2 - (c - d) ** 2 - 2 * den * (a + b - 2 * a * b)) ** 2 \
        - 16 * a * b * (1 - a) * (1 - b) * den ** 2


def _quadruple_spread_case(form, a1, a2, a3, a4, free) -> dict | None:
    """The quadruple spread laws on four points, then the rearrangement
    identity at the lifted ``free`` values, unless it was proved (``free``
    is None).  A QuadranceError is the failure of the quadruple spread
    formula."""
    inputs = {"form": form, "a1": a1, "a2": a2, "a3": a3, "a4": a4}
    p_quadrance = projective.p_quadrance
    try:
        quadrances = (p_quadrance(form, a1, a2), p_quadrance(form, a2, a3),
                      p_quadrance(form, a3, a4), p_quadrance(form, a1, a4),
                      p_quadrance(form, a1, a3), p_quadrance(form, a2, a4))
        failure = _quadruple_laws("quadruple-spread", projective.quadruple_spread_fn,
                                  projective.spread_triple_pair_fraction,
                                  *lift_scaled(quadrances))
        if failure is not None:
            return _failed(failure, inputs)
        if free is not None:
            return _free_identity("two-spread-triples-rearrangement", _spread_rearranged,
                                  projective.quadruple_spread_fn, free)
    except QuadranceError as exc:
        return _raised("quadruple-spread-formula", inputs, exc)
    return None


def _suite_quadruple_spread(rec, ctx, rng, trials, colors):
    forms = _null_tests(projective.is_null, map(named_form, _selected_forms(colors)))
    if rng is None:
        pts = proj_points(ctx)
        for form, keep in forms:
            live, qtab = _p_quadrance_table(rec, ctx.p, form, keep, pts,
                                            "quadruple-spread-formula", 4)
            if qtab is not None:
                _sweep_quadruple(rec, ctx.p, qtab, live, "quadruple-spread",
                                 projective.quadruple_spread_fn,
                                 projective.spread_triple_pair_fraction,
                                 lambda i, j, k, m: {"form": form, "a1": pts[i], "a2": pts[j],
                                                     "a3": pts[k], "a4": pts[m]})
    else:
        proved = _proved(_spread_rearranged, projective.quadruple_spread_fn, 4)
        for form, keep in _cycled(forms, trials):
            quad = [random_point(rng, keep)[0] for _ in range(4)]
            rec.case(_quadruple_spread_case(form, *quad, _free_values(rng, 4, proved)))


# The chromo laws by colour, with their identity names formatted once: a
# case checks 22 of them.  _CYCLIC_LAWS: (c, u, v), u and v the colours
# after c, with the cyclic-perpendicularity and cross-symmetry names of c.
_CYCLIC_LAWS = tuple((c, u, v, f"cyclic-perpendicularity-{c}", f"cross-symmetry-{c}")
                     for c, u, v in ((BLUE, RED, GREEN), (RED, GREEN, BLUE), (GREEN, BLUE, RED)))
_INVARIANCE_LAWS = tuple((c, tuple((e, f"color-invariance-{c}-{e}") for e in Color))
                         for c in Color)
_INVOLUTION_LAWS = tuple((c, f"perpendicular-involution-{c}") for c in Color)
_PERPENDICULAR_LAWS = tuple((c, f"perpendicular-{c}") for c in Color)


def _chromo_case(drawn, cleared, p=None) -> dict | None:
    """The chromogeometry laws for two points non-null in every colour.

    The proof identity runs on the ``drawn`` pair, over Q lifted together
    to Scaled values (_lift_points): the same rationals, computed in ints.
    Every later identity compares _colored_fraction pairs cleared of
    denominators, on the ``cleared`` pair: the same points with int
    coordinates over Q, and the int-residue points (both pairs) over F_p.
    The wrappers colored_quadrance and reciprocal_sum are reached through
    one reciprocal_sum call.
    """
    a1, a2 = drawn
    inputs = {"a1": a1, "a2": a2}
    # red and green numerators are -num_blue, so the reciprocal sum is
    # (den_blue - den_red - den_green) / num_blue, and it is 2; a report
    # prints these uncancelled values, so they are taken on the drawn pair
    if p is None:
        a1, a2 = _lift_points(drawn)
    fraction = chromo.colored_quadrance_fraction
    perp = chromo.perpendicular_point
    # The points are non-null in every colour, so a QuadranceError below
    # comes from a broken kernel: it is the mismatch of the identity checked.
    identity, where = "reciprocal-sum-proof-identity", inputs
    try:
        num, den = fraction(BLUE, a1, a2)
        lhs = _reduce(den - fraction(RED, a1, a2)[1] - fraction(GREEN, a1, a2)[1], p)
        rhs = _reduce(2 * num, p)
        if lhs != rhs:
            return _failed((identity, lhs, rhs), where, p)
        # the rest print only points (canonical) and ratios
        a1, a2 = cleared
        identity = "reciprocal-sum"
        if _points_differ(a1, a2, p):
            total = chromo.reciprocal_sum(_lift(p, a1), _lift(p, a2))
            if total != 2:
                return _failed((identity, total, 2), where, p)
        where = {"a": a1}
        for c, u, v, identity, _ in _CYCLIC_LAWS:
            failure = _fraction_mismatch(
                identity, _colored_fraction(c, perp(u, a1), perp(v, a1), p), (1, 1), p)
            if failure is not None:
                return _failed(failure, where, p)
        where = inputs
        for c, laws in _INVARIANCE_LAWS:
            identity = laws[0][1]  # the first to need base
            base = _colored_fraction(c, a1, a2, p)
            for e, identity in laws:
                failure = _fraction_mismatch(
                    identity, _colored_fraction(c, perp(e, a1), perp(e, a2), p), base, p)
                if failure is not None:
                    return _failed(failure, where, p)
        for c, u, v, _, identity in _CYCLIC_LAWS:
            failure = _fraction_mismatch(
                identity, _colored_fraction(c, perp(u, a1), perp(v, a2), p),
                _colored_fraction(c, perp(v, a1), perp(u, a2), p), p)
            if failure is not None:
                return _failed(failure, where, p)
        where = {"a": a1}
        for c, identity in _INVOLUTION_LAWS:
            back = perp(c, perp(c, a1))
            if _points_differ(back, a1, p):
                return _failed((identity, back, a1), where, p)
        # a colour's perpendicular is perpendicular in that colour: q_c = 1
        for c, identity in _PERPENDICULAR_LAWS:
            failure = _fraction_mismatch(
                identity, _colored_fraction(c, a1, perp(c, a1), p), (1, 1), p)
            if failure is not None:
                return _failed(failure, where, p)
    except QuadranceError as exc:
        return _raised(identity, where, exc, p)
    return None


def _all_colors_nonnull(a: ProjPoint) -> bool:
    return not any(chromo.is_null_for(c, a) for c in Color)


def _suite_chromo(rec, ctx, rng, trials, colors):
    if rng is None:
        p = ctx.p
        res = _residue_points(p)
        live = _live_indices(rec, _all_colors_nonnull, proj_points(ctx), 2)
        for i in live:
            for j in live:
                pair = res[i], res[j]
                rec.case(_chromo_case(pair, pair, p))
    else:
        for _ in range(trials):
            drawn, cleared = zip(*(random_point(rng, _all_colors_nonnull) for _ in range(2)))
            rec.case(_chromo_case(drawn, cleared))


def _blue_sqrt_case(p: ProjPoint) -> dict | None:
    root = isometry.blue_sqrt(p)
    square = isometry.multiply_points(BLUE, root, root)
    if square != p:
        return mismatch("blue-sqrt-round-trip", {"p": p, "root": root}, square, p)
    return None


def _green_power_rows():
    """S_1..S_8, which the green power cases read, built once per call; or
    the QuadranceError building them raised, which fails every such case."""
    try:
        return [spreadpoly.spread_poly(n) for n in range(1, 9)]
    except QuadranceError as exc:
        return exc


def _green_power_case(a: ProjPoint, n: int, rows, p=None) -> dict | None:
    """The green quadrance from [1:1] to a^n is S_n(s), s the one to ``a``;
    ``rows`` is _green_power_rows().  ``a`` is non-null, so a QuadranceError
    is this identity's failure."""
    inputs = {"p": a, "n": n}
    if isinstance(rows, QuadranceError):
        return _raised("green-power-spread-bridge", inputs, rows, p)
    try:
        one_one = isometry.point_identity(GREEN)
        s = _quotient(*_colored_fraction(GREEN, one_one, a, p), p)
        pn = isometry.point_power(GREEN, a, n)
        lhs = _quotient(*_colored_fraction(GREEN, one_one, pn, p), p)
        rhs = _reduce(spreadpoly.poly_eval(rows[n - 1], s), p)
    except QuadranceError as exc:
        return _raised("green-power-spread-bridge", inputs, exc, p)
    if lhs != rhs:
        return _failed(("green-power-spread-bridge", lhs, rhs), inputs, p)
    return None


def _residue_preservation(rec, p: int, identity: str, color, res, live, isos):
    """The law ``identity`` for every isometry of the color (``isos``, kind
    by kind, in parameter order) on every pair of live points: quadrances
    before (one table) and after (images once per isometry)."""
    n, m = len(res), len(live)
    # per kind, a null parameter skips as one case and a live one its null pairs
    rec.skip("null-parameter", 2 * (n - m))
    rec.skip("null-point", 2 * m * (n * n - m * m))
    before = _pair_table(n, live, lambda i, j: _colored_fraction(color, res[i], res[j], p))
    passed = 0
    for iso in isos.values():
        images = [isometry.apply(iso, a) for a in res]
        for i in live:
            image, before_i = images[i], before[i]
            for j in live:
                after = _colored_fraction(color, image, images[j], p)
                failure = _fraction_mismatch(identity, after, before_i[j], p)
                if failure is None:
                    passed += 1
                else:
                    rec.case(_failed(failure, {"kind": iso.kind, "param": iso.param,
                                               "a1": res[i], "a2": res[j]}, p))
    rec.add_passes(passed)


def _fibonacci_value(color, form, param):
    """The colour ``form``'s value at an isometry parameter, for the
    composition laws' Fibonacci identity: blue and red only, else None."""
    return None if color is GREEN else projective.form_value(form, param)


def _residue_composition(rec, p: int, color, res, live, isos):
    """Every composition table entry of two live parameters, against the
    product of matrices built once per isometry; each parameter's form
    value is taken once per isometry too."""
    # each of the 4 kind pairs skips the parameter pairs with a null entry
    rec.skip("null-parameter", 4 * (len(res) ** 2 - len(live) ** 2))
    form = chromo.colored_form(color)
    by_kind = [[(iso, isometry.matrix_of(iso), _fibonacci_value(color, form, iso.param))
                for iso in isos.values() if iso.kind is kind] for kind in IsoKind]
    passed = 0
    for first, second in itertools.product(by_kind, repeat=2):
        for iso1, m1, value1 in first:
            for iso2, m2, value2 in second:
                failure = _composition_case(iso1, m1, value1, iso2, m2, value2, form, p)
                if failure is None:
                    passed += 1
                else:
                    rec.case(failure)
    rec.add_passes(passed)


def _residue_multiplication(rec, p: int, color, res, live, isos):
    """The multiplication laws on every live triple.  The products p1*p2 and
    the laws that involve only p1 and p2 are evaluated once per pair, so a
    triple costs the two associativity products and table lookups."""
    n = len(res)
    rec.skip("null-parameter", n ** 3 - len(live) ** 3)
    ab = _pair_table(n, live, lambda i, j: isometry.multiply_points(color, res[i], res[j]))
    unit = {i: _unit_laws(color, res[i], p) for i in live}
    pair = _pair_table(n, live, lambda i, j: _pair_laws(
        isos[ROTATION, i], isos[ROTATION, j], ab[i][j], ab[j][i], unit[i], p))
    passed = 0
    for i in live:
        p1, ab_i, pair_i = res[i], ab[i], pair[i]
        for j in live:
            ab_j, pair_failure = ab[j], pair_i[j]
            for k in live:
                failure = (_associativity_law(color, p1, res[k], ab_i[j], ab_j[k], p)
                           or pair_failure)
                if failure is None:
                    passed += 1
                else:
                    rec.case(_failed(
                        failure, {"color": color, "p1": p1, "p2": res[j], "p3": res[k]}, p))
    rec.add_passes(passed)


def _lift_points(points) -> list[ProjPoint]:
    """Rational points with all their coordinates lifted together to Scaled
    values over one denominator (field.lift_scaled): the same rationals, so
    they print the same.  They mix with ints, not with unlifted Fractions."""
    coords = lift_scaled([v for a in points for v in a.entries()])
    return [ProjPoint(x, y) for x, y in zip(coords[::2], coords[1::2])]


def _isometry_trial(rng, color, keep, power: int, rows) -> dict | None:
    """One rational trial of the isometry laws, in report order; green's
    power bridge reads ``rows`` (_green_power_rows).  Its points pass
    ``keep``, make_isometry's null test, so a QuadranceError is the failure
    of the laws being checked, named after the first of them."""
    p1, p2, p3, a1, a2 = _lift_points([random_point(rng, keep)[0] for _ in range(5)])
    kind1, kind2 = (ROTATION if rng.randrange(2) else REFLECTION for _ in range(2))
    identity = f"isometry-preservation-{color}"
    where = {"kind": kind1, "param": p1, "a1": a1, "a2": a2}
    try:
        iso1 = isometry.make_isometry(color, kind1, p1)
        before = _colored_fraction(color, a1, a2)
        after = _colored_fraction(color, isometry.apply(iso1, a1), isometry.apply(iso1, a2))
        failure = _fraction_mismatch(identity, after, before)
        if failure is not None:
            return _failed(failure, where)
        identity = "composition-table-vs-matrix"
        where = {"color": color, "kind1": kind1, "p1": p1, "kind2": kind2, "p2": p2}
        iso2 = isometry.make_isometry(color, kind2, p2)
        form = chromo.colored_form(color)
        failure = _composition_case(
            iso1, isometry.matrix_of(iso1), _fibonacci_value(color, form, p1),
            iso2, isometry.matrix_of(iso2), _fibonacci_value(color, form, p2), form)
        if failure is not None:
            return failure
        identity = "multiplication-associativity"
        where = {"color": color, "p1": p1, "p2": p2, "p3": p3}
        multiply = isometry.multiply_points
        ab = multiply(color, p1, p2)
        rotations = (isometry.make_isometry(color, ROTATION, q) for q in (p1, p2))
        failure = (_associativity_law(color, p1, p3, ab, multiply(color, p2, p3))
                   or _pair_laws(*rotations, ab, multiply(color, p2, p1), _unit_laws(color, p1)))
        if failure is not None:
            return _failed(failure, where)
        if color is BLUE:
            # over Q, (1 - t^2, 2t) is always on the unit circle
            t = random_element(None, rng)
            identity, where = "blue-sqrt-round-trip", {"p": ProjPoint(1 - t * t, 2 * t)}
            return _blue_sqrt_case(where["p"])
    except QuadranceError as exc:
        return _raised(identity, where, exc)
    return _green_power_case(p1, power, rows) if color is GREEN else None


def _suite_isometry(rec, ctx, rng, trials, colors):
    wanted = _null_tests(chromo.is_null_for,
                         [Color(name) for name in _selected_forms(colors) if name != "general"])
    rows = _green_power_rows() if any(color is GREEN for color, _ in wanted) else None
    if rng is not None:
        for t, (color, keep) in enumerate(_cycled(wanted, trials)):
            rec.case(_isometry_trial(rng, color, keep, 1 + t % 8, rows))
        return
    p, pts = ctx.p, proj_points(ctx)
    res = _residue_points(p)
    for color, keep in wanted:
        live = _live_indices(rec, keep, pts, 0)
        identity = f"isometry-preservation-{color}"
        try:
            isos = {(kind, i): isometry.make_isometry(color, kind, res[i])
                    for kind in IsoKind for i in live}
            _residue_preservation(rec, p, identity, color, res, live, isos)
            identity = "composition-table-vs-matrix"
            _residue_composition(rec, p, color, res, live, isos)
            identity = "multiplication-associativity"
            _residue_multiplication(rec, p, color, res, live, isos)
            if color is BLUE:
                identity = "blue-sqrt-round-trip"
                for a in pts:
                    try:
                        rec.case(_blue_sqrt_case(a))
                    except NotUnitCircle:
                        rec.skip("not-unit-circle")
            if color is GREEN:
                rec.skip("null-point", 8 * (len(pts) - len(live)))
                for i, power in itertools.product(live, range(1, 9)):
                    rec.case(_green_power_case(res[i], power, rows, p))
        except QuadranceError as exc:
            rec.case(_raised(identity, {"color": color}, exc))


def _or_error(fn, *args):
    """fn(*args), or the QuadranceError it raises as "Name: message": a fixed case's failure."""
    try:
        return fn(*args)
    except QuadranceError as exc:
        return f"{type(exc).__name__}: {exc}"


def _factor_product(phis, n: int):
    """The product of phi_d = phis[d - 1] over d | n, or the first _or_error string among them."""
    factors = [phis[d - 1] for d in spreadpoly.divisors(n)]
    errors = [f for f in factors if isinstance(f, str)]
    return errors[0] if errors else math.prod(factors, start=spreadpoly.IntPolynomial([1]))


def _spreadpoly_fixed_cases(polys):
    """(identity, inputs, got, want) of the 81 fixed cases; polys[n] is S_n."""
    for n, poly in enumerate(polys[1:17], 1):
        want = f"deg={n}, |lead|=4^{n - 1}"  # got is want exactly when the case holds
        holds = poly.degree == n and abs(poly.leading) == 4 ** (n - 1)
        yield ("spread-degree-leading", {"n": n},
               want if holds else f"deg={poly.degree}, lead={poly.leading}", want)
    yield "spread-2-logistic", {}, polys[2], spreadpoly.IntPolynomial([0, 4, -4])
    for n in range(1, 7):
        for m in range(1, 7):
            yield ("spread-composition", {"n": n, "m": m},
                   _or_error(spreadpoly.poly_compose, polys[n], polys[m]), polys[n * m])
    for n in range(1, 17):
        yield ("spread-via-chebyshev", {"n": n},
               _or_error(spreadpoly.spread_via_chebyshev, n), polys[n])
    phis = [_or_error(spreadpoly.spread_cyclotomic, k) for k in range(1, 13)]  # built once
    for n in range(1, 13):
        yield ("spread-cyclotomic-product", {"n": n},
               _or_error(_factor_product, phis, n), polys[n])


def _spread_table(p: int, polys) -> list:
    """spread[r][k] = S_k(r) mod p for the residues r < p, where
    ``polys[k]`` is S_k: each row is evaluated at each residue once per call."""
    return [[spreadpoly.poly_eval(poly, r) % p for poly in polys] for r in range(p)]


def _spread_values(polys, s) -> list:
    """S_0(s)..S_12(s) through spreadpoly.poly_eval, where ``polys[n]`` is S_n."""
    return [spreadpoly.poly_eval(polys[n], s) for n in range(13)]


def _recurrence_sides(s, values) -> list:
    """triple_spread_fn(S_{n-1}(s), s, S_n(s)) for n = 1..12; ``values[n]`` is S_n(s)."""
    return [projective.triple_spread_fn(values[n - 1], s, values[n]) for n in range(1, 13)]


def _recurrence_case(s, values, p=None) -> dict | None:
    """The first of _recurrence_sides(s, values) not 0 (mod p), or the error they raise."""
    try:
        sides = [_reduce(val, p) for val in _recurrence_sides(s, values)]
    except QuadranceError as exc:
        return _raised("spread-recurrence-triple", {"s": s}, exc)
    for n, val in enumerate(sides, 1):
        if val != 0:
            return mismatch("spread-recurrence-triple", {"n": n, "s": s}, val, 0)
    return None


def _composition_eval_case(s: int, spread: list) -> dict | None:
    """S_n(S_m(s)) = S_nm(s) for n, m = 1..6, at an int residue s, read
    from the _spread_table ``spread``."""
    row = spread[s]
    for n in range(1, 7):
        for m in range(1, 7):
            lhs, rhs = spread[row[m]][n], row[n * m]
            if lhs != rhs:
                return mismatch("spread-composition-eval", {"n": n, "m": m, "s": s}, lhs, rhs)
    return None


def _green_ratio_case(x, y, ns, p=None, spread=None) -> dict | None:
    """S_n(s) equals its closed form at the green ratio s of x and y, for n
    in ``ns``.  Over F_p, x and y are nonzero int residues: the pairs of
    spreadpoly.green_ratio_fractions are reduced mod p and S_n(s) is read
    from the _spread_table ``spread``.  x and y are nonzero, so a
    QuadranceError is this identity's failure."""
    for n in ns:
        inputs = {"x": x, "y": y, "n": n}
        try:
            if p is None:
                res = spreadpoly.spread_at_green_ratio(x, y, n)
                sn, closed = res.sn_of_s, res.closed_form
            else:
                (s_num, s_den), closed = spreadpoly.green_ratio_fractions(x, y, n)
                sn, closed = spread[_quotient(s_num, s_den, p)][n], _quotient(*closed, p)
        except QuadranceError as exc:
            return _raised("green-ratio-closed-form", inputs, exc)
        if sn != closed:
            return mismatch("green-ratio-closed-form", inputs, sn, closed)
    return None


def _suite_spreadpoly(rec, ctx, rng, trials, colors):
    if rng is None:
        p = ctx.p
        rec.skip("zero-coordinate", p ** 2 - (p - 1) ** 2)
    spread_poly, polys = spreadpoly.spread_poly, []
    try:
        for n in range(37):  # S_36 = S_6 o S_6 is the largest row read
            polys.append(spread_poly(n))
    except QuadranceError as exc:
        # every case fails with it: the 81 fixed ones, then the trials or the sweep's
        rec.case(_raised("spread-degree-leading", {"n": len(polys)}, exc),
                 81 + (trials if rng else p + (p - 1) ** 2))
        return
    for identity, inputs, got, want in _spreadpoly_fixed_cases(polys):
        rec.case(None if got == want else mismatch(identity, inputs, got, want))
    if rng is None:
        try:
            spread = _spread_table(p, polys)
        except QuadranceError as exc:
            # every sweep case fails with it, under the identity it checks first
            rec.case(_raised("spread-recurrence-triple", {"p": p}, exc), p)
            rec.case(_raised("green-ratio-closed-form", {"p": p}, exc), (p - 1) ** 2)
            return
        for s in range(p):
            rec.case(_recurrence_case(s, spread[s], p) or _composition_eval_case(s, spread))
        for x in range(1, p):
            for y in range(1, p):
                rec.case(_green_ratio_case(x, y, range(1, 9), p, spread))
    else:
        proved = False
        for t in range(trials):
            s = random_element(None, rng)
            failure = None
            if not proved:
                try:
                    s, *values = lift_scaled([s, *_spread_values(polys, s)])
                    failure = _recurrence_case(s, values)
                except QuadranceError as exc:
                    failure = _raised("spread-recurrence-triple", {"s": s}, exc)
                if t == 0 and failure is None and trials > 1:
                    proved = _proved(lambda x: _recurrence_sides(x, _spread_values(polys, x)),
                                     lambda x: 0, 1)
            if failure is None:
                failure = _green_ratio_case(random_nonzero(rng), random_nonzero(rng), [1 + t % 8])
            rec.case(failure)


# One runner per name of suites.SUITE_NAMES, in its order.
_SUITES: dict[str, Callable] = dict(zip(SUITE_NAMES, (
    _suite_triple_quad, _suite_quadruple_quad, _suite_heron, _suite_brahmagupta,
    _suite_fibonacci, _suite_triple_spread, _suite_quadruple_spread, _suite_chromo,
    _suite_isometry, _suite_spreadpoly), strict=True))


def run_suite(suite: str, ctx: FieldContext, *, trials: int = 1000,
              seed: int = 0, colors=None) -> Report:
    """Run one suite (or "all") over a field and return its report.

    Rational contexts use ``trials`` seeded random cases; prime fields are
    enumerated exhaustively and ignore ``trials`` and ``seed``.  ``colors``
    narrows the form-based suites to some of FORM_NAMES (all when empty);
    the isometry suite has no general form, so it runs no case for it alone.
    Unknown colours, or ``trials`` not an int >= 1, raise InvalidArgument before any work.
    """
    if suite != "all" and suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of "
                           f"{', '.join(SUITE_NAMES)} or 'all'")
    unknown = [c for c in colors or () if c not in FORM_NAMES]
    if unknown:
        raise InvalidArgument(f"unknown colors {unknown}; expected some of "
                              f"{', '.join(FORM_NAMES)}")
    if not isinstance(trials, int) or trials < 1:
        raise InvalidArgument(f"trials must be an int >= 1, not {trials!r}")
    randomized = ctx.kind == "rationals"
    rng = random.Random(seed) if randomized else None
    report = Report(suite, ctx.descriptor, seed=seed if randomized else None)
    started = time.perf_counter()
    for name in SUITE_NAMES if suite == "all" else (suite,):
        _SUITES[name](report, ctx, rng, trials, colors)
    report.elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    assert report.passed + report.failed + report.skipped == report.attempted
    return report
