import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from quadrance.chromo import (
    Color,
    colored_form,
    colored_quadrance,
    colored_quadrance_fraction,
    is_null_for,
    perpendicular_point,
    reciprocal_sum,
)
from quadrance.errors import CoincidentPoints, NullPoint
from quadrance.field import Fp, make_context
from quadrance.projective import Form, ProjPoint, discriminant, p_quadrance


def pp(x, y):
    return ProjPoint(Fr(x), Fr(y))


def rand_all_color_nonnull(rng):
    while True:
        x = Fr(rng.randint(-12, 12), rng.randint(1, 12))
        y = Fr(rng.randint(-12, 12), rng.randint(1, 12))
        if x == 0 and y == 0:
            continue
        a = ProjPoint(x, y)
        if not any(is_null_for(c, a) for c in Color):
            return a


def test_colored_forms():
    assert colored_form(Color.BLUE) == Form(1, 0, 1)
    assert colored_form(Color.RED) == Form(1, 0, -1)
    assert colored_form(Color.GREEN) == Form(0, 1, 0)


def test_colored_form_discriminants():
    assert discriminant(colored_form(Color.BLUE)) == 1
    assert discriminant(colored_form(Color.RED)) == -1
    assert discriminant(colored_form(Color.GREEN)) == -1


def test_perpendicular_points():
    a = pp(1, 2)
    assert perpendicular_point(Color.BLUE, a) == pp(-2, 1)
    assert perpendicular_point(Color.RED, a) == pp(2, 1)
    assert perpendicular_point(Color.GREEN, a) == pp(1, -2)


def test_perpendicular_point_is_perpendicular():
    from quadrance.projective import is_perpendicular

    rng = random.Random(3)
    for _ in range(200):
        a = rand_all_color_nonnull(rng)
        for c in Color:
            assert is_perpendicular(colored_form(c), a, perpendicular_point(c, a))


def test_perpendicular_involution():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_all_color_nonnull(rng)
        for c in Color:
            assert perpendicular_point(c, perpendicular_point(c, a)) == a


def test_colored_quadrance_examples():
    assert colored_quadrance(Color.BLUE, pp(1, 0), pp(2, 3)) == Fr(9, 13)
    assert colored_quadrance(Color.RED, pp(2, 1), pp(1, 3)) == Fr(25, 24)
    with pytest.raises(NullPoint):
        colored_quadrance(Color.GREEN, pp(1, 0), pp(2, 3))


def test_colored_null_sets_differ():
    a = pp(1, 0)
    assert is_null_for(Color.GREEN, a)
    assert not is_null_for(Color.BLUE, a)
    assert not is_null_for(Color.RED, a)
    b = pp(1, 1)
    assert is_null_for(Color.RED, b)
    assert not is_null_for(Color.BLUE, b)


def test_colored_quadrance_agrees_with_general_form():
    # the closed per-color formulas against the general projective quadrance
    rng = random.Random(7)
    for _ in range(300):
        a1, a2 = rand_all_color_nonnull(rng), rand_all_color_nonnull(rng)
        for c in Color:
            assert colored_quadrance(c, a1, a2) == p_quadrance(colored_form(c), a1, a2)


def test_colored_quadrance_agrees_with_general_form_f7():
    ctx = make_context("fp:7")
    one = ctx.one()
    pts = [ProjPoint(one, ctx.from_int(t)) for t in range(7)]
    pts.append(ProjPoint(ctx.zero(), one))
    for c in Color:
        form = colored_form(c)
        good = [a for a in pts if not is_null_for(c, a)]
        for a1 in good:
            for a2 in good:
                assert colored_quadrance(c, a1, a2) == p_quadrance(form, a1, a2)


def test_reciprocal_sum_example():
    a, b = pp(2, 1), pp(1, 3)
    assert colored_quadrance(Color.BLUE, a, b) == Fr(1, 2)
    assert colored_quadrance(Color.RED, a, b) == Fr(25, 24)
    assert colored_quadrance(Color.GREEN, a, b) == Fr(-25, 24)
    assert reciprocal_sum(a, b) == 2


def test_reciprocal_sum_null_and_coincident_errors():
    with pytest.raises(NullPoint):
        reciprocal_sum(pp(1, 1), pp(2, 1))  # [1:1] is red-null
    with pytest.raises(CoincidentPoints):
        reciprocal_sum(pp(2, 1), pp(4, 2))


def test_reciprocal_sum_f7():
    a = ProjPoint(Fp(2, 7), Fp(1, 7))
    b = ProjPoint(Fp(1, 7), Fp(3, 7))
    assert reciprocal_sum(a, b) == Fp(2, 7)


def test_reciprocal_sum_theorem_random():
    rng = random.Random(42)
    for _ in range(500):
        a1 = rand_all_color_nonnull(rng)
        a2 = rand_all_color_nonnull(rng)
        if a1 == a2:
            continue
        assert reciprocal_sum(a1, a2) == 2


def test_reciprocal_sum_theorem_exhaustive():
    for p in (5, 7, 11, 13):
        ctx = make_context(f"fp:{p}")
        one = ctx.one()
        pts = [ProjPoint(one, ctx.from_int(t)) for t in range(p)]
        pts.append(ProjPoint(ctx.zero(), one))
        good = [a for a in pts if not any(is_null_for(c, a) for c in Color)]
        for a1 in good:
            for a2 in good:
                if a1 != a2:
                    assert reciprocal_sum(a1, a2) == ctx.from_int(2)


def test_reciprocal_proof_identity():
    rng = random.Random(11)
    for _ in range(500):
        x1, y1, x2, y2 = (Fr(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(4))
        lhs = (x1 * x1 + y1 * y1) * (x2 * x2 + y2 * y2) \
            - (x1 * x1 - y1 * y1) * (x2 * x2 - y2 * y2) - 4 * x1 * y1 * x2 * y2
        assert lhs == 2 * (x1 * y2 - x2 * y1) ** 2


def test_cyclic_perpendicularity():
    rng = random.Random(13)
    for _ in range(300):
        a = rand_all_color_nonnull(rng)
        ab = perpendicular_point(Color.BLUE, a)
        ar = perpendicular_point(Color.RED, a)
        ag = perpendicular_point(Color.GREEN, a)
        assert colored_quadrance(Color.BLUE, ar, ag) == 1
        assert colored_quadrance(Color.RED, ag, ab) == 1
        assert colored_quadrance(Color.GREEN, ab, ar) == 1


def test_color_invariance():
    rng = random.Random(17)
    for _ in range(300):
        a1 = rand_all_color_nonnull(rng)
        a2 = rand_all_color_nonnull(rng)
        for c in Color:
            base = colored_quadrance(c, a1, a2)
            for e in Color:
                moved = colored_quadrance(
                    c, perpendicular_point(e, a1), perpendicular_point(e, a2))
                assert moved == base


def test_cross_symmetry():
    rng = random.Random(19)
    for _ in range(300):
        a1 = rand_all_color_nonnull(rng)
        a2 = rand_all_color_nonnull(rng)
        for c, u, v in ((Color.BLUE, Color.RED, Color.GREEN),
                        (Color.RED, Color.GREEN, Color.BLUE),
                        (Color.GREEN, Color.BLUE, Color.RED)):
            lhs = colored_quadrance(c, perpendicular_point(u, a1),
                                    perpendicular_point(v, a2))
            rhs = colored_quadrance(c, perpendicular_point(v, a1),
                                    perpendicular_point(u, a2))
            assert lhs == rhs


def test_blue_nulls_exist_iff_p_mod_4_is_1():
    for p, expect in ((5, True), (7, False), (11, False), (13, True)):
        ctx = make_context(f"fp:{p}")
        one = ctx.one()
        pts = [ProjPoint(one, ctx.from_int(t)) for t in range(p)]
        pts.append(ProjPoint(ctx.zero(), one))
        has_null = any(is_null_for(Color.BLUE, a) for a in pts)
        assert has_null == expect


# -- colored_quadrance clears rational points; the fraction kernel does not ----
#
# Rational coordinates: zero, negative, denominators up to 10^6; a point is
# often drawn red-null ([x:±x]) or green-null (a zero coordinate).

_rationals = st.builds(Fr, st.integers(-10**6, 10**6) | st.integers(-3, 3),
                       st.integers(1, 10**6))


@st.composite
def _points(draw):
    x, y = draw(_rationals), draw(_rationals)
    shape = draw(st.sampled_from(["free", "free", "red-null", "green-null"]))
    if shape == "red-null":
        y = draw(st.sampled_from([x, -x]))
    elif shape == "green-null":
        x = Fr(0)
    if x == 0 and y == 0:
        y = Fr(1)
    return ProjPoint(x, y)


def _old_fraction(color, a1, a2):
    """num and den on the stored representatives, in Fraction arithmetic."""
    cross = a1.x * a2.y - a2.x * a1.y
    if color is Color.BLUE:
        return cross * cross, (a1.x ** 2 + a1.y ** 2) * (a2.x ** 2 + a2.y ** 2)
    if color is Color.RED:
        return -cross * cross, (a1.x ** 2 - a1.y ** 2) * (a2.x ** 2 - a2.y ** 2)
    return -cross * cross, 4 * a1.x * a1.y * a2.x * a2.y


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Color)), _points(), _points())
def test_cleared_colored_quadrance_matches_the_representative_formula(color, a1, a2):
    num, den = _old_fraction(color, a1, a2)
    assert colored_quadrance_fraction(color, a1, a2) == (num, den)
    nulls = [_old_fraction(color, a, a)[1] == 0 for a in (a1, a2)]
    assert [is_null_for(color, a) for a in (a1, a2)] == nulls
    if any(nulls):
        argument, which, a = ("a1", "first", a1) if nulls[0] else ("a2", "second", a2)
        with pytest.raises(NullPoint) as exc:
            colored_quadrance(color, a1, a2)
        assert exc.value.argument == argument
        assert str(exc.value) == f"{which} point {a} is {color}-null"
        return
    q = colored_quadrance(color, a1, a2)
    assert type(q) is Fr and q == Fr(num) / den


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(Color)), st.lists(st.integers(-50, 50), min_size=4, max_size=4),
       st.sampled_from([7, 13, 10007]))
def test_colored_quadrance_keeps_int_and_fp_types(color, values, p):
    x1, y1, x2, y2 = values
    if not (x1 or y1) or not (x2 or y2) or not (x1 % p or y1 % p) or not (x2 % p or y2 % p):
        return
    ints = ProjPoint(x1, y1), ProjPoint(x2, y2)
    lifted = ProjPoint(Fp(x1, p), Fp(y1, p)), ProjPoint(Fp(x2, p), Fp(y2, p))
    num, den = _old_fraction(color, *ints)
    if den % p == 0:
        with pytest.raises(NullPoint):
            colored_quadrance(color, *lifted)
    else:
        q = colored_quadrance(color, *lifted)
        assert type(q) is Fp and q == num * pow(den, -1, p)
    if den != 0:
        q = colored_quadrance(color, *ints)
        assert type(q) is Fr and q == Fr(num, den)
