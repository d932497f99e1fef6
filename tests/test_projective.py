import random
from fractions import Fraction as Fr

import pytest

from quadrance.errors import DegenerateDenominator, DegenerateForm, NullPoint
from quadrance.field import Fp, make_context
from quadrance.projective import (
    Form,
    ProjPoint,
    discriminant,
    form_value,
    is_null,
    is_perpendicular,
    is_spread_triple,
    p_quadrance,
    pairing,
    projective_quadruple_check,
    quadruple_spread_fn,
    solve_spread_triple_pair,
    triple_spread_fn,
    triple_spread_forms,
)

BLUE = Form(1, 0, 1)
RED = Form(1, 0, -1)
GREEN = Form(0, 1, 0)
GENERAL = Form(1, 2, 3)


def pp(x, y):
    return ProjPoint(Fr(x), Fr(y))


def rand(rng):
    return Fr(rng.randint(-12, 12), rng.randint(1, 12))


def rand_nonnull(form, rng):
    while True:
        x, y = rand(rng), rand(rng)
        if (x != 0 or y != 0):
            a = ProjPoint(x, y)
            if form_value(form, a) != 0:
                return a


def test_proj_point_rejects_zero():
    with pytest.raises(ValueError):
        ProjPoint(Fr(0), Fr(0))


def test_proj_point_equality_is_projective():
    assert pp(1, 2) == pp(2, 4)
    assert pp(1, 2) == ProjPoint(Fr(-3), Fr(-6))
    assert pp(1, 2) != pp(2, 1)
    assert hash(pp(1, 2)) == hash(pp(2, 4))


def test_proj_point_display_canonical():
    assert str(pp(2, 4)) == "[1:2]"
    assert str(pp(0, 5)) == "[0:1]"
    assert str(pp(2, 3)) == "[1:3/2]"


def test_form_equality_up_to_scale():
    assert Form(1, 0, 1) == Form(2, 0, 2)
    assert Form(1, 0, 1) != Form(1, 0, -1)
    assert str(Form(2, 0, 2)) == "(1:0:1)"


def test_discriminant_examples():
    assert discriminant(BLUE) == 1
    assert discriminant(GREEN) == -1
    assert discriminant(Form(1, 1, 1)) == 0


def test_degenerate_form_rejected_at_use():
    bad = Form(1, 1, 1)  # construction is fine, use is not
    with pytest.raises(DegenerateForm):
        is_null(bad, pp(1, 0))
    with pytest.raises(DegenerateForm):
        p_quadrance(bad, pp(1, 0), pp(0, 1))


def test_is_null_examples():
    assert is_null(RED, pp(1, 1))
    assert not is_null(BLUE, pp(1, 1))
    assert is_null(BLUE, ProjPoint(Fp(2, 5), Fp(1, 5)))  # 4 + 1 = 0 mod 5


def test_is_perpendicular_examples():
    assert is_perpendicular(BLUE, pp(1, 0), pp(0, 1))
    assert is_perpendicular(BLUE, pp(1, 2), pp(2, -1))
    assert is_perpendicular(RED, pp(1, 2), pp(2, 1))


def test_p_quadrance_paper_value():
    assert p_quadrance(BLUE, pp(1, 0), pp(2, 3)) == Fr(9, 13)


def test_p_quadrance_coincident_is_zero():
    rng = random.Random(5)
    for form in (BLUE, RED, GREEN, GENERAL):
        a = rand_nonnull(form, rng)
        assert p_quadrance(form, a, a) == 0


def test_p_quadrance_perpendicular_example():
    form = Form(1, 0, 2)
    assert p_quadrance(form, pp(1, 0), pp(0, 1)) == 1
    assert is_perpendicular(form, pp(1, 0), pp(0, 1))


def test_p_quadrance_null_errors_name_argument():
    with pytest.raises(NullPoint) as info:
        p_quadrance(GREEN, pp(1, 0), pp(1, 1))
    assert info.value.argument == "a1"
    with pytest.raises(NullPoint) as info:
        p_quadrance(GREEN, pp(1, 1), pp(0, 1))
    assert info.value.argument == "a2"


def test_p_quadrance_scale_invariance():
    rng = random.Random(7)
    for _ in range(300):
        form = GENERAL
        a1, a2 = rand_nonnull(form, rng), rand_nonnull(form, rng)
        q = p_quadrance(form, a1, a2)
        lam = Fr(0)
        while lam == 0:
            lam = rand(rng)
        assert p_quadrance(form, ProjPoint(lam * a1.x, lam * a1.y), a2) == q
        scaled = Form(lam * form.d, lam * form.e, lam * form.f)
        assert p_quadrance(scaled, a1, a2) == q


def test_generalized_fibonacci_identity():
    rng = random.Random(42)
    for _ in range(1000):
        d, e, f, x1, y1, x2, y2 = (rand(rng) for _ in range(7))
        disc = d * f - e * e
        cross = x1 * y2 - x2 * y1
        pair = d * x1 * x2 + e * x1 * y2 + e * x2 * y1 + f * y1 * y2
        v1 = d * x1 * x1 + 2 * e * x1 * y1 + f * y1 * y1
        v2 = d * x2 * x2 + 2 * e * x2 * y2 + f * y2 * y2
        assert disc * cross * cross + pair * pair == v1 * v2


def test_perpendicular_iff_q_is_one_exhaustive():
    for p in (5, 7, 11, 13):
        ctx = make_context(f"fp:{p}")
        one = ctx.one()
        pts = [ProjPoint(one, ctx.from_int(t)) for t in range(p)]
        pts.append(ProjPoint(ctx.zero(), one))
        for form in (BLUE, RED, GREEN, GENERAL):
            good = [a for a in pts if form_value(form, a) != 0]
            for a1 in good:
                for a2 in good:
                    q = p_quadrance(form, a1, a2)
                    assert (q == 1) == is_perpendicular(form, a1, a2)


def test_projective_triple_quad_formula_random():
    rng = random.Random(11)
    for _ in range(500):
        form = (BLUE, RED, GREEN, GENERAL)[rng.randrange(4)]
        a1, a2, a3 = (rand_nonnull(form, rng) for _ in range(3))
        q1 = p_quadrance(form, a2, a3)
        q2 = p_quadrance(form, a1, a3)
        q3 = p_quadrance(form, a1, a2)
        assert triple_spread_fn(q1, q2, q3) == 0
        assert (q1 + q2 - q3) ** 2 == 4 * q1 * q2 * (1 - q3)


def test_triple_spread_fn_examples():
    assert triple_spread_fn(Fr(0), Fr(0), Fr(0)) == 0
    assert triple_spread_fn(Fr(1, 2), Fr(1, 2), Fr(1)) == 0
    assert triple_spread_fn(Fr(1), Fr(1), Fr(1)) == -1


def test_triple_spread_alternates_agree():
    rng = random.Random(13)
    for _ in range(500):
        a, b, c = rand(rng), rand(rng), rand(rng)
        base = triple_spread_fn(a, b, c)
        for alt in triple_spread_forms(a, b, c):
            assert alt == base


def test_is_spread_triple_examples():
    rng = random.Random(17)
    for _ in range(50):
        s = rand(rng)
        assert is_spread_triple(s, s, 0 * s)
        assert is_spread_triple(s, s, 4 * s * (1 - s))
    assert is_spread_triple(Fr(1, 3), Fr(1, 3), Fr(8, 9))
    assert not is_spread_triple(Fr(1), Fr(1), Fr(1))


def test_solve_spread_triple_pair_examples():
    got = solve_spread_triple_pair(Fr(9, 13), Fr(196, 221), Fr(529, 578), Fr(25, 34))
    assert got == Fr(1, 17)
    assert solve_spread_triple_pair(Fr(1, 2), Fr(1, 2), Fr(1), Fr(1)) == 0
    assert is_spread_triple(Fr(1, 2), Fr(1, 2), Fr(0))
    assert is_spread_triple(Fr(1), Fr(1), Fr(0))
    with pytest.raises(DegenerateDenominator):
        solve_spread_triple_pair(Fr(2, 3), Fr(1, 5), Fr(2, 3), Fr(1, 5))


def test_solve_spread_triple_pair_recovers_constructed_solution():
    # build {a,b,x} and {c,d,x} as genuine spread triples from p-quadrances
    rng = random.Random(19)
    hits = 0
    while hits < 200:
        form = (BLUE, RED, GREEN, GENERAL)[rng.randrange(4)]
        a1, a2, a3, a4 = (rand_nonnull(form, rng) for _ in range(4))
        a = p_quadrance(form, a1, a2)
        b = p_quadrance(form, a2, a3)
        c = p_quadrance(form, a3, a4)
        d = p_quadrance(form, a1, a4)
        x = p_quadrance(form, a1, a3)
        assert is_spread_triple(a, b, x) and is_spread_triple(c, d, x)
        try:
            got = solve_spread_triple_pair(a, b, c, d)
        except DegenerateDenominator:
            continue
        assert got == x
        hits += 1


def test_quadruple_spread_fn_examples():
    assert quadruple_spread_fn(Fr(9, 13), Fr(196, 221), Fr(529, 578), Fr(25, 34)) == 0
    assert quadruple_spread_fn(Fr(0), Fr(0), Fr(0), Fr(0)) == 0
    assert quadruple_spread_fn(Fr(1), Fr(0), Fr(0), Fr(0)) == 1


def test_quadruple_spread_fn_symmetric():
    rng = random.Random(23)
    for _ in range(100):
        vals = [rand(rng) for _ in range(4)]
        base = quadruple_spread_fn(*vals)
        rng.shuffle(vals)
        assert quadruple_spread_fn(*vals) == base


def test_projective_quadruple_check_paper_example():
    pts = [pp(1, 0), pp(2, 3), pp(4, -1), pp(3, 5)]
    res = projective_quadruple_check(BLUE, *pts)
    assert res.value == 0
    assert res.q13 == Fr(1, 17)
    assert res.q24 == Fr(1, 442)
    assert res.q13 == p_quadrance(BLUE, pts[0], pts[2])
    assert res.q24 == p_quadrance(BLUE, pts[1], pts[3])


def test_projective_quadruple_check_coincident():
    a = pp(2, 5)
    res = projective_quadruple_check(BLUE, a, a, a, a)
    assert res.value == 0
    assert res.q13 is None and res.q24 is None


def test_projective_quadruple_check_f7_example():
    pts = [ProjPoint(Fp(x, 7), Fp(y, 7)) for x, y in ((1, 0), (1, 1), (0, 1), (1, 6))]
    res = projective_quadruple_check(BLUE, *pts)
    assert res.value == Fp(0, 7)
    # both solution denominators vanish for this tuple, so the fractions
    # are absent; where defined they must agree with the direct values
    q12 = p_quadrance(BLUE, pts[0], pts[1])
    q23 = p_quadrance(BLUE, pts[1], pts[2])
    q34 = p_quadrance(BLUE, pts[2], pts[3])
    q14 = p_quadrance(BLUE, pts[0], pts[3])
    den13 = q12 + q23 - q34 - q14 - 2 * q12 * q23 + 2 * q34 * q14
    den24 = q23 + q34 - q12 - q14 - 2 * q23 * q34 + 2 * q12 * q14
    assert (res.q13 is None) == (den13 == 0)
    assert (res.q24 is None) == (den24 == 0)
    if res.q13 is not None:
        assert res.q13 == p_quadrance(BLUE, pts[0], pts[2])
    if res.q24 is not None:
        assert res.q24 == p_quadrance(BLUE, pts[1], pts[3])


def test_projective_quadruple_check_random():
    rng = random.Random(42)
    for _ in range(500):
        form = (BLUE, RED, GREEN, GENERAL)[rng.randrange(4)]
        pts = [rand_nonnull(form, rng) for _ in range(4)]
        res = projective_quadruple_check(form, *pts)
        assert res.value == 0
        if res.q13 is not None:
            assert res.q13 == p_quadrance(form, pts[0], pts[2])
        if res.q24 is not None:
            assert res.q24 == p_quadrance(form, pts[1], pts[3])


def test_projective_quadruple_check_names_the_null_point():
    # [1:0] is green-null; the error names the argument, not a p-quadrance's
    with pytest.raises(NullPoint) as err:
        projective_quadruple_check(GREEN, pp(1, 1), pp(1, 2), pp(1, 0), pp(2, 1))
    assert err.value.argument == "a3"


def test_spread_rearrangement_identity():
    rng = random.Random(29)
    for _ in range(1000):
        a, b, c, d = (rand(rng) for _ in range(4))
        den = a + b - c - d - 2 * a * b + 2 * c * d
        lhs = ((a - b) ** 2 - (c - d) ** 2 - 2 * den * (a + b - 2 * a * b)) ** 2 \
            - 16 * a * b * (1 - a) * (1 - b) * den ** 2
        assert lhs == quadruple_spread_fn(a, b, c, d)


def test_pairing_matches_perpendicularity():
    rng = random.Random(31)
    for _ in range(200):
        a1, a2 = rand_nonnull(GENERAL, rng), rand_nonnull(GENERAL, rng)
        assert (pairing(GENERAL, a1, a2) == 0) == is_perpendicular(GENERAL, a1, a2)
