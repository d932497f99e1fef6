import random
from fractions import Fraction as Fr

import pytest

from quadrance.affine import (
    AffineIsometry,
    AffinePoint,
    archimedes,
    archimedes_forms,
    brahmagupta_product,
    heron_product,
    is_quad_triple,
    isometry_apply,
    isometry_classify,
    isometry_compose,
    isometry_invert,
    quad_triple_pair_fraction,
    quadrance,
    quadruple_quad_fn,
    solve_quad_triple_pair,
)
from quadrance.errors import DegenerateDenominator, MixedContexts, NotIsometry
from quadrance.field import Fp, make_context


def pt(v):
    return AffinePoint(Fr(v))


def rand(rng):
    return Fr(rng.randint(-12, 12), rng.randint(1, 12))


def test_quadrance_examples():
    assert quadrance(pt(3), pt(3)) == 0
    assert quadrance(pt(1), pt(4)) == 9
    assert quadrance(AffinePoint(Fp(3, 7)), AffinePoint(Fp(6, 7))) == Fp(2, 7)


def test_quadrance_symmetric_and_zero_iff_equal():
    rng = random.Random(3)
    for _ in range(200):
        a, b = AffinePoint(rand(rng)), AffinePoint(rand(rng))
        assert quadrance(a, b) == quadrance(b, a)
        assert (quadrance(a, b) == 0) == (a.x == b.x)


def test_quadrance_mixed_contexts():
    with pytest.raises(MixedContexts):
        quadrance(AffinePoint(Fp(1, 5)), AffinePoint(Fp(1, 7)))


def test_archimedes_examples():
    assert archimedes(Fr(0), Fr(0), Fr(0)) == 0
    assert archimedes(Fr(1), Fr(1), Fr(4)) == 0  # quadrances of points 0, 1, 2
    assert archimedes(Fr(1), Fr(1), Fr(1)) == 3


def test_archimedes_alternates_agree():
    rng = random.Random(11)
    for _ in range(500):
        a, b, c = rand(rng), rand(rng), rand(rng)
        base = archimedes(a, b, c)
        for alt in archimedes_forms(a, b, c):
            assert alt == base


def test_archimedes_symmetric():
    rng = random.Random(12)
    for _ in range(100):
        a, b, c = rand(rng), rand(rng), rand(rng)
        v = archimedes(a, b, c)
        assert v == archimedes(b, a, c) == archimedes(c, b, a) == archimedes(b, c, a)


def test_is_quad_triple_examples():
    rng = random.Random(13)
    for _ in range(50):
        a = rand(rng)
        assert is_quad_triple(Fr(0), a, a)
    assert is_quad_triple(Fr(1), Fr(1), Fr(4))
    assert not is_quad_triple(Fr(1), Fr(1), Fr(1))


def test_triple_quad_formula_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        a1, a2, a3 = (AffinePoint(rand(rng)) for _ in range(3))
        q1 = quadrance(a2, a3)
        q2 = quadrance(a1, a3)
        q3 = quadrance(a1, a2)
        assert archimedes(q1, q2, q3) == 0


def test_triple_quad_formula_exhaustive():
    for p in (5, 7, 11, 13):
        ctx = make_context(f"fp:{p}")
        elems = list(ctx.enumerate_elements())
        for x1 in elems:
            for x2 in elems:
                for x3 in elems:
                    q1 = (x3 - x2) ** 2
                    q2 = (x3 - x1) ** 2
                    q3 = (x2 - x1) ** 2
                    assert archimedes(q1, q2, q3) == Fp(0, p)


def test_proof_identity():
    rng = random.Random(17)
    for _ in range(500):
        a, b, c = rand(rng), rand(rng), rand(rng)
        assert archimedes(a, b, c) == 4 * a * b - (a + b - c) ** 2


def test_heron_examples():
    assert heron_product(Fr(0), Fr(0), Fr(0)) == 0
    assert heron_product(Fr(3), Fr(4), Fr(5)) == 576
    assert archimedes(Fr(9), Fr(16), Fr(25)) == 576
    assert heron_product(Fr(1), Fr(1), Fr(2)) == 0
    assert archimedes(Fr(1), Fr(1), Fr(4)) == 0


def test_heron_equals_archimedes_of_squares():
    rng = random.Random(19)
    for _ in range(1000):
        d1, d2, d3 = rand(rng), rand(rng), rand(rng)
        assert heron_product(d1, d2, d3) == archimedes(d1 * d1, d2 * d2, d3 * d3)


def test_solve_quad_triple_pair_examples():
    # points 0, 1, 3, 6: the solved value must equal the direct quadrance
    pts = [pt(0), pt(1), pt(3), pt(6)]
    direct = quadrance(pts[0], pts[2])
    assert direct == 9
    assert solve_quad_triple_pair(Fr(1), Fr(4), Fr(9), Fr(36)) == direct
    with pytest.raises(DegenerateDenominator):
        solve_quad_triple_pair(Fr(1), Fr(4), Fr(4), Fr(1))
    # the same configuration reduced mod 13
    f13 = [AffinePoint(Fp(v, 13)) for v in (0, 1, 3, 6)]
    direct13 = quadrance(f13[0], f13[2])
    got = solve_quad_triple_pair(Fp(1, 13), Fp(4, 13), Fp(9, 13), Fp(10, 13))
    assert got == direct13 == Fp(9, 13)


def test_quadruple_quad_fn_examples():
    assert quadruple_quad_fn(Fr(0), Fr(0), Fr(0), Fr(0)) == 0
    assert quadruple_quad_fn(Fr(1), Fr(4), Fr(9), Fr(36)) == 0
    assert quadruple_quad_fn(Fr(1), Fr(1), Fr(1), Fr(4)) == -135


def test_quadruple_quad_fn_symmetric():
    rng = random.Random(23)
    for _ in range(100):
        vals = [rand(rng) for _ in range(4)]
        base = quadruple_quad_fn(*vals)
        rng.shuffle(vals)
        assert quadruple_quad_fn(*vals) == base


def sides(a1, a2, a3, a4):
    """The side quadrances q12, q23, q34, q14 of four points."""
    return quadrance(a1, a2), quadrance(a2, a3), quadrance(a3, a4), quadrance(a1, a4)


def test_quadruple_quad_examples():
    q12, q23, q34, q14 = sides(pt(0), pt(1), pt(3), pt(6))
    assert quadruple_quad_fn(q12, q23, q34, q14) == 0
    assert solve_quad_triple_pair(q12, q23, q34, q14) == 9  # q13
    assert solve_quad_triple_pair(q23, q34, q12, q14) == 25  # q24
    zero = sides(pt(0), pt(0), pt(0), pt(0))
    assert quadruple_quad_fn(*zero) == 0
    with pytest.raises(DegenerateDenominator):  # q13 and q24: all four sides are 0
        solve_quad_triple_pair(*zero)
    q12, q23, q34, q14 = sides(*(AffinePoint(Fp(v, 13)) for v in (0, 1, 3, 6)))
    assert quadruple_quad_fn(q12, q23, q34, q14) == Fp(0, 13)
    assert solve_quad_triple_pair(q12, q23, q34, q14) == Fp(9, 13)
    assert solve_quad_triple_pair(q23, q34, q12, q14) == Fp(12, 13)  # 25 mod 13


def test_quadruple_quad_on_random_configurations():
    rng = random.Random(42)
    for _ in range(1000):
        pts = [AffinePoint(rand(rng)) for _ in range(4)]
        q12, q23, q34, q14 = sides(*pts)
        assert quadruple_quad_fn(q12, q23, q34, q14) == 0
        if quad_triple_pair_fraction(q12, q23, q34, q14)[1] != 0:
            assert solve_quad_triple_pair(q12, q23, q34, q14) == quadrance(pts[0], pts[2])
        if quad_triple_pair_fraction(q23, q34, q12, q14)[1] != 0:
            assert solve_quad_triple_pair(q23, q34, q12, q14) == quadrance(pts[1], pts[3])


def test_rearrangement_identity():
    rng = random.Random(31)
    for _ in range(1000):
        a, b, c, d = (rand(rng) for _ in range(4))
        lhs = ((a - b) ** 2 - (c - d) ** 2 - 2 * (a + b - c - d) * (a + b)) ** 2 \
            - 16 * a * b * (a + b - c - d) ** 2
        assert lhs == quadruple_quad_fn(a, b, c, d)


def test_brahmagupta_examples():
    assert brahmagupta_product(Fr(0), Fr(0), Fr(0), Fr(0)) == 0
    assert brahmagupta_product(Fr(1), Fr(2), Fr(3), Fr(4)) == 0
    assert quadruple_quad_fn(Fr(1), Fr(4), Fr(9), Fr(16)) == 0
    assert brahmagupta_product(Fr(1), Fr(1), Fr(1), Fr(2)) == -135
    assert quadruple_quad_fn(Fr(1), Fr(1), Fr(1), Fr(4)) == -135


def test_brahmagupta_equals_quadruple_quad_of_squares():
    rng = random.Random(37)
    for _ in range(1000):
        ds = [rand(rng) for _ in range(4)]
        assert brahmagupta_product(*ds) == quadruple_quad_fn(*(d * d for d in ds))


def test_isometry_apply_examples():
    assert isometry_apply(AffineIsometry(1, Fr(5)), pt(2)) == pt(7)
    assert isometry_apply(AffineIsometry(-1, Fr(5)), pt(2)) == pt(3)
    assert isometry_apply(AffineIsometry(1, Fr(0)), pt(9)) == pt(9)


def test_isometry_compose_examples():
    refl3 = AffineIsometry(-1, Fr(3))
    refl7 = AffineIsometry(-1, Fr(7))
    assert isometry_compose(refl3, refl7) == AffineIsometry(1, Fr(4))
    t2, t5 = AffineIsometry(1, Fr(2)), AffineIsometry(1, Fr(5))
    assert isometry_compose(t2, t5) == AffineIsometry(1, Fr(7))
    ident = AffineIsometry(1, Fr(0))
    assert isometry_compose(refl3, ident) == refl3
    assert isometry_compose(ident, refl3) == refl3


def test_isometry_compose_matches_application_order():
    rng = random.Random(41)
    for _ in range(300):
        s1 = AffineIsometry(rng.choice((1, -1)), rand(rng))
        s2 = AffineIsometry(rng.choice((1, -1)), rand(rng))
        a = AffinePoint(rand(rng))
        assert isometry_apply(isometry_compose(s1, s2), a) \
            == isometry_apply(s2, isometry_apply(s1, a))


def test_isometries_preserve_quadrance():
    rng = random.Random(43)
    for _ in range(300):
        s = AffineIsometry(rng.choice((1, -1)), rand(rng))
        a, b = AffinePoint(rand(rng)), AffinePoint(rand(rng))
        assert quadrance(isometry_apply(s, a), isometry_apply(s, b)) == quadrance(a, b)


def test_isometry_composition_associative():
    rng = random.Random(47)
    for _ in range(300):
        maps = [AffineIsometry(rng.choice((1, -1)), rand(rng)) for _ in range(3)]
        left = isometry_compose(isometry_compose(maps[0], maps[1]), maps[2])
        right = isometry_compose(maps[0], isometry_compose(maps[1], maps[2]))
        assert left == right


def test_isometry_invert():
    ident = AffineIsometry(1, Fr(0))
    rng = random.Random(59)
    for _ in range(200):
        s = AffineIsometry(rng.choice((1, -1)), rand(rng))
        assert isometry_compose(s, isometry_invert(s)) == ident
        assert isometry_compose(isometry_invert(s), s) == ident
    refl = AffineIsometry(-1, Fr(3))
    assert isometry_invert(refl) == refl


def test_isometry_classify_examples():
    assert isometry_classify(pt(5), pt(6)) == AffineIsometry(1, Fr(5))
    assert isometry_classify(pt(5), pt(4)) == AffineIsometry(-1, Fr(5))
    with pytest.raises(NotIsometry):
        isometry_classify(pt(0), pt(3))


def test_isometry_classify_round_trip():
    rng = random.Random(53)
    for _ in range(300):
        s = AffineIsometry(rng.choice((1, -1)), rand(rng))
        image_o = isometry_apply(s, pt(0))
        image_i = isometry_apply(s, pt(1))
        assert isometry_classify(image_o, image_i) == s


def test_fp_quadrance_zero_iff_equal():
    # fields have no nilpotents: (a - b)^2 = 0 forces a = b
    for p in (5, 7, 11, 13):
        ctx = make_context(f"fp:{p}")
        for a in ctx.enumerate_elements():
            for b in ctx.enumerate_elements():
                q = quadrance(AffinePoint(a), AffinePoint(b))
                assert (q == 0) == (a == b)
