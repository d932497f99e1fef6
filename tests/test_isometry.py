import hashlib
import itertools
import random
from fractions import Fraction as Fr

import pytest

from quadrance.chromo import Color, colored_form, colored_quadrance, is_null_for
from quadrance.errors import (
    ColorMismatch,
    NotIsometry,
    NotUnitCircle,
    NullParameter,
)
from quadrance.field import Fp, make_context
from quadrance.isometry import (
    IsoKind,
    ProjIsometry,
    ProjMatrix,
    apply,
    blue_sqrt,
    classify,
    compose,
    make_isometry,
    matrix_of,
    multiply_points,
    point_identity,
    point_inverse,
    point_power,
)
from quadrance.projective import ProjPoint
from quadrance.spreadpoly import poly_eval, spread_poly

RHO, SIGMA = IsoKind.ROTATION, IsoKind.REFLECTION


def pp(x, y):
    return ProjPoint(Fr(x), Fr(y))


def rand_nonnull(color, rng):
    while True:
        x = Fr(rng.randint(-12, 12), rng.randint(1, 12))
        y = Fr(rng.randint(-12, 12), rng.randint(1, 12))
        if x == 0 and y == 0:
            continue
        a = ProjPoint(x, y)
        if not is_null_for(color, a):
            return a


def proj_points(p):
    ctx = make_context(f"fp:{p}")
    one = ctx.one()
    pts = [ProjPoint(one, ctx.from_int(t)) for t in range(p)]
    pts.append(ProjPoint(ctx.zero(), one))
    return pts


def test_matrix_equality_up_to_scale():
    assert ProjMatrix(Fr(1), Fr(2), Fr(3), Fr(4)) == ProjMatrix(Fr(2), Fr(4), Fr(6), Fr(8))
    assert ProjMatrix(Fr(1), Fr(2), Fr(3), Fr(4)) != ProjMatrix(Fr(1), Fr(2), Fr(3), Fr(5))


def test_matrix_hash_and_canonical_agree_across_representatives():
    m = ProjMatrix(Fr(1, 2), Fr(1), Fr(3, 2), Fr(2))
    assert m.canonical() == (1, 2, 3, 4)
    assert ProjMatrix(0, 0, Fr(-2), Fr(4)).canonical() == (0, 0, 1, -2)
    assert hash(m) == hash(ProjMatrix(1, 2, 3, 4)) == hash(ProjMatrix(-3, -6, -9, -12))
    # entries that agree only up to scale in some pairs are still different
    assert ProjMatrix(1, 2, 3, 4) != ProjMatrix(1, 2, 6, 8)


def test_matrix_equality_over_fp():
    def f(v):
        return Fp(v, 7)

    assert ProjMatrix(f(1), f(2), f(3), f(4)) == ProjMatrix(f(3), f(6), f(9), f(12))
    assert ProjMatrix(f(1), f(2), f(3), f(4)) == ProjMatrix(f(8), f(9), f(10), f(11))
    assert ProjMatrix(f(1), f(2), f(3), f(4)) != ProjMatrix(f(1), f(2), f(3), f(5))
    assert hash(ProjMatrix(f(1), f(2), f(3), f(4))) == hash(ProjMatrix(f(3), f(6), f(9), f(12)))


def test_matrix_action_convention():
    m = ProjMatrix(Fr(1), Fr(2), Fr(3), Fr(4))
    assert m.apply(pp(1, 0)) == pp(1, 2)
    assert m.apply(pp(0, 1)) == pp(3, 4)


def test_make_isometry_identity_cases():
    ident_blue = make_isometry(Color.BLUE, RHO, pp(1, 0))
    ident_green = make_isometry(Color.GREEN, RHO, pp(1, 1))
    rng = random.Random(3)
    for _ in range(50):
        a = rand_nonnull(Color.BLUE, rng)
        assert apply(ident_blue, a) == a
        assert apply(ident_green, a) == a
    assert make_isometry(Color.BLUE, RHO, pp(1, 1)).param == pp(1, 1)


def test_make_isometry_rejects_null_parameter():
    with pytest.raises(NullParameter):
        make_isometry(Color.GREEN, RHO, pp(1, 0))
    with pytest.raises(NullParameter):
        make_isometry(Color.RED, SIGMA, pp(1, 1))


def test_apply_examples():
    rot = make_isometry(Color.BLUE, RHO, pp(0, 1))
    assert matrix_of(rot) == ProjMatrix(Fr(0), Fr(1), Fr(-1), Fr(0))
    assert apply(rot, pp(1, 0)) == pp(0, 1)
    # green reflection follows its matrix [[0,a],[b,0]]: [x:y] -> [by:ax]
    refl = make_isometry(Color.GREEN, SIGMA, pp(2, 3))
    assert apply(refl, pp(1, 5)) == ProjPoint(Fr(15), Fr(2))


def test_matrix_shapes_per_color():
    a, b = Fr(2), Fr(5)
    p = ProjPoint(a, b)
    assert matrix_of(ProjIsometry(Color.BLUE, SIGMA, p)) == ProjMatrix(a, b, b, -a)
    assert matrix_of(ProjIsometry(Color.BLUE, RHO, p)) == ProjMatrix(a, b, -b, a)
    assert matrix_of(ProjIsometry(Color.RED, SIGMA, p)) == ProjMatrix(a, b, -b, -a)
    assert matrix_of(ProjIsometry(Color.RED, RHO, p)) == ProjMatrix(a, b, b, a)
    assert matrix_of(ProjIsometry(Color.GREEN, SIGMA, p)) == ProjMatrix(Fr(0), a, b, Fr(0))
    assert matrix_of(ProjIsometry(Color.GREEN, RHO, p)) == ProjMatrix(a, Fr(0), Fr(0), b)


def test_compose_examples():
    s1 = make_isometry(Color.BLUE, SIGMA, pp(1, 0))
    s2 = make_isometry(Color.BLUE, SIGMA, pp(0, 1))
    out = compose(s1, s2)
    assert out.kind is RHO and out.param == pp(0, 1)
    g1 = make_isometry(Color.GREEN, RHO, pp(2, 3))
    g2 = make_isometry(Color.GREEN, RHO, pp(5, 7))
    out = compose(g1, g2)
    assert out.kind is RHO and out.param == pp(10, 21)
    r1 = make_isometry(Color.RED, RHO, pp(2, 1))
    r2 = make_isometry(Color.RED, RHO, pp(3, 1))
    out = compose(r1, r2)
    assert out.kind is RHO and out.param == pp(7, 5)


def test_compose_rejects_color_mismatch():
    with pytest.raises(ColorMismatch):
        compose(make_isometry(Color.BLUE, RHO, pp(1, 1)),
                make_isometry(Color.RED, RHO, pp(2, 1)))


def test_all_twelve_table_entries_match_matrices():
    rng = random.Random(42)
    for color in Color:
        for _ in range(200):
            p1 = rand_nonnull(color, rng)
            p2 = rand_nonnull(color, rng)
            for k1 in IsoKind:
                for k2 in IsoKind:
                    iso1 = ProjIsometry(color, k1, p1)
                    iso2 = ProjIsometry(color, k2, p2)
                    out = compose(iso1, iso2)
                    assert matrix_of(out) == matrix_of(iso1) @ matrix_of(iso2)
                    expected = RHO if k1 == k2 else SIGMA
                    assert out.kind is expected
                    assert not is_null_for(color, out.param)


def test_compose_matches_application_order():
    rng = random.Random(5)
    for color in Color:
        for _ in range(100):
            iso1 = ProjIsometry(color, rng.choice((RHO, SIGMA)), rand_nonnull(color, rng))
            iso2 = ProjIsometry(color, rng.choice((RHO, SIGMA)), rand_nonnull(color, rng))
            a = rand_nonnull(color, rng)
            assert apply(compose(iso1, iso2), a) == apply(iso2, apply(iso1, a))


def test_fibonacci_identities():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c, d = (Fr(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(4))
        assert (a * c + b * d) ** 2 + (a * d - b * c) ** 2 \
            == (a * a + b * b) * (c * c + d * d) \
            == (a * c - b * d) ** 2 + (a * d + b * c) ** 2
        assert (a * c - b * d) ** 2 - (a * d - b * c) ** 2 \
            == (a * a - b * b) * (c * c - d * d) \
            == (a * c + b * d) ** 2 - (a * d + b * c) ** 2


def test_classify_examples():
    iso = classify(ProjMatrix(Fr(1), Fr(2), Fr(-2), Fr(1)), Color.BLUE)
    assert iso.kind is RHO and iso.param == pp(1, 2)
    with pytest.raises(NotIsometry):
        classify(ProjMatrix(Fr(1), Fr(1), Fr(1), Fr(1)), Color.BLUE)
    with pytest.raises(NotIsometry):
        classify(ProjMatrix(Fr(1), Fr(1), Fr(1), Fr(1)), Color.GREEN)
    iso = classify(ProjMatrix(Fr(3), Fr(0), Fr(0), Fr(5)), Color.GREEN)
    assert iso.kind is RHO and iso.param == pp(3, 5)


def test_classify_rejects_wrong_shape_and_null_parameter():
    with pytest.raises(NotIsometry):
        classify(ProjMatrix(Fr(1), Fr(2), Fr(3), Fr(4)), Color.BLUE)
    # green reflection shape with a null parameter is singular as well
    with pytest.raises(NotIsometry):
        classify(ProjMatrix(Fr(0), Fr(1), Fr(0), Fr(0)), Color.GREEN)


def test_classify_round_trip():
    rng = random.Random(11)
    for color in Color:
        for _ in range(100):
            iso = ProjIsometry(color, rng.choice((RHO, SIGMA)), rand_nonnull(color, rng))
            back = classify(matrix_of(iso), color)
            assert back.kind is iso.kind
            assert back.param == iso.param
            assert matrix_of(back) == matrix_of(iso)


def test_classify_inverts_matrix_of_over_f7():
    for color in Color:
        for kind in IsoKind:
            for param in proj_points(7):
                iso = ProjIsometry(color, kind, param)
                if is_null_for(color, param):
                    with pytest.raises(NotIsometry):
                        classify(matrix_of(iso), color)
                else:
                    assert classify(matrix_of(iso), color) == iso


def classify_lines():
    """classify's result or error line, for each colour, on every nonzero
    matrix over F_7 and every integer matrix with entries in [-3, 3]."""
    over_f7 = [tuple(Fp(v, 7) for v in e) for e in itertools.product(range(7), repeat=4)]
    small = list(itertools.product(range(-3, 4), repeat=4))
    lines = []
    for entries in over_f7 + small:
        if not any(entries):
            continue  # ProjMatrix rejects the zero matrix
        for color in Color:
            try:
                iso = classify(ProjMatrix(*entries), color)
                lines.append(f"{iso.kind}:{iso.color}:{iso.param}")
            except NotIsometry as exc:
                lines.append(f"NotIsometry: {exc}")
    return lines


def test_classify_results_are_pinned():
    # the digest pins the result or the error message of 14,400 classify calls
    digest = hashlib.sha256("\n".join(classify_lines()).encode()).hexdigest()
    assert digest == (
        "f55644feace5e2b058aac94c4d939f692b04a3c6c3598bf1ec5f1b4c88b5d68d")


def test_multiply_points_examples():
    assert multiply_points(Color.GREEN, pp(2, 3), pp(2, 3)) == pp(4, 9)
    assert multiply_points(Color.BLUE, pp(1, 2), pp(3, 1)) == pp(1, 7)
    assert multiply_points(Color.RED, pp(2, 1), pp(3, 1)) == pp(7, 5)
    with pytest.raises(NullParameter):
        multiply_points(Color.GREEN, pp(1, 0), pp(2, 3))
    with pytest.raises(NullParameter, match="-null$"):
        point_inverse(Color.GREEN, pp(1, 0))
    with pytest.raises(NullParameter, match="-null$"):
        point_power(Color.RED, pp(1, 1), 2)


def test_multiplication_laws():
    rng = random.Random(13)
    for color in Color:
        ident = point_identity(color)
        for _ in range(200):
            p1 = rand_nonnull(color, rng)
            p2 = rand_nonnull(color, rng)
            p3 = rand_nonnull(color, rng)
            assert multiply_points(color, multiply_points(color, p1, p2), p3) \
                == multiply_points(color, p1, multiply_points(color, p2, p3))
            assert multiply_points(color, p1, p2) == multiply_points(color, p2, p1)
            assert multiply_points(color, p1, ident) == p1
            assert multiply_points(color, p1, point_inverse(color, p1)) == ident
            assert not is_null_for(color, multiply_points(color, p1, p2))


def test_multiplication_matches_rotation_composition():
    rng = random.Random(17)
    for color in Color:
        for _ in range(100):
            p1 = rand_nonnull(color, rng)
            p2 = rand_nonnull(color, rng)
            rot = compose(ProjIsometry(color, RHO, p1), ProjIsometry(color, RHO, p2))
            assert rot.param == multiply_points(color, p1, p2)


def test_point_power_examples():
    assert point_power(Color.GREEN, pp(2, 3), 3) == pp(8, 27)
    rng = random.Random(19)
    for color in Color:
        p = rand_nonnull(color, rng)
        assert point_power(color, p, 1) == p
    assert point_power(Color.BLUE, pp(0, 1), 2) == pp(1, 0)


def test_green_power_is_coordinatewise():
    rng = random.Random(23)
    for _ in range(100):
        p = rand_nonnull(Color.GREEN, rng)
        for n in (2, 3, 5):
            assert point_power(Color.GREEN, p, n) == ProjPoint(p.x ** n, p.y ** n)


def test_blue_sqrt_examples():
    assert blue_sqrt(pp(0, 1)) == pp(1, 1)
    assert multiply_points(Color.BLUE, pp(1, 1), pp(1, 1)) == pp(0, 1)
    assert blue_sqrt(pp(1, 0)) == pp(1, 0)
    assert blue_sqrt(pp(-1, 0)) == pp(1, 0)
    root = blue_sqrt(pp(3, 4))
    assert root == pp(2, 1)
    assert multiply_points(Color.BLUE, root, root) == pp(3, 4)


def test_blue_sqrt_rejects_nonsquare_norm():
    with pytest.raises(NotUnitCircle):
        blue_sqrt(pp(1, 1))  # x^2 + y^2 = 2 is not a rational square


def test_blue_sqrt_round_trip_on_unit_circle():
    rng = random.Random(42)
    count = 0
    while count < 100:
        t = Fr(rng.randint(-20, 20), rng.randint(1, 20))
        p = ProjPoint(1 - t * t, 2 * t)  # scales onto the unit circle
        root = blue_sqrt(p)
        assert multiply_points(Color.BLUE, root, root) == p
        count += 1


def test_blue_sqrt_f13():
    for point in proj_points(13):
        try:
            root = blue_sqrt(point)
        except NotUnitCircle:
            continue
        assert multiply_points(Color.BLUE, root, root) == point


def test_quadrance_preservation_random():
    rng = random.Random(29)
    for color in Color:
        for _ in range(200):
            iso = ProjIsometry(color, rng.choice((RHO, SIGMA)), rand_nonnull(color, rng))
            a1 = rand_nonnull(color, rng)
            a2 = rand_nonnull(color, rng)
            before = colored_quadrance(color, a1, a2)
            assert colored_quadrance(color, apply(iso, a1), apply(iso, a2)) == before


def test_quadrance_preservation_exhaustive():
    for p in (5, 7, 11, 13):
        pts = proj_points(p)
        for color in Color:
            good = [a for a in pts if not is_null_for(color, a)]
            for kind in IsoKind:
                for param in good:
                    iso = ProjIsometry(color, kind, param)
                    images = {id(a): apply(iso, a) for a in good}
                    for a1 in good:
                        for a2 in good:
                            before = colored_quadrance(color, a1, a2)
                            after = colored_quadrance(color, images[id(a1)],
                                                      images[id(a2)])
                            assert before == after


def test_isometry_maps_null_points_fine():
    # null points transform without error; only quadrance needs non-null inputs
    iso = make_isometry(Color.GREEN, RHO, pp(2, 3))
    img = apply(iso, pp(1, 0))
    assert img == pp(2, 0)


def test_green_power_spread_bridge_random():
    rng = random.Random(31)
    one_one = pp(1, 1)
    for _ in range(100):
        p = rand_nonnull(Color.GREEN, rng)
        if p == one_one or p == pp(1, -1):
            continue
        s = colored_quadrance(Color.GREEN, one_one, p)
        for n in range(1, 9):
            pn = point_power(Color.GREEN, p, n)
            assert colored_quadrance(Color.GREEN, one_one, pn) \
                == poly_eval(spread_poly(n), s)


def test_green_power_spread_bridge_f13():
    pts = proj_points(13)
    one_one = ProjPoint(Fp(1, 13), Fp(1, 13))
    for p in pts:
        if is_null_for(Color.GREEN, p):
            continue
        s = colored_quadrance(Color.GREEN, one_one, p)
        for n in range(1, 9):
            pn = point_power(Color.GREEN, p, n)
            assert colored_quadrance(Color.GREEN, one_one, pn) \
                == poly_eval(spread_poly(n), s)


def test_preservation_also_holds_under_general_projective_quadrance():
    # the colored quadrance equals the general-form quadrance, so isometries
    # preserve that route too
    from quadrance.projective import p_quadrance

    rng = random.Random(37)
    for color in Color:
        form = colored_form(color)
        iso = ProjIsometry(color, RHO, rand_nonnull(color, rng))
        for _ in range(50):
            a1 = rand_nonnull(color, rng)
            a2 = rand_nonnull(color, rng)
            assert p_quadrance(form, apply(iso, a1), apply(iso, a2)) \
                == p_quadrance(form, a1, a2)
