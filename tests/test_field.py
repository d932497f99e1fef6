import operator
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from quadrance.errors import (
    CharacteristicTwo,
    DivisionByZero,
    InfiniteField,
    MixedContexts,
    NotPrime,
    ParseError,
)
from quadrance.field import (
    Fp,
    PrimeContext,
    RationalContext,
    Scaled,
    clear_denominators,
    exact_div,
    field_sqrt,
    is_prime,
    lift_scaled,
    make_context,
)

SMALL_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_make_context_rationals():
    ctx = make_context("rationals")
    assert ctx.kind == "rationals"
    assert ctx.descriptor == "rationals"


def test_make_context_prime_field():
    ctx = make_context("fp:13")
    assert ctx.kind == "fp"
    assert ctx.p == 13
    assert ctx.descriptor == "fp:13"


def test_make_context_rejects_characteristic_two():
    with pytest.raises(CharacteristicTwo):
        make_context("fp:2")


def test_make_context_rejects_composite():
    with pytest.raises(NotPrime):
        make_context("fp:9")
    with pytest.raises(NotPrime):
        make_context("fp:1")


def test_make_context_rejects_junk():
    with pytest.raises(ParseError):
        make_context("reals")
    with pytest.raises(ParseError):
        make_context("fp:abc")
    with pytest.raises(ParseError):  # int() reads it as F_13; values refuse '_' too
        make_context("fp:1_3")


def test_make_context_rejects_oversized_modulus():
    with pytest.raises(NotPrime):
        make_context(f"fp:{2 ** 70 + 1}")


def test_is_prime_small_table():
    primes = {n for n in range(200) if is_prime(n)}
    expected = set()
    for n in range(2, 200):
        if all(n % d for d in range(2, n)):
            expected.add(n)
    assert primes == expected


def test_rational_arithmetic_exact():
    assert Fr(2, 3) + Fr(1, 6) == Fr(5, 6)


def test_fp_inverse_matches_brute_force():
    # independent oracle: search the residues for the inverse of 5 mod 13
    found = [r for r in range(13) if (5 * r) % 13 == 1]
    assert found == [8]
    assert Fp(5, 13) ** -1 == Fp(8, 13)
    assert 1 / Fp(5, 13) == Fp(8, 13)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        exact_div(1, Fr(0))
    with pytest.raises(DivisionByZero):
        1 / Fp(0, 13)
    with pytest.raises(DivisionByZero):
        Fp(3, 13) / Fp(0, 13)


def test_mixed_contexts_raise():
    with pytest.raises(MixedContexts):
        Fp(1, 5) + Fp(1, 7)
    with pytest.raises(MixedContexts):
        Fp(1, 5) * Fr(1, 2)
    with pytest.raises(MixedContexts):
        Fr(1, 2) - Fp(1, 5)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(MixedContexts):
            op(Fp(1, 5), Fp(2, 7))
        with pytest.raises(MixedContexts):
            op(Fp(1, 5), Fr(1, 2))
        with pytest.raises(MixedContexts):
            op(Fr(1, 2), Fp(1, 5))
    assert Fp(1, 5) != Fp(1, 7)


def test_fp_operators_match_integer_residues():
    # every result is an Fp reduced into 0..p-1, as plain int arithmetic says
    p = 7
    for a in range(p):
        for b in range(p):
            x, y = Fp(a, p), Fp(b, p)
            results = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
                       (x ** 3, a ** 3), (x + b, a + b), (b - x, b - a)]
            if b:
                results += [(x / y, a * pow(b, -1, p)), (a / y, a * pow(b, -1, p))]
            for got, want in results:
                assert type(got) is Fp and got.p == p
                assert got.r == want % p
            assert (x == y) == (a == b)


def test_fp_int_lifting():
    x = Fp(5, 7)
    assert x + 4 == Fp(2, 7)
    assert 3 * x == Fp(1, 7)
    assert 1 - x == Fp(3, 7)
    assert x == 12  # reduced mod 7
    assert -x == Fp(2, 7)


def test_fp_hashes_like_the_int_residue_it_equals():
    from quadrance.projective import ProjPoint

    assert Fp(3, 7) == 3 and hash(Fp(3, 7)) == hash(3)
    assert {Fp(r, 7) for r in range(7)} == set(range(7))
    # one point, one entry, whether its coordinates are Fp or int residues
    assert len({ProjPoint(Fp(2, 7), Fp(6, 7)), ProjPoint(2, 6)}) == 1


def test_enumerate_elements():
    ctx5 = make_context("fp:5")
    assert [e.r for e in ctx5.enumerate_elements()] == [0, 1, 2, 3, 4]
    ctx3 = make_context("fp:3")
    assert [e.r for e in ctx3.enumerate_elements()] == [0, 1, 2]
    with pytest.raises(InfiniteField):
        make_context("rationals").enumerate_elements()


def test_sqrt_rational_examples():
    ctx = make_context("rationals")
    assert ctx.sqrt(Fr(9, 4)) == Fr(3, 2)
    assert ctx.sqrt(Fr(2)) is None
    assert ctx.sqrt(Fr(0)) == 0
    assert ctx.sqrt(Fr(-1)) is None


def test_sqrt_fp_matches_brute_force():
    # independent oracle: all residues r with r^2 = 3 mod 13
    roots = [r for r in range(13) if (r * r) % 13 == 3]
    assert roots == [4, 9]
    ctx = make_context("fp:13")
    assert ctx.sqrt(Fp(3, 13)) == Fp(4, 13)  # canonical smaller root


def test_sqrt_fp_nonresidue_is_none():
    ctx = make_context("fp:13")
    squares = {(r * r) % 13 for r in range(13)}
    for t in range(13):
        got = ctx.sqrt(Fp(t, 13))
        if t in squares:
            assert got is not None and got * got == Fp(t, 13)
            if t != 0:
                assert got.r <= 13 - got.r
        else:
            assert got is None


def test_sqrt_round_trip_exhaustive_small_primes():
    for p in SMALL_ODD_PRIMES:
        ctx = make_context(f"fp:{p}")
        for t in ctx.enumerate_elements():
            r = ctx.sqrt(t)
            if r is not None:
                assert r * r == t


def test_inverse_law_exhaustive_small_primes():
    for p in SMALL_ODD_PRIMES:
        for r in range(1, p):
            a = Fp(r, p)
            assert a * (1 / a) == Fp(1, p)


def test_inverse_law_randomized_rationals():
    rng = random.Random(42)
    for _ in range(1000):
        a = Fr(rng.randint(-999, 999), rng.randint(1, 999))
        if a != 0:
            assert a * exact_div(1, a) == 1


def test_rational_normalization_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        a = Fr(rng.randint(-500, 500), rng.randint(1, 500))
        again = Fr(a.numerator, a.denominator)
        assert (again.numerator, again.denominator) == (a.numerator, a.denominator)
        assert a.denominator > 0


def test_parse_format_round_trip():
    ctx = make_context("rationals")
    for text in ["2/3", "-7", "0", "22/7", "-3/4"]:
        assert ctx.format(ctx.parse(text)) == text
    ctx13 = make_context("fp:13")
    assert ctx13.format(ctx13.parse("5")) == "5"
    assert ctx13.format(ctx13.parse("-1")) == "12"
    with pytest.raises(ParseError):
        ctx.parse("x")
    with pytest.raises(ParseError):
        ctx13.parse("1/2")


@pytest.mark.parametrize("field", ["rationals", "fp:13"])
@pytest.mark.parametrize("literal", ["1_000", "1_0/3", "1e1_0"])
def test_no_field_takes_digit_separators(field, literal):
    # Fraction reads them only from Python 3.11 on, and int() on every
    # version: both fields refuse them, whatever the Python
    with pytest.raises(ParseError):
        make_context(field).parse(literal)


def test_format_denominator_one_omitted():
    ctx = make_context("rationals")
    assert ctx.format(Fr(8, 4)) == "2"
    assert ctx.format(Fr(5, 6)) == "5/6"


def test_exact_div_never_floats():
    assert exact_div(1, 2) == Fr(1, 2)
    assert isinstance(exact_div(1, 2), Fr)
    assert exact_div(Fp(1, 7), Fp(2, 7)) == Fp(4, 7)
    with pytest.raises(DivisionByZero):
        exact_div(1, 0)


def test_contexts_reject_foreign_values_with_library_errors():
    rationals, f13 = make_context("rationals"), make_context("fp:13")
    assert rationals.sqrt(4) == 2 and f13.sqrt(3) == Fp(4, 13)
    for ctx, foreign in ((rationals, Fp(3, 13)), (f13, Fr(1, 2)), (f13, Fp(3, 7))):
        with pytest.raises(MixedContexts):
            ctx.sqrt(foreign)
        with pytest.raises(MixedContexts):
            ctx.format(foreign)
    with pytest.raises(DivisionByZero, match="^division by zero$"):
        exact_div(Fr(1), Fr(0))
    with pytest.raises(DivisionByZero, match="in F_7"):
        exact_div(Fp(1, 7), Fp(0, 7))


def test_field_sqrt_dispatches():
    assert field_sqrt(Fr(9, 4)) == Fr(3, 2)
    assert field_sqrt(4) == 2
    assert field_sqrt(Fp(3, 13)) == Fp(4, 13)


def test_contexts_compare_and_cache():
    assert make_context("fp:13") is make_context("fp:13")
    assert make_context("rationals") == make_context("rationals")
    assert make_context("fp:5") != make_context("fp:7")


def test_fresh_contexts_equal_and_hash_like_the_cached_ones():
    rationals, f7 = make_context("rationals"), make_context("fp:7")
    assert RationalContext() == rationals and hash(RationalContext()) == hash(rationals)
    assert PrimeContext(7) == f7 and hash(PrimeContext(7)) == hash(f7)
    assert len({RationalContext(), rationals, PrimeContext(7), f7}) == 2
    assert RationalContext() != PrimeContext(7) and PrimeContext(7) != RationalContext()
    assert rationals != f7
    assert PrimeContext(5) != PrimeContext(7)
    for ctx in (RationalContext(), rationals):
        for value, want in ((ctx.zero(), 0), (ctx.one(), 1), (ctx.sqrt(Fr(9, 4)), Fr(3, 2))):
            assert type(value) is Fr and value == want
    for ctx in (PrimeContext(7), f7):
        for value, want in ((ctx.zero(), 0), (ctx.one(), 1), (ctx.sqrt(ctx.from_int(2)), 3)):
            assert type(value) is Fp and value.p == 7 and value.r == want


def test_clear_denominators():
    assert clear_denominators((Fr(1, 2), Fr(1, 3))) == [3, 2]
    assert clear_denominators((Fr(-3, 4), 0, 5, Fr(1, 6))) == [-9, 0, 60, 2]
    assert all(type(v) is int for v in clear_denominators((Fr(2), Fr(-5))))
    # no Fraction, or a Fraction mixed with a residue: the values come back as given
    for values in ((1, 2, 3), (Fp(1, 7), Fp(3, 7)), (Fr(1, 2), Fp(3, 7))):
        assert clear_denominators(values) is values


_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=60)


def test_lift_scaled_puts_values_over_the_lcm_of_their_denominators():
    lifted = lift_scaled((Fr(1, 2), Fr(-1, 3), 5))
    assert [(v.n, v.k, v.pw[1]) for v in lifted] == [(3, 1, 6), (-2, 1, 6), (30, 1, 6)]
    assert [str(v) for v in lifted] == ["1/2", "-1/3", "5"]


@given(st.lists(_fractions, min_size=2, max_size=4), st.integers(0, 3), st.integers(0, 3),
       st.integers(-20, 20), st.integers(0, 4))
def test_scaled_arithmetic_matches_fraction(values, j, m, c, e):
    lifted = lift_scaled(values)
    x, y = lifted[0] ** j, lifted[-1] ** m  # powers k = j and m of the common D
    fx, fy = values[0] ** j, values[-1] ** m
    results = [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (-x, -fx),
               (x ** e, fx ** e), (x + c, fx + c), (c + x, c + fx), (x - c, fx - c),
               (c - x, c - fx), (x * c, fx * c), (c * x, c * fx)]
    for got, want in results:
        assert type(got) is Scaled
        assert got == want and str(got) == str(want)
        assert (got == c) == (want == c)
        assert (got == want.numerator) == (want.denominator == 1)
    assert (x == y) == (fx == fy) and (x != y) == (fx != fy)
    assert bool(x) == bool(fx)
    if fy:
        assert x / y == fx / fy and type(x / y) is Fr
    if fx:
        assert c / x == c / fx and type(c / x) is Fr


@given(st.lists(_fractions, min_size=1, max_size=4), st.lists(st.integers(0, 2), min_size=4,
                                                               max_size=4),
       st.integers(-20, 20))
def test_same_lift_path_matches_fraction(values, exponents, c):
    # values of one lift, raised to exponents that are often equal: + and -
    # take the direct path exactly when the exponents agree, * always does
    lifted = lift_scaled(values)
    pairs = [(x ** k, v ** k) for x, v, k in zip(lifted, values, exponents)]
    pairs.append((lifted[0] ** exponents[0] * c, values[0] ** exponents[0] * c))
    for x, fx in pairs:
        for y, fy in pairs:
            for got, want in ((x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy),
                              (x * y - y * x, 0), (x * y + x, fx * fy + fx)):
                assert type(got) is Scaled and got.pw is lifted[0].pw
                assert got == want and str(got) == str(want)
            assert (x == y) == (fx == fy)
    # the direct path checks the lift, not only the exponent: another lift
    # of the same values, and an unlifted Fraction, still raise
    (x,), (other,) = lift_scaled([values[0]]), lift_scaled([values[0]])
    assert (x.k, x.n) == (other.k, other.n)
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        for foreign in (other, Fp(3, 7)):
            with pytest.raises(TypeError):
                op(x, foreign)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, values[0])


def test_int_entries_beside_lifted_ones_print_and_hash():
    # canonical() divides by the first nonzero entry: an int over a Scaled here
    from quadrance.isometry import ProjMatrix
    from quadrance.projective import ProjPoint

    half = Fr(1, 2)
    (y, zero) = lift_scaled([half, 0])
    assert exact_div(1, y) == 2 and type(exact_div(1, y)) is Fr
    with pytest.raises(DivisionByZero):
        exact_div(1, zero)
    assert str(ProjPoint(0, y)) == str(ProjPoint(0, half)) == "[0:1]"
    assert str(ProjPoint(y, 3)) == str(ProjPoint(half, 3))
    assert hash(ProjMatrix(y, 0, 0, y)) == hash(ProjMatrix(half, 0, 0, half))
    assert hash(ProjMatrix(0, y, 1, 0)) == hash(ProjMatrix(0, half, 1, 0))


_OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


@given(_fractions, st.sampled_from(_OPERATORS))
def test_scaled_refuses_operands_it_cannot_place_over_its_denominator(value, op):
    (x,), (other_lift,) = lift_scaled([value]), lift_scaled([value])
    for foreign in (Fp(3, 7), value, other_lift):
        with pytest.raises(TypeError):
            op(x, foreign)
        with pytest.raises(TypeError):
            op(foreign, x)
    for foreign in (Fp(3, 7), other_lift):
        with pytest.raises(TypeError):
            x == foreign
        with pytest.raises(TypeError):
            foreign == x
