import random
from fractions import Fraction as Fr

import pytest

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
    exact_div,
    field_sqrt,
    is_prime,
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
