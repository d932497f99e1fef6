import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from quadrance.errors import DivisionByZero, FactorizationFailure
from quadrance.field import Fp, make_context
from quadrance.projective import triple_spread_fn
from quadrance.spreadpoly import (
    IntPolynomial,
    _exact_poly_div,
    chebyshev_T,
    divisors,
    poly_compose,
    poly_eval,
    spread_at_green_ratio,
    spread_cyclotomic,
    spread_poly,
    spread_via_chebyshev,
)

FIRST_SPREAD_POLYS = {
    0: [],
    1: [0, 1],
    2: [0, 4, -4],
    3: [0, 9, -24, 16],
    4: [0, 16, -80, 128, -64],
    5: [0, 25, -200, 560, -640, 256],
}


def test_polynomial_normalization():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0, 0]).coeffs == ()
    assert IntPolynomial([]).degree == -1
    assert IntPolynomial([5]).degree == 0


def test_polynomial_arithmetic():
    p = IntPolynomial([1, 1])
    q = IntPolynomial([-1, 1])
    assert p * q == IntPolynomial([-1, 0, 1])
    assert p + q == IntPolynomial([0, 2])
    assert p - p == IntPolynomial([])
    assert 3 * p == IntPolynomial([3, 3])


def test_spread_poly_table():
    for n, coeffs in FIRST_SPREAD_POLYS.items():
        assert list(spread_poly(n).coeffs) == coeffs


def test_spread_poly_factored_forms():
    s = IntPolynomial([0, 1])
    one_minus_s = IntPolynomial([1, -1])
    two_s_minus_1 = IntPolynomial([-1, 2])
    assert spread_poly(2) == 4 * s * one_minus_s
    assert spread_poly(3) == s * IntPolynomial([-3, 4]) * IntPolynomial([-3, 4])
    assert spread_poly(4) == 16 * s * one_minus_s * two_s_minus_1 * two_s_minus_1
    assert spread_poly(5) == s * IntPolynomial([5, -20, 16]) * IntPolynomial([5, -20, 16])


def test_degree_and_leading_coefficient():
    for n in range(1, 17):
        poly = spread_poly(n)
        assert poly.degree == n
        assert abs(poly.leading) == 4 ** (n - 1)
        assert poly.leading == (-4) ** (n - 1)  # observed sign


def test_recurrence_satisfies_triple_spread():
    rng = random.Random(42)
    samples = [Fr(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(200)]
    for n in range(1, 13):
        prev, cur = spread_poly(n - 1), spread_poly(n)
        for s in samples:
            assert triple_spread_fn(poly_eval(prev, s), s, poly_eval(cur, s)) == 0


def test_poly_eval_examples():
    assert poly_eval(spread_poly(2), Fr(1, 2)) == 1
    assert poly_eval(spread_poly(3), Fr(1, 2)) == Fr(1, 2)
    assert poly_eval(spread_poly(3), Fp(2, 5)) == Fp(0, 5)


def test_poly_eval_zero_polynomial():
    assert poly_eval(IntPolynomial([]), Fr(7)) == 0
    assert poly_eval(IntPolynomial([]), Fp(3, 13)) == Fp(0, 13)


def test_poly_compose_examples():
    assert poly_compose(spread_poly(2), spread_poly(2)) == spread_poly(4)
    assert poly_compose(spread_poly(2), spread_poly(3)) == spread_poly(6)
    x = IntPolynomial([0, 1])
    for n in range(7):
        assert poly_compose(spread_poly(n), x) == spread_poly(n)


def test_composition_law_full_table():
    for n in range(1, 7):
        for m in range(1, 7):
            assert poly_compose(spread_poly(n), spread_poly(m)) == spread_poly(n * m)


def test_chebyshev_examples():
    assert chebyshev_T(0) == IntPolynomial([1])
    assert chebyshev_T(1) == IntPolynomial([0, 1])
    assert chebyshev_T(2) == IntPolynomial([-1, 0, 2])
    assert chebyshev_T(3) == IntPolynomial([0, -3, 0, 4])


def test_spread_via_chebyshev():
    assert spread_via_chebyshev(1) == IntPolynomial([0, 1])
    assert spread_via_chebyshev(3) == spread_poly(3)
    for n in range(1, 17):
        assert spread_via_chebyshev(n) == spread_poly(n)


def test_spread_cyclotomic_examples():
    assert spread_cyclotomic(1) == IntPolynomial([0, 1])
    assert spread_cyclotomic(2) == IntPolynomial([4, -4])
    assert spread_cyclotomic(4) == IntPolynomial([4, -16, 16])


def test_spread_cyclotomic_product_and_degrees():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 61):
        product = IntPolynomial([1])
        for k in divisors(n):
            phi = spread_cyclotomic(k)
            assert phi.degree == totient(k)
            assert all(isinstance(c, int) for c in phi.coeffs)
            product = product * phi
        assert product == spread_poly(n)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(13) == [1, 13]


def test_logistic_map():
    assert spread_poly(2) == IntPolynomial([0, 4, -4])


def test_green_ratio_examples():
    for n in (1, 2, 5):
        res = spread_at_green_ratio(Fr(1), Fr(1), n)
        assert res.s == 0 and res.sn_of_s == 0 and res.closed_form == 0
    res = spread_at_green_ratio(Fr(1), Fr(2), 2)
    assert res.s == Fr(-1, 8)
    assert res.sn_of_s == Fr(-9, 16) and res.closed_form == Fr(-9, 16)
    res = spread_at_green_ratio(Fr(1), Fr(2), 3)
    assert res.sn_of_s == Fr(-49, 32) and res.closed_form == Fr(-49, 32)


def test_green_ratio_zero_coordinate_raises():
    with pytest.raises(DivisionByZero):
        spread_at_green_ratio(Fr(0), Fr(2), 2)
    with pytest.raises(DivisionByZero):
        spread_at_green_ratio(Fr(1), Fr(0), 2)


def test_green_ratio_agreement_random_and_f13():
    rng = random.Random(42)
    for _ in range(100):
        x = Fr(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        y = Fr(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        for n in range(1, 9):
            res = spread_at_green_ratio(x, y, n)
            assert res.sn_of_s == res.closed_form
    ctx = make_context("fp:13")
    for xr in range(1, 13):
        for yr in range(1, 13):
            for n in range(1, 9):
                res = spread_at_green_ratio(Fp(xr, 13), Fp(yr, 13), n)
                assert res.sn_of_s == res.closed_form


def test_memoization_transparent():
    # recomputing from a fresh index order gives identical polynomials
    a = spread_poly(12)
    b = spread_poly(12)
    assert a is b  # cached
    fresh = poly_compose(spread_poly(4), spread_poly(3))
    assert fresh == a


def test_caches_safe_under_concurrent_use():
    import threading

    results = []

    def worker():
        results.append((spread_poly(40), chebyshev_T(40), spread_cyclotomic(24)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)
    assert results[0][0] == spread_via_chebyshev(40)


def test_built_entries_are_read_without_the_lock(monkeypatch):
    from quadrance import spreadpoly

    class Refusing:
        def __enter__(self):
            raise AssertionError("lock taken")

        def __exit__(self, *exc):
            return False

    built = (spread_poly(12), chebyshev_T(12))
    monkeypatch.setattr(spreadpoly, "_cache_lock", Refusing())
    for k in range(13):
        assert spread_poly(k) is spreadpoly._spread_cache[k]
        assert chebyshev_T(k) is spreadpoly._cheb_cache[k]
    assert (spread_poly(12), chebyshev_T(12)) == built
    # a new index is built under the lock
    for poly, cache in ((spread_poly, spreadpoly._spread_cache),
                        (chebyshev_T, spreadpoly._cheb_cache)):
        with pytest.raises(AssertionError, match="lock taken"):
            poly(len(cache))


def test_lock_free_reads_race_with_appends(monkeypatch):
    # fresh caches, built by many threads at once in different orders, with
    # a short switch interval: every lookup returns the one built entry
    import sys
    import threading

    from quadrance import spreadpoly

    want = [spread_poly(k) for k in range(60)], [chebyshev_T(k) for k in range(60)]
    monkeypatch.setattr(spreadpoly, "_spread_cache", spreadpoly._spread_cache[:2])
    monkeypatch.setattr(spreadpoly, "_cheb_cache", spreadpoly._cheb_cache[:2])
    wrong = []

    def worker(seed):
        order = list(range(60))
        random.Random(seed).shuffle(order)
        for k in order:
            if (spread_poly(k), chebyshev_T(k)) != (want[0][k], want[1][k]):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(spreadpoly._spread_cache) == len(spreadpoly._cheb_cache) == 60


def test_exact_division_failure_paths(monkeypatch):
    from quadrance import spreadpoly
    from quadrance.spreadpoly import _exact_poly_div

    with pytest.raises(FactorizationFailure):
        _exact_poly_div(IntPolynomial([1, 1]), IntPolynomial([1, 2]))
    with pytest.raises(FactorizationFailure):
        _exact_poly_div(IntPolynomial([0, 1]), IntPolynomial([]))
    # a factor of the wrong degree is refused, and not cached
    totient = spreadpoly._totient
    monkeypatch.setattr(spreadpoly, "_totient", lambda n: totient(n) + 1)
    monkeypatch.setattr(spreadpoly, "_phi_cache", {})
    with pytest.raises(FactorizationFailure, match="^factor 1 has degree 1, expected 2$"):
        spread_cyclotomic(3)
    assert spreadpoly._phi_cache == {}


def test_polynomial_str_rows():
    assert str(spread_poly(0)) == "0"
    assert str(spread_poly(1)) == "0 1"
    assert str(spread_poly(2)) == "0 4 -4"


def _fraction_long_division(num, den):
    """Rational long division: the quotient and remainder coefficients as Fractions."""
    rem = [Fr(c) for c in num.coeffs]
    dcs = den.coeffs
    dd = len(dcs) - 1
    quot = [Fr(0)] * max(len(rem) - dd, 0)
    for shift in reversed(range(len(quot))):
        factor = rem[shift + dd] / dcs[-1]
        quot[shift] = factor
        for i, c in enumerate(dcs):
            rem[shift + i] -= factor * c
    return quot, rem


_coeffs = st.lists(st.integers(-40, 40), max_size=7)
_nonzero_lead = st.integers(-6, 6).filter(bool)


@st.composite
def _division_cases(draw):
    # divisors with any nonzero leading coefficient, unit or not, either sign
    den = IntPolynomial(draw(st.lists(st.integers(-40, 40), max_size=4)) + [draw(_nonzero_lead)])
    kind = draw(st.sampled_from(("exact product", "product plus remainder", "arbitrary")))
    num = IntPolynomial(draw(_coeffs))
    if kind != "arbitrary":
        num = num * den
        if kind == "product plus remainder":
            num = num + IntPolynomial(draw(_coeffs))
    return num, den


@settings(max_examples=400, deadline=None)
@given(_division_cases())
def test_exact_division_matches_fraction_oracle(case):
    num, den = case
    quot, rem = _fraction_long_division(num, den)
    if any(rem) or any(q.denominator != 1 for q in quot):
        with pytest.raises(FactorizationFailure):
            _exact_poly_div(num, den)
    else:
        expected = IntPolynomial([int(q) for q in quot])
        assert expected * den == num
        assert _exact_poly_div(num, den) == expected


# -- poly_eval at a rational s = a/b: integer Horner, one division by b^n ------

_rationals = st.builds(Fr, st.integers(-10**6, 10**6) | st.integers(-3, 3),
                       st.integers(1, 10**6))


def _fraction_horner(coeffs, s):
    acc = Fr(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(-10**9, 10**9), max_size=12).map(IntPolynomial),
                 st.integers(0, 40).map(spread_poly)),
       _rationals)
def test_poly_eval_at_a_rational_matches_fraction_horner(poly, s):
    value = poly_eval(poly, s)
    assert type(value) is Fr
    assert value == _fraction_horner(poly.coeffs, s)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=8).map(IntPolynomial), st.integers(-50, 50),
       st.sampled_from([7, 13, 10007]))
def test_poly_eval_keeps_int_and_fp_types(poly, s, p):
    exact = _fraction_horner(poly.coeffs, Fr(s))
    value = poly_eval(poly, s)
    assert type(value) is int and value == exact
    value = poly_eval(poly, Fp(s, p))
    assert type(value) is Fp and value == Fp(int(exact), p)

