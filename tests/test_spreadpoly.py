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


def _three_term_rows(count, step, shift, first):
    """The first ``count`` rows of P_k = step * P_(k-1) - P_(k-2) + shift,
    from P_0 and P_1 in ``first``: the recurrence, as a reference."""
    rows = list(first)
    while len(rows) < count:
        rows.append(step * rows[-1] - rows[-2] + shift)
    return rows


def test_explicit_coefficients_match_the_recurrence():
    # S_n = 2(1 - 2s) S_(n-1) - S_(n-2) + 2s and T_n = 2x T_(n-1) - T_(n-2)
    x = IntPolynomial([0, 1])
    spread = _three_term_rows(400, IntPolynomial([2, -4]), IntPolynomial([0, 2]),
                              (IntPolynomial(), x))
    assert [spread_poly(n) for n in range(400)] == spread
    cheb = _three_term_rows(200, IntPolynomial([0, 2]), IntPolynomial(), (IntPolynomial([1]), x))
    assert [chebyshev_T(n) for n in range(200)] == cheb


def test_a_large_row_is_built_alone():
    # S_6000 = S_6 o S_1000, checked at one point mod a large prime
    big = spread_poly(6000)
    assert big.degree == 6000
    assert big.leading == (-4) ** 5999
    s = Fp(12345, 1000003)
    assert poly_eval(big, s) == poly_eval(spread_poly(6), poly_eval(spread_poly(1000), s))


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

    for n in range(1, 201):
        product = IntPolynomial([1])
        for k in divisors(n):
            phi = spread_cyclotomic(k)
            assert phi.degree == totient(k)
            assert all(isinstance(c, int) for c in phi.coeffs)
            product = product * phi
        assert product == spread_poly(n)


def _long_division_factors(top):
    """phi_1..phi_top by S_k's integer long division by phi_d for every proper
    divisor d, with no composition: an oracle independent of the recursion
    spread_cyclotomic uses."""
    phi = {}
    for k in range(1, top + 1):
        quotient = spread_poly(k)
        for d in divisors(k)[:-1]:
            quotient = _exact_poly_div(quotient, phi[d])
        phi[k] = quotient
    return phi


def test_composed_factors_match_long_division():
    # phi_k = phi_r o S_(k/r) for the radical r of k, built one prime at a
    # time: every k <= 400, squarefree or not
    oracle = _long_division_factors(400)
    for k in range(1, 401):
        assert spread_cyclotomic(k) == oracle[k], k


def test_a_power_of_two_factor_builds_only_s1_s2_and_one_composition(monkeypatch):
    from quadrance import spreadpoly

    asked = []
    right = spreadpoly.spread_poly
    monkeypatch.setattr(spreadpoly, "spread_poly", lambda n: asked.append(n) or right(n))
    phi = spread_cyclotomic(2 ** 10)
    # phi_2 = S_2 / S_1, and phi_1024 = phi_2 o S_512
    assert sorted(asked) == [1, 2, 512]
    assert phi.degree == 2 ** 9
    # the product of phi_(2^j), j <= 10, is S_1024, i.e. S_2 applied ten
    # times: checked at one point mod a large prime
    s, p = Fp(12345, 1000003), 1000003
    product, value = Fp(1, p), s
    for j in range(11):
        product = product * poly_eval(spread_cyclotomic(2 ** j), s)
    for _ in range(10):
        value = 4 * value * (1 - value)
    assert product == value


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
    assert a == b
    fresh = poly_compose(spread_poly(4), spread_poly(3))
    assert fresh == a


def test_kernels_safe_under_concurrent_use():
    # many threads at once with a short switch interval: every thread gets
    # the same polynomials
    import sys
    import threading

    results = []

    def worker():
        results.append((spread_poly(40), chebyshev_T(40), spread_cyclotomic(24)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r == results[0] for r in results)
    assert results[0][0] == spread_via_chebyshev(40)


def test_exact_division_failure_paths(monkeypatch):
    from quadrance import spreadpoly
    from quadrance.spreadpoly import _exact_poly_div

    with pytest.raises(FactorizationFailure):
        _exact_poly_div(IntPolynomial([1, 1]), IntPolynomial([1, 2]))
    with pytest.raises(FactorizationFailure):
        _exact_poly_div(IntPolynomial([0, 1]), IntPolynomial([]))
    # a factor of the wrong degree is refused
    totient = spreadpoly._totient
    monkeypatch.setattr(spreadpoly, "_totient", lambda n: totient(n) + 1)
    with pytest.raises(FactorizationFailure, match="^factor 3 has degree 2, expected 3$"):
        spread_cyclotomic(3)


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



# -- products and compositions by Kronecker substitution, against the loops ----

def _schoolbook(a, b):
    """The coefficients of the product of a and b by the double loop."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(p, q):
    """The coefficients of p(q), as acc * q + c from the top coefficient down,
    with every product by _schoolbook."""
    acc = []
    for c in reversed(p):
        acc = _schoolbook(acc, q) or [0]
        acc[0] += c
    return IntPolynomial(acc)


# 2^15000 has 4,516 digits: past the default int-string limit of 4,300
_PAST_STR_LIMIT = 1 << 15_000
_signs = st.sampled_from((1, -1))
# slots are whole bytes, so the slot width b is 8j: 2^(b-1) - 1 fills a
# slot, 2^(b-1) needs the next byte
_at_slot_boundary = st.builds(lambda sign, j, d: sign * ((1 << (8 * j - 1)) + d),
                              _signs, st.integers(1, 9), st.integers(-1, 1))
_coefficients = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                          _at_slot_boundary)
_past_str_limit = st.builds(lambda sign, d: sign * (_PAST_STR_LIMIT + d), _signs,
                            st.integers(-2, 2))
# around _LEAF = 16 coefficients and the next split, at 32
_split_lengths = st.sampled_from((0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 34))


@st.composite
def _polys(draw, lengths, coefficients=_coefficients):
    n = draw(lengths)
    cs = draw(st.lists(coefficients, min_size=n, max_size=n))
    if cs and draw(st.booleans()):
        cs[-1] = -abs(cs[-1]) or -1  # a negative leading coefficient
    return IntPolynomial(cs)


def _assert_products(a, b):
    want = IntPolynomial(_schoolbook(a.coeffs, b.coeffs))
    assert a * b == want
    assert b * a == want
    assert a * a == IntPolynomial(_schoolbook(a.coeffs, a.coeffs))


@settings(max_examples=300, deadline=None)
@given(_polys(_split_lengths), _polys(_split_lengths))
def test_products_match_the_schoolbook_loop(a, b):
    _assert_products(a, b)


@settings(max_examples=200, deadline=None)
@given(_polys(_split_lengths), _polys(st.integers(0, 4)))
def test_compositions_match_horner(p, q):
    # q of length 0 or 1 is the zero polynomial or a constant
    assert poly_compose(p, q) == _horner(p.coeffs, q.coeffs)


# every slot is as wide as the largest coefficient needs, so these stay short
@settings(max_examples=40, deadline=None)
@given(_polys(st.sampled_from((1, 2, 16, 17)), st.one_of(_coefficients, _past_str_limit)),
       _polys(st.integers(0, 3)))
def test_coefficients_past_the_int_string_limit(a, b):
    _assert_products(a, b)
    assert poly_compose(a, b) == _horner(a.coeffs, b.coeffs)


@pytest.mark.parametrize("j", range(1, 10))
def test_products_fill_a_slot_to_its_sign_bit(j):
    # a result coefficient of at most 2^(8j-1) - 1 takes j bytes a slot, and
    # these results have coefficients as large as a signed slot holds
    top = (1 << (8 * j - 1)) - 1
    for a in ([top, -top, top], [-top, top, -top], [0, top, 0, -top]):
        for b in ([1], [-1], [0, -1]):
            assert IntPolynomial(a) * IntPolynomial(b) == IntPolynomial(_schoolbook(a, b))
    for p in ([top], [-top], [0, top], [0, -top]):
        assert poly_compose(IntPolynomial(p), IntPolynomial([0, 1])) == IntPolynomial(p)


def _check_factors_multiply_back(n):
    """For every d | n, the product of phi_k over k | d is S_d, compared at
    one point mod the prime 2^127 - 1."""
    prime, x = (1 << 127) - 1, 123_456_789

    def at(poly):
        acc = 0
        for c in reversed(poly.coeffs):
            acc = (acc * x + c) % prime
        return acc

    phi = {k: at(spread_cyclotomic(k)) for k in divisors(n)}
    for d in divisors(n):
        assert math.prod(phi[k] for k in divisors(d)) % prime == at(spread_poly(d)), d


def test_the_factors_of_2520_multiply_back_to_each_spread_poly():
    _check_factors_multiply_back(2520)


def test_the_factors_of_squarefree_2310_multiply_back_to_each_spread_poly():
    # 2310 = 2 3 5 7 11: every factor but phi_1 divides by phi_m once
    _check_factors_multiply_back(2310)


ODD_PRIMES_TO_23 = [3, 5, 7, 11, 13, 17, 19, 23]


@pytest.mark.parametrize("p", ODD_PRIMES_TO_23)
def test_frobenius_s_p_fixes_every_residue(p):
    # S_p(s) = s over F_p, as x^p = x
    row = spread_poly(p)
    assert [poly_eval(row, s) % p for s in range(p)] == list(range(p))


@pytest.mark.parametrize("p", ODD_PRIMES_TO_23)
def test_s_n_permutes_f_p_exactly_when_n_is_prime_to_p_squared_minus_1(p):
    for n in range(1, 2 * (p + 1) + 1):
        row = spread_poly(n)
        image = {poly_eval(row, s) % p for s in range(p)}
        assert (len(image) == p) is (math.gcd(n, p * p - 1) == 1), n


def _values_mod(poly, p):
    """poly(s) mod p for s = 0..p-1."""
    cs = [c % p for c in poly.coeffs]
    out = []
    for s in range(p):
        acc = 0
        for c in reversed(cs):
            acc = (acc * s + c) % p
        out.append(acc)
    return out


ODD_PRIMES_TO_60 = [p for p in range(3, 60, 2) if all(p % q for q in range(3, p, 2))]


def test_spread_cyclotomic_roots_mod_p():
    # phi_k vanishes at s = (2 - z - 1/z) / 4 exactly when z has order k;
    # over F_p, p not dividing k, s lies in F_p when z lies in F_p or in the
    # norm-one elements of F_(p^2).  So phi_k has a root iff k | p - 1 or
    # k | p + 1, and then deg phi_k / 2 distinct ones for k >= 3 (z and 1/z
    # give one s); phi_2 = 4 - 4s always has its one root
    phis = {k: spread_cyclotomic(k) for k in range(2, 61)}
    pairs = 0
    for p in ODD_PRIMES_TO_60:
        for k, phi in phis.items():
            if k % p == 0:
                continue
            pairs += 1
            split = (p - 1) % k == 0 or (p + 1) % k == 0
            assert _values_mod(phi, p).count(0) == ((phi.degree + 1) // 2 if split else 0), (p, k)
    assert pairs == 878


@pytest.mark.parametrize("p", ODD_PRIMES_TO_23)
def test_spread_sequences_mod_p_repeat_with_period_p_minus_or_plus_1(p):
    # S_n(s) = (2 - z^n - 1/z^n) / 4 for s = (2 - z - 1/z) / 4, and z lies
    # in F_p or in the norm-one elements of F_(p^2): z^(p-1) or z^(p+1) is 1
    rows = [_values_mod(spread_poly(n), p) for n in range(2 * (p + 1) + 1)]
    for s in range(p):
        seq = [row[s] for row in rows]
        assert any(all(seq[n + d] == seq[n] for n in range(len(seq) - d))
                   for d in (p - 1, p + 1)), s
