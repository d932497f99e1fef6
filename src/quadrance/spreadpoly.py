"""Integer-coefficient polynomial engine for spread polynomials.

The spread polynomials satisfy S0 = 0, S1 = s and
S_n = 2(1 - 2s) S_{n-1} - S_{n-2} + 2s; they compose multiplicatively
(S_n o S_m = S_nm), relate to the Chebyshev polynomials of the first kind
by S_n(s) = (1 - T_n(1 - 2s)) / 2, and factor into integer polynomials
phi_k of degree totient(k) with S_n = prod over k | n of phi_k. The
coefficients are Python ints, and the factors are found by integer long
division.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import (DivisionByZero, FactorizationFailure, FrozenRecord, InvalidArgument,
                     NonIntegralResult)
from .field import decimal_str, exact_div

_set = object.__setattr__


class IntPolynomial:
    """Dense integer-coefficient polynomial; index = degree, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " ".join(map(decimal_str, self.coeffs))


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
X = IntPolynomial([0, 1])


def poly_eval(poly: IntPolynomial, s):
    """Exact Horner evaluation of an integer polynomial at a field element.

    At a rational s = a/b the sum of c_i a^i b^(n-i) is built in integers
    and divided by b^n once.  This path stays: through field.lift_scaled and
    the generic loop a call was 6-8 times slower (S_4 to S_12 at 200 random
    rationals, timeit, Python 3.11, 2 vCPUs).
    """
    coeffs = poly.coeffs
    if type(s) is Fraction and coeffs:
        a, b = s.numerator, s.denominator
        num, den = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            den *= b
            num = num * a + c * den
        return Fraction(num, den)
    acc = 0 * s
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def poly_compose(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact composition p(q(s))."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * q + IntPolynomial([c])
    return acc


_spread_cache: list[IntPolynomial] = [ZERO, X]
_cheb_cache: list[IntPolynomial] = [ONE, X]
_phi_cache: dict[int, IntPolynomial] = {}
_cache_lock = threading.Lock()


# S_n = 2(1 - 2s) S_(n-1) - S_(n-2) + 2s and T_n = 2x T_(n-1) - T_(n-2)
_SPREAD_STEP, _SPREAD_SHIFT = IntPolynomial([2, -4]), IntPolynomial([0, 2])
_CHEB_STEP = IntPolynomial([0, 2])


def _three_term(cache: list, n: int, step: IntPolynomial, shift: IntPolynomial):
    """cache[n] of P_k = step * P_(k-1) - P_(k-2) + shift, extending the cache.

    An entry already built is read without the lock: entries are only ever
    appended, under it.  ``step`` has degree 1, a + b s, and is applied to
    the coefficient list directly: coefficient i of step * P is
    a p_i + b p_(i-1).
    """
    if n < len(cache):
        return cache[n]
    a, b = step.coeffs
    with _cache_lock:
        while len(cache) <= n:
            last = cache[-1].coeffs
            out = [a * c + b * c_low for c, c_low in zip(last + (0,), (0,) + last)]
            for i, c in enumerate(cache[-2].coeffs):
                out[i] -= c
            for i, c in enumerate(shift.coeffs):
                out[i] += c
            cache.append(IntPolynomial(out))
        return cache[n]


def spread_poly(n: int) -> IntPolynomial:
    """The n-th spread polynomial (degree n, leading coefficient (-4)^(n-1))."""
    if n < 0:
        raise InvalidArgument("spread polynomial index must be nonnegative")
    return _three_term(_spread_cache, n, _SPREAD_STEP, _SPREAD_SHIFT)


def chebyshev_T(n: int) -> IntPolynomial:
    """The n-th Chebyshev polynomial of the first kind."""
    if n < 0:
        raise InvalidArgument("Chebyshev index must be nonnegative")
    return _three_term(_cheb_cache, n, _CHEB_STEP, ZERO)


def spread_via_chebyshev(n: int) -> IntPolynomial:
    """(1 - T_n(1 - 2s)) / 2, halved exactly; equals spread_poly(n)."""
    if n < 1:
        raise InvalidArgument("index must be positive")
    shifted = poly_compose(chebyshev_T(n), IntPolynomial([1, -2]))
    numer = ONE - shifted
    half = []
    for c in numer.coeffs:
        if c % 2 != 0:
            raise NonIntegralResult(f"odd coefficient {c} while halving")
        half.append(c // 2)
    return IntPolynomial(half)


def _exact_poly_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """num / den by integer long division, else FactorizationFailure.

    The quotient is found from its top coefficient down; each step divides
    the top remainder coefficient by the leading coefficient of ``den``.
    When the quotient has integer coefficients every step divides exactly,
    so the first step that does not shows the quotient is not integral.
    The low deg(den) coefficients left over are the remainder.
    """
    if den.is_zero():
        raise FactorizationFailure("division by the zero polynomial")
    rem = list(num.coeffs)
    dcs = den.coeffs
    dd = len(dcs) - 1
    lead = dcs[-1]
    low = dcs[:-1]
    quot = [0] * max(len(rem) - dd, 0)
    for shift in range(len(quot) - 1, -1, -1):
        factor, r = divmod(rem[shift + dd], lead)
        if r:
            raise FactorizationFailure("non-integer quotient in exact polynomial division")
        quot[shift] = factor
        for i, c in enumerate(low, shift):
            rem[i] -= factor * c
    if any(rem[:dd]):
        raise FactorizationFailure("nonzero remainder in exact polynomial division")
    return IntPolynomial(quot)


def _totient(n: int) -> int:
    result, m, q = n, n, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            result -= result // q
        q += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order."""
    small, large = [], []
    q = 1
    while q * q <= n:
        if n % q == 0:
            small.append(q)
            if q != n // q:
                large.append(n // q)
        q += 1
    return small + large[::-1]


def spread_cyclotomic(k: int) -> IntPolynomial:
    """The k-th spread-cyclotomic factor: S_n = prod over k | n of phi_k.

    Computed by integer long division of S_k by the factors phi_d of its
    proper divisors d; each division must be exact, and the result must
    have degree totient(k).
    """
    if k < 1:
        raise InvalidArgument("index must be positive")
    with _cache_lock:
        cached = _phi_cache.get(k)
    if cached is not None:
        return cached
    if k == 1:
        phi = spread_poly(1)
    else:
        quotient = spread_poly(k)
        for d in divisors(k):
            if d < k:
                quotient = _exact_poly_div(quotient, spread_cyclotomic(d))
        phi = quotient
    if phi.degree != _totient(k):
        raise FactorizationFailure(
            f"factor {k} has degree {phi.degree}, expected {_totient(k)}"
        )
    with _cache_lock:
        _phi_cache[k] = phi
    return phi


class GreenRatioValue(FrozenRecord):
    """Both evaluations of a spread polynomial at a green-ratio argument."""

    __slots__ = ("s", "sn_of_s", "closed_form")

    def __init__(self, s, sn_of_s, closed_form):
        _set(self, "s", s)
        _set(self, "sn_of_s", sn_of_s)
        _set(self, "closed_form", closed_form)


def green_ratio_fractions(x, y, n: int):
    """The green ratio s = -(y-x)^2/(4xy) and the closed form of S_n(s),
    -(y^n - x^n)^2 / (4 x^n y^n), as uncancelled pairs
    ((s_num, s_den), (closed_num, closed_den)), with no checks.  The
    coefficients are integers, so over F_p the pairs may be computed on int
    residues and reduced afterwards."""
    xn, yn = x ** n, y ** n
    return (-((y - x) ** 2), 4 * x * y), (-((yn - xn) ** 2), 4 * xn * yn)


def spread_at_green_ratio(x, y, n: int) -> GreenRatioValue:
    """Evaluate S_n at s = -(y-x)^2/(4xy) both ways.

    ``sn_of_s`` is the polynomial evaluation and ``closed_form`` is
    -(y^n - x^n)^2 / (4 x^n y^n) (green_ratio_fractions); the two always agree.
    """
    if n < 1:
        raise InvalidArgument("index must be positive")
    if x == 0 or y == 0:
        raise DivisionByZero("green ratio needs nonzero x and y")
    (s_num, s_den), closed = green_ratio_fractions(x, y, n)
    s = exact_div(s_num, s_den)
    return GreenRatioValue(s, poly_eval(spread_poly(n), s), exact_div(*closed))
