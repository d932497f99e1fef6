"""Integer-coefficient polynomial engine for spread polynomials.

The spread polynomials satisfy S0 = 0, S1 = s and
S_n = 2(1 - 2s) S_{n-1} - S_{n-2} + 2s; they compose multiplicatively
(S_n o S_m = S_nm), relate to the Chebyshev polynomials of the first kind
by S_n(s) = (1 - T_n(1 - 2s)) / 2, and factor into integer polynomials
phi_k of degree totient(k) with S_n = prod over k | n of phi_k. The
coefficients are Python ints.  Each S_n and T_n is built alone, and no
cache keeps it, from its explicit coefficients (Goh and Wildberger,
"Spread polynomials, rotations and the butterfly effect", 2009):
S_n(s) = sum over k = 1..n of (n/k) C(n+k-1, 2k-1) (-4)^(k-1) s^k and
T_n(x) = (n/2) sum over m <= n/2 of (-1)^m (n-m-1)!/(m!(n-2m)!) (2x)^(n-2m).
As with cyclotomic polynomials, where Phi_pm(x) is Phi_m(x^p) when the
prime p divides m and Phi_m(x^p) / Phi_m(x) when it does not, every
factor comes from one recursion: phi_1 = S_1, and phi_pm = phi_m o S_p,
divided once by phi_m when p does not divide m, because
S_p(sin^2 t) = sin^2(pt).  Taking p as the least prime factor of pm, the
factors build S_p for primes p only.
Products and compositions use Kronecker substitution (D. Harvey, J.
Symbolic Comput. 2009): a polynomial is packed into one int, its value at
x = 2^b, with b bits a slot for each coefficient of the result and its
sign; one big-int multiply (CPython's Karatsuba) does the whole product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (DivisionByZero, FactorizationFailure, Frozen, FrozenRecord, InvalidArgument,
                     NonIntegralResult)
from .field import decimal_str, exact_div


class IntPolynomial(Frozen):
    """Dense integer-coefficient polynomial; index = degree, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    def __reduce__(self):
        return IntPolynomial, (self.coeffs,)

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        # bytes a slot needs for a coefficient of the product and a sign
        size = (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length() // 8 + 1
        x = _pack(a, 8 * size)
        return IntPolynomial(_unpack(x * x if a is b else x * _pack(b, 8 * size),
                                     len(a) + len(b) - 1, size))

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
        try:
            return " ".join(map(str, self.coeffs))
        except ValueError:  # past the int-string limit: decimal_str raises its error
            return " ".join(map(decimal_str, self.coeffs))


# the slot's own setter: a frozen value's __init__ stores through it
_set_coeffs = IntPolynomial.coeffs.__set__

ZERO = IntPolynomial()
ONE = IntPolynomial([1])


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


# a pack or a Horner loop takes at most _LEAF coefficients; longer go by halves
_LEAF = 16


def _pack(cs, bits: int) -> int:
    """The value of the polynomial with coefficients ``cs`` at x = 2^bits."""
    if len(cs) <= _LEAF:
        v = 0
        for c in reversed(cs):
            v = (v << bits) + c
        return v
    m = len(cs) // 2
    return _pack(cs[:m], bits) + (_pack(cs[m:], bits) << (bits * m))


def _unpack(v: int, n: int, size: int) -> list:
    """The n coefficients, each below 2^(8 size - 1) in absolute value, packed
    in v at ``size`` bytes a slot; a slot read negative borrows from the next."""
    raw = v.to_bytes(n * size, "little", signed=True)
    read, out, borrow = int.from_bytes, [], 0
    for i in range(0, n * size, size):
        c = read(raw[i:i + size], "little", signed=True)
        out.append(c + borrow)
        borrow = c < 0
    return out


def poly_compose(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact composition p(q(s)), by Kronecker substitution (_compose)."""
    return _compose(p.coeffs, q, [q]) if p.coeffs else ZERO


def _compose(cs, q: IntPolynomial, powers: list) -> IntPolynomial:
    """p(q) for the nonempty coefficients ``cs`` of p; powers[j] is q^(2^j).
    Up to _LEAF coefficients, Horner runs on the packed q, with slots for
    sum |c_i| |q|_1^i, which bounds every coefficient of p(q); a longer p
    is p_lo(q) + q^m p_hi(q), m = 2^j < len(cs) <= 2m."""
    if len(cs) <= _LEAF:
        qs = q.coeffs
        norm, bound = sum(map(abs, qs)), 0
        for c in reversed(cs):
            bound = bound * norm + abs(c)
        size = bound.bit_length() // 8 + 1
        x, v = _pack(qs, 8 * size), 0
        for c in reversed(cs):
            v = v * x + c
        return IntPolynomial(_unpack(v, (len(cs) - 1) * max(len(qs) - 1, 0) + 1, size))
    j = (len(cs) - 1).bit_length() - 1
    while len(powers) <= j:
        powers.append(powers[-1] * powers[-1])
    m = 1 << j
    return _compose(cs[:m], q, powers) + powers[j] * _compose(cs[m:], q, powers)


_phi_cache: dict[int, IntPolynomial] = {}


def spread_poly(n: int) -> IntPolynomial:
    """The n-th spread polynomial (degree n, leading coefficient (-4)^(n-1)):
    the coefficient of s^k is a_k, a_1 = n^2, a_(k+1) = a_k 2(k^2 - n^2) / ((k+1)(2k+1))."""
    if n < 0:
        raise InvalidArgument("spread polynomial index must be nonnegative")
    coeffs, a, nn = [0], n * n, n * n
    for k in range(1, n + 1):
        coeffs.append(a)
        a = a * (2 * (k * k - nn)) // ((k + 1) * (2 * k + 1))
    return IntPolynomial(coeffs)


def chebyshev_T(n: int) -> IntPolynomial:
    """The n-th Chebyshev polynomial of the first kind: from c_n = 2^(n-1) down,
    the coefficient of x^(j-2) is c_j j(1-j) / (4(m+1)(n-m-1)), m = (n-j)/2."""
    if n < 0:
        raise InvalidArgument("Chebyshev index must be nonnegative")
    if n == 0:
        return ONE
    coeffs = [0] * (n + 1)
    c = coeffs[n] = 1 << (n - 1)
    for j in range(n, 1, -2):
        m = (n - j) // 2
        c = coeffs[j - 2] = c * (j * (1 - j)) // (4 * (m + 1) * (n - m - 1))
    return IntPolynomial(coeffs)


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


def _least_prime(k: int) -> int:
    """The least prime factor of k > 1."""
    q = 2
    while q * q <= k:
        if k % q == 0:
            return q
        q += 1
    return k


def spread_cyclotomic(k: int) -> IntPolynomial:
    """The k-th spread-cyclotomic factor: S_n = prod over k | n of phi_k.

    phi_1 = S_1.  For k > 1, with p the least prime factor of k and
    m = k/p, phi_k = phi_m o S_p, divided exactly by phi_m when p does not
    divide m.  The result must have degree totient(k).
    """
    if k < 1:
        raise InvalidArgument("index must be positive")
    phi = _phi_cache.get(k)
    if phi is not None:
        return phi
    if k == 1:
        phi = spread_poly(1)
    else:
        p = _least_prime(k)
        m = k // p
        phi_m = spread_cyclotomic(m)
        phi = poly_compose(phi_m, spread_poly(p))
        if m % p:
            phi = _exact_poly_div(phi, phi_m)
    if phi.degree != _totient(k):
        raise FactorizationFailure(
            f"factor {k} has degree {phi.degree}, expected {_totient(k)}"
        )
    _phi_cache[k] = phi
    return phi


class GreenRatioValue(FrozenRecord):
    """Both evaluations of a spread polynomial at a green-ratio argument."""

    __slots__ = ("s", "sn_of_s", "closed_form")

    def __init__(self, s, sn_of_s, closed_form):
        _set_s(self, s)
        _set_sn_of_s(self, sn_of_s)
        _set_closed_form(self, closed_form)


_set_s, _set_sn_of_s, _set_closed_form = (GreenRatioValue.s.__set__,
                                          GreenRatioValue.sn_of_s.__set__,
                                          GreenRatioValue.closed_form.__set__)


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
