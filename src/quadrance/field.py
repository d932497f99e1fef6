"""Exact field arithmetic over the rationals and odd prime fields.

Two element realizations sit behind one interface: ``fractions.Fraction``
(always in lowest terms, positive denominator) and :class:`Fp` residues
mod an odd prime.  Plain ``int`` operands are accepted everywhere and lift
into whichever field their neighbours live in, so formulas may be written
with integer literals.  Characteristic 2 is rejected at construction.
For fraction-free evaluation over Q, :class:`Scaled` holds a rational as
n / D**k over a common denominator D (lift_scaled).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (
    CharacteristicTwo,
    DivisionByZero,
    InfiniteField,
    InvalidArgument,
    MixedContexts,
    NotPrime,
    ParseError,
)

_MAX_MODULUS_BITS = 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """A residue in F_p for an odd prime p, reduced to 0 <= r < p.

    Arithmetic mixes freely with ``int``; any other operand (including a
    residue mod a different prime) raises :class:`MixedContexts`.  It hashes
    as its residue, so it and the int residue it equals are one dict key.
    Every operator returns Fp(result, p): the constructor is the one place
    an Fp is built and its residue reduced.
    """

    __slots__ = ("r", "p")

    def __init__(self, r: int, p: int):
        self.r = r % p
        self.p = p

    def _residue(self, other):
        if type(other) is Fp:
            if other.p != self.p:
                raise MixedContexts(
                    f"cannot combine elements of F_{self.p} and F_{other.p}"
                )
            return other.r
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            raise MixedContexts(f"cannot combine a rational with an element of F_{self.p}")
        return None

    def __add__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        return Fp(self.r + r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        return Fp(self.r - r, self.p)

    def __rsub__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        return Fp(r - self.r, self.p)

    def __mul__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        return Fp(self.r * r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        if r == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return Fp(self.r * pow(r, -1, self.p), self.p)

    def __rtruediv__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        if self.r == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return Fp(r * pow(self.r, -1, self.p), self.p)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.r == 0:
            raise DivisionByZero(f"inverse of zero in F_{self.p}")
        return Fp(pow(self.r, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.r, self.p)

    def __eq__(self, other):
        if type(other) is Fp:
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __bool__(self):
        return self.r != 0

    def __str__(self):
        return str(self.r)

    def __repr__(self):
        return f"Fp({self.r}, {self.p})"

    def __reduce__(self):
        return Fp, (self.r, self.p)


def decimal_str(x) -> str:
    """str(x); a value with more digits than Python's int-string limit
    raises InvalidArgument instead of ValueError."""
    try:
        return str(x)
    except ValueError as exc:
        raise InvalidArgument(f"cannot print the value: {exc}") from exc


def rational_sqrt(t: Fraction):
    """Canonical square root of a rational, or None.

    A root exists exactly when numerator and denominator are both perfect
    squares; the nonnegative root is returned.
    """
    if t < 0:
        return None
    n, d = t.numerator, t.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def modular_sqrt(a: int, p: int):
    """Smaller square root of a mod an odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t = t * c % p
            r = r * b % p
    return min(r, p - r)


class FieldContext:
    """Shared interface of the rational and prime-field contexts: zero, one,
    from_int, parse, format, sqrt and enumerate_elements.  Contexts are equal
    when they have the same type and descriptor.

    parse, format, from_int, _element and enumerate_elements stay on each
    subclass: perfbench traces only members defined on the two subclasses,
    and parse and format run on every batch-eval line."""

    kind: str
    descriptor: str

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def sqrt(self, t):
        return field_sqrt(self._element(t))

    def __eq__(self, other):
        return type(other) is type(self) and other.descriptor == self.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"<FieldContext {self.descriptor}>"


class RationalContext(FieldContext):
    """Arbitrary-precision rational numbers."""

    kind = "rationals"
    descriptor = "rationals"

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, text: str):
        literal = text.strip()
        # Fraction takes '_' separators only from Python 3.11 on; both fields
        # refuse them, so every supported Python reads the same literals
        if "_" in literal:
            raise ParseError(f"not a rational literal: {text!r}")
        # Fraction computes 10**exponent, past Python's int-string digit
        # limit and for as long as that takes; refuse such an exponent first
        exponent = literal.lower().partition("e")[2]
        try:
            if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
                raise ParseError(f"exponent too large in rational literal: {text!r}")
            return Fraction(literal)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {text!r}") from exc

    def _element(self, x) -> Fraction:
        """x as a rational; anything else raises MixedContexts."""
        if isinstance(x, int):
            return Fraction(x)
        if not isinstance(x, Fraction):
            raise MixedContexts(f"{x!r} is not a rational value")
        return x

    def format(self, x) -> str:
        return decimal_str(self._element(x))

    def enumerate_elements(self):
        raise InfiniteField("the rational field cannot be enumerated")


class PrimeContext(FieldContext):
    """The field F_p for an odd prime p (at most 64 bits)."""

    kind = "fp"

    def __init__(self, p: int):
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if p.bit_length() > _MAX_MODULUS_BITS:
            raise NotPrime(f"modulus {p} exceeds the 64-bit limit")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.descriptor = f"fp:{p}"

    def from_int(self, n: int):
        return Fp(n, self.p)

    def parse(self, text: str):
        if "_" in text:  # int() takes '_' separators; refused as over Q
            raise ParseError(f"not an F_{self.p} literal: {text!r}")
        try:
            n = int(text.strip())
        except ValueError as exc:
            raise ParseError(f"not an F_{self.p} literal: {text!r}") from exc
        return Fp(n, self.p)

    def _element(self, x) -> Fp:
        """x as an element of this field; anything else raises MixedContexts."""
        if isinstance(x, int):
            return Fp(x, self.p)
        if not isinstance(x, Fp) or x.p != self.p:
            raise MixedContexts(f"{x!r} is not an element of F_{self.p}")
        return x

    def format(self, x) -> str:
        return str(self._element(x))

    def enumerate_elements(self):
        return (Fp(i, self.p) for i in range(self.p))


_context_cache: dict[str, FieldContext] = {}


def make_context(descriptor: str) -> FieldContext:
    """Build a field context from a descriptor: "rationals" or "fp:<p>"."""
    descriptor = descriptor.strip()
    if descriptor in _context_cache:
        return _context_cache[descriptor]
    if descriptor == "rationals":
        ctx: FieldContext = RationalContext()
    # int() takes '_' separators in p; refused, as values refuse them
    elif descriptor.startswith("fp:") and "_" not in descriptor:
        try:
            p = int(descriptor[3:])
        except ValueError as exc:
            raise ParseError(f"bad field descriptor: {descriptor!r}") from exc
        ctx = PrimeContext(p)
    else:
        raise ParseError(f"bad field descriptor: {descriptor!r} (expected 'rationals' or 'fp:<p>')")
    _context_cache[descriptor] = ctx
    return ctx


def exact_div(a, b):
    """Exact a / b; int-by-int division yields a Fraction, never a float.

    Division by zero raises DivisionByZero whatever the operand types.
    """
    try:
        if isinstance(a, int) and isinstance(b, int):
            return Fraction(a, b)
        return a / b
    except DivisionByZero:
        raise
    except ZeroDivisionError as exc:
        raise DivisionByZero("division by zero") from exc


def clear_denominators(values):
    """A proportion's values as ints, when any of them is a Fraction.

    They are scaled by the lcm of their denominators, so [1/2:1/3] becomes
    [3:2].  Values with no Fraction among them (ints, Fp residues) come
    back unchanged, and so does a Fraction mixed with a value that is not
    rational, whose arithmetic raises as before.
    """
    for v in values:
        if type(v) is Fraction:
            try:
                scale = math.lcm(*[w.denominator for w in values])
            except AttributeError:
                return values
            return [w.numerator * (scale // w.denominator) for w in values]
    return values


class _Powers(dict):
    """D**j by exponent j, filled on demand from {0: 1, 1: D}."""

    def __missing__(self, j):
        value = self[j] = self[1] ** j
        return value


_new_object = object.__new__


class Scaled:
    """A rational n / D**k over a common denominator D shared by one case's
    values (lift_scaled); the integer-coefficient polynomials of the paper
    then evaluate in ints, with no gcd at any step.

    A product adds the exponents; a sum first brings both numerators over
    the larger exponent (_align).  Plain ints count as k = 0.  +, - and ==
    take in line a plain int and a value of the same lift and exponent:
    90.3% of the 99,956 calls to the three in a ten-suite, 200-trial
    rational pass (seed 1).  Other exponents, and quotients, go through
    _align.  Every result is built in place.  Only a quotient, an equality
    with a Fraction and str go through Fraction.  An operand of any other
    type (an Fp, a Fraction not lifted) or of another lift raises
    TypeError, so a wrong value never comes back.
    """

    __slots__ = ("n", "k", "pw")

    def _refused(self, other) -> TypeError:
        """The error for an operand that is neither an int nor of this lift."""
        return TypeError(f"cannot combine {type(other).__name__} with a rational over "
                         f"the common denominator {self.pw[1]}")

    def _align(self, other):
        """(self's numerator, other's numerator, k): both over D**k, k the
        larger exponent."""
        if type(other) is Scaled and other.pw is self.pw:
            n, k = other.n, other.k
        elif isinstance(other, int):
            n, k = other, 0
        else:
            raise self._refused(other)
        j = self.k
        if j < k:
            return self.n * self.pw[k - j], n, k
        return self.n, n * self.pw[j - k], j

    def __add__(self, other):
        pw, k = self.pw, self.k
        if type(other) is Scaled and other.k == k and other.pw is pw:
            n = self.n + other.n
        elif isinstance(other, int):
            n = self.n + other * pw[k]
        else:
            a, b, k = self._align(other)
            n = a + b
        x = _new_object(Scaled)
        x.n, x.k, x.pw = n, k, pw
        return x

    __radd__ = __add__

    def __sub__(self, other):
        pw, k = self.pw, self.k
        if type(other) is Scaled and other.k == k and other.pw is pw:
            n = self.n - other.n
        elif isinstance(other, int):
            n = self.n - other * pw[k]
        else:
            a, b, k = self._align(other)
            n = a - b
        x = _new_object(Scaled)
        x.n, x.k, x.pw = n, k, pw
        return x

    def __rsub__(self, other):
        if not isinstance(other, int):
            raise self._refused(other)
        x = _new_object(Scaled)
        x.n, x.k, x.pw = other * self.pw[self.k] - self.n, self.k, self.pw
        return x

    def __mul__(self, other):
        if type(other) is Scaled and other.pw is self.pw:
            n, k = self.n * other.n, self.k + other.k
        elif isinstance(other, int):
            n, k = self.n * other, self.k
        else:
            raise self._refused(other)
        x = _new_object(Scaled)
        x.n, x.k, x.pw = n, k, self.pw
        return x

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise TypeError("a Scaled rational takes only int powers >= 0")
        x = _new_object(Scaled)
        x.n, x.k, x.pw = self.n ** e, self.k * e, self.pw
        return x

    def __neg__(self):
        x = _new_object(Scaled)
        x.n, x.k, x.pw = -self.n, self.k, self.pw
        return x

    def __truediv__(self, other):
        a, b, _ = self._align(other)
        return Fraction(a, b)

    def __rtruediv__(self, other):
        a, b, _ = self._align(other)
        return Fraction(b, a)

    def __eq__(self, other):
        if type(other) is Scaled and other.k == self.k and other.pw is self.pw:
            return self.n == other.n
        if isinstance(other, int):
            return self.n == other * self.pw[self.k]
        if type(other) is Fraction:
            return self.n * other.denominator == other.numerator * self.pw[self.k]
        a, b, _ = self._align(other)
        return a == b

    def __bool__(self):
        return self.n != 0

    def __str__(self):
        return str(Fraction(self.n, self.pw[self.k]))

    def __reduce__(self):
        # pickle sets the slots back at any protocol; its memo shares one pw
        return Scaled, (), (None, {"n": self.n, "k": self.k, "pw": self.pw})


def lift_scaled(values) -> list:
    """Rationals (Fractions or ints) as Scaled values over the lcm D of their
    denominators: each becomes (its numerator * D / its denominator) / D."""
    pw = _Powers({0: 1, 1: math.lcm(*[v.denominator for v in values])})
    d = pw[1]
    lifted = []
    for v in values:
        x = _new_object(Scaled)
        x.n, x.k, x.pw = v.numerator * (d // v.denominator), 1, pw
        lifted.append(x)
    return lifted


def field_sqrt(x):
    """Canonical square root dispatched on the element's own field."""
    if isinstance(x, Fp):
        r = modular_sqrt(x.r, x.p)
        return None if r is None else Fp(r, x.p)
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return rational_sqrt(x)
    raise MixedContexts(f"{x!r} is not a field element")
