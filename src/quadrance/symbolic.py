"""Sparse polynomials over Z, to prove ring identities once instead of
sampling them.

A Poly maps exponent tuples to nonzero ints.  It has +, -, *, unary - and
** n for ints n >= 0, with int operands on either side, and nothing else:
every comparison, truth test, division and hash, and every operand that is
neither an int nor a Poly, raises TypeError.  So only a straight-line ring
program runs on Polys, and a kernel that branches on a value is never
proved.  The rational verifier loads this module on first use.
"""

from __future__ import annotations

from operator import add


class Poly:
    """A polynomial in ``n`` variables: ``terms`` maps exponent tuples to
    nonzero int coefficients."""

    __slots__ = ("terms", "n")

    def __init__(self, terms: dict, n: int):
        self.terms, self.n = terms, n

    def _terms(self, other) -> dict:
        """The terms of a Poly or an int operand; anything else raises TypeError."""
        if isinstance(other, Poly):
            return other.terms
        if isinstance(other, int):
            return {(0,) * self.n: other} if other else {}
        raise TypeError(f"a Poly does not mix with {type(other).__name__}")

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._terms(other).items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return Poly(terms, self.n)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()}, self.n)

    def __sub__(self, other):
        return self + -Poly(self._terms(other), self.n)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for e2, c2 in self._terms(other).items():
            for e1, c1 in self.terms.items():
                # not tuple(map(...)): CPython sizes that tuple by a guess and
                # shrinks it, so it never reuses the freed exponents that its
                # free list of short tuples keeps, up to 2,000 (about 100 KiB)
                # for each length
                e = (*map(add, e1, e2),)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly({e: c for e, c in terms.items() if c}, self.n)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError(f"a Poly takes only int powers >= 0, not {k!r}")
        result = Poly(self._terms(1), self.n)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        raise TypeError("Polys are not compared: a proof runs no branch")

    __ne__ = __eq__
    __hash__ = None

    def __bool__(self):
        raise TypeError("a Poly has no truth value: a proof runs no branch")


def variables(n: int) -> list[Poly]:
    """The n variables x_1..x_n as Polys."""
    return [Poly({tuple(int(i == j) for j in range(n)): 1}, n) for i in range(n)]


def proves(lhs, rhs, nvars: int) -> bool:
    """Whether ``lhs`` (or every element of the list it returns) and ``rhs``
    are the same polynomial in ``nvars`` fresh variables.  Any exception,
    a TypeError from a branch included, means not proved."""
    xs = variables(nvars)
    try:
        want = xs[0]._terms(rhs(*xs))
        got = lhs(*xs)
        return all(xs[0]._terms(side) == want
                   for side in (got if isinstance(got, list) else [got]))
    except Exception:
        return False
