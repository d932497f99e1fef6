import math
import operator
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from quadrance import affine, projective
from quadrance.symbolic import Poly, proves, variables
from quadrance.verify import _quad_rearranged, _spread_rearranged

NVARS = 3

terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * NVARS), st.integers(-20, 20),
                        max_size=6)
points = st.tuples(*[st.integers(-9, 9)] * NVARS)
ints = st.integers(-50, 50)


def _build(spec):
    """The polynomial sum c * x^e over ``spec``, built with the ring operations."""
    xs = variables(NVARS)
    poly = Poly({}, NVARS)
    for exponents, c in spec.items():
        poly = poly + c * math.prod((x ** e for x, e in zip(xs, exponents)), start=1)
    return poly


def _at(poly, point):
    """The value of a Poly (or an int) at an int point."""
    if isinstance(poly, int):
        return poly
    return sum(c * math.prod(v ** e for v, e in zip(point, exponents))
               for exponents, c in poly.terms.items())


def test_built_polynomials_keep_only_nonzero_terms():
    x, y, _ = variables(NVARS)
    assert (x * y - 3).terms == {(1, 1, 0): 1, (0, 0, 0): -3}
    assert (x * y - y * x).terms == {}
    assert ((x + 1) ** 2 - x * x - 2 * x - 1).terms == {}
    assert (x ** 0).terms == {(0, 0, 0): 1}


@settings(max_examples=200, deadline=None)
@given(terms, terms, points)
def test_ring_operations_agree_with_evaluation(f, g, point):
    p, q = _build(f), _build(g)
    assert _at(p, point) == sum(c * math.prod(v ** e for v, e in zip(point, exps))
                                for exps, c in f.items())
    for op in (operator.add, operator.sub, operator.mul):
        assert _at(op(p, q), point) == op(_at(p, point), _at(q, point))
    assert _at(-p, point) == -_at(p, point)
    for k in range(4):
        assert _at(p ** k, point) == _at(p, point) ** k


@settings(max_examples=200, deadline=None)
@given(terms, ints, points)
def test_int_operands_work_on_either_side(f, k, point):
    p = _build(f)
    value = _at(p, point)
    for op in (operator.add, operator.sub, operator.mul):
        assert _at(op(p, k), point) == op(value, k)
        assert _at(op(k, p), point) == op(k, value)


@settings(max_examples=200, deadline=None)
@given(terms, ints)
def test_cancellation_leaves_no_terms(f, k):
    p = _build(f)
    assert (p - p).terms == {}
    assert (p + -p).terms == {}
    assert ((p + k) - k).terms == p.terms
    assert (p * 0).terms == {}
    assert ((p + 1) * (p - 1) - (p * p - 1)).terms == {}


@pytest.mark.parametrize("use", [
    lambda x: x == 0, lambda x: 0 == x, lambda x: x == x, lambda x: x != 1, lambda x: x < 1,
    lambda x: x >= x, bool, lambda x: x / 2, lambda x: 2 / x, lambda x: x // 2, lambda x: x % 2,
    hash, lambda x: {x}, lambda x: x + Fr(1, 2), lambda x: Fr(1, 2) * x, lambda x: x - 0.5,
    lambda x: x ** -1, lambda x: x ** x,
], ids=["eq", "req", "eq-self", "ne", "lt", "ge", "bool", "div", "rdiv", "floordiv", "mod",
        "hash", "set", "fraction", "rfraction", "float", "negative-power", "poly-power"])
def test_everything_but_the_ring_operations_raises_type_error(use):
    x, *_ = variables(NVARS)
    with pytest.raises(TypeError):
        use(x + 1)


def test_proves_the_paper_identities():
    assert proves(affine.archimedes_forms, affine.archimedes, 3)
    assert proves(projective.triple_spread_forms, projective.triple_spread_fn, 3)
    assert proves(_quad_rearranged, affine.quadruple_quad_fn, 4)
    assert proves(_spread_rearranged, projective.quadruple_spread_fn, 4)
    assert proves(lambda a, b: (a + b) ** 2, lambda a, b: a * a + 2 * a * b + b * b, 2)


@pytest.mark.parametrize("lhs", [
    lambda a, b, c: affine.archimedes(a, b, c) + 1,
    lambda a, b, c: [affine.archimedes(a, b, c), affine.archimedes(a, b, c) * 2],
    # a branch on a value is never proved, though it is right almost everywhere
    lambda a, b, c: affine.archimedes(a, b, c) + (1 if a == 0 else 0),
    lambda a, b, c: affine.archimedes(a, b, c) / 1,
    lambda a, b, c: tuple(affine.archimedes_forms(a, b, c)),
], ids=["off-by-one", "one-form-wrong", "branch", "division", "not-a-list"])
def test_anything_else_is_not_proved(lhs):
    assert not proves(lhs, affine.archimedes, 3)


def test_an_error_in_either_side_is_not_proved():
    def raises(*args):
        raise ValueError("broken")

    assert not proves(raises, affine.archimedes, 3)
    assert not proves(affine.archimedes, raises, 3)
