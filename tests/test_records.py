"""The result records' contract: construction, equality, hashing, repr,
immutability, pickling and pattern matching, the same for every record."""

import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest

from quadrance.affine import AffineIsometry, AffinePoint
from quadrance.chromo import Color
from quadrance.cli import EvalRequest
from quadrance.errors import NotIsometry
from quadrance.field import Fp, Scaled, lift_scaled
from quadrance.isometry import IsoKind, ProjIsometry, ProjMatrix
from quadrance.projective import Form, ProjPoint, QuadrupleResult
from quadrance.spreadpoly import GreenRatioValue, IntPolynomial
from quadrance.verify import Report

# (class, field names, field values, repr, frozen)
RECORDS = [
    (AffinePoint, ("x",), (Fraction(1, 2),), "AffinePoint(x=Fraction(1, 2))", True),
    (AffineIsometry, ("parity", "shift"), (1, Fraction(2)),
     "AffineIsometry(parity=1, shift=Fraction(2, 1))", True),
    (QuadrupleResult, ("value", "q13", "q24"), (0, Fraction(1, 3), None),
     "QuadrupleResult(value=0, q13=Fraction(1, 3), q24=None)", True),
    (ProjIsometry, ("color", "kind", "param"), (Color.RED, IsoKind.REFLECTION, ProjPoint(1, 2)),
     "ProjIsometry(color=<Color.RED: 'red'>, kind=<IsoKind.REFLECTION: 'sigma'>, "
     "param=ProjPoint(1, 2))", True),
    (GreenRatioValue, ("s", "sn_of_s", "closed_form"),
     (Fraction(-1, 8), Fraction(-9, 8), Fraction(-9, 8)),
     "GreenRatioValue(s=Fraction(-1, 8), sn_of_s=Fraction(-9, 8), closed_form=Fraction(-9, 8))",
     True),
    (EvalRequest, ("what", "field", "form", "color", "points", "matrix"),
     ("quad", "rationals", None, None, ["1", "3"], None),
     "EvalRequest(what='quad', field='rationals', form=None, color=None, points=['1', '3'], "
     "matrix=None)", False),
    (Report, ("suite", "field", "attempted", "passed", "failed", "skipped", "skip_reasons",
              "counterexample", "seed", "elapsed_ms"),
     ("heron", "fp:3", 5, 3, 0, 2, {"null-point": 2}, None, 7, 1),
     "Report(suite='heron', field='fp:3', attempted=5, passed=3, failed=0, skipped=2, "
     "skip_reasons={'null-point': 2}, counterexample=None, seed=7, elapsed_ms=1)", False),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text, frozen", RECORDS, ids=IDS)
def test_construction_equality_and_repr(cls, names, values, text, frozen):
    record = cls(*values)
    assert repr(record) == text
    assert cls(**dict(zip(names, values))) == record
    assert tuple(getattr(record, name) for name in names) == values
    assert cls.__match_args__ == names
    assert record != values and not (record == values)


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=IDS)
def test_records_of_different_types_are_not_equal(index):
    cls, _, values, _, _ = RECORDS[index]
    other_cls, _, other_values, _, _ = RECORDS[(index + 1) % len(RECORDS)]
    assert cls(*values) != other_cls(*other_values)


@pytest.mark.parametrize("cls, names, values, text, frozen", RECORDS, ids=IDS)
def test_frozen_records_hash_and_refuse_changes(cls, names, values, text, frozen):
    record = cls(*values)
    if not frozen:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[0], values[0])
        assert record == cls(*values)
        return
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, names, values, text, frozen", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, names, values, text, frozen):
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and repr(back) == text
    clone = copy.deepcopy(record)
    assert type(clone) is cls and clone == record and repr(clone) == text


# Slotted values without a __dict__, and records that hold them: each
# pickles through its constructor, so protocols 0 and 1 take them too.
VALUES = [
    ProjPoint(1, 2),
    Form(1, 0, 1),
    ProjMatrix(1, 2, 3, 4),
    Fp(2, 7),
    IntPolynomial([0, 4, -4]),
    ProjIsometry(Color.RED, IsoKind.REFLECTION, ProjPoint(Fp(1, 7), Fp(3, 7))),
    AffinePoint(Fp(2, 7)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_values_pickle_at_every_protocol(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and repr(back) == repr(value)


def test_scaled_values_pickle_at_every_protocol_and_keep_one_lift():
    x, y = lift_scaled([Fraction(1, 2), Fraction(-2, 3)])
    values = [x, y, x * y + 1]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(values, protocol))
        assert all(type(v) is Scaled for v in back)
        assert back[0].pw is back[1].pw is back[2].pw
        assert back[0] * back[1] + 1 == back[2]
        assert [str(v) for v in back] == [str(v) for v in values] == ["1/2", "-2/3", "2/3"]
    clone = copy.deepcopy(values)
    assert clone[0].pw is clone[2].pw and [str(v) for v in clone] == ["1/2", "-2/3", "2/3"]


def test_match_by_position():
    match AffineIsometry(-1, 3):
        case AffineIsometry(parity, shift):
            assert (parity, shift) == (-1, 3)
    match ProjIsometry(Color.GREEN, IsoKind.ROTATION, ProjPoint(1, 2)):
        case ProjIsometry(Color.GREEN, kind, param):
            assert kind is IsoKind.ROTATION and param == ProjPoint(2, 4)
    match EvalRequest("quad", "fp:7", None, None, ["1", "2"], None):
        case EvalRequest(what, field, _, _, points):
            assert (what, field, points) == ("quad", "fp:7", ["1", "2"])
    match Report("chromo", "fp:5"):
        case Report(suite, field, attempted):
            assert (suite, field, attempted) == ("chromo", "fp:5", 0)


def test_affine_isometry_parity_is_checked():
    for parity in (2, 0, Fraction(1, 2)):
        with pytest.raises(NotIsometry, match="parity must be"):
            AffineIsometry(parity, 0)


def test_report_defaults_are_fresh_and_its_json_keeps_field_order():
    first, second = Report(), Report()
    first.skip("null-point")
    assert second.skip_reasons == {} and second == Report("", "", 0, 0, 0, 0, {}, None, None, 0)
    report = Report("heron", "fp:3", 3, 1, 1, 1, {"z": 1, "a": 0},
                    {"identity": "heron"}, None, 4)
    assert json.dumps(report.to_dict()) == (
        '{"suite": "heron", "field": "fp:3", "attempted": 3, "passed": 1, "failed": 1, '
        '"skipped": 1, "skip_reasons": {"a": 0, "z": 1}, '
        '"counterexample": {"identity": "heron"}, "elapsed_ms": 4}')


def test_dataclasses_replace_still_builds_a_changed_report():
    report = Report("heron", "fp:3", 5, 3, 0, 2, {"null-point": 2}, None, 7, 1)
    changed = dataclasses.replace(report, passed=2, failed=1)
    assert type(changed) is Report
    assert changed == Report("heron", "fp:3", 5, 2, 1, 2, {"null-point": 2}, None, 7, 1)
    assert report.passed == 3
