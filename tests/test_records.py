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
from quadrance.isometry import IsoKind, ProjIsometry
from quadrance.projective import ProjPoint, QuadrupleResult
from quadrance.spreadpoly import GreenRatioValue
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
    # from protocol 2: protocols 0 and 1 cannot pickle a slotted ProjPoint
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and repr(back) == text
    clone = copy.deepcopy(record)
    assert type(clone) is cls and clone == record and repr(clone) == text


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
