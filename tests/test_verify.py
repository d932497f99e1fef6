import json
from pathlib import Path

import pytest

from quadrance.chromo import Color, is_null_for
from quadrance.errors import CharacteristicTwo, UnknownSuite
from quadrance.field import make_context
from quadrance.verify import (
    FORM_NAMES,
    SUITE_NAMES,
    named_form,
    proj_points,
    run_suite,
)
from quadrance.projective import form_value


def counts_ok(report):
    return report.passed + report.failed + report.skipped == report.attempted


def test_every_suite_passes_on_small_prime_field():
    ctx = make_context("fp:5")
    for suite in SUITE_NAMES:
        report = run_suite(suite, ctx)
        assert report.failed == 0, (suite, report.counterexample)
        assert counts_ok(report)
        assert report.seed is None
        assert report.field == "fp:5"


def test_every_suite_passes_on_rationals():
    ctx = make_context("rationals")
    for suite in SUITE_NAMES:
        report = run_suite(suite, ctx, trials=60, seed=9)
        assert report.failed == 0, (suite, report.counterexample)
        assert counts_ok(report)
        assert report.seed == 9


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", make_context("fp:5"))


def test_characteristic_two_rejected_before_suites():
    with pytest.raises(CharacteristicTwo):
        make_context("fp:2")


def test_triple_spread_counts_match_nullity():
    # documented counts: attempted (p+1)^3 per form; non-null triples pass
    for p in (7, 13):
        ctx = make_context(f"fp:{p}")
        pts = proj_points(ctx)
        report = run_suite("triple-spread", ctx, colors=["blue"])
        total = (p + 1) ** 3
        nonnull = sum(1 for a in pts if form_value(named_form("blue"), a) != 0)
        assert report.attempted == total
        assert report.passed == nonnull ** 3
        assert report.skipped == total - nonnull ** 3
        if p % 4 == 3:
            assert report.skipped == 0
        else:
            assert report.skip_reasons == {"null-point": report.skipped}


def test_triple_quad_counts():
    for p in (5, 7):
        report = run_suite("triple-quad", make_context(f"fp:{p}"))
        assert report.attempted == p ** 3
        assert report.skipped == 0
        assert report.failed == 0


def test_chromo_counts():
    for p in (5, 13):
        ctx = make_context(f"fp:{p}")
        pts = proj_points(ctx)
        good = sum(1 for a in pts if not any(is_null_for(c, a) for c in Color))
        report = run_suite("chromo", ctx)
        assert report.attempted == (p + 1) ** 2
        assert report.passed == good ** 2
        assert report.skipped == (p + 1) ** 2 - good ** 2


def test_fibonacci_counts():
    p = 5
    report = run_suite("fibonacci", make_context(f"fp:{p}"))
    assert report.attempted == len(FORM_NAMES) * p ** 4
    assert report.failed == 0


def test_reports_are_deterministic():
    ctx = make_context("rationals")
    r1 = run_suite("triple-spread", ctx, trials=40, seed=42)
    r2 = run_suite("triple-spread", ctx, trials=40, seed=42)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["elapsed_ms"] = d2["elapsed_ms"] = 0
    assert json.dumps(d1) == json.dumps(d2)
    r3 = run_suite("triple-spread", ctx, trials=40, seed=43)
    d3 = r3.to_dict()
    d3["elapsed_ms"] = 0
    assert json.dumps(d1) != json.dumps(d3)  # seed actually matters


def test_report_schema_key_order():
    report = run_suite("heron", make_context("fp:3"))
    keys = list(report.to_dict().keys())
    assert keys == ["suite", "field", "attempted", "passed", "failed",
                    "skipped", "skip_reasons", "elapsed_ms"]
    report = run_suite("heron", make_context("rationals"), trials=5, seed=1)
    keys = list(report.to_dict().keys())
    assert keys == ["suite", "field", "attempted", "passed", "failed",
                    "skipped", "skip_reasons", "seed", "elapsed_ms"]


def test_suite_all_aggregates():
    ctx = make_context("fp:3")
    total = sum(run_suite(s, ctx).attempted for s in SUITE_NAMES)
    report = run_suite("all", ctx)
    assert report.suite == "all"
    assert report.attempted == total
    assert report.failed == 0
    assert counts_ok(report)


def test_color_narrowing():
    ctx = make_context("fp:7")
    blue_only = run_suite("triple-spread", ctx, colors=["blue"])
    everything = run_suite("triple-spread", ctx)
    assert everything.attempted == len(FORM_NAMES) * blue_only.attempted


def test_suites_detect_broken_spread_function(monkeypatch):
    # a deliberately wrong triple spread function must surface as failures
    import quadrance.projective as pj
    import quadrance.verify as v

    original = pj.triple_spread_fn
    monkeypatch.setattr(pj, "triple_spread_fn", lambda a, b, c: original(a, b, c) + 1)
    report = v.run_suite("triple-spread", make_context("fp:5"), colors=["blue"])
    assert report.failed > 0
    ce = report.counterexample
    assert ce["identity"] == "triple-spread-formula"
    assert set(ce) == {"identity", "inputs", "lhs", "rhs"}
    assert report.passed + report.failed + report.skipped == report.attempted


def test_suites_detect_broken_archimedes(monkeypatch):
    import quadrance.affine as af
    import quadrance.verify as v

    original = af.archimedes
    monkeypatch.setattr(af, "archimedes", lambda a, b, c: original(a, b, c) + 1)
    report = v.run_suite("triple-quad", make_context("fp:5"))
    assert report.failed == report.attempted
    assert report.counterexample["identity"] == "triple-quad-formula"


def test_suites_detect_broken_composition_table(monkeypatch):
    import quadrance.isometry as im
    import quadrance.verify as v
    from quadrance.isometry import IsoKind, ProjIsometry

    real = im.compose

    def kind_flipped(iso1, iso2):
        out = real(iso1, iso2)
        wrong = IsoKind.REFLECTION if out.kind is IsoKind.ROTATION else IsoKind.ROTATION
        return ProjIsometry(out.color, wrong, out.param)

    monkeypatch.setattr(im, "compose", kind_flipped)
    report = v.run_suite("isometry", make_context("fp:5"), colors=["red"])
    assert report.failed > 0


def test_counterexample_shape_on_forced_failure():
    # force a failure by running a suite against a broken identity checker
    from quadrance import verify as v

    rec = v.Recorder()
    rec.case(v.mismatch("demo", {"a": 1}, 2, 3))
    rec.case(None)
    rec.skip("why")
    assert rec.attempted == 3 and rec.failed == 1 and rec.skipped == 1
    assert rec.counterexample == {
        "identity": "demo", "inputs": {"a": "1"}, "lhs": "2", "rhs": "3",
    }


def test_isometry_suite_counts_f5():
    p = 5
    ctx = make_context(f"fp:{p}")
    pts = proj_points(ctx)
    report = run_suite("isometry", ctx)
    assert report.failed == 0
    n = p + 1
    expected = 0
    for color in Color:
        nonnull = sum(1 for a in pts if not is_null_for(color, a))
        nulls = n - nonnull
        # a null parameter skips as one case; a live one sweeps all pairs
        expected += 2 * (nulls + nonnull * n ** 2)  # preservation
        expected += 4 * n ** 2                      # composition table entries
        expected += n ** 3                          # multiplication law triples
    expected += n          # blue square roots
    expected += 8 * n      # green power bridge
    assert report.attempted == expected


GOLDEN = Path(__file__).with_name("data") / "verify_fp_golden.json"


def test_exhaustive_reports_match_golden_file():
    # Reports of every suite over F_3, F_5, F_7 and F_11 and of "all" over
    # F_7, elapsed_ms dropped, as the sweep over Fp objects produced them.
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = [(s, p) for p in (3, 5, 7, 11) for s in SUITE_NAMES] + [("all", 7)]
    assert len(runs) == len(expected)
    for (suite, p), want in zip(runs, expected):
        got = run_suite(suite, make_context(f"fp:{p}")).to_dict()
        del got["elapsed_ms"]
        assert json.dumps(got) == json.dumps(want), (suite, p)


def _plus_abcd(fn):
    return lambda a, b, c, d: fn(a, b, c, d) + a * b * c * d


def _plus_abc(fn):
    return lambda *args: fn(*args) + args[0] * args[1] * args[2]


def _numerator_plus_ac(fn):
    def broken(a, b, c, d):
        num, den = fn(a, b, c, d)
        return num + a * c, den
    return broken


# (module, kernel, how it is broken, suite, p, colors, failed, counterexample).
# The counts and counterexamples are those the sweep over Fp objects gave for
# the same mutation, so the residue sweep must report them byte for byte.
RESIDUE_MUTATIONS = [
    ("projective", "quadruple_spread_fn", _plus_abcd, "quadruple-spread", 7, ["blue"], 2408,
     {"identity": "quadruple-spread-formula",
      "inputs": {"form": "(1:0:1)", "a1": "[1:0]", "a2": "[1:1]", "a3": "[1:0]", "a4": "[1:1]"},
      "lhs": "4", "rhs": "0"}),
    ("affine", "brahmagupta_product", _plus_abc, "brahmagupta", 5, None, 320,
     {"identity": "brahmagupta-identity",
      "inputs": {"d12": "1", "d23": "1", "d34": "1", "d14": "0"}, "lhs": "0", "rhs": "4"}),
    ("affine", "heron_product", _plus_abc, "heron", 5, None, 64,
     {"identity": "heron-identity", "inputs": {"d1": "1", "d2": "1", "d3": "1"},
      "lhs": "4", "rhs": "3"}),
    ("projective", "spread_triple_pair_fraction", _numerator_plus_ac, "quadruple-spread", 7,
     ["general"], 528,
     {"identity": "quadruple-spread-q13",
      "inputs": {"form": "(1:2:3)", "a1": "[1:0]", "a2": "[1:1]", "a3": "[1:0]", "a4": "[1:3]"},
      "lhs": "1", "rhs": "0"}),
    ("affine", "quad_triple_pair_fraction", _numerator_plus_ac, "quadruple-quad", 7, None, 1638,
     {"identity": "quadruple-quad-q13", "inputs": {"x1": "0", "x2": "1", "x3": "0", "x4": "2"},
      "lhs": "2", "rhs": "0"}),
]


@pytest.mark.parametrize("module, kernel, breaker, suite, p, colors, failed, counterexample",
                         RESIDUE_MUTATIONS, ids=[m[1] for m in RESIDUE_MUTATIONS])
def test_residue_sweeps_detect_broken_kernels(monkeypatch, module, kernel, breaker, suite, p,
                                              colors, failed, counterexample):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    report = run_suite(suite, make_context(f"fp:{p}"), colors=colors)
    assert report.failed == failed
    assert report.counterexample == counterexample
    assert counts_ok(report)
