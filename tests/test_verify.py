import json
import math
from pathlib import Path

import pytest

from quadrance import isometry, spreadpoly
from quadrance.chromo import Color, is_null_for
from quadrance.errors import CharacteristicTwo, InvalidArgument, QuadranceError, UnknownSuite
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


@pytest.mark.parametrize("suite", ["triple-spread", "quadruple-spread", "isometry"])
def test_samplers_refuse_unknown_colors(suite):
    # each sampler cycles through its selected forms; an unknown name used
    # to leave none and end in ZeroDivisionError over Q
    for field in ("rationals", "fp:5"):
        with pytest.raises(InvalidArgument):
            run_suite(suite, make_context(field), trials=5, colors=["bogus"])
    with pytest.raises(InvalidArgument):
        run_suite("all", make_context("rationals"), trials=5, colors=["blue", "bogus"])


def test_isometry_suite_runs_no_case_for_the_general_form_alone():
    for field in ("rationals", "fp:5"):
        report = run_suite("isometry", make_context(field), trials=5, colors=["general"])
        assert (report.attempted, report.failed, report.counterexample) == (0, 0, None)
    both = run_suite("all", make_context("rationals"), trials=5, colors=["general"])
    assert both.failed == 0 and both.attempted > 0 and counts_ok(both)


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

    rec = v.Report()
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


@pytest.mark.parametrize("color", list(Color), ids=str)
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_isometry_counts_follow_from_p(p, color):
    # n points, m of them non-null for the colour: every colour has two null
    # points, except blue when -1 is not a square mod p
    n = p + 1
    m = n if color is Color.BLUE and p % 4 == 3 else n - 2
    # preservation 2(n-m) + 2m n^2, composition 4n^2, multiplication n^3
    attempted = 2 * (n - m) + 2 * m * n * n + 4 * n * n + n ** 3
    skips = {"null-parameter": 2 * (n - m) + 4 * (n * n - m * m) + (n ** 3 - m ** 3),
             "null-point": 2 * m * (n * n - m * m)}
    if color is Color.BLUE:  # one square root case per point
        attempted += n
        skips["not-unit-circle"] = (p + 1) // 2 if p % 4 == 3 else (p + 3) // 2
    if color is Color.GREEN:  # the power bridge for n = 1..8 at each point
        attempted += 8 * n
        skips["null-point"] += 8 * (n - m)
    report = run_suite("isometry", make_context(f"fp:{p}"), colors=[str(color)])
    assert (report.attempted, report.failed) == (attempted, 0)
    assert report.skip_reasons == {reason: k for reason, k in skips.items() if k}
    assert report.passed == attempted - sum(skips.values())


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


RATIONAL_GOLDEN = Path(__file__).with_name("data") / "verify_rational_golden.json"


def test_randomized_reports_match_golden_file():
    # Reports of every suite over the rationals, seeds 0 and 42, 200 trials,
    # elapsed_ms dropped, as they were before the isometry and spreadpoly
    # sweeps moved to int residues (the randomized branch shares their checks).
    expected = json.loads(RATIONAL_GOLDEN.read_text(encoding="utf-8"))
    runs = [(s, seed) for seed in (0, 42) for s in SUITE_NAMES]
    assert len(runs) == len(expected)
    ctx = make_context("rationals")
    for (suite, seed), want in zip(runs, expected):
        got = run_suite(suite, ctx, trials=200, seed=seed).to_dict()
        del got["elapsed_ms"]
        assert json.dumps(got) == json.dumps(want), (suite, seed)


def _plus_abcd(fn):
    return lambda a, b, c, d: fn(a, b, c, d) + a * b * c * d


def _plus_abc(fn):
    return lambda *args: fn(*args) + args[0] * args[1] * args[2]


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _numerator_plus_ac(fn):
    def broken(a, b, c, d):
        num, den = fn(a, b, c, d)
        return num + a * c, den
    return broken


def _left_factor(fn):
    # associative but not commutative, so commutativity is the first law to fail
    return lambda color, p1, p2: p1


def _times_inverse(fn):
    # p1 * p2^-1: not associative, so associativity is the first law to fail
    def broken(color, p1, p2):
        return fn(color, p1, isometry.point_inverse(color, p2))
    return broken


def _self_inverse(fn):
    # a * a^-1 = a^2 is not the identity, while the other laws still hold
    return lambda color, point: point


def _transposed(fn):
    def broken(iso):
        m = fn(iso)
        return isometry.ProjMatrix(m.a, m.c, m.b, m.d)
    return broken


def _numerator_plus_x1x2(fn):
    def broken(color, a1, a2):
        num, den = fn(color, a1, a2)
        return num + a1.x * a2.x, den
    return broken


def _s7_linear_plus_one(fn):
    def broken(n):
        poly = fn(n)
        if n != 7:
            return poly
        return spreadpoly.IntPolynomial((poly.coeffs[0], poly.coeffs[1] + 1) + poly.coeffs[2:])
    return broken


def _plus_s_above_degree_12(fn):
    # only S_nm with nm > 12 change, which only the composition check evaluates
    return lambda poly, s: fn(poly, s) + (s if poly.degree > 12 else 0)


def _closed_numerator_plus_denominator(fn):
    # the closed form of S_n at the green ratio, plus one
    def broken(x, y, n):
        s, (num, den) = fn(x, y, n)
        return s, (num + den, den)
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
    ("isometry", "multiply_points", _left_factor, "isometry", 7, None, 945,
     {"identity": "multiplication-commutativity",
      "inputs": {"color": "blue", "p1": "[1:0]", "p2": "[1:1]", "p3": "[1:0]"},
      "lhs": "[1:0]", "rhs": "[1:1]"}),
    ("isometry", "multiply_points", _times_inverse, "isometry", 7, ["green"], 228,
     {"identity": "multiplication-associativity",
      "inputs": {"color": "green", "p1": "[1:1]", "p2": "[1:1]", "p3": "[1:2]"},
      "lhs": "[1:4]", "rhs": "[1:2]"}),
    ("isometry", "matrix_of", _transposed, "isometry", 7, None, 288,
     {"identity": "composition-table-vs-matrix",
      "inputs": {"color": "blue", "kind1": "rho", "p1": "[1:1]", "kind2": "sigma", "p2": "[1:0]"},
      "lhs": "[[1,6],[6,6]]", "rhs": "[[1,1],[1,6]]"}),
    # the Fp sweep called colored_quadrance, broken as (num + x1*x2) / den
    ("chromo", "colored_quadrance_fraction", _numerator_plus_x1x2, "isometry", 7, None, 1450,
     {"identity": "isometry-preservation-blue",
      "inputs": {"kind": "rho", "param": "[1:1]", "a1": "[1:0]", "a2": "[1:0]"},
      "lhs": "2", "rhs": "1"}),
    ("spreadpoly", "spread_poly", _s7_linear_plus_one, "spreadpoly", 7, None, 37,
     {"identity": "spread-via-chebyshev", "inputs": {"n": "7"},
      "lhs": "0 49 -784 4704 -13440 19712 -14336 4096",
      "rhs": "0 50 -784 4704 -13440 19712 -14336 4096"}),
    ("spreadpoly", "poly_eval", _plus_s_above_degree_12, "spreadpoly", 7, None, 6,
     {"identity": "spread-composition-eval", "inputs": {"n": "3", "m": "5", "s": "1"},
      "lhs": "1", "rhs": "2"}),
    ("projective", "triple_spread_fn", _plus_abc, "triple-spread", 7, None, 696,
     {"identity": "triple-spread-formula",
      "inputs": {"form": "(1:0:1)", "a1": "[1:0]", "a2": "[1:1]", "a3": "[1:2]"},
      "lhs": "2", "rhs": "0"}),
    # the Fp sweep called spread_at_green_ratio, broken as closed_form + 1
    ("spreadpoly", "green_ratio_fractions", _closed_numerator_plus_denominator, "spreadpoly", 7,
     None, 36,
     {"identity": "green-ratio-closed-form", "inputs": {"x": "1", "y": "1", "n": "1"},
      "lhs": "0", "rhs": "1"}),
    ("spreadpoly", "spread_poly", _s7_linear_plus_one, "isometry", 7, ["green"], 5,
     {"identity": "green-power-spread-bridge", "inputs": {"p": "[1:2]", "n": "7"},
      "lhs": "6", "rhs": "5"}),
    ("affine", "archimedes", _plus_abc, "triple-quad", 7, None, 210,
     {"identity": "triple-quad-formula", "inputs": {"x1": "0", "x2": "1", "x3": "2"},
      "lhs": "4", "rhs": "0"}),
]


def _row_ids(rows):
    """Each row's kernel as its test id; a kernel met again under another
    suite is also named by that suite."""
    first_suite = {}
    return [row[1] if first_suite.setdefault(row[1], row[3]) == row[3] else f"{row[1]}-{row[3]}"
            for row in rows]


@pytest.mark.parametrize("module, kernel, breaker, suite, p, colors, failed, counterexample",
                         RESIDUE_MUTATIONS, ids=_row_ids(RESIDUE_MUTATIONS))
def test_residue_sweeps_detect_broken_kernels(monkeypatch, module, kernel, breaker, suite, p,
                                              colors, failed, counterexample):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    # spread-cyclotomic factors are cached from spread_poly: start cold, and
    # keep factors of a broken spread_poly out of the shared cache
    monkeypatch.setattr(spreadpoly, "_phi_cache", {})
    report = run_suite(suite, make_context(f"fp:{p}"), colors=colors)
    assert report.failed == failed
    assert report.counterexample == counterexample
    assert counts_ok(report)


MEMO_SWEEPS = [row for row in RESIDUE_MUTATIONS if row[1] in
               ("quadruple_spread_fn", "quad_triple_pair_fraction", "triple_spread_fn",
                "poly_eval", "archimedes")]


@pytest.mark.parametrize("module, kernel, breaker, suite, p, colors, failed, counterexample",
                         MEMO_SWEEPS, ids=[m[3] for m in MEMO_SWEEPS])
def test_sweep_verdicts_last_one_call(monkeypatch, module, kernel, breaker, suite, p, colors,
                                      failed, counterexample):
    # the triple and quadruple sweeps remember verdicts per table tuple,
    # and the spreadpoly sweep its spread-polynomial values, within one call
    # only: broken, clean and broken again each see their kernel
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    original = getattr(mod, kernel)
    for broken in (True, False, True):
        monkeypatch.setattr(mod, kernel, breaker(original) if broken else original)
        report = run_suite(suite, make_context(f"fp:{p}"), colors=colors)
        assert report.failed == (failed if broken else 0)
        assert report.counterexample == (counterexample if broken else None)
        assert counts_ok(report)


# (module, kernel, how it is broken, suite, colors), run over Q with seed 0 and
# 30 trials.  The rational golden file pins counts only; these reports pin the
# first counterexample the sampler finds, so a change in which identity or
# which inputs a rational run reports shows up here.
RATIONAL_MUTATIONS = [
    ("affine", "archimedes", _plus_abc, "triple-quad", None),
    ("affine", "quadruple_quad_fn", _plus_abcd, "quadruple-quad", None),
    ("affine", "quad_triple_pair_fraction", _numerator_plus_ac, "quadruple-quad", None),
    ("projective", "triple_spread_fn", _plus_abc, "triple-spread", None),
    ("projective", "quadruple_spread_fn", _plus_abcd, "quadruple-spread", None),
    ("projective", "spread_triple_pair_fraction", _numerator_plus_ac, "quadruple-spread", None),
    ("chromo", "colored_quadrance_fraction", _numerator_plus_x1x2, "isometry", None),
    ("isometry", "multiply_points", _times_inverse, "isometry", ["green"]),
    ("isometry", "matrix_of", _transposed, "isometry", None),
    ("isometry", "point_inverse", _self_inverse, "isometry", None),
    ("affine", "heron_product", _plus_abc, "heron", None),
    ("affine", "brahmagupta_product", _plus_abc, "brahmagupta", None),
    ("projective", "pairing", _plus_one, "fibonacci", None),
    ("spreadpoly", "spread_poly", _s7_linear_plus_one, "isometry", ["green"]),
    # the sampler draws isometry parameters with the null test make_isometry
    # applies, so a form_value that calls a null point non-null is reported
    ("projective", "form_value", _plus_one, "isometry", None),
]

RATIONAL_MUTATION_GOLDEN = (Path(__file__).with_name("data")
                            / "verify_rational_mutations_golden.json")


def rational_mutation_report(module, kernel, breaker, suite, colors):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    original = getattr(mod, kernel)
    setattr(mod, kernel, breaker(original))
    try:
        report = run_suite(suite, make_context("rationals"), trials=30, seed=0, colors=colors)
    finally:
        setattr(mod, kernel, original)
    got = report.to_dict()
    del got["elapsed_ms"]
    return got


@pytest.mark.parametrize("module, kernel, breaker, suite, colors",
                         RATIONAL_MUTATIONS, ids=[m[1] for m in RATIONAL_MUTATIONS])
def test_rational_sampler_reports_broken_kernels(module, kernel, breaker, suite, colors):
    # Reports captured before the rational and F_p drivers shared their checks.
    want = json.loads(RATIONAL_MUTATION_GOLDEN.read_text(encoding="utf-8"))[kernel]
    got = rational_mutation_report(module, kernel, breaker, suite, colors)
    assert got["failed"] == want["failed"] > 0
    assert got["counterexample"] == want["counterexample"]
    assert json.dumps(got) == json.dumps(want)


TABLE_KERNELS = [
    ("affine", "quadrance", lambda fn: lambda a1, a2: fn(a1, a2) + a1.x, "triple-quad",
     "triple-quad-formula"),
    ("projective", "is_perpendicular", lambda fn: lambda form, a1, a2: not fn(form, a1, a2),
     "triple-spread", "perpendicular-iff-q1"),
]


@pytest.mark.parametrize("module, kernel, breaker, suite, identity", TABLE_KERNELS,
                         ids=[m[1] for m in TABLE_KERNELS])
def test_fp_tables_use_the_kernels_of_the_rational_driver(monkeypatch, module, kernel, breaker,
                                                          suite, identity):
    # the F_p sweeps build their pairwise tables with the library kernels the
    # rational driver calls, so a broken kernel fails both drivers
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    for ctx in (make_context("fp:5"), make_context("rationals")):
        report = run_suite(suite, ctx, trials=30)
        assert report.failed > 0, ctx
        assert report.counterexample["identity"] == identity


def test_multiplication_laws_report_in_order(monkeypatch):
    # Over Q the first trial's p1 is not the identity, so under a left-factor
    # product commutativity and the inverse law both fail; the exhaustive and
    # the random sweep share the pair laws, and commutativity is reported.
    monkeypatch.setattr(isometry, "multiply_points", _left_factor(isometry.multiply_points))
    report = run_suite("isometry", make_context("rationals"), trials=30, seed=0)
    assert report.failed == 30
    assert report.counterexample == {
        "identity": "multiplication-commutativity",
        "inputs": {"color": "blue", "p1": "[0:1]", "p2": "[1:0]", "p3": "[1:3]"},
        "lhs": "[0:1]", "rhs": "[1:0]",
    }


def _point_times_7(point):
    return isometry.ProjPoint(7 * point.x, 7 * point.y)


VANISHING_MOD_7 = [
    ("multiply_points", lambda fn: lambda color, p1, p2: _point_times_7(fn(color, p1, p2))),
    ("apply", lambda fn: lambda iso, point: _point_times_7(fn(iso, point))),
    ("matrix_of", lambda fn: lambda iso: isometry.ProjMatrix(*(7 * v for v in fn(iso).entries()))),
    ("compose", lambda fn: lambda iso1, iso2: isometry.ProjIsometry(
        iso1.color, fn(iso1, iso2).kind, _point_times_7(fn(iso1, iso2).param))),
]


@pytest.mark.parametrize("kernel, breaker", VANISHING_MOD_7, ids=[m[0] for m in VANISHING_MOD_7])
def test_isometry_sweep_rejects_values_that_vanish_mod_p(monkeypatch, kernel, breaker):
    # Points and matrices that are 0 mod 7 cannot be built over F_7.  The
    # residue sweep must not count them as equal to anything: the case
    # fails, and the InvalidArgument that printing the value over F_7
    # raises is reported as the failure of the colour swept.  Red has no
    # checks on Fp objects that could raise first.
    monkeypatch.setattr(isometry, kernel, breaker(getattr(isometry, kernel)))
    report = run_suite("isometry", make_context("fp:7"), colors=["red"])
    assert report.failed >= 1 and counts_ok(report)
    assert report.counterexample["lhs"].startswith("InvalidArgument:")


def _zero_denominator(fn):
    return lambda *args: (fn(*args)[0], 0)


def _zero_ratio_denominator(fn):
    return lambda x, y, n: ((fn(x, y, n)[0][0], 0), fn(x, y, n)[1])


# (module, kernel, how it is broken, suite, colors, the identity reported
# first, and its error over F_7 and over Q, None where a law fails first).
# The kernel raises on inputs the suite's checks kept, so both drivers
# report the error as a failure instead of raising it.
RAISING_KERNELS = [
    ("chromo", "_null_value", _plus_one, "isometry", ["green"],
     "isometry-preservation-green", ("InvalidArgument", None)),
    ("projective", "p_quadrance_fraction", _zero_denominator, "triple-spread", None,
     "triple-spread-formula", ("DivisionByZero", "NullPoint")),
    ("projective", "p_quadrance_fraction", _zero_denominator, "quadruple-spread", None,
     "quadruple-spread-formula", ("DivisionByZero", "NullPoint")),
    ("spreadpoly", "green_ratio_fractions", _zero_ratio_denominator, "spreadpoly", None,
     "green-ratio-closed-form", ("DivisionByZero", "DivisionByZero")),
]


@pytest.mark.parametrize("module, kernel, breaker, suite, colors, identity, errors",
                         RAISING_KERNELS, ids=[f"{row[1]}-{row[3]}" for row in RAISING_KERNELS])
def test_kernel_errors_on_kept_points_are_reported_by_both_drivers(
        monkeypatch, module, kernel, breaker, suite, colors, identity, errors):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    for field, error in zip(("fp:7", "rationals"), errors):
        report = run_suite(suite, make_context(field), trials=30, colors=colors)
        assert report.failed >= 1 and counts_ok(report), field
        assert report.counterexample["identity"] == identity, field
        if error is not None:
            assert report.counterexample["lhs"].startswith(f"{error}:"), field


def _raises_from_call(fn, first, last=math.inf):
    """fn, raising InvalidArgument at its calls ``first`` to ``last``."""
    calls = 0

    def broken(*args):
        nonlocal calls
        calls += 1
        if first <= calls <= last:
            raise InvalidArgument(f"broken at call {calls}")
        return fn(*args)
    return broken


# (module, kernel, suite, identity, its cases over F_7, and the inputs of
# the fourth).  The kernel runs once a case, so breaking it from its fourth
# call on passes the first three cases and fails every later one alone:
# the loop records the error and resumes after the case that raised.
LOOP_KERNELS = [
    ("affine", "archimedes", "heron", "heron-identity", 7 ** 3,
     {"d1": "0", "d2": "0", "d3": "3"}),
    ("projective", "pairing", "fibonacci", "generalized-fibonacci", 4 * 7 ** 4,
     {"d": "1", "e": "0", "f": "1", "x1": "0", "y1": "0", "x2": "0", "y2": "3"}),
]


@pytest.mark.parametrize("module, kernel, suite, identity, cases, fourth", LOOP_KERNELS,
                         ids=[f"{row[1]}-{row[2]}" for row in LOOP_KERNELS])
def test_kernel_errors_in_identity_loops_fail_their_case_and_resume(
        monkeypatch, module, kernel, suite, identity, cases, fourth):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    original = getattr(mod, kernel)
    for field in ("fp:7", "rationals"):
        monkeypatch.setattr(mod, kernel, _raises_from_call(original, 4))
        report = run_suite(suite, make_context(field), trials=30, seed=0)
        assert report.attempted == (cases if field == "fp:7" else 30), field
        assert (report.passed, report.skipped) == (3, 0) and counts_ok(report), field
        failure = report.counterexample
        assert failure["identity"] == identity, field
        assert (failure["lhs"], failure["rhs"]) == ("InvalidArgument: broken at call 4",
                                                    "no error"), field
        if field == "fp:7":
            assert failure["inputs"] == fourth


def test_a_pairing_error_fails_its_fibonacci_case_alone(monkeypatch):
    # the F_p sweep makes each pairing call once, in case order: the 30th
    # is v1 = (0, 0) against v2 = (4, 1) in the first form, and only it fails
    from quadrance import projective

    monkeypatch.setattr(projective, "pairing", _raises_from_call(projective.pairing, 30, 30))
    report = run_suite("fibonacci", make_context("fp:7"))
    assert (report.attempted, report.passed, report.failed) == (9604, 9603, 1)
    assert report.counterexample == {
        "identity": "generalized-fibonacci",
        "inputs": {"d": "1", "e": "0", "f": "1", "x1": "0", "y1": "0", "x2": "4", "y2": "1"},
        "lhs": "InvalidArgument: broken at call 30", "rhs": "no error"}


@pytest.mark.parametrize("shift, failed, counterexample", [
    # pairing + 1 changes the identity mod 7 unless pairing = 3 mod 7
    (1, 168, {"identity": "generalized-fibonacci",
              "inputs": {"d": "1", "e": "0", "f": "1", "x1": "0", "y1": "0", "x2": "3", "y2": "1"},
              "lhs": "1", "rhs": "0"}),
    # pairing + 7 moves the gap off 0 in Z but not mod 7
    (7, 0, None),
])
def test_fibonacci_sweep_compares_failing_rows_mod_p(monkeypatch, shift, failed, counterexample):
    from quadrance import projective

    def broken(form, a1, a2, fn=projective.pairing):
        return fn(form, a1, a2) + (shift if (a2.x, a2.y) == (3, 1) else 0)

    monkeypatch.setattr(projective, "pairing", broken)
    report = run_suite("fibonacci", make_context("fp:7"))
    assert (report.attempted, report.failed) == (9604, failed) and counts_ok(report)
    assert report.counterexample == counterexample


@pytest.mark.parametrize("kernel, failed, coefficients", [
    # form_value raises in the first form, and in every one after it
    ("form_value", 4 * 7 ** 4, {"d": "1", "e": "0", "f": "1"}),
    # discriminant runs once per form: its fourth call is the general form's
    ("discriminant", 7 ** 4, {"d": "1", "e": "2", "f": "3"}),
])
def test_an_error_in_a_form_fails_every_fibonacci_case_of_the_form(monkeypatch, kernel, failed,
                                                                   coefficients):
    from quadrance import projective

    monkeypatch.setattr(projective, kernel, _raises_from_call(getattr(projective, kernel), 4))
    report = run_suite("fibonacci", make_context("fp:7"))
    assert (report.attempted, report.failed) == (9604, failed) and counts_ok(report)
    assert report.counterexample == {
        "identity": "generalized-fibonacci", "inputs": coefficients,
        "lhs": "InvalidArgument: broken at call 4", "rhs": "no error"}


def test_a_point_identity_error_is_reported_by_both_drivers(monkeypatch):
    # over Q the green power bridge takes the fourth call, in the third trial
    original = isometry.point_identity
    for field in ("fp:7", "rationals"):
        monkeypatch.setattr(isometry, "point_identity", _raises_from_call(original, 4))
        report = run_suite("isometry", make_context(field), trials=30, seed=0)
        assert report.failed > 0 and counts_ok(report), field
        assert report.counterexample["lhs"] == "InvalidArgument: broken at call 4", field


def test_an_error_building_s_n_fails_every_green_power_case(monkeypatch):
    # S_1..S_8 are built once per call: 6 live green points times 8 powers
    # over F_7, and the end of each of the 30 green trials over Q
    for field, failed in (("fp:7", 48), ("rationals", 30)):
        monkeypatch.setattr(spreadpoly, "spread_poly",
                            _raises_from_call(spreadpoly.spread_poly, 4, 4))
        report = run_suite("isometry", make_context(field), trials=30, seed=0, colors=["green"])
        monkeypatch.undo()
        assert report.failed == failed and counts_ok(report), field
        assert report.counterexample["identity"] == "green-power-spread-bridge", field
        assert report.counterexample["lhs"] == "InvalidArgument: broken at call 4", field


def test_kernel_errors_in_the_chromo_proof_identity_fail_their_case(monkeypatch):
    # the proof identity takes three coloured fractions first in every case;
    # broken from its fourth call on, the first live case fails in a later
    # law and every later case in the proof identity, each case alone
    from quadrance import chromo

    original = chromo.colored_quadrance_fraction
    for field, counts in (("fp:7", (64, 0, 16, 48)), ("rationals", (30, 0, 30, 0))):
        monkeypatch.setattr(chromo, "colored_quadrance_fraction", _raises_from_call(original, 4))
        report = run_suite("chromo", make_context(field), trials=30, seed=0)
        assert (report.attempted, report.passed, report.failed, report.skipped) == counts, field
        monkeypatch.setattr(chromo, "colored_quadrance_fraction", _raises_from_call(original, 1))
        failure = run_suite("chromo", make_context(field), trials=30, seed=0).counterexample
        assert failure["identity"] == "reciprocal-sum-proof-identity", field
        assert (failure["lhs"], failure["rhs"]) == ("InvalidArgument: broken at call 1",
                                                    "no error"), field


def test_kernel_errors_in_a_spread_composition_fail_their_case(monkeypatch):
    # poly_compose runs in the 36 composition cases, then in the 16
    # spread_via_chebyshev cases and in every factor phi_k with k >= 2,
    # which fail the cyclotomic products n = 2..12.  Broken from its fourth
    # call on, every fixed case that reaches it after the third fails alone
    original = spreadpoly.poly_compose
    for field in ("fp:7", "rationals"):
        monkeypatch.setattr(spreadpoly, "_phi_cache", {})
        monkeypatch.setattr(spreadpoly, "poly_compose", _raises_from_call(original, 4))
        report = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        assert report.failed == 33 + 16 + 11 and counts_ok(report), field
        assert report.counterexample == {
            "identity": "spread-composition", "inputs": {"n": "1", "m": "4"},
            "lhs": "InvalidArgument: broken at call 4",
            "rhs": str(spreadpoly.spread_poly(4))}, field


# (module, kernel, the cases that fail over F_7 when its fourth call raises,
# and the inputs reported).  poly_eval's fourth call builds the sweep's
# S_k(r) table, so all p + (p-1)^2 = 43 sweep cases fail with it, and the
# skips stay the same; triple_spread_fn, and the archimedes it calls, fail
# the first residue alone, and the sweep resumes after it.  Over Q the
# fourth call falls in the first trial, which fails alone.
SPREAD_LOOP_KERNELS = [
    ("spreadpoly", "poly_eval", 43, {"p": "7"}),
    ("projective", "triple_spread_fn", 1, {"s": "0"}),
    ("affine", "archimedes", 1, {"s": "0"}),
]


@pytest.mark.parametrize("module, kernel, failing, inputs", SPREAD_LOOP_KERNELS,
                         ids=[row[1] for row in SPREAD_LOOP_KERNELS])
def test_kernel_errors_in_the_spreadpoly_loops_fail_their_case(monkeypatch, module, kernel,
                                                               failing, inputs):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    original = getattr(mod, kernel)
    for field, fails in (("fp:7", failing), ("rationals", 1)):
        clean = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        monkeypatch.setattr(mod, kernel, _raises_from_call(original, 4, 4))
        report = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        monkeypatch.setattr(mod, kernel, original)
        assert (report.attempted, report.skipped, report.skip_reasons) == (
            clean.attempted, clean.skipped, clean.skip_reasons), field
        assert report.failed == fails and counts_ok(report), field
        failure = report.counterexample
        assert failure["identity"] == "spread-recurrence-triple", field
        assert (failure["lhs"], failure["rhs"]) == ("InvalidArgument: broken at call 4",
                                                    "no error"), field
        if field == "fp:7":
            assert failure["inputs"] == inputs


# Calls of each kernel, through its module attribute, in one sweep over
# F_7, with no spread-cyclotomic factor cached.  A fast path that skipped a
# kernel would change them.  The isometry sweep takes form_value once per
# composed parameter (544) and once per blue and red isometry (16 + 12), and
# S_1..S_8 once per call.  The spreadpoly sweep builds each factor phi_k,
# k = 2..12, with one poly_compose and one spread_cyclotomic(k/p) call.
KERNEL_CENSUS = {
    "isometry": {("chromo", "colored_quadrance_fraction"): 2120,
                 ("isometry", "multiply_points"): 2236, ("isometry", "compose"): 680,
                 ("isometry", "matrix_of"): 904, ("isometry", "apply"): 320,
                 ("projective", "form_value"): 572, ("spreadpoly", "spread_poly"): 8},
    "fibonacci": {("projective", "pairing"): 9604, ("projective", "form_value"): 196,
                  ("projective", "discriminant"): 4},
    "spreadpoly": {("spreadpoly", "poly_compose"): 63, ("spreadpoly", "spread_via_chebyshev"): 16,
                   ("spreadpoly", "chebyshev_T"): 16, ("spreadpoly", "spread_cyclotomic"): 46,
                   ("spreadpoly", "spread_poly"): 49, ("spreadpoly", "poly_eval"): 259,
                   ("spreadpoly", "divisors"): 12},
}


@pytest.mark.parametrize("suite", KERNEL_CENSUS)
def test_fp_sweeps_reach_every_kernel_call(monkeypatch, suite):
    import importlib

    counts = dict.fromkeys(KERNEL_CENSUS[suite], 0)
    for module, kernel in counts:
        mod = importlib.import_module(f"quadrance.{module}")

        def counted(*args, _kernel=getattr(mod, kernel), _key=(module, kernel)):
            counts[_key] += 1
            return _kernel(*args)
        monkeypatch.setattr(mod, kernel, counted)
    monkeypatch.setattr(spreadpoly, "_phi_cache", {})
    report = run_suite(suite, make_context("fp:7"))
    assert report.failed == 0 and counts_ok(report)
    assert counts == KERNEL_CENSUS[suite]


def test_wrong_small_spread_poly_is_reported_not_raised(monkeypatch):
    # with a wrong S_2, phi_2 = 5 - 4s still has degree 1.  phi_4 and phi_8
    # are compositions with S_2, so they come out wrong without raising and
    # n = 4 and 8 fail as plain mismatches; S_6 and S_10 are not divisible by
    # phi_2, so spread_cyclotomic(6) and (10) raise FactorizationFailure, and
    # phi_12 = phi_6 o S_2 with them.  Every even n fails, and none raises.
    import quadrance.verify as v

    right, record = spreadpoly.spread_poly, v.mismatch

    def wrong_s2(n):
        return spreadpoly.IntPolynomial([0, 5, -4]) if n == 2 else right(n)

    seen = []

    def recording_mismatch(identity, inputs, lhs, rhs):
        seen.append((identity, inputs, str(lhs)))
        return record(identity, inputs, lhs, rhs)

    monkeypatch.setattr(spreadpoly, "spread_poly", wrong_s2)
    monkeypatch.setattr(spreadpoly, "_phi_cache", {})
    monkeypatch.setattr(v, "mismatch", recording_mismatch)
    for ctx in (make_context("fp:7"), make_context("rationals")):
        seen.clear()
        report = run_suite("spreadpoly", ctx, trials=50)
        assert report.failed > 0
        assert counts_ok(report)
        products = {inputs["n"]: lhs for identity, inputs, lhs in seen
                    if identity == "spread-cyclotomic-product"}
        assert sorted(products) == [4, 6, 8, 10, 12]
        assert [n for n, lhs in products.items()
                if lhs.startswith("FactorizationFailure")] == [6, 10, 12]
        assert not any(products[n].startswith("FactorizationFailure") for n in (4, 8))


def test_a_wrong_s6_that_still_factors_fails_its_product(monkeypatch):
    # S_6 + S_2 phi_3 keeps every division exact: dividing it by phi_1, phi_2
    # and phi_3 gives phi_6 + 1, whose product with them is the wrong S_6
    # again.  The factors are built from S_2 and S_3 alone, so their product
    # is the true S_6, and n = 6 is the one cyclotomic product that fails
    import quadrance.verify as v

    right, record = spreadpoly.spread_poly, v.mismatch

    def wrong_s6(n):
        return right(6) + right(2) * spreadpoly.spread_cyclotomic(3) if n == 6 else right(n)

    seen = []

    def recording_mismatch(identity, inputs, lhs, rhs):
        seen.append((identity, inputs))
        return record(identity, inputs, lhs, rhs)

    monkeypatch.setattr(spreadpoly, "spread_poly", wrong_s6)
    monkeypatch.setattr(spreadpoly, "_phi_cache", {})
    monkeypatch.setattr(v, "mismatch", recording_mismatch)
    for ctx in (make_context("fp:7"), make_context("rationals")):
        seen.clear()
        report = run_suite("spreadpoly", ctx, trials=30, seed=0)
        assert counts_ok(report)
        assert [inputs["n"] for identity, inputs in seen
                if identity == "spread-cyclotomic-product"] == [6]


def _swapped_parameter(fn):
    # [x:y] -> [y:x] is null exactly when [x:y] is, for every colour
    return lambda color, kind, param: fn(color, kind, isometry.ProjPoint(param.y, param.x))


# (module, kernel, how it is broken, suite, fields, the identity reported first).
# These checks call the kernel instead of re-deriving its formula, so a broken
# kernel fails them.
REROUTED_KERNELS = [
    ("projective", "pairing", _plus_one, "fibonacci", ("fp:5", "rationals"),
     "generalized-fibonacci"),
    ("projective", "form_value", _plus_one, "fibonacci", ("fp:5", "rationals"),
     "generalized-fibonacci"),
    ("projective", "discriminant", _plus_one, "fibonacci", ("fp:5", "rationals"),
     "generalized-fibonacci"),
    ("chromo", "colored_quadrance_fraction", _numerator_plus_x1x2, "chromo",
     ("fp:7", "rationals"), "reciprocal-sum-proof-identity"),
    ("projective", "form_value", _plus_one, "isometry", ("fp:7",), "fibonacci-identity-blue"),
    ("isometry", "make_isometry", _swapped_parameter, "isometry", ("fp:7", "rationals"),
     "multiplication-vs-rotation-composition"),
    # over F_p doubling keeps every zero of the formula, so nothing fails there
    ("projective", "quadruple_spread_fn", lambda fn: lambda *args: 2 * fn(*args),
     "quadruple-spread", ("rationals",), "two-spread-triples-rearrangement"),
    ("spreadpoly", "spread_poly", lambda fn: lambda n: fn(n) * 2 if n == 5 else fn(n),
     "spreadpoly", ("fp:7", "rationals"), "spread-degree-leading"),
]


@pytest.mark.parametrize("module, kernel, breaker, suite, fields, identity", REROUTED_KERNELS,
                         ids=[f"{m[1]}-{m[3]}" for m in REROUTED_KERNELS])
def test_checks_reach_the_kernels_they_state(monkeypatch, module, kernel, breaker, suite,
                                             fields, identity):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    for field in fields:
        # keep factors of a broken spread_poly out of the shared cache
        monkeypatch.setattr(spreadpoly, "_phi_cache", {})
        report = run_suite(suite, make_context(field), trials=50)
        assert report.failed > 0, field
        assert report.counterexample["identity"] == identity, field
        assert counts_ok(report)


def _first_failures(suite, fields, colors=None):
    """The first failing identity of each field's report (seed 0, with 30
    and with 50 trials), checking that each run fails and its counts add up."""
    identities = set()
    for field in fields:
        for trials in (30, 50):
            report = run_suite(suite, make_context(field), trials=trials, seed=0, colors=colors)
            assert report.failed > 0 and counts_ok(report), (field, trials)
            identities.add(report.counterexample["identity"])
    return identities


def test_form_rescaling_invariance_sees_a_kernel_not_homogeneous_in_the_form(monkeypatch):
    # blue has d = 1, so only the form scaled by lambda changes the value
    from quadrance import projective

    original = projective.p_quadrance
    monkeypatch.setattr(projective, "p_quadrance",
                        lambda form, a1, a2: original(form, a1, a2) * form.d)
    assert _first_failures("triple-spread", ("rationals",), ["blue"]) == {
        "form-rescaling-invariance"}


def test_composition_kind_parity_sees_a_flipped_kind(monkeypatch):
    # a flipped kind alone, or rotation shapes alone, fail the table against
    # the matrix product first; together the matrices agree and the kind does not
    compose, matrix_of = isometry.compose, isometry.matrix_of

    def flipped(iso1, iso2):
        iso = compose(iso1, iso2)
        kind = (isometry.IsoKind.REFLECTION if iso.kind is isometry.IsoKind.ROTATION
                else isometry.IsoKind.ROTATION)
        return isometry.ProjIsometry(iso.color, kind, iso.param)

    monkeypatch.setattr(isometry, "compose", flipped)
    monkeypatch.setattr(isometry, "matrix_of", lambda iso: matrix_of(
        isometry.ProjIsometry(iso.color, isometry.IsoKind.ROTATION, iso.param)))
    assert _first_failures("isometry", ("fp:7", "rationals")) == {"composition-kind-parity"}


def test_broken_chebyshev_is_reported_not_raised(monkeypatch):
    # T_5 with its linear coefficient plus one does not halve to integers:
    # spread_via_chebyshev(5) raises NonIntegralResult, which the
    # spread-via-chebyshev case reports against S_5
    right = spreadpoly.chebyshev_T

    def broken(n):
        coeffs = list(right(n).coeffs)
        if n == 5:
            coeffs[1] += 1
        return spreadpoly.IntPolynomial(coeffs)

    monkeypatch.setattr(spreadpoly, "chebyshev_T", broken)
    for field in ("fp:7", "rationals"):
        report = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        assert report.failed == 1 and counts_ok(report), field
        assert report.counterexample == {
            "identity": "spread-via-chebyshev", "inputs": {"n": "5"},
            "lhs": "NonIntegralResult: odd coefficient -1 while halving",
            "rhs": str(spreadpoly.spread_poly(5))}


def _raises_at(fn, bad):
    """fn, raising InvalidArgument at the index bad."""
    def broken(n):
        if n == bad:
            raise InvalidArgument(f"broken at {n}")
        return fn(n)
    return broken


# (kernel, the index it raises at, the fixed cases n that report it): any
# kernel error is reported, not only the NonIntegralResult and
# FactorizationFailure that a wrong polynomial raises
FIXED_CASE_BREAKERS = [
    ("chebyshev_T", 5, "spread-via-chebyshev", [5]),
    ("spread_cyclotomic", 6, "spread-cyclotomic-product", [6, 12]),
]


@pytest.mark.parametrize("kernel, bad, identity, failing", FIXED_CASE_BREAKERS,
                         ids=[row[0] for row in FIXED_CASE_BREAKERS])
def test_any_kernel_error_in_a_fixed_case_is_reported_not_raised(monkeypatch, kernel, bad,
                                                                  identity, failing):
    import quadrance.verify as v

    record, seen = v.mismatch, []

    def recording_mismatch(identity, inputs, lhs, rhs):
        if str(lhs).startswith("InvalidArgument"):
            seen.append(inputs["n"])
        return record(identity, inputs, lhs, rhs)

    monkeypatch.setattr(spreadpoly, kernel, _raises_at(getattr(spreadpoly, kernel), bad))
    monkeypatch.setattr(v, "mismatch", recording_mismatch)
    for field in ("fp:7", "rationals"):
        # keep factors of a broken spread_cyclotomic out of the shared cache
        monkeypatch.setattr(spreadpoly, "_phi_cache", {})
        seen.clear()
        report = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        assert report.failed == len(failing) and counts_ok(report), field
        assert seen == failing, field
        assert report.counterexample == {
            "identity": identity, "inputs": {"n": str(failing[0])},
            "lhs": f"InvalidArgument: broken at {bad}",
            "rhs": str(spreadpoly.spread_poly(failing[0]))}


def test_an_error_building_the_spread_rows_fails_every_spreadpoly_case(monkeypatch):
    # S_0..S_36 are built once per run, inside one guard: an error building
    # S_20 fails every case the suite attempts, and the skips stay the same
    right = spreadpoly.spread_poly
    for field in ("fp:7", "rationals"):
        clean = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        monkeypatch.setattr(spreadpoly, "spread_poly", _raises_at(right, 20))
        report = run_suite("spreadpoly", make_context(field), trials=30, seed=0)
        monkeypatch.setattr(spreadpoly, "spread_poly", right)
        assert (report.attempted, report.skipped, report.skip_reasons) == (
            clean.attempted, clean.skipped, clean.skip_reasons), field
        assert report.passed == 0 and counts_ok(report), field
        assert report.counterexample == {
            "identity": "spread-degree-leading", "inputs": {"n": "20"},
            "lhs": "InvalidArgument: broken at 20", "rhs": "no error"}, field


@pytest.mark.parametrize("suite, identity", [("triple-spread", "triple-spread-formula"),
                                             ("spreadpoly", "spread-recurrence-triple")])
def test_a_broken_archimedes_reaches_the_spread_suites(monkeypatch, suite, identity):
    # projective calls Archimedes' function through the affine module, so a
    # breaker set there reaches the triple spread function too
    import quadrance.affine as af

    monkeypatch.setattr(af, "archimedes", _plus_abc(af.archimedes))
    for field in ("fp:7", "rationals"):
        report = run_suite(suite, make_context(field), trials=30, seed=0)
        assert report.failed > 0 and counts_ok(report), field
        assert report.counterexample["identity"] == identity, field


def _numerator_plus_abc(fn):
    def broken(a, b, c, d):
        num, den = fn(a, b, c, d)
        return num + a * b * c, den
    return broken


def test_quadruple_quad_diagonal_is_reported_mod_p(monkeypatch):
    # the first failing diagonal is q13 = (2 - 0)^2 = 4, which prints as 1 mod 3
    import quadrance.affine as af

    monkeypatch.setattr(af, "quad_triple_pair_fraction",
                        _numerator_plus_abc(af.quad_triple_pair_fraction))
    report = run_suite("quadruple-quad", make_context("fp:3"))
    assert report.failed == 6
    assert report.counterexample == {
        "identity": "quadruple-quad-q13",
        "inputs": {"x1": "0", "x2": "1", "x3": "2", "x4": "0"}, "lhs": "0", "rhs": "1",
    }


def _first_alternate_plus_one(fn):
    def broken(*args):
        first, *rest = fn(*args)
        return [first + 1, *rest]
    return broken


def _index_plus_one(fn):
    return lambda n: fn(n + 1)


def _closed_form_plus_one(fn):
    def broken(x, y, n):
        value = fn(x, y, n)
        return spreadpoly.GreenRatioValue(value.s, value.sn_of_s, value.closed_form + 1)
    return broken


def _denominator_plus_one(fn):
    # not homogeneous: the value now depends on the representatives
    def broken(*args):
        num, den = fn(*args)
        return num, den + 1
    return broken


def _misses_red_null(fn):
    # red-null points pass as non-null
    return lambda color, a: color is not Color.RED and fn(color, a)


# (module, kernel, how it is broken, suite).  verify reaches each of these
# kernels, and broken, each one changes the suite's report over F_7 or Q.
REPORT_CHANGING_KERNELS = [
    ("affine", "det4", _plus_one, "triple-quad"),
    ("affine", "archimedes_forms", _first_alternate_plus_one, "triple-quad"),
    ("projective", "canonical", lambda fn: lambda values: tuple(v + 1 for v in fn(values)),
     "isometry"),
    # [0:1] is null too; other points keep their answer, so random_point returns
    ("projective", "is_null", lambda fn: lambda form, a: fn(form, a) or a.x == 0,
     "triple-spread"),
    ("projective", "p_quadrance", _plus_one, "triple-spread"),
    ("projective", "p_quadrance_fraction", _denominator_plus_one, "triple-spread"),
    ("projective", "triple_spread_forms", _first_alternate_plus_one, "triple-spread"),
    ("chromo", "colored_form",
     lambda fn: lambda color: fn(Color.RED if color is Color.BLUE else color), "triple-spread"),
    ("chromo", "perpendicular_point", lambda fn: lambda color, a: a, "chromo"),
    ("chromo", "is_null_for", _misses_red_null, "chromo"),
    ("chromo", "colored_quadrance", _plus_one, "chromo"),
    ("chromo", "reciprocal_sum", _plus_one, "chromo"),
    ("isometry", "point_identity", lambda fn: lambda color: isometry.ProjPoint(1, 2), "isometry"),
    ("isometry", "point_power", lambda fn: lambda color, p, n: fn(color, p, n + 1), "isometry"),
    ("isometry", "blue_sqrt", lambda fn: lambda p: p, "isometry"),
    ("spreadpoly", "poly_compose",
     lambda fn: lambda f, g: fn(f, g) + spreadpoly.IntPolynomial([0, 2]), "spreadpoly"),
    ("spreadpoly", "chebyshev_T", _index_plus_one, "spreadpoly"),
    ("spreadpoly", "spread_via_chebyshev", _index_plus_one, "spreadpoly"),
    ("spreadpoly", "divisors", lambda fn: lambda n: fn(n)[:-1], "spreadpoly"),
    ("spreadpoly", "spread_cyclotomic", lambda fn: lambda k: fn(k) * 2, "spreadpoly"),
    ("spreadpoly", "spread_at_green_ratio", _closed_form_plus_one, "spreadpoly"),
]


def _report_or_error(suite, field):
    """The suite's report with elapsed_ms dropped (seed 0, 30 trials, cold
    spread-cyclotomic cache), or the QuadranceError the run raised."""
    spreadpoly._phi_cache.clear()
    try:
        report = run_suite(suite, make_context(field), trials=30, seed=0).to_dict()
    except QuadranceError as exc:
        return exc
    finally:
        spreadpoly._phi_cache.clear()
    del report["elapsed_ms"]
    return report


@pytest.mark.parametrize("module, kernel, breaker, suite", REPORT_CHANGING_KERNELS,
                         ids=[m[1] for m in REPORT_CHANGING_KERNELS])
def test_broken_kernel_changes_the_report(monkeypatch, module, kernel, breaker, suite):
    import importlib

    fields = ("fp:7", "rationals")
    right = [_report_or_error(suite, field) for field in fields]
    assert all(isinstance(r, dict) and r["failed"] == 0 for r in right)
    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    broken = [_report_or_error(suite, field) for field in fields]
    assert any(isinstance(b, QuadranceError) or b != r for b, r in zip(broken, right))


# Public functions of the kernel modules that verify does not reach, and why.
NOT_REACHED = {
    "isometry.classify": "CLI only: eval pclassify",
    "affine.isometry_classify": "CLI only: eval aclassify",
    "projective.projective_quadruple_check": "CLI only: example paper",
    "projective.solve_spread_triple_pair": "named as a per-layer metric in BENCHMARK.json",
    "affine.is_quad_triple": "paper API with its own tests",
    "projective.is_spread_triple": "paper API with its own tests",
    "affine.solve_quad_triple_pair": "paper API with its own tests",
    "affine.isometry_apply": "paper API with its own tests",
    "affine.isometry_compose": "paper API with its own tests",
    "affine.isometry_invert": "paper API with its own tests",
}


def test_every_kernel_is_mutation_tested_or_listed_unreached():
    import importlib
    import inspect

    public = set()
    for module in ("affine", "projective", "chromo", "isometry", "spreadpoly"):
        mod = importlib.import_module(f"quadrance.{module}")
        public |= {f"{module}.{name}" for name, obj in vars(mod).items()
                   if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                   and not name.startswith("_")}
    mutated = {f"{row[0]}.{row[1]}" for row in RESIDUE_MUTATIONS + RATIONAL_MUTATIONS
               + TABLE_KERNELS + REROUTED_KERNELS}
    mutated |= {f"isometry.{row[0]}" for row in VANISHING_MOD_7}
    report_changing = [f"{row[0]}.{row[1]}" for row in REPORT_CHANGING_KERNELS]
    places = [mutated, set(report_changing), set(NOT_REACHED)]
    assert len(report_changing) == len(set(report_changing))
    for name in sorted(public):
        assert sum(name in place for place in places) == 1, name
    assert set().union(*places) == public


def test_point_rescaling_invariance_sees_a_non_homogeneous_kernel(monkeypatch):
    # p_quadrance clears rational points to ints; the cleared [1/2:1/3] and
    # [1:2/3] agree, but the form and the other point are scaled by 6 and by
    # 3, so a kernel that is not homogeneous gives two values
    from fractions import Fraction as Fr

    from quadrance import projective
    from quadrance.projective import Form, ProjPoint
    from quadrance.verify import _scale_invariance_case

    args = Form(1, 0, 1), ProjPoint(Fr(1, 2), Fr(1, 3)), ProjPoint(Fr(1), Fr(1)), Fr(2)
    assert _scale_invariance_case(*args) is None
    monkeypatch.setattr(projective, "p_quadrance_fraction",
                        _denominator_plus_one(projective.p_quadrance_fraction))
    assert _scale_invariance_case(*args)["identity"] == "point-rescaling-invariance"


CHROMO_BREAKERS = [
    # 1/(q + 1) divides by zero where q = -1 over F_7: reciprocal_sum raised
    ("colored_quadrance", _plus_one, {"fp:7": "DivisionByZero"}),
    # red-null points pass as non-null, and colored_quadrance names them
    ("is_null_for", _misses_red_null, {"fp:7": "NullPoint", "rationals": "NullPoint"}),
]


@pytest.mark.parametrize("kernel, breaker, raised", CHROMO_BREAKERS,
                         ids=[m[0] for m in CHROMO_BREAKERS])
def test_broken_chromo_kernel_is_reported_not_raised(monkeypatch, kernel, breaker, raised):
    # the chromo points are checked non-null, so an error a kernel raises on
    # them is the mismatch of the identity checked, with the error as lhs
    import quadrance.verify as v
    from quadrance import chromo

    record, seen = v.mismatch, []

    def recording_mismatch(identity, inputs, lhs, rhs):
        seen.append(str(lhs))
        return record(identity, inputs, lhs, rhs)

    monkeypatch.setattr(chromo, kernel, breaker(getattr(chromo, kernel)))
    monkeypatch.setattr(v, "mismatch", recording_mismatch)
    for field in ("fp:7", "rationals"):
        seen.clear()
        report = run_suite("chromo", make_context(field), trials=30, seed=0)
        assert report.failed > 0, field
        assert counts_ok(report)
        if field in raised:
            assert any(lhs.startswith(f"{raised[field]}: ") for lhs in seen), field


def _right_only_on(points):
    # the right perpendicular at ``points``, and the point itself elsewhere
    return lambda fn: lambda color, a: fn(color, a) if a in points else a


_A1, _A2 = isometry.ProjPoint(1, 2), isometry.ProjPoint(1, 3)


def _wrong_only_on(color, b1, b2):
    # q + 1 for the one pair (b1, b2) of ``color``, the right value elsewhere
    def breaker(fn):
        def broken(c, a1, a2):
            num, den = fn(c, a1, a2)
            return (num + den, den) if (c, a1, a2) == (color, b1, b2) else (num, den)
        return broken
    return breaker


# (kernel, how it is broken, p, the failure of _chromo_case on [1:2], [1:3]).
# Each breaker keeps every earlier law of the case, so the law named fails.
CHROMO_LATE_LAWS = [
    ("perpendicular_point", _right_only_on([_A1]), None,
     {"identity": "color-invariance-blue-blue", "inputs": {"a1": "[1:2]", "a2": "[1:3]"},
      "lhs": "49/50", "rhs": "1/50"}),
    ("perpendicular_point", _right_only_on([_A1]), 7,
     {"identity": "color-invariance-blue-blue", "inputs": {"a1": "[1:2]", "a2": "[1:3]"},
      "lhs": "0", "rhs": "1"}),
    # blue's cross pair: the red perpendicular of a1 and the green one of a2
    ("colored_quadrance_fraction",
     _wrong_only_on(Color.BLUE, isometry.ProjPoint(2, 1), isometry.ProjPoint(1, -3)), None,
     {"identity": "cross-symmetry-blue", "inputs": {"a1": "[1:2]", "a2": "[1:3]"},
      "lhs": "99/50", "rhs": "49/50"}),
    ("colored_quadrance_fraction",
     _wrong_only_on(Color.BLUE, isometry.ProjPoint(2, 1), isometry.ProjPoint(1, -3)), 7,
     {"identity": "cross-symmetry-blue", "inputs": {"a1": "[1:2]", "a2": "[1:3]"},
      "lhs": "1", "rhs": "0"}),
    ("perpendicular_point", _right_only_on([_A1, _A2]), None,
     {"identity": "perpendicular-involution-blue", "inputs": {"a": "[1:2]"},
      "lhs": "[1:-1/2]", "rhs": "[1:2]"}),
    ("perpendicular_point", _right_only_on([_A1, _A2]), 7,
     {"identity": "perpendicular-involution-blue", "inputs": {"a": "[1:2]"},
      "lhs": "[1:3]", "rhs": "[1:2]"}),
]


@pytest.mark.parametrize("kernel, breaker, p, failure", CHROMO_LATE_LAWS,
                         ids=[f"{row[3]['identity']}-{row[2]}" for row in CHROMO_LATE_LAWS])
def test_chromo_case_reports_its_late_laws(monkeypatch, kernel, breaker, p, failure):
    from quadrance import chromo
    from quadrance.verify import _chromo_case

    assert _chromo_case((_A1, _A2), (_A1, _A2), p) is None
    monkeypatch.setattr(chromo, kernel, breaker(getattr(chromo, kernel)))
    assert _chromo_case((_A1, _A2), (_A1, _A2), p) == failure


def test_chromo_proof_identity_prints_the_sampled_representatives(monkeypatch):
    # the proof identity prints uncancelled values, so it must not run on
    # cleared points: the same case prints lhs 450, rhs 458 with each point
    # cleared, and lhs 16200, rhs 16248 with the pair cleared together
    from quadrance import chromo

    monkeypatch.setattr(chromo, "colored_quadrance_fraction",
                        _numerator_plus_x1x2(chromo.colored_quadrance_fraction))
    report = run_suite("chromo", make_context("rationals"), trials=30, seed=0)
    assert (report.attempted, report.failed) == (30, 30)
    assert report.counterexample == {
        "identity": "reciprocal-sum-proof-identity", "inputs": {"a1": "[1:3]", "a2": "[1:-3/4]"},
        "lhs": "25/2", "rhs": "83/6"}


def test_chromo_proof_identity_runs_on_the_lifted_pair(monkeypatch):
    # the drawn pair is lifted together before the proof identity, so no
    # unlifted Fraction reaches the kernel; the later laws pass int points
    from quadrance import chromo
    from quadrance.field import Scaled

    seen = []
    fraction = chromo.colored_quadrance_fraction

    def recording(color, a1, a2):
        seen.extend((a1.x, a1.y, a2.x, a2.y))
        return fraction(color, a1, a2)

    monkeypatch.setattr(chromo, "colored_quadrance_fraction", recording)
    report = run_suite("chromo", make_context("rationals"), trials=30, seed=0)
    assert (report.attempted, report.passed) == (30, 30)
    assert {type(v) for v in seen} == {int, Scaled}


def _returns_argument(fn):
    return lambda color, a: a


_SWAPPED_PERPENDICULAR = {Color.RED: Color.GREEN, Color.GREEN: Color.RED}


def _permuted_perpendiculars(fn):
    # blue's perpendicular is the point itself, red's is green's and green's
    # red's: every chromo law but perpendicular-<colour> holds for these maps
    return lambda color, a: a if color is Color.BLUE else fn(_SWAPPED_PERPENDICULAR[color], a)


CHROMO_MUTATION_GOLDEN = (Path(__file__).with_name("data")
                          / "verify_chromo_mutations_golden.json")

# (kernel, how it is broken).  The golden file holds the chromo reports under
# each, over F_7 and over Q (seed 0, 30 trials), as the suite gave them when
# it compared colored_quadrance values, on Fp points over F_p.  The last
# row's entries came with the perpendicular-<colour> law, which alone fails
# under it.
CHROMO_MUTATIONS = [
    ("colored_quadrance_fraction", _denominator_plus_one),
    ("colored_quadrance_fraction", _numerator_plus_x1x2),
    ("perpendicular_point", _returns_argument),
    ("perpendicular_point", _permuted_perpendiculars),
]


@pytest.mark.parametrize("field", ("fp:7", "rationals"))
@pytest.mark.parametrize("kernel, breaker", CHROMO_MUTATIONS,
                         ids=[f"{k}{b.__name__}" for k, b in CHROMO_MUTATIONS])
def test_chromo_reports_under_broken_kernels_match_golden(monkeypatch, kernel, breaker, field):
    from quadrance import chromo

    golden = json.loads(CHROMO_MUTATION_GOLDEN.read_text(encoding="utf-8"))
    want = golden[f"{kernel} {breaker.__name__} {field}"]
    monkeypatch.setattr(chromo, kernel, breaker(getattr(chromo, kernel)))
    got = run_suite("chromo", make_context(field), trials=30, seed=0).to_dict()
    del got["elapsed_ms"]
    assert got["failed"] > 0
    assert json.dumps(got) == json.dumps(want)


def test_chromo_sweep_builds_few_fp_objects(monkeypatch):
    # the chromo sweep runs on int residues: Fp is left in its null filter
    # and in one reciprocal_sum call per case (on Fp points it built 5,706)
    from quadrance import field

    built = [0]
    init = field.Fp.__init__

    def counting_init(self, r, p):
        built[0] += 1
        init(self, r, p)

    monkeypatch.setattr(field.Fp, "__init__", counting_init)
    report = run_suite("chromo", make_context("fp:7"))
    assert (report.passed, report.failed) == (16, 0)
    assert 0 < built[0] <= 1000


def test_random_element_reads_the_two_draws_from_a_table():
    import random
    from fractions import Fraction

    from quadrance.verify import random_element

    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(300):
            got = random_element(None, rng)
            want = Fraction(ref.randint(-12, 12), ref.randint(1, 12))
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert rng.getstate() == ref.getstate()


def test_random_point_gives_up_on_a_null_test_that_rejects_every_draw(monkeypatch):
    # is_null + 1 calls every point null: the sampler redrew forever; now it
    # raises one NullPoint, and the CLI exits 3 with one line
    import contextlib
    import io

    from quadrance import projective
    from quadrance.cli import main
    from quadrance.errors import NullPoint

    monkeypatch.setattr(projective, "is_null", _plus_one(projective.is_null))
    with pytest.raises(NullPoint, match="rejected every draw"):
        run_suite("triple-spread", make_context("rationals"), trials=30, seed=0)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--suite", "triple-spread", "--trials", "30"])
    assert code == 3
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith("error: NullPoint: the suite's null test rejected")


def test_random_point_tests_each_draw_once_cleared():
    # random_point clears each nonzero draw once, hands that point to keep,
    # and returns it with the drawn point; the random stream is the one of
    # a loop of random_element pairs with the same rejections
    import random
    from fractions import Fraction

    from quadrance.verify import random_point

    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for trial in range(30):
            seen = []

            def keep(a):
                seen.append(a)
                return len(seen) % 3 == 0 or trial % 2 == 0

            drawn, cleared = random_point(rng, keep)
            draws = []
            while len(draws) < len(seen):
                x, y = (Fraction(ref.randint(-12, 12), ref.randint(1, 12)) for _ in range(2))
                if x != 0 or y != 0:
                    draws.append(isometry.ProjPoint(x, y))
            assert all(type(v) is int for a in seen for v in (a.x, a.y))
            assert [a.canonical() for a in seen] == [a.canonical() for a in draws]
            assert cleared is seen[-1]
            assert (drawn.x, drawn.y) == (draws[-1].x, draws[-1].y)
            assert type(drawn.x) is Fraction and drawn == cleared
        assert rng.getstate() == ref.getstate()


DRAW_RULE_GOLDEN = Path(__file__).with_name("data") / "verify_draw_rule_golden.json"

# (module, kernel, how it is broken, suite), run over Q with seeds 0 and 42
# and 30 trials.  The golden file holds the reports as they were when the
# spread samplers tested their null test on the drawn point, so a change of
# the representative a null test or a check runs on shows up here.
DRAW_RULE_MUTATIONS = [
    ("projective", "form_value", _plus_one, "triple-spread"),
    ("projective", "form_value", _plus_one, "quadruple-spread"),
    ("chromo", "is_null_for", _misses_red_null, "chromo"),
]


@pytest.mark.parametrize("seed", (0, 42))
@pytest.mark.parametrize("module, kernel, breaker, suite", DRAW_RULE_MUTATIONS,
                         ids=[f"{m[1]}-{m[3]}" for m in DRAW_RULE_MUTATIONS])
def test_reports_under_broken_null_tests_match_golden(monkeypatch, module, kernel, breaker,
                                                      suite, seed):
    import importlib

    golden = json.loads(DRAW_RULE_GOLDEN.read_text(encoding="utf-8"))
    want = golden[f"{kernel} {breaker.__name__} {suite} {seed}"]
    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, breaker(getattr(mod, kernel)))
    got = run_suite(suite, make_context("rationals"), trials=30, seed=seed).to_dict()
    del got["elapsed_ms"]
    assert json.dumps(got) == json.dumps(want)


def test_lifted_points_are_the_sampled_rationals_and_refuse_unlifted_fractions():
    import random
    from fractions import Fraction

    from quadrance.verify import _lift_points, random_point

    rng = random.Random(0)
    sampled = [random_point(rng)[0] for _ in range(5)]
    lifted = _lift_points(sampled)
    for a, b in zip(sampled, lifted):
        # b == a would multiply a Scaled by a Fraction, which raises
        assert b.canonical() == a.canonical() and str(b) == str(a)
        assert b.x == a.x and b.y == a.y
    # blue_sqrt returns Fraction points; a product with a lifted point must
    # raise, never give a value
    unlifted = isometry.ProjPoint(Fraction(3, 5), Fraction(4, 5))
    point = next(b for b in lifted if not any(is_null_for(c, b) for c in Color))
    for color in Color:
        for pair in ((point, unlifted), (unlifted, point)):
            with pytest.raises(TypeError):
                isometry.multiply_points(color, *pair)


def test_green_power_bridge_reads_point_power_on_residues(monkeypatch):
    # counts and first counterexample of the sweep over Fp points
    monkeypatch.setattr(isometry, "point_power",
                        lambda color, p, n, fn=isometry.point_power: fn(color, p, n + 1))
    report = run_suite("isometry", make_context("fp:7"))
    assert (report.failed, report.attempted) == (34, 4944)
    assert report.counterexample == {
        "identity": "green-power-spread-bridge", "inputs": {"p": "[1:2]", "n": "2"},
        "lhs": "0", "rhs": "6"}


def test_green_null_power_is_reported_not_raised(monkeypatch):
    # p is non-null, so a green-null p^3 makes colored_quadrance raise
    # NullPoint on valid inputs: the bridge's mismatch, with the error as lhs
    def null_cube(color, p, n, fn=isometry.point_power):
        return isometry.ProjPoint(1, 0) if n == 3 else fn(color, p, n)

    monkeypatch.setattr(isometry, "point_power", null_cube)
    for field in ("fp:7", "rationals"):
        report = run_suite("isometry", make_context(field), trials=30, seed=0)
        assert report.failed > 0 and counts_ok(report), field
        assert report.counterexample["identity"] == "green-power-spread-bridge"
        assert report.counterexample["inputs"]["n"] == "3"
        assert report.counterexample["lhs"] == "NullPoint: second point [1:0] is green-null"
        assert report.counterexample["rhs"] == "no error"


def test_broken_canonical_fails_the_rational_blue_sqrt_check(monkeypatch):
    # (1 - t^2, 2t) is on the unit circle over Q, so NotUnitCircle from a
    # broken canonical is the failure of blue-sqrt-round-trip; it raised before
    from quadrance import projective

    original = projective.canonical
    monkeypatch.setattr(projective, "canonical",
                        lambda values: tuple(v + 1 for v in original(values)))
    report = run_suite("isometry", make_context("rationals"), trials=30, seed=0)
    assert report.failed > 0 and counts_ok(report)
    assert report.counterexample["identity"] == "blue-sqrt-round-trip"
    assert report.counterexample["lhs"].startswith("NotUnitCircle: ")
    assert report.counterexample["rhs"] == "no error"


@pytest.mark.parametrize("suite, arity", [("triple-spread", 3), ("quadruple-spread", 4)])
def test_non_homogeneous_p_quadrance_is_reported_over_fp(monkeypatch, suite, arity):
    # den + 1 vanishes mod 7 on some pair of live points: the table raised
    # DivisionByZero; now each live tuple of the form fails its formula
    from quadrance import projective

    right = run_suite(suite, make_context("fp:7"), colors=["blue"])
    monkeypatch.setattr(projective, "p_quadrance_fraction",
                        _denominator_plus_one(projective.p_quadrance_fraction))
    report = run_suite(suite, make_context("fp:7"), colors=["blue"])
    assert counts_ok(report)
    assert (report.attempted, report.skipped) == (right.attempted, right.skipped)
    # blue has no null point over F_7 (7 = 3 mod 4), so all 8 points are live
    assert report.failed == report.attempted == 8 ** arity
    assert report.counterexample == {
        "identity": f"{suite}-formula", "inputs": {"form": "(1:0:1)"},
        "lhs": "DivisionByZero: division by zero in F_7", "rhs": "no error"}


def test_triple_spread_proof_identity_fails_where_the_formula_is_forced_to_hold(monkeypatch):
    # with the triple spread function forced to 0, p-quadrances plus one
    # fail the proof-step identity, which is checked after it
    from quadrance import projective

    quadrance, fraction = projective.p_quadrance, projective.p_quadrance_fraction
    monkeypatch.setattr(projective, "triple_spread_fn", lambda q1, q2, q3: 0)
    monkeypatch.setattr(projective, "p_quadrance", lambda *args: quadrance(*args) + 1)
    monkeypatch.setattr(projective, "p_quadrance_fraction",
                        lambda *args: (lambda num, den: (num + den, den))(*fraction(*args)))
    want = {
        "rationals": {"form": "(1:0:1)", "a1": "[0:1]", "a2": "[1:0]", "a3": "[1:3]"},
        "fp:7": {"form": "(1:0:1)", "a1": "[1:0]", "a2": "[1:0]", "a3": "[1:0]"},
    }
    for field, inputs in want.items():
        report = run_suite("triple-spread", make_context(field), trials=30, seed=0)
        assert report.failed > 0 and counts_ok(report), field
        assert report.counterexample["identity"] == "triple-spread-proof-identity"
        assert report.counterexample["inputs"] == inputs


# Over these fields and seeds (30 trials) the isometry suite raised under a
# chromo.is_null_for that misses red-null points: make_isometry keeps the
# real test (isometry imports it by name), so it refused a point the filter
# kept.  Each report's first failure; over F_p, the one for the red sweep.
_RED_SWEEP = {"identity": "isometry-preservation-red", "inputs": {"color": "red"},
              "lhs": "NullParameter: parameter [1:1] is red-null", "rhs": "no error"}


def _red_composition(kind1, p1):
    return {"identity": "composition-table-vs-matrix",
            "inputs": {"color": "red", "kind1": kind1, "p1": p1, "kind2": "sigma",
                       "p2": "[1:-1]"},
            "lhs": "NullParameter: parameter [1:-1] is red-null", "rhs": "no error"}


RED_NULL_FAILURES = [
    ("fp:5", 0, _RED_SWEEP),
    ("fp:7", 0, _RED_SWEEP),
    ("fp:13", 0, _RED_SWEEP),
    ("rationals", 1, _red_composition("rho", "[1:-7]")),
    ("rationals", 5,
     {"identity": "multiplication-associativity",
      "inputs": {"color": "red", "p1": "[1:-9/22]", "p2": "[1:-55/36]", "p3": "[1:-1]"},
      "lhs": "NullParameter: p2 = [1:-1] is red-null", "rhs": "no error"}),
    ("rationals", 6,
     {"identity": "isometry-preservation-red",
      "inputs": {"kind": "rho", "param": "[1:-1/4]", "a1": "[1:32/15]", "a2": "[1:-1]"},
      "lhs": "NullPoint: second point [1:-1] is red-null", "rhs": "no error"}),
    ("rationals", 7, _red_composition("rho", "[1:27/7]")),
    ("rationals", 8,
     {"identity": "isometry-preservation-red",
      "inputs": {"kind": "rho", "param": "[1:-1]", "a1": "[1:-7/2]", "a2": "[1:-7/10]"},
      "lhs": "NullParameter: parameter [1:-1] is red-null", "rhs": "no error"}),
    ("rationals", 9, _red_composition("sigma", "[1:3/5]")),
]


@pytest.mark.parametrize("field, seed, failure", RED_NULL_FAILURES,
                         ids=[f"{row[0]}-{row[1]}" for row in RED_NULL_FAILURES])
def test_isometry_reports_a_point_its_kernels_call_null(monkeypatch, field, seed, failure):
    from quadrance import chromo

    right = run_suite("isometry", make_context(field), trials=30, seed=seed,
                      colors=["blue", "green"])
    monkeypatch.setattr(chromo, "is_null_for", _misses_red_null(chromo.is_null_for))
    report = run_suite("isometry", make_context(field), trials=30, seed=seed)
    assert report.failed > 0 and counts_ok(report)
    assert report.counterexample == failure
    if field != "rationals":
        # one failure for red, and blue and green sweep as before
        assert (report.failed, report.passed) == (1, right.passed)
        assert report.attempted == right.attempted + 1


# (module, kernel, suite): over Q, kernels that every trial checks raise from
# their fourth call on.  Each error is the failure of the identity the case
# checks first, not raised.
RATIONAL_RAISING = [
    ("affine", "quadrance", "triple-quad"),
    ("affine", "archimedes", "triple-quad"),
    ("affine", "quadrance", "quadruple-quad"),
    ("affine", "quadruple_quad_fn", "quadruple-quad"),
    ("affine", "quad_triple_pair_fraction", "quadruple-quad"),
    ("affine", "archimedes", "triple-spread"),
    ("projective", "pairing", "triple-spread"),
    ("projective", "is_perpendicular", "triple-spread"),
    ("projective", "triple_spread_fn", "triple-spread"),
    ("projective", "p_quadrance", "triple-spread"),
    ("projective", "p_quadrance_fraction", "triple-spread"),
    ("projective", "quadruple_spread_fn", "quadruple-spread"),
    ("projective", "spread_triple_pair_fraction", "quadruple-spread"),
]

# (module, kernel, suite): kernels of the identities proved once a call,
# raising on every call, so the proof fails and the trials report the error
PROVED_RAISING = [
    ("affine", "archimedes_forms", "triple-quad"),
    ("affine", "det4", "triple-quad"),
    ("projective", "triple_spread_forms", "triple-spread"),
    ("affine", "det4", "triple-spread"),
]


@pytest.mark.parametrize("module, kernel, suite, first", [
    row + (4,) for row in RATIONAL_RAISING] + [row + (1,) for row in PROVED_RAISING],
    ids=[f"{row[1]}-{row[2]}" for row in RATIONAL_RAISING]
    + [f"{row[1]}-{row[2]}-always" for row in PROVED_RAISING])
def test_kernel_errors_in_the_rational_cases_are_reported_not_raised(monkeypatch, module, kernel,
                                                                     suite, first):
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, _raises_from_call(getattr(mod, kernel), first))
    report = run_suite(suite, make_context("rationals"), trials=30, seed=0)
    assert report.failed >= 1 and counts_ok(report)
    assert report.counterexample["lhs"].startswith("InvalidArgument: broken at call")


def _spy(fn, seen):
    """fn, recording the type of the first argument of every call in ``seen``."""
    def spied(*args):
        seen.append(type(args[0]))
        return fn(*args)
    return spied


def test_the_alternate_forms_are_evaluated_once_a_call_on_symbols(monkeypatch):
    from quadrance import affine, projective
    from quadrance.symbolic import Poly

    seen = {"archimedes_forms": [], "triple_spread_forms": []}
    for mod, name in ((affine, "archimedes_forms"), (projective, "triple_spread_forms")):
        monkeypatch.setattr(mod, name, _spy(getattr(mod, name), seen[name]))
    ctx = make_context("rationals")
    for suite, names in (("triple-quad", ["archimedes_forms"]),
                         ("triple-spread", ["triple_spread_forms"]),
                         ("all", ["archimedes_forms", "triple_spread_forms"])):
        for calls in seen.values():
            calls.clear()
        report = run_suite(suite, ctx, trials=200, seed=1)
        assert report.failed == 0 and counts_ok(report)
        assert {name: calls for name, calls in seen.items() if calls} == {
            name: [Poly] for name in names}, suite


def _first_alternate_plus_one_unless_a_is_0(fn):
    def broken(a, b, c):
        first, *rest = fn(a, b, c)
        return [first if a == 0 else first + 1, *rest]
    return broken


@pytest.mark.parametrize("module, kernel, suite, identity", [
    ("affine", "archimedes_forms", "triple-quad", "archimedes-alternate-1"),
    ("projective", "triple_spread_forms", "triple-spread", "triple-spread-alternate-1"),
])
def test_a_breaker_that_branches_on_a_value_is_sampled(monkeypatch, module, kernel, suite,
                                                        identity):
    # a == 0 raises TypeError on a polynomial, so the proof fails
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    monkeypatch.setattr(mod, kernel, _first_alternate_plus_one_unless_a_is_0(getattr(mod, kernel)))
    report = run_suite(suite, make_context("rationals"), trials=30, seed=0)
    assert report.failed > 0 and counts_ok(report)
    assert report.counterexample["identity"] == identity


def _doubled(fn):
    # keeps every zero of the formula, so only the identity against it fails
    return lambda *args: 2 * fn(*args)


@pytest.mark.parametrize("module, kernel, breaker, suite, identity", [
    ("affine", "archimedes_forms", _first_alternate_plus_one, "triple-quad",
     "archimedes-alternate-1"),
    ("projective", "triple_spread_forms", _first_alternate_plus_one, "triple-spread",
     "triple-spread-alternate-1"),
    ("affine", "quadruple_quad_fn", _doubled, "quadruple-quad", "two-quad-triples-rearrangement"),
    ("projective", "quadruple_spread_fn", _doubled, "quadruple-spread",
     "two-spread-triples-rearrangement"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_each_rational_call_proves_the_kernels_it_is_given(monkeypatch, module, kernel, breaker,
                                                           suite, identity):
    # nothing is proved across calls: clean, broken and clean again each see their kernel
    import importlib

    mod = importlib.import_module(f"quadrance.{module}")
    original = getattr(mod, kernel)
    for broken in (False, True, False):
        monkeypatch.setattr(mod, kernel, breaker(original) if broken else original)
        report = run_suite(suite, make_context("rationals"), trials=30, seed=0)
        assert counts_ok(report)
        assert (report.failed > 0) is broken
        if broken:
            assert report.counterexample["identity"] == identity


def _plus_one_on_fractions_of_degree_9_to_12(fn):
    # only poly_eval's Fraction path, which a polynomial never takes, is wrong
    from fractions import Fraction

    return lambda poly, s: fn(poly, s) + (type(s) is Fraction and 9 <= poly.degree <= 12)


def test_the_spread_recurrence_samples_poly_evals_fraction_path_first(monkeypatch):
    # trial 1 fails, so no proof is asked, and every trial samples
    import quadrance.verify as v

    proofs = []
    monkeypatch.setattr(v, "_proved", _spy(v._proved, proofs))
    monkeypatch.setattr(spreadpoly, "poly_eval",
                        _plus_one_on_fractions_of_degree_9_to_12(spreadpoly.poly_eval))
    report = run_suite("spreadpoly", make_context("rationals"), trials=200, seed=1)
    assert (report.attempted, report.failed) == (281, 200) and counts_ok(report)
    assert report.counterexample["identity"] == "spread-recurrence-triple"
    assert report.counterexample["inputs"] == {"n": "9", "s": "-4/5"}
    assert proofs == []


@pytest.mark.parametrize("trials, proofs", [(1, 0), (2, 1), (200, 1)])
def test_the_spread_recurrence_is_proved_once_when_a_trial_remains(monkeypatch, trials, proofs):
    import quadrance.verify as v

    answers = []

    def proved(*args, _proved=v._proved):
        answers.append(_proved(*args))
        return answers[-1]
    monkeypatch.setattr(v, "_proved", proved)
    report = run_suite("spreadpoly", make_context("rationals"), trials=trials, seed=1)
    assert report.failed == 0 and report.attempted == 81 + trials and counts_ok(report)
    assert answers == [True] * proofs


def test_each_spreadpoly_call_proves_the_triple_spread_fn_it_is_given(monkeypatch):
    # seed 0 draws s = 0 first, where a broken triple_spread_fn still
    # vanishes: trial 1 passes, the proof fails, and the later trials sample
    from quadrance import projective

    original = projective.triple_spread_fn
    for broken in (False, True, False):
        monkeypatch.setattr(projective, "triple_spread_fn",
                            _plus_abc(original) if broken else original)
        report = run_suite("spreadpoly", make_context("rationals"), trials=30, seed=0)
        assert counts_ok(report)
        assert (report.failed > 0) is broken
        if broken:
            assert report.counterexample["identity"] == "spread-recurrence-triple"


def test_a_recurrence_breaker_that_branches_on_a_value_is_sampled_every_trial(monkeypatch):
    # right at s = 0, trial 1's draw for seed 0, and wrong elsewhere; s == 0
    # raises TypeError on a polynomial, so the proof fails
    import quadrance.verify as v
    from quadrance import projective

    original, sampled = projective.triple_spread_fn, []
    monkeypatch.setattr(projective, "triple_spread_fn",
                        lambda a, s, b: original(a, s, b) + (0 if s == 0 else 1))
    monkeypatch.setattr(v, "_recurrence_case", _spy(v._recurrence_case, sampled))
    report = run_suite("spreadpoly", make_context("rationals"), trials=30, seed=0)
    assert len(sampled) == 30
    assert report.failed == 28 and counts_ok(report)
    assert report.counterexample == {"identity": "spread-recurrence-triple",
                                     "inputs": {"n": "1", "s": "4/3"}, "lhs": "1", "rhs": "0"}
