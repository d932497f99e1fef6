"""Tests of the benchmark itself: its output checks, generator and tracer.

Each workload's check is shown to catch a corrupted result that the test
injects into the benchmark's own data, never into the library.
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import batchgen  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quadrance import make_context, spreadpoly, verify  # noqa: E402


def test_sweep_check_catches_wrong_counts():
    ctx = make_context(f"fp:{workloads.SWEEP_P}")
    for suite in ("triple-quad", "chromo", "spreadpoly"):
        report = verify.run_suite(suite, ctx)
        assert workloads.check_sweep_report(report) == (0, [])
        fewer = dataclasses.replace(report, passed=report.passed - 1, skipped=report.skipped + 1)
        assert workloads.check_sweep_report(fewer)[0] == 1
        broken = dataclasses.replace(report, passed=report.passed - 1, failed=1)
        assert workloads.check_sweep_report(broken)[0] == 1


def test_sample_check_catches_failures_short_runs_and_skips():
    ctx = make_context("rationals")
    report = verify.run_suite("heron", ctx, trials=200, seed=3)
    assert workloads.check_sample_report(report, 200) == (0, [])
    assert workloads.check_sample_report(dataclasses.replace(report, attempted=199), 200)[0] == 1
    assert workloads.check_sample_report(
        dataclasses.replace(report, passed=197, failed=3), 200)[0] == 3
    all_skipped = dataclasses.replace(report, passed=0, skipped=200,
                                      skip_reasons={"null-point": 200})
    assert workloads.check_sample_report(all_skipped, 200)[0] == 1
    few_skipped = dataclasses.replace(report, passed=198, skipped=2,
                                      skip_reasons={"null-point": 2})
    assert workloads.check_sample_report(few_skipped, 200) == (0, [])


def test_batch_pass_catches_a_wrong_answer(monkeypatch):
    monkeypatch.setattr(workloads, "BATCH_LINES", 250)
    batch = workloads.BatchEval()
    state = batch.prepare(7)
    assert batch.run_pass(state)["failed"] == 0
    assert batch.layer(state)["cli.request_samples"] == 250
    lines = state["lines"]
    valid = next(i for i, ln in enumerate(lines) if not ln.error)
    invalid = next(i for i, ln in enumerate(lines) if ln.error)
    lines[valid] = dataclasses.replace(lines[valid], expect=lines[valid].expect + "1")
    lines[invalid] = dataclasses.replace(lines[invalid], error="DegenerateForm")
    result = batch.run_pass(state)
    assert result["failed"] == 2
    assert len(result["problems"]) == 2


def test_batch_pass_calibrates_between_chunks(monkeypatch):
    monkeypatch.setattr(workloads, "BATCH_LINES", 120)
    monkeypatch.setattr(workloads, "BATCH_CHUNK", 50)
    batch = workloads.BatchEval()
    result = batch.run_pass(batch.prepare(3))
    assert list(result["stages"]) == ["batch.0", "batch.1", "batch.2"]
    assert len(result["calib"]) == 4 and min(result["calib"]) > 0


def test_reference_time_cancels_a_uniform_slowdown():
    ref = calibrate.REFERENCE_S
    quiet = {"stages": {"a": 1.0, "b": 2.0}, "calib": [ref, ref, ref]}
    slow = {"stages": {"a": 2.0, "b": 4.0}, "calib": [2 * ref, 2 * ref, 2 * ref]}
    assert run.reference_stages(quiet) == pytest.approx({"a": 1.0, "b": 2.0})
    assert run.reference_stages(slow) == pytest.approx({"a": 1.0, "b": 2.0})
    assert run.slowdown(slow) == pytest.approx(2.0)
    # a stage is scaled by the mean of the calibrations on either side of it
    drifting = {"stages": {"a": 1.5}, "calib": [ref, 2 * ref]}
    assert run.reference_stages(drifting)["a"] == pytest.approx(1.0)


def test_spreadpoly_check_catches_wrong_and_missing_lines():
    n = 12
    polys = [spreadpoly.spread_poly(k) for k in range(n + 1)]
    texts = [f"S_{k}: {p}" for k, p in enumerate(polys)]
    texts += [f"phi_{d}: {spreadpoly.spread_cyclotomic(d)}" for d in (1, 2, 3, 4, 6, 12)]
    for triple in workloads.TRIPLES:
        assert workloads.check_spreadpoly(n, texts, triple) == (0, [])
    wrong = list(texts)
    wrong[5] = wrong[5].replace(" ", " 1", 1)  # S_5 with a corrupted coefficient
    assert workloads.check_spreadpoly(n, wrong, (3, 4, 5))[0] == 1
    assert workloads.check_spreadpoly(n, texts[:-1], (3, 4, 5))[0] == 1
    assert workloads.check_spreadpoly(n, texts + ["phi_24: 1"], (3, 4, 5))[0] == 1
    # phi_12 of the wrong degree fails, and so does no other line
    assert workloads.check_spreadpoly(n, texts[:-1] + [texts[-1] + " 0 1"], (3, 4, 5))[0] == 1


def test_spreadpoly_pass_reports_every_printed_line():
    wl = workloads.WORKLOADS["spreadpoly-factor"]
    result = wl.run_pass({"n": 12, "triple": (3, 4, 5)})
    assert result["failed"] == 0 and result["items"] == 13 + 6
    assert list(result["stages"])[0] == "spreadpoly.build"
    assert len(result["calib"]) == len(result["stages"]) + 1


def test_generator_is_seeded_and_its_mix_fixed_by_quota():
    a, mix_a, _ = batchgen.generate(1, 500)
    b, mix_b, _ = batchgen.generate(1, 500)
    c, mix_c, _ = batchgen.generate(2, 500)
    assert a == b
    assert a != c
    for key in ("kinds", "fields", "invalid", "invalid_share"):
        assert mix_a[key] == mix_c[key]
    assert mix_a["invalid_share"] == 0.04
    assert 1 <= mix_a["literal_digits"]["min"] and mix_a["literal_digits"]["max"] <= 30


def test_tracer_self_time_excludes_children(monkeypatch):
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(ticks))
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "affine.inner")
    outer = tracer.wrap(lambda: inner(), "projective.outer")
    outer()
    by_name = tracer.by_name()
    # outer spans ticks 0..30, inner spans 10..20
    assert by_name["affine.inner"] == (1, 10 / 1e9)
    assert by_name["projective.outer"] == (1, 20 / 1e9)
    assert list(tracer.span_parent) == [-1, 0]
    assert tracer.layer_totals()["projective"] == (1, 20 / 1e9)


def test_install_traces_calls_through_imported_names():
    # install() rebinds the library's functions, so it runs in its own process.
    script = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing; from quadrance import projective, make_context\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "projective.triple_spread_fn(1, 2, 3); make_context('fp:7').from_int(3)\n"
        "print(json.dumps([t.by_name(), t.fp_new]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, HERE,
                          os.path.join(os.path.dirname(HERE), "src")],
                         capture_output=True, text=True, timeout=60, check=True)
    by_name, fp_new = json.loads(out.stdout)
    assert by_name["projective.triple_spread_fn"][0] == 1
    assert by_name["affine.archimedes"][0] == 1  # called via projective's import
    assert by_name["field.PrimeContext.from_int"][0] == 1
    assert fp_new == 1


def test_declared_per_layer_metrics_are_produced():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    produced = {
        "field.fp_new", "field.fp_op_ns", "field.q_op_ns", "field.parse_us", "verify.self_s",
        "cli.interp_s", "cli.import_s", "cli.request_p50_us", "cli.request_p99_us",
        "cli.request_samples", "cli.tokenize_us", "cli.parse_eval_request_us",
        "cli.execute_eval_request_us", "trace.overhead", "trace.spans",
        "spreadpoly.build_s", "spreadpoly.factor_s", "spreadpoly.format_s",
    }
    produced |= {f"cli.exec.{k}_us" for k in ("quad", "pquad", "aclassify", "pclassify")}
    for layer in tracing.LAYERS:
        produced |= {f"{layer}.calls", f"{layer}.self_s"}
    for suite in verify.SUITE_NAMES:
        produced |= {f"verify.{suite}.cases_per_s", f"verify.{suite}.self_s"}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in produced:
            continue
        layer, fn, metric = name.split(".")
        assert metric in ("calls", "self_s"), name
        assert callable(getattr(importlib.import_module(f"quadrance.{layer}"), fn)), name


@pytest.mark.parametrize("descriptor", batchgen.FIELDS)
def test_worker_sets_up_every_batch_field(descriptor):
    import worker

    assert descriptor in worker.SETUP_FIELDS["batch-eval"]
