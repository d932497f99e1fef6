"""The benchmark's four workloads: one pass of each, its output check, its timings.

A pass is the unit a user waits for: one ``verify --suite all`` sweep over
F_7, one 10-suite rational sample, one batch file, one
``spreadpoly --n 360 --factor``.  Each pass runs in a
fresh worker process on inputs made from its own seed, as a CLI call would.
A pass returns the time of each of its stages (the suites, chunks of the
batch file, or the build, factor and format steps), the calibration times measured before the first stage and
after each one (see calibrate.py), the operations it attempted and the ones
that failed their check.  The check functions are module-level so that the tests can feed
them a corrupted result.
"""

from __future__ import annotations

import functools
import math
import random
import shlex
import statistics
import time
from array import array

from quadrance import cli, make_context, spreadpoly, verify
from quadrance.errors import QuadranceError
from quadrance.field import Fp

import batchgen
from calibrate import calibrate

SWEEP_P = 7
SAMPLE_TRIALS = 200
# No case was skipped over the rationals in 60 seeds x 200 trials of every
# suite at the commit that introduced this benchmark; the margin allows 2 in 200.
SAMPLE_MAX_SKIP_SHARE = 0.01
BATCH_LINES = 5000
BATCH_CHUNK = 500  # lines per batch-eval stage, with a calibration between stages
SPREADPOLY_N = 360  # divisor-rich: 24 factors up to degree totient(360) = 96
# Pythagorean triples (a, b, c): sin = a/c and cos = b/c give exact values of
# sin^2(k theta), against which the spread polynomials are checked.
TRIPLES = ((3, 4, 5), (5, 12, 13))
MAX_PROBLEMS = 5

# Per-suite (attempted, passed, skipped, skip_reasons) of the exhaustive sweep
# over F_7 at the commit that introduced this benchmark.
SWEEP_EXPECTED = {
    "triple-quad": (343, 343, 0, {}),
    "quadruple-quad": (2401, 2401, 0, {}),
    "heron": (343, 343, 0, {}),
    "brahmagupta": (2401, 2401, 0, {}),
    "fibonacci": (9604, 9604, 0, {}),
    "triple-spread": (2048, 1160, 888, {"null-point": 888}),
    "quadruple-spread": (16384, 7984, 8400, {"null-point": 8400}),
    "chromo": (64, 16, 48, {"null-point": 48}),
    "isometry": (4944, 3428, 1516,
                 {"not-unit-circle": 4, "null-parameter": 824, "null-point": 688}),
    "spreadpoly": (137, 124, 13, {"zero-coordinate": 13}),
}


# -- output checks ------------------------------------------------------------

def check_sweep_report(report) -> tuple[int, list]:
    """(failed operations, problems) for one suite report of the F_7 sweep."""
    problems = []
    if report.failed:
        problems.append(f"{report.suite}: {report.failed} failed, first {report.counterexample}")
    got = (report.attempted, report.passed, report.skipped, dict(report.skip_reasons))
    if got != SWEEP_EXPECTED[report.suite]:
        problems.append(f"{report.suite}: counts {got} != {SWEEP_EXPECTED[report.suite]}")
    if report.suite == "triple-quad" and report.attempted != SWEEP_P ** 3:
        problems.append(f"triple-quad: attempted {report.attempted} != {SWEEP_P}^3")
    extra = 1 if problems and not report.failed else 0
    return report.failed + extra, problems


def check_sample_report(report, trials: int) -> tuple[int, list]:
    """(failed operations, problems) for one suite report over the rationals."""
    problems = []
    if report.failed:
        problems.append(f"{report.suite}: {report.failed} failed, first {report.counterexample}")
    if report.attempted < trials:
        problems.append(f"{report.suite}: attempted {report.attempted} < {trials} trials")
    if report.skipped > SAMPLE_MAX_SKIP_SHARE * report.attempted:
        problems.append(f"{report.suite}: skipped {report.skipped} of {report.attempted}, "
                        f"more than {SAMPLE_MAX_SKIP_SHARE:.0%}")
    extra = 1 if problems and not report.failed else 0
    return report.failed + extra, problems


def check_answer(line: batchgen.Line, error: str, output: str) -> bool:
    """Whether a batch line produced its expected answer or error class."""
    return (error, output) == (line.error, line.expect)


def check_spreadpoly(n: int, texts: list, triple: tuple) -> tuple[int, list]:
    """(failed lines, problems) for the lines ``spreadpoly --n n --factor`` prints.

    The coefficients are read back from the printed text.  S_k, with s =
    sin^2 theta = a^2/c^2, must give sin^2(k theta) = Im((b + ai)^k)^2 / c^2k;
    phi_d must have degree totient(d), and the phi_e over e | d must multiply
    to S_d at the same point.  All in integers, with no use of the package.
    """
    a, b, c = triple
    x, y = a * a, c * c
    xs, ys = [1], [1]
    for _ in range(n):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)

    def scaled(coeffs, degree):  # p(x/y) * y^degree
        return sum(co * xs[j] * ys[degree - j] for j, co in enumerate(coeffs))

    divs = _divisors(n)
    heads = [f"S_{k}" for k in range(n + 1)] + [f"phi_{d}" for d in divs]
    failed, problems, sin2, phi = 0, [], [], {}
    re, im = 1, 0
    for k in range(n + 1):
        sin2.append(im * im)
        re, im = re * b - im * a, re * a + im * b
    for i, head in enumerate(heads):
        text = texts[i] if i < len(texts) else ""
        try:
            label, body = text.split(": ")
            coeffs = [int(t) for t in body.split()]
        except ValueError:
            label, coeffs = None, None
        if label != head:
            ok = False
        elif head.startswith("S_"):
            k = i
            ok = len(coeffs) == k + 1 and scaled(coeffs, k) == sin2[k]
        else:
            d = divs[i - n - 1]
            phi[d] = coeffs
            ok = (len(coeffs) - 1 == _totient(d) and all(e in phi for e in divs if d % e == 0))
            if ok:
                product = 1
                for e in divs:
                    if d % e == 0:
                        product *= scaled(phi[e], len(phi[e]) - 1)
                ok = product == sin2[d]
        if not ok:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"{head}: wrong line {text[:60]!r}")
    if len(texts) > len(heads):
        failed += 1
        problems.append(f"{len(texts) - len(heads)} lines more than {len(heads)}")
    return failed, problems


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# -- workloads ----------------------------------------------------------------

class VerifySuites:
    """The 10 verify suites over one field, one ``run_suite`` call per suite."""

    def __init__(self, name: str, descriptor: str, check, trials=None):
        self.name, self.descriptor, self.check, self.trials = name, descriptor, check, trials

    def prepare(self, seed: int) -> dict:
        return {"ctx": make_context(self.descriptor), "seed": seed}

    def run_pass(self, state: dict, tracer=None) -> dict:
        ctx = state["ctx"]
        kwargs = {}
        if self.trials is not None:
            kwargs = {"trials": self.trials, "seed": state["seed"]}
        stages, cases, problems, failed = {}, {}, [], 0
        calib = [calibrate()]
        for i, suite in enumerate(verify.SUITE_NAMES):
            key = f"verify.{suite}"
            started = time.perf_counter()
            try:
                if tracer is None:
                    report = verify.run_suite(suite, ctx, **kwargs)
                else:
                    tracer.run_id = i
                    report = tracer.call(key, verify.run_suite, suite, ctx, **kwargs)
            except Exception as exc:  # a library error fails the suite, not the benchmark
                report = exc
            stages[key] = time.perf_counter() - started
            calib.append(calibrate())
            if isinstance(report, Exception):
                cases[key], bad, msgs = 1, 1, [f"{suite}: {type(report).__name__}: {report}"]
            else:
                cases[key] = report.attempted
                bad, msgs = self.check(report)
            failed, problems = failed + bad, problems + msgs
        return {"items": sum(cases.values()), "failed": failed,
                "problems": problems[:MAX_PROBLEMS], "stages": stages, "calib": calib,
                "cases": cases}

    def layer(self, state: dict) -> dict:
        return {}


class BatchEval:
    """Generated ``batch`` lines, each timed through tokenize, parse and execute."""

    name = "batch-eval"

    def prepare(self, seed: int) -> dict:
        lines, mix, literals = batchgen.generate(seed, BATCH_LINES)
        return {"lines": lines, "mix": mix, "literals": literals,
                "latency": array("q"), "tokenize": array("q"), "parse": array("q"),
                "execute": array("q"), "by_kind": {}}

    def run_pass(self, state: dict, tracer=None) -> dict:
        split, parse, execute = shlex.split, cli.parse_eval_request, cli.execute_eval_request
        if tracer is not None:
            split = tracer.wrap(shlex.split, "cli.tokenize")
        latency, tokenize = state["latency"], state["tokenize"]
        parse_ns, execute_ns, by_kind = state["parse"], state["execute"], state["by_kind"]
        now = time.perf_counter_ns
        chunk = failed = 0
        stages, problems = {}, []
        calib = [calibrate()]
        for i, line in enumerate(state["lines"]):
            if i and i % BATCH_CHUNK == 0:
                stages[f"batch.{len(stages)}"] = chunk / 1e9
                calib.append(calibrate())
                chunk = 0
            if tracer is not None:
                tracer.run_id = i
            t1 = t2 = None
            t0 = now()
            try:
                tokens = split(line.text)
                t1 = now()
                request = parse(tokens, "rationals")
                t2 = now()
                error, output = "", execute(request)
            except QuadranceError as exc:
                error, output = type(exc).__name__, ""
            except Exception as exc:  # an unexpected exception is a failed request
                error, output = f"unexpected {type(exc).__name__}: {exc}", ""
            t3 = now()
            chunk += t3 - t0
            latency.append(t3 - t0)
            if t1 is not None:
                tokenize.append(t1 - t0)
            if t2 is not None:
                parse_ns.append(t2 - t1)
                execute_ns.append(t3 - t2)
                by_kind.setdefault(line.kind, array("q")).append(t3 - t2)
            if not check_answer(line, error, output):
                failed += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"{line.text!r}: got {error or output!r}, "
                                    f"expected {line.error or line.expect!r}")
        stages[f"batch.{len(stages)}"] = chunk / 1e9
        calib.append(calibrate())
        return {"items": len(state["lines"]), "failed": failed, "problems": problems,
                "stages": stages, "calib": calib, "cases": {}}

    def layer(self, state: dict) -> dict:
        lat = sorted(state["latency"])
        out = {
            "cli.request_p50_us": _quantile(lat, 0.50) / 1e3,
            "cli.request_p99_us": _quantile(lat, 0.99) / 1e3,
            "cli.request_samples": len(lat),
            "cli.tokenize_us": statistics.median(state["tokenize"]) / 1e3,
            "cli.parse_eval_request_us": statistics.median(state["parse"]) / 1e3,
            "cli.execute_eval_request_us": statistics.median(state["execute"]) / 1e3,
        }
        for kind, samples in state["by_kind"].items():
            out[f"cli.exec.{kind}_us"] = statistics.median(samples) / 1e3
        return out


class SpreadpolyFactor:
    """``spreadpoly --n 360 --factor`` in a fresh process: build, factor, format.

    Each pass starts with the package's polynomial caches empty, as a CLI
    call does.  The stages are the build of S_0..S_n, one per divisor d for
    ``spread_cyclotomic(d)``, and the formatting of the printed lines.
    """

    name = "spreadpoly-factor"

    def prepare(self, seed: int) -> dict:
        return {"n": SPREADPOLY_N, "triple": TRIPLES[seed % len(TRIPLES)]}

    def run_pass(self, state: dict, tracer=None) -> dict:
        n, now = state["n"], time.perf_counter
        stages, calib, texts, problems = {}, [calibrate()], [], []

        def stage(key, fn):
            started = now()
            try:
                return fn()
            finally:
                stages[key] = now() - started
                calib.append(calibrate())

        try:
            polys = stage("spreadpoly.build",
                          lambda: [spreadpoly.spread_poly(k) for k in range(n + 1)])
            phis = [stage(f"spreadpoly.factor.{d}",
                          functools.partial(spreadpoly.spread_cyclotomic, d))
                    for d in _divisors(n)]
            texts = stage("spreadpoly.format", lambda: (
                [f"S_{k}: {p}" for k, p in enumerate(polys)]
                + [f"phi_{d}: {p}" for d, p in zip(_divisors(n), phis)]))
        except Exception as exc:  # a library error fails the pass, not the benchmark
            problems.append(f"{type(exc).__name__}: {exc}")
        failed, wrong = check_spreadpoly(n, texts, state["triple"])
        return {"items": n + 1 + len(_divisors(n)), "failed": failed,
                "problems": (problems + wrong)[:MAX_PROBLEMS], "stages": stages,
                "calib": calib, "cases": {}}

    def layer(self, state: dict) -> dict:
        return {}


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


WORKLOADS = {w.name: w for w in (
    VerifySuites("sweep-fp", f"fp:{SWEEP_P}", check_sweep_report),
    VerifySuites("sample-q", "rationals",
                 functools.partial(check_sample_report, trials=SAMPLE_TRIALS), SAMPLE_TRIALS),
    BatchEval(),
    SpreadpolyFactor(),
)}


# -- field probes -------------------------------------------------------------

def _op_ns(pairs, repeats: int = 40) -> float:
    """Median over repeats of the time per ``*`` or ``+`` on the operand pairs."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter_ns()
        for a, b in pairs:
            a * b
            a + b
        samples.append((time.perf_counter_ns() - started) / (2 * len(pairs)))
    return statistics.median(samples)


def field_probes(seed: int) -> dict:
    """Element-arithmetic and literal-parsing costs, measured without tracing."""
    residues = [Fp(i, 13) for i in range(13)]
    rng = random.Random(seed)
    rationals = make_context("rationals")
    q_pairs = [(verify.random_element(rationals, rng), verify.random_element(rationals, rng))
               for _ in range(300)]
    _, _, literals = batchgen.generate(seed, BATCH_LINES)
    parsers = [(make_context(d).parse, text) for d, text in literals]
    now = time.perf_counter_ns
    parse_ns = []
    for _ in range(3):
        for parse, text in parsers:
            started = now()
            parse(text)
            parse_ns.append(now() - started)
    return {
        "field.fp_op_ns": _op_ns([(a, b) for a in residues for b in residues]),
        "field.q_op_ns": _op_ns(q_pairs),
        "field.parse_us": statistics.median(parse_ns) / 1e3,
    }
