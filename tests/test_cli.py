import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadrance.cli import main, split_request
from quadrance.errors import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pquad_paper_value(capsys):
    # a form parses with or without the brackets it prints in
    for form in ("1:0:1", "(1:0:1)"):
        code, out, _ = run(capsys, "eval", "pquad", "--form", form,
                           "--points", "[1:0]", "[2:3]")
        assert code == 0
        assert out.strip() == "9/13"


def test_eval_quad_coincident(capsys):
    code, out, _ = run(capsys, "eval", "quad", "--points", "3", "3")
    assert code == 0
    assert out.strip() == "0"


def test_eval_quad_fp(capsys):
    code, out, _ = run(capsys, "eval", "quad", "--field", "fp:7",
                       "--points", "3", "6")
    assert code == 0
    assert out.strip() == "2"


def test_eval_pquad_green_null_exits_3(capsys):
    code, out, err = run(capsys, "eval", "pquad", "--color", "green",
                         "--points", "[1:0]", "[1:1]")
    assert code == 3
    assert "NullPoint" in err


def test_eval_pquad_needs_form_or_color(capsys):
    code, _, err = run(capsys, "eval", "pquad", "--points", "[1:0]", "[2:3]")
    assert code == 2
    assert "ParseError" in err


def test_eval_pquad_colored(capsys):
    code, out, _ = run(capsys, "eval", "pquad", "--color", "red",
                       "--points", "[2:1]", "[1:3]")
    assert code == 0
    assert out.strip() == "25/24"


def test_eval_aclassify_serialization(capsys):
    code, out, _ = run(capsys, "eval", "aclassify", "--points", "5", "6")
    assert (code, out.strip()) == (0, "t:5")
    code, out, _ = run(capsys, "eval", "aclassify", "--points", "5", "4")
    assert (code, out.strip()) == (0, "r:5")
    code, _, err = run(capsys, "eval", "aclassify", "--points", "0", "3")
    assert code == 3
    assert "NotIsometry" in err


def test_eval_pclassify_serialization(capsys):
    code, out, _ = run(capsys, "eval", "pclassify", "--color", "blue",
                       "--matrix", "1,2;-2,1")
    assert (code, out.strip()) == (0, "rho:blue:[1:2]")
    code, out, _ = run(capsys, "eval", "pclassify", "--color", "green",
                       "--matrix", "3,0;0,5")
    assert (code, out.strip()) == (0, "rho:green:[1:5/3]")
    code, _, err = run(capsys, "eval", "pclassify", "--color", "red",
                       "--matrix", "1,1;1,1")
    assert code == 3
    assert "NotIsometry" in err


def test_eval_bad_field_descriptor(capsys):
    code, _, err = run(capsys, "eval", "quad", "--field", "fp:2",
                       "--points", "1", "2")
    assert code == 3
    assert "CharacteristicTwo" in err


def test_spreadpoly_table(capsys):
    code, out, _ = run(capsys, "spreadpoly", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["S_0: 0", "S_1: 0 1", "S_2: 0 4 -4"]


def test_spreadpoly_zero(capsys):
    code, out, _ = run(capsys, "spreadpoly", "--n", "0")
    assert code == 0
    assert out.splitlines() == ["S_0: 0"]


def test_spreadpoly_factor(capsys):
    code, out, _ = run(capsys, "spreadpoly", "--n", "6", "--factor")
    assert code == 0
    lines = out.splitlines()
    assert lines[:7] == [
        "S_0: 0",
        "S_1: 0 1",
        "S_2: 0 4 -4",
        "S_3: 0 9 -24 16",
        "S_4: 0 16 -80 128 -64",
        "S_5: 0 25 -200 560 -640 256",
        "S_6: 0 36 -420 1792 -3456 3072 -1024",
    ]
    phi = [line for line in lines if line.startswith("phi_")]
    assert [p.split(":")[0] for p in phi] == ["phi_1", "phi_2", "phi_3", "phi_6"]
    # the printed factors multiply back to S_6
    from quadrance.spreadpoly import IntPolynomial, spread_poly

    product = IntPolynomial([1])
    for line in phi:
        coeffs = [int(c) for c in line.split(":")[1].split()]
        product = product * IntPolynomial(coeffs)
    assert product == spread_poly(6)


@pytest.mark.parametrize("kernel, argv", [("spread_poly", ["--n", "1"]),
                                           ("spread_cyclotomic", ["--n", "2", "--factor"])],
                         ids=["rows", "factor-rows"])
def test_spreadpoly_coefficient_past_the_int_string_limit_exits_3(capsys, monkeypatch, kernel,
                                                                 argv):
    # 10**700 has more digits than the lowered limit: the S_n and phi_k rows
    # print it through field.decimal_str, which refuses it as InvalidArgument
    from quadrance import spreadpoly

    # the S_n rows come from spread_poly, the phi_k rows from spread_cyclotomic
    big = spreadpoly.IntPolynomial([1, 10 ** 700])
    monkeypatch.setattr(spreadpoly, kernel, lambda n: big)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "spreadpoly", *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 3
    assert err.startswith("error: InvalidArgument: cannot print the value: ")
    assert len(err.splitlines()) == 1
    assert out.count("\n") == (3 if kernel == "spread_cyclotomic" else 0)


def test_spreadpoly_factor_360_output_is_pinned(capsys):
    # the digest pins every coefficient of S_0..S_360 and of phi_d for d | 360
    code, out, _ = run(capsys, "spreadpoly", "--n", "360", "--factor")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "54b177ac6fdeaa75053b1d5f8f20a8da3bf144ae4093f3fb24cbd56a4405a2f2")


def test_spreadpoly_rows_are_built_one_at_a_time(capsys, monkeypatch):
    # S_k is built only once S_0..S_(k-1) are printed, and --factor asks
    # spread_poly for the primes p of each divisor d of n and for d/rad(d),
    # 12 at most for 360 = 12 * rad(360)
    from quadrance import spreadpoly

    right, asked, lines = spreadpoly.spread_poly, [], []

    def watched(n):
        lines.extend(capsys.readouterr().out.splitlines())
        asked.append((n, len(lines)))
        return right(n)

    monkeypatch.setattr(spreadpoly, "spread_poly", watched)
    assert main(["spreadpoly", "--n", "300"]) == 0
    assert asked == [(k, k) for k in range(301)]
    capsys.readouterr()
    asked.clear()
    lines.clear()
    assert main(["spreadpoly", "--n", "360", "--factor"]) == 0
    assert asked[:361] == [(k, k) for k in range(361)]
    assert max(n for n, _ in asked[361:]) == 12
    out = lines + capsys.readouterr().out.splitlines()
    assert out[300] == f"S_300: {right(300)}"


def test_example_paper(capsys):
    code, out, _ = run(capsys, "example", "paper")
    assert code == 0
    assert "q12 = 9/13" in out
    assert "q23 = 196/221" in out
    assert "q34 = 529/578" in out
    assert "q14 = 25/34" in out
    assert "q13 = 1/17" in out
    assert "q24 = 1/442" in out
    assert "R(q12, q23, q34, q14) = 0" in out
    assert "worked example: OK" in out


def test_example_paper_mismatch_output(capsys, monkeypatch):
    # a wrong expected q13 fails its q-line and the q13 fraction line; the
    # q-lines name the expected value, the fraction lines do not
    from quadrance import cli

    monkeypatch.setitem(cli.WORKED_EXAMPLE_VALUES, "q13", Fraction(1, 16))
    code, out, err = run(capsys, "example", "paper")
    assert (code, err) == (1, "")
    assert out == (
        "q12 = 9/13\n"
        "q23 = 196/221\n"
        "q34 = 529/578\n"
        "q14 = 25/34\n"
        "q13 = 1/17  MISMATCH (expected 1/16)\n"
        "q24 = 1/442\n"
        "R(q12, q23, q34, q14) = 0\n"
        "q13 fraction = 1/17  MISMATCH\n"
        "q24 fraction = 1/442\n"
        "worked example: FAILED\n")


def test_example_unknown(capsys):
    code, _, err = run(capsys, "example", "nonsense")
    assert code == 2


def test_verify_exhaustive_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triple-spread",
                       "--field", "fp:13", "--color", "blue")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "triple-spread"
    assert report["field"] == "fp:13"
    assert report["attempted"] == 14 ** 3
    assert report["passed"] == 12 ** 3
    assert report["failed"] == 0
    assert report["skipped"] == 14 ** 3 - 12 ** 3
    assert report["skip_reasons"] == {"null-point": 14 ** 3 - 12 ** 3}
    assert "seed" not in report
    assert "elapsed_ms" in report


def test_verify_randomized_report_and_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "heron",
                         "--field", "rationals", "--seed", "42", "--trials", "100")
    code2, out2, _ = run(capsys, "verify", "--suite", "heron",
                         "--field", "rationals", "--seed", "42", "--trials", "100")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["seed"] == 42
    r1["elapsed_ms"] = r2["elapsed_ms"] = 0
    assert json.dumps(r1) == json.dumps(r2)


@pytest.mark.parametrize("field", ["rationals", "fp:5"])
def test_verify_all_with_the_general_form_alone(capsys, field):
    # the isometry suite has no general form: it runs no case, the rest run
    code, out, err = run(capsys, "verify", "--suite", "all", "--color", "general",
                         "--field", field, "--trials", "5")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["failed"] == 0 and report["attempted"] > 0


def test_verify_fp2_rejected(capsys):
    code, _, err = run(capsys, "verify", "--suite", "triple-quad",
                       "--field", "fp:2")
    assert code == 3
    assert "CharacteristicTwo" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonsense", "--field", "rationals"])
    assert info.value.code == 2


def test_verify_primes_list(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triple-quad",
                       "--primes", "5,7")
    assert code == 0
    reports = json.loads(out)
    assert [r["field"] for r in reports] == ["fp:5", "fp:7"]
    assert [r["attempted"] for r in reports] == [125, 343]
    assert all(r["failed"] == 0 for r in reports)


@pytest.mark.parametrize("argv", [
    ["eval", "quad", "--points", "1", "3", "--field", "fp:1_3"],
    ["verify", "--suite", "heron", "--primes", "1_3"],
], ids=["field", "primes"])
def test_digit_separators_in_p_are_one_parse_error(capsys, argv):
    # int() reads 1_3 as 13: these printed 4 and a report on fp:13
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ParseError: ")


_PQUAD = ["eval", "pquad", "--color", "blue", "--points"]
_PCLASSIFY = ["eval", "pclassify", "--color", "blue", "--matrix"]


@pytest.mark.parametrize("argv, message", [
    (_PQUAD + ["[0:0]", "[1:0]"], "projective point needs a nonzero coordinate: '[0:0]'"),
    (["eval", "pquad", "--form", "0:0:0", "--points", "[1:0]", "[1:1]"],
     "form needs a nonzero coefficient: '0:0:0'"),
    (_PCLASSIFY + ["0,0;0,0"], "matrix needs a nonzero entry: '0,0;0,0'"),
    (_PQUAD + ["1:2", "[1:0]"], "point literal must look like [x:y], got '1:2'"),
    (_PQUAD + ["[1:2:3]", "[1:0]"], "point literal must have two coordinates, got '[1:2:3]'"),
    (["eval", "pquad", "--form", "1:0", "--points", "[1:0]", "[1:1]"],
     "form literal must look like d:e:f, got '1:0'"),
    (_PCLASSIFY + ["1,2"], "matrix literal must look like a,b;c,d, got '1,2'"),
    (_PCLASSIFY + ["1,2;3"], "matrix rows need two entries, got '1,2;3'"),
    (["eval"], "empty request; expected one of: quad, pquad, aclassify, pclassify"),
    (["eval", "pquad", "--color", "purple", "--points", "[1:0]", "[1:1]"],
     "unknown color 'purple'; expected blue, red, or green"),
    (["spreadpoly", "--n", "-1"], "--n must be nonnegative"),
    (["verify", "--suite", "isometry", "--color", "general"],
     "the isometry suite covers blue, red, and green only"),
    (["verify", "--suite", "heron", "--trials", "0"], "--trials must be positive"),
    (["verify", "--suite", "heron", "--primes", ","], "empty prime list"),
], ids=["zero-point", "zero-form", "zero-matrix", "point-brackets", "point-arity",
        "form-arity", "matrix-rows", "matrix-row-arity", "bare-eval", "unknown-color",
        "negative-n", "isometry-general", "no-trials", "empty-primes"])
def test_refused_input_is_one_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: ParseError: {message}\n")


def test_verify_exit_reflects_report(capsys):
    # a passing run exits 0; the exit code is computed from failed counts
    code, out, _ = run(capsys, "verify", "--suite", "chromo", "--field", "fp:5")
    report = json.loads(out)
    assert (code == 0) == (report["failed"] == 0)


def test_batch_paper_pairs(tmp_path, capsys):
    requests = tmp_path / "requests.txt"
    requests.write_text(
        'pquad --form 1:0:1 --points [1:0] [2:3]\n'
        'pquad --form 1:0:1 --points [2:3] [4:-1]\n'
        'pquad --form 1:0:1 --points [4:-1] [3:5]\n'
        'pquad --form 1:0:1 --points [1:0] [3:5]\n'
    )
    code, out, _ = run(capsys, "batch", str(requests))
    assert code == 0
    assert out.splitlines() == ["9/13", "196/221", "529/578", "25/34"]


def test_batch_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = run(capsys, "batch", str(empty))
    assert code == 0
    assert out == ""


def test_batch_flags_errors_inline(tmp_path, capsys):
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(
        "quad --points 1 4\n"
        "bogus --points 1 2\n"
        "quad --points 2 5\n"
    )
    code, out, _ = run(capsys, "batch", str(mixed))
    assert code != 0
    lines = out.splitlines()
    assert lines[0] == "9"
    assert "line 2: error: ParseError" in lines[1]
    assert lines[2] == "9"


def test_batch_domain_error_inline(tmp_path, capsys):
    f = tmp_path / "null.txt"
    f.write_text("pquad --color green --points [1:0] [1:1]\n")
    code, out, _ = run(capsys, "batch", str(f))
    assert code == 3
    assert "NullPoint" in out


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/no/such/file.txt")
    assert code == 3
    assert "FileNotFound" in err


def test_batch_reports_an_unbalanced_quote_and_goes_on(tmp_path, capsys):
    f = tmp_path / "quotes.txt"
    f.write_text('quad --points 1 4\nquad --points "1 2\nquad --points 2 5\n')
    code, out, err = run(capsys, "batch", str(f))
    assert code == 2
    assert out.splitlines() == [
        "9", "line 2: error: ParseError: cannot split request: No closing quotation", "9"]
    assert err == ""


def test_batch_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes("quad --points 1 4\nquad --points \u00e9 2\n".encode("latin-1"))
    code, out, err = run(capsys, "batch", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError: ") and "not UTF-8" in err
    assert len(err.splitlines()) == 1


def test_eval_refuses_an_exponent_beyond_the_digit_limit(capsys):
    # refused before 10**5000 is built; Fraction alone would build it and
    # then fail to print it
    code, out, err = run(capsys, "eval", "quad", "--points", "1e5000", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["rationals", "fp:7"])
@pytest.mark.parametrize("literal", ["1_000", "1_0/3", "1e1_0"])
def test_eval_refuses_digit_separators(capsys, field, literal):
    code, out, err = run(capsys, "eval", "quad", "--points", literal, "2", "--field", field)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError: ") and len(err.splitlines()) == 1


# The point a classification prints, or the matrix in its error message,
# has more digits than Python's int-string limit.
OVERSIZED_PCLASSIFY = [
    'pclassify --color green --matrix "1e4300,0;0,0"',  # singular: the message prints it
    'pclassify --color blue --matrix "1e-2200,1e2200;-1e2200,1e-2200"',  # [1:10^4400]
]


def test_eval_result_beyond_the_digit_limit_is_a_domain_error(capsys):
    # no exponent: a 2,200-digit literal squares to about 4,400 digits
    for request in ["quad --points 0 " + "9" * 2200] + OVERSIZED_PCLASSIFY:
        code, out, err = run(capsys, "eval", *shlex.split(request))
        assert code == 3
        assert out == ""
        assert err.startswith("error: InvalidArgument: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_batch_goes_on_after_a_literal_beyond_the_digit_limit(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("quad --points 1 4\nquad --points 1e5000 2\nquad --points 1e4000 2\n"
                 + "".join(line + "\n" for line in OVERSIZED_PCLASSIFY)
                 + "quad --points 2 5\n")
    code, out, err = run(capsys, "batch", str(f))
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == lines[5] == "9"
    assert lines[1].startswith("line 2: error: ParseError: ")
    for n in (3, 4, 5):
        assert lines[n - 1].startswith(f"line {n}: error: InvalidArgument: ")
    assert err == ""


def test_batch_field_option(tmp_path, capsys):
    f = tmp_path / "fp.txt"
    f.write_text("quad --points 3 6\nquad --field rationals --points 3 6\n")
    code, out, _ = run(capsys, "batch", str(f), "--field", "fp:7")
    assert code == 0
    assert out.splitlines() == ["2", "9"]


def test_python_dash_m_runs_from_a_checkout(tmp_path):
    # no install: the package is found through PYTHONPATH=src alone
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "quadrance", "example", "paper"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "R(q12, q23, q34, q14) = 0" in proc.stdout


# request characters, the four whitespace characters shlex splits at, and
# the characters that take split_request off its str.split path
_PLAIN = "quad pquad --points --form 1/2 -3 [4:5] 1:0:1 fp:7 #; \t\r\n"
_SPECIAL = "'\"\\\x0b\x0c\x1c\x85\xa0\u2003"


@given(st.one_of(st.text(alphabet=_PLAIN), st.text(alphabet=_PLAIN + _SPECIAL), st.text()))
def test_split_request_matches_shlex(line):
    try:
        want = shlex.split(line)
    except ValueError:
        with pytest.raises(ParseError):
            split_request(line)
    else:
        assert split_request(line) == want


def run_quietly(*argv):
    """main(argv) with its stdout and stderr captured: (code, out, err).
    Hypothesis runs many examples per test, and capsys captures per test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# literals of every kind a request takes, right and wrong: a refused field,
# an exponent past the digit limit, all-zero points, forms and matrices
_REQUEST_WORDS = (
    "--field", "--form", "--color", "--points", "--matrix",
    "rationals", "fp:7", "fp:13", "fp:2", "fp:9", "fp:x", "blue", "red", "green", "purple",
    "0", "1", "-3", "1/2", "0/5", "1/0", "2.5", "1e-3", "1e5000", "x",
    "[1:0]", "[2:3]", "[1/2:1/3]", "[0:0]", "[1:2:3]", "1:0:1", "(1:2:3)", "0:0:0",
    "1,2;-2,1", "3,0;0,5", "1,1;1,1", "0,0;0,0", "1,2", "",
)
_TOKENS = st.one_of(st.sampled_from(_REQUEST_WORDS), st.text(max_size=6))
_KINDS = st.sampled_from(("quad", "pquad", "aclassify", "pclassify", "bogus"))


def _asks_for_help(word):
    """Whether argparse reads ``word`` as -h or --help (or a prefix of it),
    which prints the multi-line help on purpose."""
    return word == "-h" or (len(word) > 2 and "--help".startswith(word))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(_KINDS, _TOKENS.filter(lambda w: not _asks_for_help(w))),
       st.lists(_TOKENS, max_size=8))
def test_eval_prints_one_line_or_one_error(kind, tokens):
    # the first word may be a flag too: argparse's own usage errors are one line
    code, out, err = run_quietly("eval", kind, *tokens)
    assert code in (0, 2, 3)
    if code == 0:
        assert (out.count("\n"), out.endswith("\n"), err) == (1, True, "")
    else:
        assert (out, err.count("\n"), err.endswith("\n")) == ("", 1, True)
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "--field", "fp:7", "quad", "--points", "1", "2"],
    ["verify"],
    ["verify", "--suite", "nonsense"],
    ["spreadpoly", "--n", "x"],
    [],
], ids=["flag-before-kind", "no-suite", "unknown-suite", "bad-int", "no-command"])
def test_argparse_usage_errors_are_one_line(argv):
    code, out, err = run_quietly(*argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ParseError: ") and "usage:" not in err


# tokens as a request line may write them: bare, quoted, escaped or unbalanced
_LINE_TOKENS = st.one_of(
    _TOKENS,
    _TOKENS.map(lambda t: '"' + t + '"'),
    _TOKENS.map(lambda t: "'" + t + "'"),
    _TOKENS.map(lambda t: t + "\\"),
    st.sampled_from(('"', "'", "\\", '"1 2', "1\\ 2")),
)
# no line break inside a line: the batch file splits at \n and \r
_REQUEST_LINES = st.one_of(
    st.builds(lambda kind, tokens: " ".join([kind, *tokens]), _KINDS,
              st.lists(_LINE_TOKENS, max_size=8)),
    st.text(max_size=12),
).filter(lambda line: "\r" not in line and "\n" not in line)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(_REQUEST_LINES, max_size=6), st.sampled_from(("rationals", "fp:7")))
def test_batch_prints_one_line_per_request(tmp_path_factory, lines, field):
    requests = tmp_path_factory.getbasetemp() / "fuzzed-requests.txt"
    requests.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    code, out, err = run_quietly("batch", str(requests), "--field", field)
    assert code in (0, 2, 3)
    assert err == ""
    assert out.count("\n") == sum(1 for line in lines if line.strip())
    assert out == "" or out.endswith("\n")
    assert "Traceback" not in out
