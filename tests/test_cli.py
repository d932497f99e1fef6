import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quadrance.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pquad_paper_value(capsys):
    code, out, _ = run(capsys, "eval", "pquad", "--form", "1:0:1",
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


def test_spreadpoly_factor_360_output_is_pinned(capsys):
    # the digest pins every coefficient of S_0..S_360 and of phi_d for d | 360
    code, out, _ = run(capsys, "spreadpoly", "--n", "360", "--factor")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "54b177ac6fdeaa75053b1d5f8f20a8da3bf144ae4093f3fb24cbd56a4405a2f2")


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
