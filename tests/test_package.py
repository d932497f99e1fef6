import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadrance

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: this test process has loaded quadrance.verify.
_FIRST_USE = """
import sys
import quadrance
assert "quadrance.field" in sys.modules
assert "quadrance.verify" not in sys.modules, "import quadrance loaded the verifier"
run_suite, Report = quadrance.run_suite, quadrance.Report
verify = sys.modules["quadrance.verify"]
assert quadrance.verify is verify
assert run_suite is verify.run_suite and Report is verify.Report
"""

# The command line's start-up: only its verify command loads the verifier.
_CLI_FIRST_USE = """
import contextlib, io, sys
from quadrance import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["eval", "quad", "--points", "1", "3"]) == 0
assert out.getvalue() == "4\\n", out.getvalue()
assert "quadrance.verify" not in sys.modules, "the eval command loaded the verifier"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "heron", "--field", "fp:3"]) == 0
assert "quadrance.verify" in sys.modules
"""


def _run_fresh(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_the_verifier_on_first_use():
    _run_fresh(_FIRST_USE)


def test_cli_loads_the_verifier_only_to_verify():
    _run_fresh(_CLI_FIRST_USE)


def test_star_import_and_dir_show_every_public_name():
    namespace = {}
    exec("from quadrance import *", namespace)
    for name in quadrance.__all__:
        assert namespace[name] is getattr(quadrance, name), name
    assert set(quadrance.__all__) <= set(dir(quadrance))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'quadrance' has no attribute 'no_such_name'$"):
        quadrance.no_such_name
