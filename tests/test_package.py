import ast
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

# Start-up loads none of these, not even for the verify command; -S keeps
# site hooks from loading them first.
_NO_HEAVY_IMPORTS = """
import contextlib, io, sys
def check(step):
    loaded = [m for m in ("dataclasses", "inspect", "typing") if m in sys.modules]
    assert not loaded, f"{step} loaded {loaded}"
import quadrance
check("import quadrance")
from quadrance import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "quad", "--points", "1", "3"]) == 0
check("the eval command")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "heron", "--field", "fp:3"]) == 0
check("the verify command")
"""

# The symbolic module, which proves identities over Z, loads only for a
# rational verify run: not for the package, the kernels or a sweep over F_p.
_SYMBOLIC_ON_FIRST_USE = """
import contextlib, io, sys
import quadrance
from quadrance import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "quad", "--points", "1", "3"]) == 0
    assert cli.main(["example", "paper"]) == 0
    assert cli.main(["spreadpoly", "--n", "3", "--factor"]) == 0
    assert cli.main(["verify", "--suite", "all", "--field", "fp:7"]) == 0
assert "quadrance.symbolic" not in sys.modules, "only a rational run may load it"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "triple-quad", "--trials", "1"]) == 0
assert "quadrance.symbolic" in sys.modules
"""


def _run_fresh(script, *flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_the_verifier_on_first_use():
    _run_fresh(_FIRST_USE)


def test_cli_loads_the_verifier_only_to_verify():
    _run_fresh(_CLI_FIRST_USE)


def test_only_a_rational_verify_loads_the_symbolic_module():
    _run_fresh(_SYMBOLIC_ON_FIRST_USE)


def test_start_up_loads_no_dataclasses_inspect_or_typing():
    _run_fresh(_NO_HEAVY_IMPORTS, "-S")


def test_star_import_and_dir_show_every_public_name():
    namespace = {}
    exec("from quadrance import *", namespace)
    for name in quadrance.__all__:
        assert namespace[name] is getattr(quadrance, name), name
    assert set(quadrance.__all__) <= set(dir(quadrance))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'quadrance' has no attribute 'no_such_name'$"):
        quadrance.no_such_name


def _imports_and_names(path):
    """(absolute module imports, imported names, names the module reads or
    exports) of one module of the package, imports inside functions too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, imported, used = [], [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                modules.append(node.module)
            if node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return modules, imported, used


@pytest.mark.parametrize("path", sorted((SRC / "quadrance").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_stdlib_and_uses_every_import(path):
    modules, imported, used = _imports_and_names(path)
    outside = [m for m in modules if m.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside} from outside the standard library"
    unused = [name for name in imported if name not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", sorted((SRC / "quadrance").glob("*.py")), ids=lambda p: p.name)
def test_frozen_values_store_through_captured_slot_setters(path):
    # errors.Frozen names the one way: each class's slot setters, captured
    # once, never object.__setattr__
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "__setattr__" and isinstance(node.value, ast.Name)
             and node.value.id == "object"]
    assert not calls, f"{path.name} uses object.__setattr__ on lines {calls}"


_ENUM_MEMBERS = {"Color": {"BLUE", "RED", "GREEN"}, "IsoKind": {"ROTATION", "REFLECTION"}}


def _owner(node: ast.Attribute):
    """The name an attribute is read from: Color in Color.BLUE and in chromo.Color.BLUE."""
    return getattr(node.value, "id", getattr(node.value, "attr", None))


@pytest.mark.parametrize("name", ["chromo", "isometry", "verify", "cli"])
def test_function_bodies_read_enum_members_through_module_constants(name):
    # on Python 3.10 and 3.11 Color.BLUE takes EnumType.__getattr__, about
    # 13 times a module global; the dispatch runs on every kernel call, so
    # bodies read chromo's BLUE, RED, GREEN and isometry's ROTATION,
    # REFLECTION.  Module-level tables, built once, may read the class.
    tree = ast.parse((SRC / "quadrance" / f"{name}.py").read_text(encoding="utf-8"))
    reads = sorted({(node.lineno, f"{_owner(node)}.{node.attr}")
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                    and node.attr in _ENUM_MEMBERS.get(_owner(node), ())})
    assert not reads, f"{name}.py reads enum members through their class: {reads}"


def test_enum_members_keep_their_api_and_are_the_module_constants():
    import enum

    from quadrance import chromo, isometry
    from quadrance.chromo import Color
    from quadrance.isometry import IsoKind

    assert issubclass(Color, enum.Enum) and issubclass(IsoKind, enum.Enum)
    assert [(c.name, c.value, str(c)) for c in Color] == [
        ("BLUE", "blue", "blue"), ("RED", "red", "red"), ("GREEN", "green", "green")]
    assert [(k.name, k.value, str(k)) for k in IsoKind] == [
        ("ROTATION", "rho", "rho"), ("REFLECTION", "sigma", "sigma")]
    assert [chromo.BLUE, chromo.RED, chromo.GREEN] == list(Color)
    assert [isometry.ROTATION, isometry.REFLECTION] == list(IsoKind)
    assert chromo.BLUE is Color.BLUE and isometry.ROTATION is IsoKind.ROTATION
    assert Color("green") is chromo.GREEN and Color("red") is chromo.RED
