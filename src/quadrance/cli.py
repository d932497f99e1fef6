"""Command-line front end.

Subcommands: ``eval`` (one exact computation), ``spreadpoly`` (coefficient
tables and factorizations), ``example paper`` (the built-in worked example
as a golden check), ``verify`` (randomized/exhaustive identity suites with
JSON reports), and ``batch`` (a file of eval requests, one per line).

Exit codes: 0 success, 1 verification/fixture failure, 2 usage or parse
error, 3 domain error (null point, bad field, and so on).
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from fractions import Fraction

from . import affine, chromo, isometry, projective, spreadpoly
from .chromo import BLUE, Color
from .errors import ParseError, QuadranceError, Record
from .field import FieldContext, make_context
from .isometry import ProjMatrix
from .projective import Form, ProjPoint
from .suites import FORM_NAMES, SUITE_NAMES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

EVAL_GRAMMAR = """\
eval requests, the kind first and its flags after it:
  quad      --points X1 X2 [--field F]
  pquad     (--form D:E:F | --color C) --points [X:Y] [X:Y] [--field F]
  aclassify --points IMAGE0 IMAGE1 [--field F]      -> t:<shift> | r:<shift>
  pclassify --color C --matrix A,B;C,D [--field F]  -> rho:C:[a:b] | sigma:C:[a:b]
Field descriptors: rationals (default) or fp:<odd prime>.
Values and the p of fp:<p> take no '_' digit separators (1_000 and
fp:1_3 are refused).
A flag before the kind (eval --field fp:7 quad ...) is a usage error.
"""


def _parse_values(ctx: FieldContext, parts, text: str, all_zero: str) -> list:
    """Each part parsed in order; all zeros is refused with the all_zero message."""
    values = [ctx.parse(p) for p in parts]
    if not any(values):  # a parsed Fraction or Fp is falsy exactly when zero
        raise ParseError(f"{all_zero}: {text!r}")
    return values


def parse_proj_point(ctx: FieldContext, text: str) -> ProjPoint:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ParseError(f"point literal must look like [x:y], got {text!r}")
    parts = t[1:-1].split(":")
    if len(parts) != 2:
        raise ParseError(f"point literal must have two coordinates, got {text!r}")
    return ProjPoint(*_parse_values(ctx, parts, text,
                                    "projective point needs a nonzero coordinate"))


def parse_form(ctx: FieldContext, text: str) -> Form:
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    parts = t.split(":")
    if len(parts) != 3:
        raise ParseError(f"form literal must look like d:e:f, got {text!r}")
    return Form(*_parse_values(ctx, parts, text, "form needs a nonzero coefficient"))


def parse_matrix(ctx: FieldContext, text: str) -> ProjMatrix:
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ParseError(f"matrix literal must look like a,b;c,d, got {text!r}")

    def cells():  # a row's shape is checked when its entries are reached
        for row in rows:
            cols = row.split(",")
            if len(cols) != 2:
                raise ParseError(f"matrix rows need two entries, got {text!r}")
            yield from cols

    return ProjMatrix(*_parse_values(ctx, cells(), text, "matrix needs a nonzero entry"))


class EvalRequest(Record):
    __slots__ = ("what", "field", "form", "color", "points", "matrix")

    def __init__(self, what: str, field: str, form: str | None, color: str | None,
                 points: list[str], matrix: str | None):
        self.what = what
        self.field = field
        self.form = form
        self.color = color
        self.points = points
        self.matrix = matrix


_EVAL_KINDS = ("quad", "pquad", "aclassify", "pclassify")
_EVAL_FLAGS = ("--field", "--form", "--color", "--points", "--matrix")


def parse_eval_request(tokens: list[str], default_field: str = "rationals") -> EvalRequest:
    if not tokens:
        raise ParseError("empty request; expected one of: " + ", ".join(_EVAL_KINDS))
    what = tokens[0]
    if what not in _EVAL_KINDS:
        raise ParseError(f"unknown eval request {what!r}; expected one of: "
                         + ", ".join(_EVAL_KINDS))
    valued = {"--field": default_field, "--form": None, "--color": None, "--matrix": None}
    points: list[str] = []
    i = 1
    while i < len(tokens):
        flag = tokens[i]
        if flag == "--points":
            i += 1
            while i < len(tokens) and tokens[i] not in _EVAL_FLAGS:
                points.append(tokens[i])
                i += 1
            continue
        if flag not in valued:
            raise ParseError(f"unknown flag {flag!r} in eval request")
        if i + 1 >= len(tokens):
            raise ParseError(f"flag {flag} needs a value")
        valued[flag] = tokens[i + 1]
        i += 2
    field, form, color, matrix = valued.values()
    if what in ("quad", "pquad", "aclassify") and len(points) != 2:
        raise ParseError(f"{what} needs exactly two --points values")
    if what == "pquad" and (form is None) == (color is None):
        raise ParseError("pquad needs exactly one of --form or --color")
    if what == "pclassify" and (matrix is None or color is None):
        raise ParseError("pclassify needs --color and --matrix")
    return EvalRequest(what, field, form, color, points, matrix)


# a quote, a backslash, or whitespace that str.split cuts at and shlex does not
_SHELL_SYNTAX = re.compile(r"""['"\\]|[^\S \t\r\n]""")


def split_request(line: str) -> list[str]:
    """The shell-style tokens of one request line.

    A line with no quote, no backslash and no whitespace other than space,
    tab, CR and LF splits as str.split splits it; shlex.split takes the rest.
    """
    if not _SHELL_SYNTAX.search(line):
        return line.split()
    try:
        return shlex.split(line)
    except ValueError as exc:  # an unbalanced quote or a trailing backslash
        raise ParseError(f"cannot split request: {exc}") from exc


def _parse_color(name: str) -> Color:
    try:
        return Color(name)
    except ValueError as exc:
        raise ParseError(f"unknown color {name!r}; expected blue, red, or green") from exc


def execute_eval_request(req: EvalRequest) -> str:
    ctx = make_context(req.field)
    if req.what == "quad":
        a1, a2 = (affine.AffinePoint(ctx.parse(p)) for p in req.points)
        return ctx.format(affine.quadrance(a1, a2))
    if req.what == "pquad":
        a1, a2 = (parse_proj_point(ctx, p) for p in req.points)
        if req.color is not None:
            value = chromo.colored_quadrance(_parse_color(req.color), a1, a2)
        else:
            value = projective.p_quadrance(parse_form(ctx, req.form), a1, a2)
        return ctx.format(value)
    if req.what == "aclassify":
        a1, a2 = (affine.AffinePoint(ctx.parse(p)) for p in req.points)
        iso = affine.isometry_classify(a1, a2)
        tag = "t" if iso.parity == 1 else "r"
        return f"{tag}:{ctx.format(iso.shift)}"
    iso = isometry.classify(parse_matrix(ctx, req.matrix), _parse_color(req.color))
    return f"{iso.kind}:{iso.color}:{iso.param}"


def _exit_code(exc: QuadranceError) -> int:
    """EXIT_USAGE for a ParseError, EXIT_DOMAIN for any other domain error."""
    return EXIT_USAGE if isinstance(exc, ParseError) else EXIT_DOMAIN


# -- subcommand drivers -------------------------------------------------------

def cmd_eval(args) -> int:
    print(execute_eval_request(parse_eval_request(args.request)))
    return EXIT_OK


def cmd_spreadpoly(args) -> int:
    if args.n < 0:
        raise ParseError("--n must be nonnegative")
    for k in range(args.n + 1):
        print(f"S_{k}: {spreadpoly.spread_poly(k)}")
    if args.factor:
        for k in spreadpoly.divisors(args.n):
            print(f"phi_{k}: {spreadpoly.spread_cyclotomic(k)}")
    return EXIT_OK


WORKED_EXAMPLE_POINTS = ((1, 0), (2, 3), (4, -1), (3, 5))
WORKED_EXAMPLE_VALUES = {
    "q12": Fraction(9, 13),
    "q23": Fraction(196, 221),
    "q34": Fraction(529, 578),
    "q14": Fraction(25, 34),
    "q13": Fraction(1, 17),
    "q24": Fraction(1, 442),
}


def cmd_example(args) -> int:
    if args.name != "paper":
        raise ParseError(f"unknown example {args.name!r}; available: paper")
    form = chromo.colored_form(BLUE)
    pts = [ProjPoint(Fraction(x), Fraction(y)) for x, y in WORKED_EXAMPLE_POINTS]
    want = WORKED_EXAMPLE_VALUES
    # "qij" is the p-quadrance of points i and j, counted from 1
    rows = [(key, projective.p_quadrance(form, pts[int(key[1]) - 1], pts[int(key[2]) - 1]),
             want[key], f" (expected {want[key]})") for key in want]
    check = projective.projective_quadruple_check(form, *pts)
    rows += [("R(q12, q23, q34, q14)", check.value, 0, " (expected 0)"),
             ("q13 fraction", check.q13, want["q13"], ""),
             ("q24 fraction", check.q24, want["q24"], "")]
    ok = True
    for label, got, expected, note in rows:
        match = got == expected
        ok = ok and match
        print(f"{label} = {got}" + ("" if match else "  MISMATCH" + note))
    print("worked example: OK" if ok else "worked example: FAILED")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    from . import verify  # only this command loads the verifier

    colors = None if args.color == "all" else [args.color]
    if args.suite == "isometry" and args.color == "general":
        raise ParseError("the isometry suite covers blue, red, and green only")
    if args.trials < 1:
        raise ParseError("--trials must be positive")
    if args.primes:
        # each prime is read as its field descriptor is, by make_context
        try:
            contexts = [make_context(f"fp:{p}") for p in args.primes.split(",") if p.strip()]
        except ParseError as exc:
            raise ParseError(f"bad prime list {args.primes!r}") from exc
        if not contexts:
            raise ParseError("empty prime list")
    else:
        contexts = [make_context(args.field)]
    reports = [verify.run_suite(args.suite, ctx, trials=args.trials,
                                seed=args.seed, colors=colors) for ctx in contexts]
    dicts = [r.to_dict() for r in reports]
    print(json.dumps(dicts if args.primes else dicts[0], indent=2))
    return EXIT_OK if all(r.failed == 0 for r in reports) else EXIT_VERIFY_FAILED


def cmd_batch(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        print(f"error: FileNotFound: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.file} is not UTF-8 text: {exc}") from exc
    worst = EXIT_OK
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            request = parse_eval_request(split_request(stripped), default_field=args.field)
            print(execute_eval_request(request))
        except QuadranceError as exc:
            print(f"line {lineno}: error: {type(exc).__name__}: {exc}")
            worst = max(worst, _exit_code(exc))
    return worst


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one ``error: ParseError: ...``
    line on stderr, like every other usage error; it still exits with
    SystemExit(EXIT_USAGE).  Its subcommand parsers are of this class too."""

    def error(self, message):
        print(f"error: ParseError: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadrance",
        description="Exact one-dimensional metrical geometry toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate one request exactly",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=EVAL_GRAMMAR,
    )
    p_eval.add_argument("request", nargs=argparse.REMAINDER,
                        help="request: quad|pquad|aclassify|pclassify plus flags")
    p_eval.set_defaults(func=cmd_eval)

    p_poly = sub.add_parser("spreadpoly", help="print spread polynomial coefficient rows")
    p_poly.add_argument("--n", type=int, required=True, help="largest index to print")
    p_poly.add_argument("--factor", action="store_true",
                        help="also print the factors phi_k for k dividing n")
    p_poly.set_defaults(func=cmd_spreadpoly)

    p_example = sub.add_parser("example", help="run a built-in worked example")
    p_example.add_argument("name", help="example name (available: paper)")
    p_example.set_defaults(func=cmd_example)

    p_verify = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    p_verify.add_argument("--suite", required=True,
                          choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--field", default="rationals",
                          help="rationals or fp:<p> (default: rationals)")
    p_verify.add_argument("--primes",
                          help="comma-separated primes; runs the suite over each F_p")
    p_verify.add_argument("--trials", type=int, default=1000,
                          help="random trials over the rationals (default 1000)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="random seed, echoed in the report (default 0)")
    p_verify.add_argument("--color", default="all",
                          choices=list(FORM_NAMES) + ["all"],
                          help="narrow form-based suites to one form")
    p_verify.set_defaults(func=cmd_verify)

    p_batch = sub.add_parser("batch", help="run eval requests from a file, one per line")
    p_batch.add_argument("file", help="request file")
    p_batch.add_argument("--field", default="rationals",
                         help="default field for lines without --field")
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuadranceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    raise SystemExit(main())
