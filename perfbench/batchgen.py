"""Seeded generator of `batch` request lines with independently computed answers.

Stdlib only.  Every expected answer comes from the int/Fraction formulas in
this file, never from the quadrance package: the library sees only the
generated text lines.  The mix is fixed by quota, not by chance, so two seeds
differ only in the values drawn.  It is assumed, not measured: no record of
real batch traffic exists, so every share is equal across the choices it
covers:

* kinds: quad, pquad --form, pquad --color, aclassify and pclassify, one fifth each;
* fields: rationals, the small prime field fp:13 and a 64-bit prime, one third each;
* literals: 1 to 30 digits each, uniformly;
* one line in 25 is invalid, one fifth each of a missing point, a bad
  literal, an unknown colour, a null point and a singular matrix.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

P64 = 18446744073709551557  # the largest prime below 2**64
MAX_DIGITS = 30
INVALID_EVERY = 25
FIELDS = ("rationals", "fp:13", f"fp:{P64}")
KINDS = ("quad", "pquad-form", "pquad-color", "aclassify", "pclassify")
INVALID = (
    ("arity", "ParseError"),
    ("literal", "ParseError"),
    ("color", "ParseError"),
    ("null-point", "NullPoint"),
    ("singular", "NotIsometry"),
)
COLORS = ("blue", "red", "green")
_BAD_LITERALS = {"rationals": ("1/0", "abc", "1//2"), "fp": ("2.5", "1/2", "abc")}


@dataclass(frozen=True)
class Line:
    """One request line and the outcome the library must produce for it."""

    text: str
    kind: str    # request kind: quad, pquad, aclassify or pclassify
    expect: str  # printed answer of a valid line, "" for an invalid one
    error: str   # error class name an invalid line raises, "" for a valid one


class _Field:
    """Exact arithmetic on literal values: Fraction over Q, residues mod p."""

    def __init__(self, descriptor: str):
        self.descriptor = descriptor
        self.p = None if descriptor == "rationals" else int(descriptor[3:])

    def reduce(self, x):
        return x if self.p is None else x % self.p

    def literal(self, rng: random.Random, digits: list) -> tuple:
        """A random literal of 1..MAX_DIGITS digits as (text, value)."""
        n = rng.randint(1, MAX_DIGITS)
        digits.append(n)
        sign = "-" if rng.random() < 0.3 else ""
        if self.p is None and n >= 2 and rng.random() < 0.5:
            num_digits = rng.randint(1, n - 1)
            num, den = _digits(rng, num_digits), _digits(rng, n - num_digits, nonzero=True)
            return f"{sign}{num}/{den}", Fraction(int(sign + str(num)), den)
        value = int(sign + str(_digits(rng, n)))
        return str(value), Fraction(value) if self.p is None else value % self.p

    def div(self, a, b):
        if self.p is None:
            return Fraction(a) / b
        return a * pow(b, -1, self.p) % self.p

    def fmt(self, x) -> str:
        """The string the library prints for an element."""
        return str(Fraction(x)) if self.p is None else str(x % self.p)


def _digits(rng: random.Random, n: int, nonzero: bool = False) -> int:
    low = 1 if nonzero else 0
    return rng.randint(max(low, 10 ** (n - 1) if n > 1 else low), 10 ** n - 1)


def _canonical(F: _Field, x, y) -> str:
    """ProjPoint's display form: first nonzero coordinate scaled to 1."""
    if F.reduce(x) != 0:
        return f"[1:{F.fmt(F.div(y, x))}]"
    return "[0:1]"


def _field_flag(F: _Field, rng: random.Random) -> str:
    # Half the rational lines rely on the batch default field.
    if F.p is None and rng.random() < 0.5:
        return ""
    return f" --field {F.descriptor}"


def _color_value(F: _Field, color: str, x, y):
    if color == "blue":
        return F.reduce(x * x + y * y)
    if color == "red":
        return F.reduce(x * x - y * y)
    return F.reduce(x * y)


def _classify(F: _Field, color: str, a, b, c, d):
    """Mirror of isometry.classify's decision on reduced entries: answer or error class."""
    a, b, c, d = (F.reduce(v) for v in (a, b, c, d))
    if F.reduce(a * d - b * c) == 0:
        return None, "NotIsometry"
    minus_a, minus_b = F.reduce(-a), F.reduce(-b)
    if color == "green":
        if b == 0 and c == 0:
            kind, param = "rho", (a, d)
        elif a == 0 and d == 0:
            kind, param = "sigma", (b, c)
        else:
            return None, "NotIsometry"
    elif color == "blue":
        if c == minus_b and d == a:
            kind, param = "rho", (a, b)
        elif c == b and d == minus_a:
            kind, param = "sigma", (a, b)
        else:
            return None, "NotIsometry"
    else:
        if c == b and d == a:
            kind, param = "rho", (a, b)
        elif c == minus_b and d == minus_a:
            kind, param = "sigma", (a, b)
        else:
            return None, "NotIsometry"
    if _color_value(F, color, *param) == 0:
        return None, "NotIsometry"
    return f"{kind}:{color}:{_canonical(F, *param)}", ""


def _valid_line(kind: str, F: _Field, rng: random.Random, digits: list, literals: list):
    """Draw until the request is valid; return (text, request kind, answer)."""
    while True:
        drawn: list = []
        lit = []

        def new():
            text, value = F.literal(rng, drawn)
            lit.append(text)
            return text, value

        flag = _field_flag(F, rng)
        if kind == "quad":
            (t1, x1), (t2, x2) = new(), new()
            out = ("quad", f"quad --points {t1} {t2}{flag}", F.fmt(F.reduce((x2 - x1) ** 2)))
        elif kind == "pquad-form":
            (td, d), (te, e), (tf, f) = new(), new(), new()
            (tx1, x1), (ty1, y1), (tx2, x2), (ty2, y2) = new(), new(), new(), new()
            disc = F.reduce(d * f - e * e)
            v1 = F.reduce(d * x1 * x1 + 2 * e * x1 * y1 + f * y1 * y1)
            v2 = F.reduce(d * x2 * x2 + 2 * e * x2 * y2 + f * y2 * y2)
            if disc == 0 or v1 == 0 or v2 == 0:
                continue
            cross = x1 * y2 - x2 * y1
            value = F.div(F.reduce(disc * cross * cross), F.reduce(v1 * v2))
            out = ("pquad", f"pquad --form {td}:{te}:{tf} --points [{tx1}:{ty1}] "
                            f"[{tx2}:{ty2}]{flag}", F.fmt(value))
        elif kind == "pquad-color":
            color = COLORS[rng.randrange(3)]
            (tx1, x1), (ty1, y1), (tx2, x2), (ty2, y2) = new(), new(), new(), new()
            v1, v2 = _color_value(F, color, x1, y1), _color_value(F, color, x2, y2)
            if v1 == 0 or v2 == 0:
                continue
            cross2 = F.reduce((x1 * y2 - x2 * y1) ** 2)
            if color == "blue":
                value = F.div(cross2, F.reduce(v1 * v2))
            elif color == "red":
                value = F.div(F.reduce(-cross2), F.reduce(v1 * v2))
            else:
                value = F.div(F.reduce(-cross2), F.reduce(4 * v1 * v2))
            out = ("pquad", f"pquad --color {color} --points [{tx1}:{ty1}] [{tx2}:{ty2}]{flag}",
                   F.fmt(value))
        elif kind == "aclassify":
            ta, alpha = new()
            step = 1 if rng.random() < 0.5 else -1
            beta_text = str(alpha + step) if F.p is None else str(int(ta) + step)
            tag = "t" if step == 1 else "r"
            out = ("aclassify", f"aclassify --points {ta} {beta_text}{flag}",
                   f"{tag}:{F.fmt(alpha)}")
        else:
            color = COLORS[rng.randrange(3)]
            rotation = rng.random() < 0.5
            (ta, a), (tb, b) = new(), new()
            scale = rng.randint(1, 99) * (1 if rng.random() < 0.7 else -1)
            if F.p is None:
                a, b = a * scale, b * scale
            else:
                a, b = int(ta) * scale, int(tb) * scale
            if color == "blue":
                entries = (a, b, -b, a) if rotation else (a, b, b, -a)
            elif color == "red":
                entries = (a, b, b, a) if rotation else (a, b, -b, -a)
            else:
                entries = (a, 0, 0, b) if rotation else (0, a, b, 0)
            answer, error = _classify(F, color, *entries)
            if error:
                continue
            ta_, tb_, tc_, td_ = (str(v) for v in entries)
            out = ("pclassify", f"pclassify --color {color} --matrix {ta_},{tb_};{tc_},{td_}{flag}",
                   answer)
        digits.extend(drawn)
        literals.extend((F.descriptor, t) for t in lit)
        return out


def _invalid_line(kind: str, F: _Field, rng: random.Random):
    """Return (text, request kind) for a line that must raise one error class."""
    flag = _field_flag(F, rng)
    scratch: list = []

    def nonzero():
        while True:
            text, value = F.literal(rng, scratch)
            if F.reduce(value) != 0:
                return text, value

    if kind == "arity":
        return f"quad --points {nonzero()[0]}{flag}", "quad"
    if kind == "literal":
        bad = rng.choice(_BAD_LITERALS["rationals" if F.p is None else "fp"])
        return f"quad --points {nonzero()[0]} {bad}{flag}", "quad"
    if kind == "color":
        (tx, _), (ty, _) = nonzero(), nonzero()
        return f"pquad --color purple --points [{tx}:1] [1:{ty}]{flag}", "pquad"
    if kind == "null-point":
        t, _ = nonzero()
        if rng.random() < 0.5:
            first = f"[{t}:{t}]"  # red-null
            return f"pquad --color red --points {first} [1:2]{flag}", "pquad"
        te, _ = nonzero()  # form (0:e:1) is non-degenerate and null at [1:0]
        return f"pquad --form 0:{te}:1 --points [1:0] [{t}:1]{flag}", "pquad"
    (ta, a), (tb, b) = nonzero(), nonzero()
    k = rng.randint(-9, 9)
    c, d = (a * k, b * k) if F.p is None else (int(ta) * k, int(tb) * k)
    color = COLORS[rng.randrange(3)]
    return f"pclassify --color {color} --matrix {ta},{tb};{str(c)},{str(d)}{flag}", "pclassify"


def generate(seed: int, n_lines: int):
    """Return (lines, mix, literals) for a seed.

    ``literals`` lists (field descriptor, literal text) for every literal of
    the valid lines, for timing ``ctx.parse`` on the same mix.
    """
    rng = random.Random(seed)
    n_invalid = n_lines // INVALID_EVERY
    specs = [(KINDS[i % len(KINDS)], FIELDS[(i // len(KINDS)) % len(FIELDS)], None)
             for i in range(n_lines - n_invalid)]
    specs += [(None, FIELDS[i % len(FIELDS)], INVALID[i % len(INVALID)])
              for i in range(n_invalid)]
    rng.shuffle(specs)
    fields = {d: _Field(d) for d in FIELDS}
    lines, digits, literals = [], [], []
    for kind, descriptor, invalid in specs:
        F = fields[descriptor]
        if invalid is None:
            request, text, answer = _valid_line(kind, F, rng, digits, literals)
            lines.append(Line(text, request, answer, ""))
        else:
            text, request = _invalid_line(invalid[0], F, rng)
            lines.append(Line(text, request, "", invalid[1]))
    mix = {
        "seed": seed,
        "lines": n_lines,
        "kinds": dict(Counter(kind or "invalid" for kind, _, _ in specs)),
        "fields": dict(Counter(d for _, d, _ in specs)),
        "invalid": dict(Counter(inv[0] for _, _, inv in specs if inv)),
        "invalid_share": n_invalid / n_lines,
        "literal_digits": {"min": min(digits), "max": max(digits),
                           "mean": round(sum(digits) / len(digits), 2), "count": len(digits)},
    }
    return lines, mix, literals
