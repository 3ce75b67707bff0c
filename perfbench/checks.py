"""Output checks that hold for any seed.

Every check takes the path of one output and returns a list of problems,
empty when the output is right.  References come from plain-integer
counts or 60-digit decimal arithmetic that share no code with holoset.
"""

from __future__ import annotations

import csv
import json
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

# canonical exact-number text as holoset writes it: "a", "a/b" or
# "a/b+c/e*sqrt(d)"
_EXACT = re.compile(r"^(-?\d+(?:/\d+)?)(?:\+(-?\d+/\d+)\*sqrt\((\d+)\))?$")
_DIGITS = 60


def parse_exact(text: str) -> tuple[Fraction, Fraction, int]:
    """(a, b, d) with value a + b*sqrt(d)."""
    m = _EXACT.match(text)
    if not m:
        raise ValueError(f"not an exact number: {text!r}")
    if m.group(2) is None:
        return Fraction(m.group(1)), Fraction(0), 1
    return Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3))


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_decimal(text: str) -> Decimal:
    a, b, d = parse_exact(text)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return _dec(a) + _dec(b) * Decimal(d).sqrt()


def within(x: str, y: str, r: Fraction) -> bool:
    """|(x, y)| <= r for exact coordinates.

    Rational points are decided exactly.  For an irrational point the
    squared norm is a nonzero combination of distinct square roots, so it
    never equals r*r; 60 digits decide it with a wide margin for the
    coordinates the workloads use (|x|, |y| < 1000).
    """
    ax, bx, _ = parse_exact(x)
    ay, by, _ = parse_exact(y)
    if bx == 0 and by == 0:
        return ax * ax + ay * ay <= r * r
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        gap = exact_decimal(x) ** 2 + exact_decimal(y) ** 2 - _dec(r * r)
    if abs(gap) < Decimal(10) ** -40:
        raise ValueError(f"undecided norm for ({x}, {y})")
    return gap < 0


# -- lattice counts ------------------------------------------------------------


def lattice_count(r: Fraction) -> int:
    """Nonzero integer vectors of norm <= r."""
    r2 = r * r
    m = r.numerator // r.denominator
    total = 0
    for x in range(-m, m + 1):
        t = r2 - x * x
        total += 2 * isqrt(t.numerator // t.denominator) + 1
    return total - 1


def _mobius(n: int) -> list[int]:
    mu = [1] * (n + 1)
    is_prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if is_prime[p]:
            for k in range(p, n + 1, p):
                if k > p:
                    is_prime[k] = False
                mu[k] = -mu[k]
            for k in range(p * p, n + 1, p * p):
                mu[k] = 0
    return mu


def gcd_filtered_count(r: Fraction, max_gcd: int) -> int:
    """#{v in Z^2 \\ 0 : |v| <= r, gcd(v) <= max_gcd} by the Moebius sum.

    Primitive vectors number sum_d mu(d) * lattice_count(r/d); the
    vectors of gcd exactly g are g times the primitive ones of norm <= r/g.
    """
    m = r.numerator // r.denominator
    mu = _mobius(max(m, 1))

    def primitive(s: Fraction) -> int:
        k = s.numerator // s.denominator
        return sum(mu[d] * lattice_count(s / d) for d in range(1, k + 1))

    return sum(primitive(r / g) for g in range(1, max_gcd + 1))


def shifted_count(r: Fraction, tx: str, ty: str) -> int:
    """#{(a, b) in Z^2 : |(a + tx, b + ty)| <= r} for a shift in (-1, 1)^2."""
    m = r.numerator // r.denominator + 2
    return sum(
        within(_shift(a, tx), _shift(b, ty), r)
        for a in range(-m, m + 1)
        for b in range(-m, m + 1)
    )


def _shift(k: int, t: str) -> str:
    a, b, d = parse_exact(t)
    a += k
    return f"{a.numerator}/{a.denominator}+{b.numerator}/{b.denominator}*sqrt({d})"


# -- point CSV -----------------------------------------------------------------

CSV_HEADER = ["x_exact", "y_exact", "x_float", "y_float", "tag"]


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    return rows[1:]


def _guard(check):
    """Turn a malformed output into a reported problem."""

    def guarded(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc}"]

    return guarded


def _int_rows(rows) -> list[tuple[int, int]]:
    return [(int(x), int(y)) for x, y, *_ in rows]


@_guard
def coprime(path: Path, radius: Fraction, max_gcd: int) -> list[str]:
    pts = _int_rows(read_rows(path))
    problems = []
    expected = gcd_filtered_count(radius, max_gcd)
    if len(pts) != expected:
        problems.append(f"{len(pts)} rows, Moebius count is {expected}")
    if pts != sorted(set(pts)):
        problems.append("rows not in canonical order or repeated")
    if any(gcd(x, y) > max_gcd for x, y in pts):
        problems.append("row with gcd above the filter")
    if any(Fraction(x * x + y * y) > radius * radius for x, y in pts):
        problems.append("vector longer than the radius")
    return problems


@_guard
def enumerate_(path: Path, radius: Fraction, sheets: int) -> list[str]:
    pts = _int_rows(read_rows(path))
    problems = []
    if not pts:
        problems.append("no holonomy vectors")
    if set(pts) != {(-x, -y) for x, y in pts}:
        problems.append("not closed under negation")
    if any(gcd(x, y) > sheets for x, y in pts):
        problems.append(f"gcd above the sheet count {sheets}")
    if any(Fraction(x * x + y * y) > radius * radius for x, y in pts):
        problems.append("vector longer than the radius")
    return problems


SHIFT = ("-1+1/1*sqrt(2)", "-1+1/1*sqrt(3)")  # the example's branch shift
_NEG_SHIFT = ("1+-1/1*sqrt(2)", "1+-1/1*sqrt(3)")


@_guard
def example(path: Path, radius: Fraction) -> list[str]:
    """Family sizes of the double cover: primitive integer vectors (UU)
    and the lattice translates by +t (UV) and -t (VU) in the ball.  With
    the counts, ball membership of every row pins the set exactly."""
    rows = read_rows(path)
    tags = [row[4] for row in rows]
    expected = {
        "UU": gcd_filtered_count(radius, 1),
        "UV": shifted_count(radius, *SHIFT),
        "VU": shifted_count(radius, *_NEG_SHIFT),
    }
    got = {tag: tags.count(tag) for tag in expected}
    problems = [
        f"{got[t]} {t} rows, expected {n}" for t, n in expected.items() if got[t] != n
    ]
    if len(rows) != sum(got.values()):
        problems.append("unknown tag")
    if len({(x, y) for x, y, *_ in rows}) != len(rows):
        problems.append("repeated point")
    if not all(within(x, y, radius) for x, y, *_ in rows):
        problems.append("point outside the radius")
    if not all(gcd(x, y) == 1 for x, y in _int_rows(r for r in rows if r[4] == "UU")):
        problems.append("UU row that is not a primitive integer vector")
    return problems


@_guard
def same_bytes(path: Path, reference: Path) -> list[str]:
    if path.read_bytes() != reference.read_bytes():
        return [f"differs from {reference.name}"]
    return []


# -- certifiers ----------------------------------------------------------------


def _growth_expected(points: Path, radii) -> list:
    rows = read_rows(points)
    return [
        [str(r), sum(within(x, y, r) for x, y, *_ in rows)] for r in radii
    ]


@_guard
def diagnose(path: Path, points: Path, radii, resolution: Fraction,
             reference: dict | None) -> list[str]:
    """Growth counts against an independent count; the min-gap pair and
    the covering radius against the values frozen for this input.  The
    covering radius may move by resolution*sqrt(2), the accuracy the
    grid search promises."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if doc["label"] != "finite-window estimate":
        problems.append("missing estimate label")
    if doc["growth"]["counts"] != _growth_expected(points, radii):
        problems.append("growth counts differ from the independent count")
    if reference is not None:
        if doc["min_gap"]["pair"] != reference["min_gap_pair"]:
            problems.append("min-gap pair differs from the frozen pair")
        slack = float(resolution) * 2 ** 0.5
        if reference["covering"] is None:
            problems.append("no frozen covering radius for this window")
        elif abs(doc["covering_radius"]["radius"] - reference["covering"]) > slack:
            problems.append("covering radius moved beyond resolution*sqrt(2)")
    return problems


def diagnose_stable(data: bytes) -> bytes:
    """The diagnose report minus the covering block, for digests."""
    doc = json.loads(data)
    doc.pop("covering_radius", None)
    return json.dumps(doc, sort_keys=True).encode()


@_guard
def plot(path: Path, points: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    problems = []
    if not text.startswith("<svg ") or not text.endswith("</svg>\n"):
        problems.append("not a complete SVG document")
    n = len(read_rows(points))
    if text.count("<circle ") != n:
        problems.append(f"{text.count('<circle ')} markers for {n} points")
    return problems


@_guard
def close_pair(path: Path, radius: Fraction) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if not doc["dist"] + doc["dist_err"] < radius:
        problems.append("dist + dist_err is not below r")
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        dx = exact_decimal(doc["v1"][0]) - exact_decimal(doc["v2"][0])
        dy = exact_decimal(doc["v1"][1]) - exact_decimal(doc["v2"][1])
        dist = (dx * dx + dy * dy).sqrt()
    if abs(dist - Decimal(doc["dist"])) > Decimal(doc["dist_err"]) + Decimal(1e-15):
        problems.append("reported distance does not match v1 - v2")
    return problems


@_guard
def hole(path: Path, radius: Fraction, max_gcd: int) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    cert = doc["certificate"]
    problems = []
    if doc["verification"]["passed"] is not True:
        problems.append("verification did not pass")
    n = len(cert["primes"])
    x, y = int(cert["x"]), int(cert["y"])
    if not 2 * radius < n:
        problems.append("grid does not exceed 2*radius")
    if any(
        gcd(x + i, y + j) <= max_gcd
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ):
        problems.append("grid point with small gcd")
    return problems
