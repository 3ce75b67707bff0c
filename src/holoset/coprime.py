"""Visible lattice points, gcd-filtered sets, and CRT hole certificates.

The hole construction places an n-by-n block of integer points, every one
of which is divisible by a dedicated prime, so that the gcd of the
coordinates exceeds the filter bound N throughout an R-ball.  Certificates
carry the full prime grid plus the CRT solutions and can be re-verified
from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import floor, gcd, isqrt, prod
from typing import NamedTuple, Optional

from .exact import PointSet, QuadExt, as_positive


class CertificateError(ValueError):
    """Structurally malformed hole certificate."""


def gcd_filtered_points(max_gcd: int, radius) -> PointSet:
    """Nonzero integer points with gcd(|p|, |q|) <= max_gcd in the closed
    radius ball, with gcd(k, 0) = |k|.  They are made column by column in
    canonical order, so the set takes the columns as they are.

    Column p keeps q unless a divisor g > max_gcd of |p| (of 0, any g)
    divides q: one bytearray sieve per |p| zeroes the multiples of each
    such g, and ``compress`` keeps the flagged q, in column p and -p.
    """
    if max_gcd < 1:
        raise ValueError("max_gcd must be >= 1")
    R = as_positive(radius, "radius")
    # p*p + q*q is an integer, so comparing it with floor(R*R) is exact;
    # |p| <= r and r*r <= R2, so column p is |q| <= isqrt(R2 - p*p)
    R2 = floor(R * R)
    r = floor(R)
    # k at k + r, for this call only: coordinates can have many digits
    lifted = [QuadExt(k) for k in range(-r, r + 1)]
    ms = [isqrt(R2 - a * a) for a in range(r + 1)]
    sieves = [bytearray(b"\1") * (2 * m + 1) for m in ms]  # q at q + m
    for g in range(max_gcd + 1, r + 1):
        for a in range(0, r + 1, g):
            i = ms[a] % g
            sieves[a][i::g] = bytes((2 * ms[a] - i) // g + 1)
    sieves[0][r] = 0  # gcd(0, 0) = 0, but the origin is no point
    xs, ys = [], []
    for p in range(-r, r + 1):
        m, keep = ms[abs(p)], sieves[abs(p)]
        ys += compress(lifted[r - m : r + m + 1], keep)
        xs += repeat(lifted[r + p], keep.count(1))
    return PointSet._from_columns(tuple(xs), tuple(ys), (None,) * len(xs))


def coprime_points(radius) -> PointSet:
    """Primitive (visible) lattice points in the closed radius ball."""
    return gcd_filtered_points(1, radius)


def _sieve_primes_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def first_primes_above(bound: int, count: int) -> list[int]:
    """The first ``count`` primes strictly greater than ``bound``."""
    if count < 1:
        return []
    limit = max(bound + 10, 30)
    while True:
        primes = [p for p in _sieve_primes_to(limit) if p > bound]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def solve_crt(residues: list[int], moduli: list[int]) -> int:
    """Least non-negative x with x = residues[k] (mod moduli[k]); moduli
    must be pairwise coprime."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        if gcd(m, q) != 1:
            raise ValueError("moduli are not pairwise coprime")
        t = ((r - x) * pow(m, -1, q)) % q
        x += m * t
        m *= q
    return x % m


class HoleCertificate(NamedTuple):
    """Witness of an R-ball free of gcd <= N points.

    The grid point (x + i, y + j), 1 <= i, j <= n, is divisible by the
    prime ``primes[i-1][j-1]``, hence has coordinate gcd > N; the hole is
    the open R-ball centred at (x + (n+1)/2, y + (n+1)/2).
    """

    max_gcd: int
    radius: Fraction
    n: int
    primes: tuple[tuple[int, ...], ...]
    x: int
    y: int

    @property
    def row_products(self) -> list[int]:
        return [prod(row) for row in self.primes]

    @property
    def col_products(self) -> list[int]:
        return [prod(row[j] for row in self.primes) for j in range(self.n)]

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        c = Fraction(self.n + 1, 2)
        return (self.x + c, self.y + c)

    def to_json_dict(self) -> dict:
        return {
            "max_gcd": self.max_gcd,
            "radius": str(self.radius),
            "n": self.n,
            "primes": [list(row) for row in self.primes],
            "x": str(self.x),
            "y": str(self.y),
        }


def crt_hole(max_gcd: int, radius) -> HoleCertificate:
    """Build a hole certificate for the gcd <= max_gcd filtered lattice.

    n is the smallest integer exceeding 2*radius; the n*n primes are the
    first primes above max_gcd in row-major order; x and y are the least
    non-negative solutions of x = -i mod (row i product) and
    y = -j mod (column j product).
    """
    if max_gcd < 1:
        raise ValueError("max_gcd must be >= 1")
    R = as_positive(radius, "radius")
    n = floor(2 * R) + 1
    flat = first_primes_above(max_gcd, n * n)
    primes = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    rows = [prod(row) for row in primes]
    cols = [prod(row[j] for row in primes) for j in range(n)]
    x = solve_crt([-(i + 1) for i in range(n)], rows)
    y = solve_crt([-(j + 1) for j in range(n)], cols)
    return HoleCertificate(max_gcd, R, n, primes, x, y)


class HoleReport(NamedTuple):
    """Outcome of re-verifying a certificate from scratch."""

    passed: bool
    failure: Optional[str] = None
    counterexample: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failure": self.failure,
            "counterexample": (
                [str(c) for c in self.counterexample]
                if self.counterexample is not None
                else None
            ),
        }


def verify_hole(cert: HoleCertificate) -> HoleReport:
    """Re-check a certificate: prime grid structure, congruences, the
    gcd > N property on the full grid, and emptiness of the open R-ball.

    Returns the first counterexample found rather than raising.
    """
    n = cert.n
    if n < 1 or len(cert.primes) != n or any(len(r) != n for r in cert.primes):
        return HoleReport(False, "prime grid is not n by n")
    flat = [p for row in cert.primes for p in row]
    if len(set(flat)) != n * n:
        return HoleReport(False, "primes are not distinct")
    if any(p <= cert.max_gcd for p in flat):
        return HoleReport(False, "prime not above max_gcd")
    for p in flat:
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            return HoleReport(False, "grid entry is not prime", (p,))
    if not 2 * cert.radius < n:
        return HoleReport(False, "n does not exceed 2*radius")

    for i, q in enumerate(cert.row_products, 1):
        if (cert.x + i) % q != 0:
            return HoleReport(False, "row congruence broken", (i, q))
    for j, q in enumerate(cert.col_products, 1):
        if (cert.y + j) % q != 0:
            return HoleReport(False, "column congruence broken", (j, q))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xi, yj = cert.x + i, cert.y + j
            p = cert.primes[i - 1][j - 1]
            if xi % p or yj % p:
                return HoleReport(False, "dedicated prime does not divide", (i, j))
            if gcd(xi, yj) <= cert.max_gcd:
                return HoleReport(False, "grid point has small gcd", (xi, yj))

    cx, cy = cert.center
    R2 = cert.radius * cert.radius
    ilo = floor(cx - cert.radius - cert.x) - 1
    ihi = floor(cx + cert.radius - cert.x) + 2
    for i in range(ilo, ihi):
        for j in range(ilo, ihi):
            dx = cert.x + i - cx
            dy = cert.y + j - cy
            if dx * dx + dy * dy < R2:
                if gcd(abs(cert.x + i), abs(cert.y + j)) <= cert.max_gcd:
                    return HoleReport(
                        False, "ball contains small-gcd point", (cert.x + i, cert.y + j)
                    )
    return HoleReport(True)
