"""Producing two holonomy vectors at distance below any given r.

Two parallel cylinders whose circumference lengths have an irrational
quadratic ratio admit Dehn twists that move crossing saddle connections
along arithmetic progressions h + n*l and h' + n'*l'.  Finding a close
pair reduces to inhomogeneous approximation |c + m - m'*lambda| < eps,
which is solved deterministically through the periodic continued
fraction of lambda.  All decisive comparisons are exact; floats appear
only in reported distances, with error bounds attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, isqrt
from typing import Iterator, Union

from .exact import (
    FieldMismatchError,
    QuadExt,
    RationalLike,
    as_fraction,
    as_quad,
    cross,
    dot,
    parse_quadext,
    sqrt_bounds_frac,
    sqrt_with_error,
)

class RatioRationalError(ValueError):
    """The circumference ratio is rational; no close pair is forced."""


class WidthPreconditionError(ValueError):
    """The perpendicular components differ by r/2 or more."""


class IncompleteExpansionError(RuntimeError):
    """Continued fraction period not found within the term budget."""


class ApproximationSearchError(RuntimeError):
    """inhom_approx found no solution within its search budget."""


class VerificationError(RuntimeError):
    """The candidate pair failed the exact distance check against r."""


class ConfigError(ValueError):
    """Malformed cylinder-pair configuration."""


def _floor_surd(P: int, s: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) given s = isqrt(D), D not a square."""
    if Q > 0:
        return (P + s) // Q
    return (-P - s - 1) // (-Q)


def _reduce_triple(P: int, D: int, Q: int) -> tuple[int, int, int]:
    """Divide out the largest e with e | P, e | Q and e*e | D that keeps
    Q | (D - P*P) intact."""
    g = gcd(P, Q)
    for e in range(g, 1, -1):
        if g % e != 0 or D % (e * e) != 0:
            continue
        Pr, Dr, Qr = P // e, D // (e * e), Q // e
        if (Dr - Pr * Pr) % Qr == 0:
            return Pr, Dr, Qr
    return P, D, Q


@dataclass(frozen=True)
class QuadIrrational:
    """The quadratic irrational (P + sqrt(D)) / Q with Q | (D - P*P).

    Stored reduced.  Q keeps its sign: values such as 3 - sqrt(2) only
    admit this shape with a negative denominator.
    """

    P: int
    D: int
    Q: int

    def __post_init__(self):
        P, D, Q = self.P, self.D, self.Q
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if D <= 0 or isqrt(D) ** 2 == D:
            raise ValueError("D must be positive and not a perfect square")
        if (D - P * P) % Q != 0:
            s = abs(Q)
            P, D, Q = P * s, D * s * s, Q * s
        P, D, Q = _reduce_triple(P, D, Q)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Q", Q)

    @classmethod
    def from_quadext(cls, x: QuadExt) -> "QuadIrrational":
        if x.b == 0:
            raise ValueError("value is rational")
        L = x.a.denominator * x.b.denominator // gcd(
            x.a.denominator, x.b.denominator
        )
        A = x.a.numerator * (L // x.a.denominator)
        C = x.b.numerator * (L // x.b.denominator)
        D = C * C * x.d
        if C > 0:
            return cls(A, D, L)
        return cls(-A, D, -L)

    def to_quadext(self) -> QuadExt:
        return QuadExt(Fraction(self.P, self.Q), Fraction(1, self.Q), self.D)

    def __float__(self) -> float:
        return self.to_quadext().to_float()[0]

    def floor(self) -> int:
        return _floor_surd(self.P, isqrt(self.D), self.Q)


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic expansion [a0; preperiod, (period repeating)]."""

    a0: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(a < 1 for a in self.preperiod + self.period):
            raise ValueError("partial quotients after a0 must be >= 1")

    def terms(self) -> Iterator[int]:
        yield self.a0
        yield from self.preperiod
        while True:
            yield from self.period


def cf_expand(x: QuadIrrational, max_terms: int = 1000) -> ContinuedFraction:
    """Expand by the (P, Q) recurrence until the state repeats."""
    P, D, Q = x.P, x.D, x.Q
    s = isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    for i in range(max_terms):
        state = (P, Q)
        if state in seen:
            first = seen[state]
            a0 = quotients[0]
            if first == 0:
                # purely periodic from the start; rotate so the cycle
                # begins after a0
                return ContinuedFraction(a0, (), tuple(quotients[1:i] + [a0]))
            return ContinuedFraction(
                a0, tuple(quotients[1:first]), tuple(quotients[first:i])
            )
        seen[state] = i
        a = _floor_surd(P, s, Q)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    raise IncompleteExpansionError(
        f"no period within {max_terms} partial quotients"
    )


def convergents(cf: ContinuedFraction) -> Iterator[tuple[int, int]]:
    """Convergents (p_i, q_i) by the three-term recurrence, without end."""
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for a in cf.terms():
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        yield p, q
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q


def _round_half_up(x: QuadExt) -> int:
    return (x + Fraction(1, 2)).floor()


def inhom_approx(
    lam: QuadIrrational,
    c: Union[RationalLike, QuadExt],
    eps,
    max_terms: int = 1000,
) -> tuple[int, int]:
    """Integers (m, mp) with |c + m - mp*lambda| < eps, verified exactly.

    The search walks convergents p/q of lambda until q >= 2/eps, then
    takes the greedy multiple of the residue q*lambda - p nearest to c.
    A bounded brute-force scan over |mp| <= 2q backs the greedy step up.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lam_q = lam.to_quadext()
    c_q = as_quad(c)
    if c_q.b != 0 and c_q.d != lam_q.d:
        raise FieldMismatchError(
            "offset must be rational or lie in the field of lambda"
        )
    if not c_q:
        return 0, 0
    eps_sq = eps * eps
    cf = cf_expand(lam, max_terms)
    target = ceil(2 / eps)
    p = q = None
    for p, q in convergents(cf):
        if q >= target:
            break
    delta = lam_q * q - p
    j = _round_half_up(c_q / delta)
    m, mp = j * p, j * q
    res = c_q + m - lam_q * mp
    if (res * res).compare(eps_sq) < 0:
        return m, mp
    for mp in range(-2 * q, 2 * q + 1):
        m = _round_half_up(lam_q * mp - c_q)
        res = c_q + m - lam_q * mp
        if (res * res).compare(eps_sq) < 0:
            return m, mp
    raise ApproximationSearchError(
        "approximation search failed; eps too small for budget"
    )


Vec = tuple[QuadExt, QuadExt]


def _lift_vec(v) -> Vec:
    x, y = v
    return as_quad(x), as_quad(y)


@dataclass(frozen=True)
class Cylinder:
    """Flat cylinder data: circumference vector, one crossing saddle
    connection's holonomy, and the width it spans."""

    circumference: Vec
    crossing: Vec
    width: Fraction

    def __post_init__(self):
        l = _lift_vec(self.circumference)
        h = _lift_vec(self.crossing)
        w = as_fraction(self.width)
        object.__setattr__(self, "circumference", l)
        object.__setattr__(self, "crossing", h)
        object.__setattr__(self, "width", w)
        if w <= 0:
            raise ValueError("width must be positive")
        if not l[0] and not l[1]:
            raise ValueError("circumference must be nonzero")
        area = cross(l, h)
        lsq = dot(l, l)
        if not (area * area - lsq * (w * w)).is_zero:
            raise ValueError(
                "crossing holonomy must span the width exactly once"
            )


@dataclass(frozen=True)
class ClosePairResult:
    """Twist counts and the resulting verified-close holonomy vectors."""

    n0: int
    n0p: int
    v1: Vec
    v2: Vec
    dist: float
    dist_err: float


def close_pair(ci: Cylinder, cj: Cylinder, r) -> ClosePairResult:
    """Two saddle-connection holonomies on the twist orbits of ci and cj
    at distance < r.

    Requires the circumferences parallel with irrational length ratio.
    The perpendicular gap must already satisfy 2*|h2 - h2'| < r; it is
    re-verified exactly rather than inferred from the stored widths, so
    cylinders wider than r/4 are accepted whenever their crossings agree
    perpendicular to the shared direction.
    """
    r = as_fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    l, lp = ci.circumference, cj.circumference
    h, hp = ci.crossing, cj.crossing
    if not cross(l, lp).is_zero:
        raise ValueError("cylinders must share the circumference direction")
    mu = lp[0] / l[0] if l[0] else lp[1] / l[1]
    lam_q = mu if mu.sign() > 0 else -mu
    if lam_q.is_rational:
        raise RatioRationalError("circumference ratio is rational")
    lsq = dot(l, l).to_quadext()
    a = dot(h, l).to_quadext() / lsq
    b = dot(hp, l).to_quadext() / lsq
    c = a - b
    perp = (h[0] - hp[0] - c * l[0], h[1] - hp[1] - c * l[1])
    perp_sq = dot(perp, perp)
    if (perp_sq * 4 - r * r).sign() >= 0:
        raise WidthPreconditionError(
            "perpendicular components differ by at least r/2"
        )
    mid, err = lsq.approx(64)
    ell_hi = sqrt_bounds_frac(mid + err)[1]
    eps = r / (2 * ell_hi)
    m, mp = inhom_approx(QuadIrrational.from_quadext(lam_q), c, eps)
    n0 = m
    n0p = mp if mu.sign() > 0 else -mp
    v1 = (h[0] + n0 * l[0], h[1] + n0 * l[1])
    v2 = (hp[0] + n0p * lp[0], hp[1] + n0p * lp[1])
    diff = (v1[0] - v2[0], v1[1] - v2[1])
    dist_sq = dot(diff, diff)
    if (dist_sq - r * r).sign() >= 0:
        raise VerificationError("verification failed: pair not within r")
    dist, dist_err = sqrt_with_error(dist_sq)
    return ClosePairResult(n0, n0p, v1, v2, dist, dist_err)


def _parse_vec(obj, key: str) -> Vec:
    try:
        sx, sy = obj[key]
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"missing or malformed vector {key!r}") from None
    return parse_quadext(str(sx)), parse_quadext(str(sy))


def _parse_width(obj, key: str) -> Fraction:
    try:
        return Fraction(str(obj[key]))
    except (KeyError, ValueError, ZeroDivisionError):
        raise ConfigError(f"missing or malformed width {key!r}") from None


def load_cylinder_pair(source) -> tuple[Cylinder, Cylinder]:
    """Read a cylinder pair from a JSON file path or a parsed dict.

    Coordinates are exact-number strings (rational or a+b*sqrt(d) form);
    widths are decimal or rational strings.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                source = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(source, dict):
        raise ConfigError("configuration must be a JSON object")
    try:
        ci = Cylinder(
            _parse_vec(source, "l"),
            _parse_vec(source, "h"),
            _parse_width(source, "w"),
        )
        cj = Cylinder(
            _parse_vec(source, "l_prime"),
            _parse_vec(source, "h_prime"),
            _parse_width(source, "w_prime"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None
    return ci, cj
