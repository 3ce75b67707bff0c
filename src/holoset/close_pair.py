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

from fractions import Fraction
from math import ceil, isqrt
from typing import Iterator, NamedTuple, Union

from .exact import (
    FieldMismatchError,
    Immutable,
    QuadExt,
    RationalLike,
    as_positive,
    as_quad,
    cross,
    dot,
    floor_surd,
    parse_quadext,
    sqrt_bounds_frac,
    sqrt_with_error,
)

class RatioRationalError(ValueError):
    """The circumference ratio is rational; no close pair is forced."""
    exit_code = 4


class WidthPreconditionError(ValueError):
    """The perpendicular components differ by r/2 or more."""
    exit_code = 5


class IncompleteExpansionError(RuntimeError):
    """Continued fraction period not found within the term budget."""
    exit_code = 2


class ApproximationSearchError(RuntimeError):
    """inhom_approx's exact check of its greedy solution failed."""
    exit_code = 2


class VerificationError(RuntimeError):
    """The candidate pair failed the exact distance check against r."""
    exit_code = 2


class ConfigError(ValueError):
    """Malformed cylinder-pair configuration."""


class ContinuedFraction(Immutable):
    """Eventually periodic expansion [a0; preperiod, (period repeating)]."""

    __slots__ = ("a0", "preperiod", "period")

    a0: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(
        self, a0: int, preperiod: tuple[int, ...], period: tuple[int, ...]
    ):
        if not period:
            raise ValueError("period must be nonempty")
        if any(a < 1 for a in preperiod + period):
            raise ValueError("partial quotients after a0 must be >= 1")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    def terms(self) -> Iterator[int]:
        yield self.a0
        yield from self.preperiod
        while True:
            yield from self.period


def cf_expand(x: QuadExt, max_terms: int = 1000) -> ContinuedFraction:
    """Expand x = (A + B*sqrt(d))/q = (P + sqrt(D))/Q by the (P, Q)
    recurrence until the state repeats: (P, D, Q) = (A, B*B*d, q), negated
    P and Q when B < 0, all scaled by |Q| (D by Q*Q) unless Q | D - P*P.
    Nothing is reduced or factored: scaling (P, D, Q) by e scales every
    later state by e and leaves the quotients and the repeat as they are.
    """
    if x.is_rational:
        raise ValueError("value is rational")
    P, D, Q = x.A, x.B * x.B * x.d, x.q
    if x.B < 0:
        P, Q = -P, -Q
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
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
        a = floor_surd(P, s, Q)
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
    lam: QuadExt, c: Union[RationalLike, QuadExt], eps
) -> tuple[int, int]:
    """Integers (m, mp) with |c + m - mp*lambda| < eps, verified exactly.

    Takes the first convergent p/q of lambda with q >= 2/eps and the
    multiple j of delta = q*lambda - p nearest to c: |delta| < 1/q <= eps/2,
    so the residual c + j*p - j*q*lambda = c - j*delta is at most
    |delta|/2 < eps/4.  An exact check confirms it (else
    ApproximationSearchError).
    """
    eps = as_positive(eps, "eps")
    c_q = as_quad(c)
    if c_q.B and c_q.d != lam.d:
        raise FieldMismatchError(
            "offset must be rational or lie in the field of lambda"
        )
    if not c_q:
        return 0, 0
    cf = cf_expand(lam)
    target = ceil(2 / eps)
    for p, q in convergents(cf):
        if q >= target:
            break
    delta = lam * q - p
    j = _round_half_up(c_q / delta)
    m, mp = j * p, j * q
    res = c_q + m - lam * mp
    if (res * res).compare(eps * eps) >= 0:
        raise ApproximationSearchError(
            "approximation check failed: |c + m - mp*lambda| >= eps"
        )
    return m, mp


Vec = tuple[QuadExt, QuadExt]


def _lift_vec(v) -> Vec:
    x, y = v
    return as_quad(x), as_quad(y)


class Cylinder(Immutable):
    """Flat cylinder data: circumference vector, one crossing saddle
    connection's holonomy, and the width it spans."""

    __slots__ = ("circumference", "crossing", "width")

    circumference: Vec
    crossing: Vec
    width: Fraction

    def __init__(self, circumference, crossing, width):
        l = _lift_vec(circumference)
        h = _lift_vec(crossing)
        w = as_positive(width, "width")
        object.__setattr__(self, "circumference", l)
        object.__setattr__(self, "crossing", h)
        object.__setattr__(self, "width", w)
        if not l[0] and not l[1]:
            raise ValueError("circumference must be nonzero")
        area = cross(l, h)
        lsq = dot(l, l)
        if not (area * area - lsq * (w * w)).is_zero:
            raise ValueError(
                "crossing holonomy must span the width exactly once"
            )


class ClosePairResult(NamedTuple):
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
    r = as_positive(r, "r")
    l, lp = ci.circumference, cj.circumference
    h, hp = ci.crossing, cj.crossing
    if not cross(l, lp).is_zero:
        raise ValueError("cylinders must share the circumference direction")
    mu = lp[0] / l[0] if l[0] else lp[1] / l[1]
    lam_q = mu if mu.sign() > 0 else -mu
    if lam_q.is_rational:
        raise RatioRationalError("circumference ratio is rational")
    ll = dot(l, l)
    lsq = ll.to_quadext()
    a = dot(h, l).to_quadext() / lsq
    b = dot(hp, l).to_quadext() / lsq
    c = a - b
    perp = (h[0] - hp[0] - c * l[0], h[1] - hp[1] - c * l[1])
    perp_sq = dot(perp, perp)
    if (perp_sq * 4 - r * r).sign() >= 0:
        raise WidthPreconditionError(
            "perpendicular components differ by at least r/2"
        )
    mid, err = ll.approx(64)
    ell_hi = sqrt_bounds_frac(mid + err)[1]
    eps = r / (2 * ell_hi)
    m, mp = inhom_approx(lam_q, c, eps)
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


def _parse_vec(obj: dict, key: str) -> Vec:
    v = obj.get(key)
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"missing or malformed vector {key!r}")
    return parse_quadext(str(v[0])), parse_quadext(str(v[1]))


def _parse_width(obj, key: str) -> Fraction:
    try:
        return Fraction(str(obj[key]))
    except (KeyError, ValueError, ZeroDivisionError):
        raise ConfigError(f"missing or malformed width {key!r}") from None


def load_cylinder_pair(path) -> tuple[Cylinder, Cylinder]:
    """Read a cylinder pair from the JSON object in the file at path.

    Coordinates are exact-number strings (rational or a+b*sqrt(d) form);
    widths are decimal or rational strings.
    """
    import json

    with open(path, "r", encoding="utf-8-sig") as fh:
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
