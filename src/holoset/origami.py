"""Square-tiled surfaces given by permutation pairs, and their holonomy sets.

A surface is n unit squares (sheets 0..n-1); crossing the right edge of
sheet i continues on sheet h[i], crossing the top edge continues on v[i].
A corner of cone angle 2*pi*k is a k-cycle of the commutator of h and v,
and saddle connections in a primitive direction (p, q) come from
iterating the per-period monodromy.
"""

from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import floor, gcd
from typing import Iterable, Iterator

from .exact import PointSet, QuadExt, as_positive, point

Perm = tuple[int, ...]

TORUS_NOTICE = "torus cover, no singularities"


class OrigamiFormatError(ValueError):
    """Input data is not a pair of permutations of 0..n-1."""


class DisconnectedSurfaceError(ValueError):
    """The permutation pair does not act transitively on the sheets."""
    exit_code = 3


def _is_int(x) -> bool:
    """True for an int and False for a bool, a float or anything else:
    JSON true and 1.9 are not sheet numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_perm(p: Perm, n: int, name: str) -> Perm:
    if not all(_is_int(x) for x in p):
        raise OrigamiFormatError(f"{name} is not an integer sequence")
    if len(p) != n or sorted(p) != list(range(n)):
        raise OrigamiFormatError(f"{name} is not a permutation of 0..{n - 1}")
    return p


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class Origami:
    """Transitive permutation pair (h, v) on n >= 1 sheets."""

    __slots__ = ("n", "h", "v")

    def __init__(self, h: Iterable[int], v: Iterable[int]):
        h = tuple(h)
        v = tuple(v)
        n = len(h)
        if n == 0:
            raise OrigamiFormatError("empty permutation data")
        self.n = n
        self.h = _as_perm(h, n, "h")
        self.v = _as_perm(v, n, "v")
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in (self.h[i], self.v[i]):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            raise DisconnectedSurfaceError(
                f"sheets {sorted(set(range(n)) - seen)} unreachable from sheet 0"
            )

    @classmethod
    def from_json_dict(cls, data) -> "Origami":
        if not isinstance(data, dict):
            raise OrigamiFormatError("origami JSON must be an object")
        try:
            n, h, v = data["n"], data["h"], data["v"]
        except KeyError as exc:
            raise OrigamiFormatError(f"missing field: {exc}") from exc
        if not _is_int(n):
            raise OrigamiFormatError("n must be an integer")
        if not isinstance(h, list) or not isinstance(v, list) or len(h) != n:
            raise OrigamiFormatError("h and v must be lists of length n")
        return cls(h, v)

    @classmethod
    def from_path(cls, path) -> "Origami":
        import json

        with open(path, "r", encoding="utf-8-sig") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise OrigamiFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def reflect_h(self) -> "Origami":
        """The surface mirrored left-right: right-edge gluing becomes h^-1."""
        return Origami(_inverse(self.h), self.v)


def _parents(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Stern-Brocot parents of a primitive (p, q), p, q > 0, in the
    order their periods make up its period: (a, b) with a*q - b*p = 1 and
    (c, d) = (p - a, q - b) span with (0, 0) and (p, q) no other lattice
    point, so it is (c, d)'s, then (a, b)'s; but for q = 1 it is H^p V,
    since (a, b) = (1, 0) runs above its corner."""
    a = pow(q, -1, p) if p > 1 else 1
    b = (a * q - 1) // p
    return ((1, 0), (p - 1, 1)) if b == 0 else ((p - a, q - b), (a, b))


def _compose(first: Perm, then: Perm) -> Perm:
    """The permutation that applies first, then then."""
    return tuple(map(then.__getitem__, first))


def monodromy(o: Origami, direction: tuple[int, int], memo: dict | None = None) -> Perm:
    """Sheet permutation after one period of the direction (p, q) from each
    lower-left corner: h per right-edge crossing, v per top-edge one, H first
    at a corner.  It composes its parents' (:func:`_parents`), kept in memo,
    a dict for this origami that callers may share, made from a stack."""
    p, q = direction
    # refused before _parents, whose descent from a negative pair never ends
    if p < 0 or q < 0 or (p, q) == (0, 0):
        raise ValueError("direction must be nonzero with p, q >= 0")
    if gcd(p, q) != 1:
        raise ValueError(f"direction ({p}, {q}) is not primitive")
    memo = {} if memo is None else memo
    if not memo:
        memo.update({(1, 0): o.h, (0, 1): o.v})
    todo = [(p, q)]
    while todo:
        d = todo.pop()
        if d not in memo:
            first, then = _parents(*d)
            if first in memo and then in memo:
                memo[d] = _compose(memo[first], memo[then])
            else:
                todo += (d, first, then)
    return memo[p, q]


def _singular_flags(o: Origami, marked: bool) -> list[bool]:
    """Whether each sheet's lower-left corner is singular: every corner of a
    marked surface is, else one that c = v h v^-1 h^-1 moves, since c turns
    once around a corner and a corner of angle 2*pi*k is a k-cycle of c."""
    h, v, hi, vi = o.h, o.v, _inverse(o.h), _inverse(o.v)
    return [marked or v[h[vi[hi[i]]]] != i for i in range(o.n)]


def saddle_connections_in_direction(
    o: Origami, direction: tuple[int, int], marked: bool = False
) -> Counter:
    """Multiset of step counts s: one entry per singular outgoing prong.

    The saddle connection from the lower-left corner of sheet i in a
    primitive direction (p, q) has holonomy (s*p, s*q) where s is the
    number of torus periods until the next singular corner.  Always
    1 <= s <= n.
    """
    sigma = monodromy(o, direction)  # refuses a bad direction first
    sing = _singular_flags(o, marked)
    if not any(sing):
        warnings.warn(TORUS_NOTICE, stacklevel=2)
        return Counter()
    return Counter(_periods_to_singular(sigma, sing))


def _periods_to_singular(sigma: Perm, sing: list[bool]) -> Iterator[int]:
    """For each singular sheet i, the least s >= 1 with sigma^s(i)
    singular: the step count of the saddle connection leaving i."""
    for i in compress(range(len(sing)), sing):
        j, s = sigma[i], 1
        while not sing[j]:
            j, s = sigma[j], s + 1
        yield s


def primitive_directions(radius_sq: int | Fraction) -> Iterator[tuple[int, int]]:
    """Primitive (p, q) with p, q >= 0 and p*p + q*q <= radius_sq, first
    quadrant including both axes, by Stern-Brocot mediant subdivision."""
    if radius_sq >= 1:
        yield (1, 0)
        yield (0, 1)
    stack = [((1, 0), (0, 1))]
    while stack:
        (a, b), (c, d) = stack.pop()
        p, q = a + c, b + d
        if p * p + q * q <= radius_sq:
            yield (p, q)
            stack.append(((a, b), (p, q)))
            stack.append(((p, q), (c, d)))


def enumerate_holonomies(o: Origami, radius, marked: bool = False) -> PointSet:
    """All saddle-connection holonomy vectors with norm <= radius.

    First-quadrant directions are traversed on the surface itself,
    second-quadrant ones on the left-right mirror; the result is closed
    under negation and canonically ordered.
    """
    R = as_positive(radius, "radius")
    mirror = o.reflect_h()
    flags = [_singular_flags(surf, marked) for surf in (o, mirror)]
    if not any(flags[0]):
        warnings.warn(TORUS_NOTICE, stacklevel=2)
        return PointSet([])
    # p*p + q*q is an integer, so comparing it with floor(R*R) is exact
    R2 = floor(R * R)
    pts: set[tuple[int, int]] = set()
    for surf, sx, sing in ((o, 1, flags[0]), (mirror, -1, flags[1])):
        memo: dict = {}  # this surface's monodromies, for this call only
        for p, q in primitive_directions(R2):
            if sx < 0 and (p == 0 or q == 0):
                continue  # axis directions already covered via negation
            sigma = monodromy(surf, (p, q), memo)
            norm2 = p * p + q * q
            for s in set(_periods_to_singular(sigma, sing)):
                if s * s * norm2 <= R2:
                    x, y = sx * s * p, s * q
                    pts.add((x, y))
                    pts.add((-x, -y))
    # sorted, so PointSet only checks the order; one QuadExt per integer
    lift = {k: QuadExt(k) for k in {c for xy in pts for c in xy}}
    return PointSet(point(lift[x], lift[y]) for x, y in sorted(pts))
