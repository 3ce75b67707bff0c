"""Square-tiled surfaces given by permutation pairs, and their holonomy sets.

A surface is n unit squares (sheets 0..n-1); crossing the right edge of
sheet i continues on sheet h[i], crossing the top edge continues on v[i].
Vertex classes are the cycles of the corner-rotation permutation, and
saddle connections in a primitive direction come from iterating the
per-period monodromy.
"""

from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .exact import Immutable, PointSet, QuadExt, as_positive, point

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


class VertexClass(NamedTuple):
    """One branch point of the torus cover: a cycle of identified corners.

    cone_order k means total angle 2*pi*k; the class is singular when
    k >= 2 (marked covers also count k = 1 classes, see call sites).
    """

    sheets: tuple[int, ...]
    cone_order: int
    singular: bool


class Direction(Immutable):
    """Primitive integer direction in the closed first quadrant."""

    __slots__ = ("p", "q")

    p: int
    q: int

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0 or (p, q) == (0, 0):
            raise ValueError("direction must be nonzero with p, q >= 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_primitive(self) -> bool:
        return gcd(self.p, self.q) == 1


class Origami:
    """Transitive permutation pair (h, v) on n >= 1 sheets."""

    __slots__ = ("n", "h", "v", "__dict__")

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
    def torus(cls) -> "Origami":
        return cls((0,), (0,))

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

    def to_json_dict(self) -> dict:
        return {"n": self.n, "h": list(self.h), "v": list(self.v)}

    def __repr__(self) -> str:
        return f"Origami(n={self.n}, h={self.h}, v={self.v})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Origami):
            return NotImplemented
        return self.h == other.h and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.h, self.v))

    @cached_property
    def corner_rotation(self) -> Perm:
        """Permutation sending sheet i to the next sheet counterclockwise
        around the vertex at i's lower-left corner (one full turn of 2*pi).
        """
        hi = _inverse(self.h)
        vi = _inverse(self.v)
        return tuple(self.v[self.h[vi[hi[i]]]] for i in range(self.n))

    def reflect_h(self) -> "Origami":
        """The surface mirrored left-right: right-edge gluing becomes h^-1."""
        return Origami(_inverse(self.h), self.v)

    @cached_property
    def _classes(self) -> tuple[VertexClass, ...]:
        c = self.corner_rotation
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = c[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = c[j]
            out.append(VertexClass(tuple(cyc), len(cyc), len(cyc) >= 2))
        return tuple(out)

    @cached_property
    def _class_order_of_sheet(self) -> tuple[int, ...]:
        orders = [0] * self.n
        for vc in self._classes:
            for i in vc.sheets:
                orders[i] = vc.cone_order
        return tuple(orders)

    def has_singularities(self, marked: bool = False) -> bool:
        return marked or any(vc.singular for vc in self._classes)


def crossing_word(direction: Direction) -> str:
    """Edge-crossing word of the (p, q) geodesic across one torus period.

    H marks a right-edge crossing, V a top-edge crossing; events at equal
    time (only the shared endpoint for a primitive direction) order H
    before V.  Exactly p H's and q V's.
    """
    p, q = direction.p, direction.q
    if not direction.is_primitive:
        raise ValueError(f"direction ({p}, {q}) is not primitive")
    if q == 0:
        return "H" * p
    if p == 0:
        return "V" * q
    word = []
    a, b = 1, 1
    while a <= p or b <= q:
        if b > q:
            word.append("H")
            a += 1
        elif a > p:
            word.append("V")
            b += 1
        elif a * q <= b * p:
            # ties (a*q == b*p) occur only at the endpoint: H first.
            word.append("H")
            a += 1
        else:
            word.append("V")
            b += 1
    return "".join(word)


def monodromy(o: Origami, direction: Direction) -> Perm:
    """Sheet permutation after one period: word letters applied leftmost
    first (an H applies h, a V applies v)."""
    word = crossing_word(direction)
    out = []
    for i in range(o.n):
        j = i
        for ch in word:
            j = o.h[j] if ch == "H" else o.v[j]
        out.append(j)
    return tuple(out)


def _singular_flags(o: Origami, marked: bool) -> list[bool]:
    return [
        marked or order >= 2 for order in o._class_order_of_sheet
    ]


def saddle_connections_in_direction(
    o: Origami, direction: Direction, marked: bool = False
) -> Counter:
    """Multiset of step counts s: one entry per singular outgoing prong.

    The saddle connection from the lower-left corner of sheet i in a
    primitive direction (p, q) has holonomy (s*p, s*q) where s is the
    number of torus periods until the next singular corner.  Always
    1 <= s <= n.
    """
    sing = _singular_flags(o, marked)
    if not any(sing):
        warnings.warn(TORUS_NOTICE, stacklevel=2)
        return Counter()
    sigma = monodromy(o, direction)
    counts: Counter = Counter()
    for i in range(o.n):
        if not sing[i]:
            continue
        j = sigma[i]
        s = 1
        while not sing[j]:
            j = sigma[j]
            s += 1
        counts[s] += 1
    return counts


def primitive_directions(radius_sq: Fraction) -> Iterator[tuple[int, int]]:
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
    if not o.has_singularities(marked):
        warnings.warn(TORUS_NOTICE, stacklevel=2)
        return PointSet([])
    R2 = R * R
    pts: set[tuple[int, int]] = set()
    for surf, sx in ((o, 1), (o.reflect_h(), -1)):
        for p, q in primitive_directions(R2):
            if sx < 0 and (p == 0 or q == 0):
                continue  # axis directions already covered via negation
            counts = saddle_connections_in_direction(surf, Direction(p, q), marked)
            norm2 = p * p + q * q
            for s in counts:
                if s * s * norm2 <= R2:
                    x, y = sx * s * p, s * q
                    pts.add((x, y))
                    pts.add((-x, -y))
    # sorted, so PointSet only checks the order; one QuadExt per integer
    lift = {k: QuadExt(k) for k in {c for xy in pts for c in xy}}
    return PointSet(point(lift[x], lift[y]) for x, y in sorted(pts))
