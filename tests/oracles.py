"""Independent oracles that the tests check the library against.

None of these is on a library path: each re-derives by a second method
what the library computes (a square-by-square ray trace and a
letter-by-letter crossing-word walk for the composed monodromy, a
per-segment blocker scan and an exact slope test for the double cover,
a windowed gcd filter for the hole inspection), or exposes internal
state to test.
"""

from __future__ import annotations

from math import ceil, floor, gcd
from typing import Optional

from holoset.double_cover import ShiftVector, _int_range
from holoset.exact import (
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    as_fraction,
    as_positive,
    cross,
    dot,
)
from holoset.origami import Direction, Origami, VertexClass, _singular_flags


def vertex_classes(o: Origami) -> list[VertexClass]:
    """Branch-point classes, ordered by their smallest sheet index."""
    return list(o._classes)


def ray_trace_oracle(
    o: Origami,
    start_sheet: int,
    direction: Direction,
    s_max: int,
    marked: bool = False,
) -> Optional[int]:
    """Trace the (p, q) ray from the lower-left corner of a sheet,
    square by square, and return the period count at the first singular
    corner (None if none is reached within s_max periods).

    Independent of the crossing-word/monodromy path: edge crossings are
    ordered by exact rational comparison as the walk proceeds.
    """
    if not 0 <= start_sheet < o.n:
        raise ValueError("start sheet out of range")
    p, q = direction.p, direction.q
    if not direction.is_primitive:
        raise ValueError(f"direction ({p}, {q}) is not primitive")
    sing = _singular_flags(o, marked)
    cur = start_sheet
    if q == 0:
        for k in range(1, s_max + 1):
            cur = o.h[cur]
            if sing[cur]:
                return k
        return None
    if p == 0:
        for k in range(1, s_max + 1):
            cur = o.v[cur]
            if sing[cur]:
                return k
        return None
    a, b = 1, 1
    while True:
        ta, tb = a * q, b * p
        if ta < tb:
            cur = o.h[cur]
            a += 1
        elif tb < ta:
            cur = o.v[cur]
            b += 1
        else:
            # both edges cross at once: the ray passes a lattice corner,
            # displaced infinitesimally below the diagonal (H before V).
            cur = o.v[o.h[cur]]
            k = a // p
            a += 1
            b += 1
            if sing[cur]:
                return k
            if k >= s_max:
                return None


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


def word_monodromy(o: Origami, direction: Direction) -> tuple[int, ...]:
    """Sheet permutation after one period, letter by letter: the crossing
    word applied leftmost first (an H applies h, a V applies v)."""
    word = crossing_word(direction)
    out = []
    for i in range(o.n):
        j = i
        for ch in word:
            j = o.h[j] if ch == "H" else o.v[j]
        out.append(j)
    return tuple(out)


def _integer_lift(ks: range) -> dict[int, QuadExt]:
    """Each integer in ks lifted to QuadExt once: the points of a set
    share their coordinates."""
    return {k: QuadExt(k) for k in ks}


def gcd_filtered_window(max_gcd: int, window) -> PointSet:
    """Integer points with gcd <= max_gcd inside a rectangle.

    The rectangle is (x0, y0, x1, y1) with exact bounds; coordinates may
    be arbitrarily large, which is what the hole inspection needs.
    """
    if max_gcd < 1:
        raise ValueError("max_gcd must be >= 1")
    x0, y0, x1, y1 = (as_fraction(v) for v in window)
    if x1 < x0 or y1 < y0:
        raise ValueError("window is empty")
    xs = range(ceil(x0), floor(x1) + 1)
    ys = range(ceil(y0), floor(y1) + 1)
    lift_x = _integer_lift(xs)
    lift_y = _integer_lift(ys)
    pts = []
    for a in xs:
        x = lift_x[a]
        for b in ys:
            if (a or b) and gcd(abs(a), abs(b)) <= max_gcd:
                pts.append(PlanarPoint(x, lift_y[b]))
    return PointSet(pts)


def slope_class(p1: PlanarPoint, p2: PlanarPoint) -> str:
    """Classify the slope of the segment p1 -> p2 exactly.

    Returns "rational", "infinite" (vertical), or "irrational".
    """
    dx = p2.x - p1.x
    dy = p2.y - p1.y
    if not dx and not dy:
        raise ValueError("points coincide; slope undefined")
    if not dx:
        return "infinite"
    if not dy:
        return "rational"
    if dx.is_rational and dy.is_rational:
        return "rational"
    if dx.is_rational or dy.is_rational:
        return "irrational"
    if dx.d != dy.d:
        return "irrational"
    # same field: dy = r*dx with rational r iff the components are
    # proportional as rational vectors
    return "rational" if dy.a * dx.b == dy.b * dx.a else "irrational"


def _strictly_between(w, src, dst) -> bool:
    """Exact test: w lies on the open segment (src, dst), that is w - src
    and w - dst are parallel and point opposite ways.  Coordinates must
    share a field per axis."""
    (wx, wy), (sx, sy), (dx, dy) = w, src, dst
    u, v = (wx - sx, wy - sy), (wx - dx, wy - dy)
    return cross(u, v).is_zero and dot(u, v).sign() < 0


def _segment_interior_empty(src, dst, shifts) -> bool:
    """No singularity of any family lies strictly inside the segment."""
    sx, sy = src
    dx, dy = dst
    xlo, xhi = (sx, dx) if sx <= dx else (dx, sx)
    ylo, yhi = (sy, dy) if sy <= dy else (dy, sy)
    for ftx, fty in shifts:
        for m in _int_range(xlo - ftx - 1, xhi - ftx + 1):
            wx = m + ftx
            if wx < xlo or wx > xhi:
                continue
            for k in _int_range(ylo - fty - 1, yhi - fty + 1):
                wy = k + fty
                if wy < ylo or wy > yhi:
                    continue
                if _strictly_between((wx, wy), src, dst):
                    return False
    return True


def segment_oracle(shift: Optional[ShiftVector], radius) -> PointSet:
    """The double-cover holonomy set from first principles: every
    candidate segment from a source (the origin, or t) to a singularity of
    either family within the radius is kept when its open interior misses
    every singularity of both families.  Exact throughout and cubic in
    the radius; the reference for
    :func:`holoset.double_cover.geometric_oracle`."""
    shift = shift or ShiftVector()
    R = as_positive(radius, "radius")
    R2 = R * R
    zero = QuadExt(0)
    families = {"U": (zero, zero), "V": (shift.tx, shift.ty)}
    shifts = list(families.values())
    pts: list[PlanarPoint] = []
    for src_name, (ox, oy) in families.items():
        for dst_name, (ftx, fty) in families.items():
            tag = src_name + dst_name
            for a in _int_range(ox - R - ftx - 1, ox + R - ftx + 1):
                wx = a + ftx
                hx = wx - ox
                for b in _int_range(oy - R - fty - 1, oy + R - fty + 1):
                    wy = b + fty
                    hy = wy - oy
                    if (src_name == dst_name) and a == 0 and b == 0:
                        continue
                    if RadicalSum.of(hx * hx, hy * hy, -R2).sign() > 0:
                        continue
                    if _segment_interior_empty((ox, oy), (wx, wy), shifts):
                        pts.append(PlanarPoint(hx, hy, tag))
    return PointSet(pts)
