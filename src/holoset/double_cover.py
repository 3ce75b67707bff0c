"""Holonomy set of a torus double cover branched over two shifted points.

The cover is branched over the origin and over an irrationally shifted
point t = (tx, ty); developing saddle connections into the plane yields
three families of holonomy vectors: primitive integer vectors (UU),
integer translates of +t (UV) and of -t (VU).  ``closed_form`` emits that
description directly; ``geometric_oracle`` re-derives the same set from
first principles by enumerating candidate segments between developed
singularities and keeping exactly those whose open interior misses every
other singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import (
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    as_fraction,
    cross,
    dot,
    norm_sq_bracket,
    point,
)
from .coprime import coprime_points

TAG_UU = "UU"
TAG_UV = "UV"
TAG_VU = "VU"


@dataclass(frozen=True)
class ShiftVector:
    """Branch shift t = (tx, ty); both components must be irrational and
    lie strictly between 0 and 1 so t is not a lattice point of either
    family."""

    tx: QuadExt = field(default_factory=lambda: QuadExt(-1, 1, 2))
    ty: QuadExt = field(default_factory=lambda: QuadExt(-1, 1, 3))

    def __post_init__(self):
        for name, c in (("tx", self.tx), ("ty", self.ty)):
            if c.is_rational:
                raise ValueError(f"{name} must be irrational")
            if not (QuadExt(0) < c < QuadExt(1)):
                raise ValueError(f"{name} must lie in (0, 1)")


def _norm_le(x: QuadExt, y: QuadExt, R2: Fraction) -> bool:
    """x^2 + y^2 <= R2, decided by the float bracket n +/- w of the norm
    unless float(R2) lies near it; then by an exact sign.

    t = float(R2) is within t*2**-53 + 2**-1075 of R2.  As evaluated,
    band still exceeds w*(1 + 2**-49) + t*2**-49 + 2**-1001, which covers
    that and the 2**-53 relative rounding of n +/- band; so n + band < t
    puts the whole bracket below R2 and n - band > t puts it above.  inf
    or nan anywhere decides nothing.
    """
    n, w = norm_sq_bracket(x, y)
    try:
        t = float(R2)
    except OverflowError:
        t = math.inf
    band = w * (1 + 2.0**-48) + t * 2.0**-48 + 2.0**-1000
    if n + band < t:
        return True
    if n - band > t:
        return False
    return RadicalSum.of(x * x, y * y, -R2).sign() <= 0


def _int_range(lo: QuadExt, hi: QuadExt) -> range:
    return range(lo.floor(), hi.floor() + 2)


def closed_form(shift: Optional[ShiftVector], radius) -> PointSet:
    """The holonomy set inside the closed radius ball, by its three-family
    description: coprime integer pairs, and the two shifted lattices.
    ``shift=None`` takes the default (sqrt(2)-1, sqrt(3)-1) shift."""
    shift = shift or ShiftVector()
    R = as_fraction(radius)
    if R <= 0:
        raise ValueError("radius must be positive")
    R2 = R * R
    tx, ty = shift.tx, shift.ty
    pts: list[PlanarPoint] = [
        PlanarPoint(p.x, p.y, TAG_UU) for p in coprime_points(R)
    ]
    for sx, sy, tag in ((tx, ty, TAG_UV), (-tx, -ty, TAG_VU)):
        for a in _int_range(-R - sx - 1, R - sx + 1):
            x = a + sx
            for b in _ball_row(x, sy, R2):
                pts.append(PlanarPoint(x, b + sy, tag))
    return PointSet(pts)


def _ball_row(x: QuadExt, sy: QuadExt, R2: Fraction) -> range:
    """The integers b with x^2 + (b + sy)^2 <= R2, an interval in b.

    Floats place its ends; exact tests walk each end until it flips, so
    only a few exact signs are taken per row.
    """

    def inside(b: int) -> bool:
        return _norm_le(x, b + sy, R2)

    def end(b: int, step: int) -> int:
        """The last member met walking from b by step, given that the
        walk back from b reaches a member."""
        if inside(b):
            while inside(b + step):
                b += step
            return b
        b -= step
        while not inside(b):
            b -= step
        return b

    # b_mid minimises |b + sy|, so the row is empty iff b_mid is outside
    b_mid = (Fraction(1, 2) - sy).floor()
    if not inside(b_mid):
        return range(0)
    half = math.sqrt(max(float(R2) - float(x) ** 2, 0.0))
    syf = float(sy)
    lo = min(math.ceil(-half - syf), b_mid)
    hi = max(math.floor(half - syf), b_mid)
    return range(end(lo, -1), end(hi, 1) + 1)


def _off_line(w, src, dst) -> bool:
    """True when w is certainly not on the line through src and dst: the
    float cross product c of (w - src) and (dst - src), from the six
    to_float brackets, exceeds its error bound.

    With u = w - src and v = dst - src in floats, each component is off by
    its two brackets' bounds plus 2**-52 of itself for the subtraction;
    then |Ux*Vy - ux*vy| <= |ux|*e(vy) + |vy|*e(ux) + e(ux)*e(vy), and
    likewise for uy*vx.  The two products and their difference round by
    at most 2**-51 of |ux*vy| + |uy*vx| in all, covered by 2**-50 of it,
    plus 2**-1074 per operation below the normal range, covered by
    2**-1000; the factor 1 + 2**-48 covers the rounding of the bound's
    own evaluation.  Overflow, inf or nan decide nothing.
    """
    try:
        (wx, ewx), (wy, ewy) = w[0].to_float(), w[1].to_float()
        (sx, esx), (sy, esy) = src[0].to_float(), src[1].to_float()
        (dx, edx), (dy, edy) = dst[0].to_float(), dst[1].to_float()
    except OverflowError:
        return False
    ux, uy, vx, vy = wx - sx, wy - sy, dx - sx, dy - sy
    eux = ewx + esx + abs(ux) * 2.0**-52
    euy = ewy + esy + abs(uy) * 2.0**-52
    evx = edx + esx + abs(vx) * 2.0**-52
    evy = edy + esy + abs(vy) * 2.0**-52
    p, q = ux * vy, uy * vx
    bound = (
        abs(ux) * evy + abs(vy) * eux + eux * evy
        + abs(uy) * evx + abs(vx) * euy + euy * evx
        + (abs(p) + abs(q)) * 2.0**-50
    ) * (1 + 2.0**-48) + 2.0**-1000
    return abs(p - q) > bound


def _strictly_between(w, src, dst) -> bool:
    """Exact test: w lies on the open segment (src, dst).

    Triples that :func:`_off_line` rejects are not collinear; the rest are
    decided exactly.  Assumes nothing about fields; all arithmetic goes
    through RadicalSum.
    """
    if _off_line(w, src, dst):
        return False
    wx, wy = w
    sx, sy = src
    dx, dy = dst
    if not cross((wx - sx, wy - sy), (dx - sx, dy - sy)).is_zero:
        return False
    if dot((wx - sx, wy - sy), (dx - sx, dy - sy)).sign() <= 0:
        return False
    if dot((wx - dx, wy - dy), (sx - dx, sy - dy)).sign() <= 0:
        return False
    return True


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


def geometric_oracle(shift: Optional[ShiftVector], radius) -> PointSet:
    """Re-derive the holonomy set from segment geometry.

    Sources reduce, by translation invariance of the two singularity
    families, to one representative per family: the origin (U) and the
    shift t (V).  Every candidate target within the radius ball is tested
    for an empty open interior against both full families.  ``shift=None``
    takes the default shift, as in :func:`closed_form`.
    """
    shift = shift or ShiftVector()
    R = as_fraction(radius)
    if R <= 0:
        raise ValueError("radius must be positive")
    R2 = R * R
    tx, ty = shift.tx, shift.ty
    zero = QuadExt(0)
    families = {
        "U": (zero, zero),
        "V": (tx, ty),
    }
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
                    if not _norm_le(hx, hy, R2):
                        continue
                    if _segment_interior_empty((ox, oy), (wx, wy), shifts):
                        pts.append(PlanarPoint(hx, hy, tag))
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
