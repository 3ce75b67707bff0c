"""Holonomy set of a torus double cover branched over two shifted points.

The cover is branched over the origin and over an irrationally shifted
point t = (tx, ty).  When 1, tx and ty are linearly independent over Q,
that is when tx and ty lie in distinct quadratic fields, developing
saddle connections into the plane yields three families of holonomy
vectors: primitive integer vectors (UU), integer translates of +t (UV)
and of -t (VU).  ``closed_form`` emits that description directly and
refuses other shifts; ``geometric_oracle`` re-derives the set for any
shift from visibility alone: from each source it sorts the singularities
within the radius by angle and keeps the nearest of each direction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from .exact import (
    Immutable,
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    as_positive,
    cross,
    norm_sq_bracket,
)
from .coprime import coprime_points

TAG_UU = "UU"
TAG_UV = "UV"
TAG_VU = "VU"


class ShiftVector(Immutable):
    """Branch shift t = (tx, ty); both components must be irrational and
    lie strictly between 0 and 1 so t is not a lattice point of either
    family.  :func:`closed_form` also needs tx and ty in distinct fields,
    so that 1, tx and ty are linearly independent over Q."""

    __slots__ = ("tx", "ty")

    tx: QuadExt
    ty: QuadExt

    def __init__(
        self, tx: QuadExt = QuadExt(-1, 1, 2), ty: QuadExt = QuadExt(-1, 1, 3)
    ):
        for name, c in (("tx", tx), ("ty", ty)):
            if c.is_rational:
                raise ValueError(f"{name} must be irrational")
            if not (QuadExt(0) < c < QuadExt(1)):
                raise ValueError(f"{name} must lie in (0, 1)")
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "ty", ty)


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
    ``shift=None`` takes the default (sqrt(2)-1, sqrt(3)-1) shift.  It
    holds only when 1, tx and ty are linearly independent over Q, so tx
    and ty in one field raise ValueError (t = (sqrt(2)-1, sqrt(2)-1)
    blocks the segment from 0 to (1, 1))."""
    shift = shift or ShiftVector()
    if shift.tx.d == shift.ty.d:  # one field Q(sqrt(d)) holds 1, tx and ty
        raise ValueError("1, tx and ty must be linearly independent over Q")
    R = as_positive(radius, "radius")
    R2 = R * R
    tx, ty = shift.tx, shift.ty
    uu = coprime_points(R)
    pts = [PlanarPoint(x, y, TAG_UU) for x, y in zip(uu.xs, uu.ys)]
    for sx, sy, tag in ((tx, ty, TAG_UV), (-tx, -ty, TAG_VU)):
        # each b + sy once per family, shared by the points of its rows
        ys = {b: b + sy for b in _int_range(-R - sy - 1, R - sy + 1)}
        for a in _int_range(-R - sx - 1, R - sx + 1):
            x = a + sx
            pts.extend(PlanarPoint(x, ys[b], tag) for b in _ball_row(x, sy, R2))
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


def _angle_cmp(u, v) -> int:
    """Counter-clockwise order of two vectors in one half-plane, by the
    exact cross sign; along one direction the nearer first (|x| decides
    unless x = 0)."""
    return (
        -cross(u, v).sign()
        or (u[0] * u[0]).compare(v[0] * v[0])
        or (u[1] * u[1]).compare(v[1] * v[1])
    )


def _float_angle(c) -> tuple[float, float]:
    """Angle in [0, 2pi) and squared norm, in floats: the order that
    :func:`_angle_cmp` gives, up to rounding."""
    x, y = float(c[0]), float(c[1])
    return math.atan2(y, x) % math.tau, x * x + y * y


def geometric_oracle(shift: Optional[ShiftVector], radius) -> PointSet:
    """Re-derive the holonomy set by visibility, for any shift.

    By translation invariance the sources are the origin (U) and t (V).
    From a source o, a singularity w with |w - o| <= R is reached exactly
    when no other singularity lies on the open segment (o, w).  Such a
    blocker is nearer in the same direction, so it is a candidate too:
    sorting the candidates of both families by angle and keeping the
    nearest of each direction finds the visible ones, with neither the
    gcd nor the lattice structure that :func:`closed_form` uses.
    ``shift=None`` takes the default shift, as in :func:`closed_form`.
    """
    shift = shift or ShiftVector()
    R = as_positive(radius, "radius")
    R2 = R * R
    families = {"U": (QuadExt(0), QuadExt(0)), "V": (shift.tx, shift.ty)}
    pts: list[PlanarPoint] = []
    for src_name, (ox, oy) in families.items():
        # y > 0 or y = 0 < x, and the rest: each half-plane spans less
        # than pi, so inside one the cross sign orders directions
        halves: tuple[list, list] = ([], [])
        for dst_name, (fx, fy) in families.items():
            sx, sy = fx - ox, fy - oy
            for a in _int_range(-R - sx - 1, R - sx + 1):
                hx = a + sx
                for b in _int_range(-R - sy - 1, R - sy + 1):
                    hy = b + sy
                    if (hx or hy) and _norm_le(hx, hy, R2):
                        lower = (hy.sign() or hx.sign()) < 0
                        halves[lower].append((hx, hy, src_name + dst_name))
        for half in halves:
            # the exact sort alone decides the order; the float presort
            # leaves it about one comparison per candidate
            half.sort(key=_float_angle)
            half.sort(key=cmp_to_key(_angle_cmp))
            head = None  # the nearest of the current direction
            for c in half:
                if head is None or cross(head, c).sign():
                    pts.append(PlanarPoint(*c))
                    head = c
    return PointSet(pts)
