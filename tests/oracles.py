"""Independent oracles that the tests check the library against.

None of these is on a library path: each re-derives by a second method
what the library computes (a square-by-square turn around each corner for
the vertex classes that the commutator test flags, a square-by-square ray
trace and a letter-by-letter crossing-word walk for the composed
monodromy, a per-segment blocker scan and an exact slope test for the
double cover, a windowed gcd filter for the hole inspection, and a general
sum of radicals whose sign doubles a dyadic precision, for the integer
signs of ``exact.RadicalSum``).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import NamedTuple, Optional, Union

from holoset.double_cover import ShiftVector, _int_range
from holoset.exact import (
    _ZERO,
    Immutable,
    PlanarPoint,
    PointSet,
    QuadExt,
    _isqrt_shifted,
    _quad_sign,
    _radical_bits,
    _setattr,
    as_fraction,
    as_positive,
    squarefree_split,
)
from holoset.origami import Origami


class VertexClass(NamedTuple):
    """One corner of a square-tiled surface: the sheets whose lower-left
    corner it is, its cone order k (total angle 2*pi*k), and whether it is
    a singularity (k >= 2)."""

    sheets: tuple[int, ...]
    cone_order: int
    singular: bool


def _turn(o: Origami, i: int) -> int:
    """The sheet reached from sheet i by one counterclockwise turn around
    its lower-left corner: to the square on the left, the one below that,
    the one right of that, and the one above that."""
    left = o.h.index(i)
    below = o.v.index(left)
    return o.v[o.h[below]]


def vertex_classes(o: Origami) -> list[VertexClass]:
    """Branch-point classes, ordered by their smallest sheet index: the
    cycles of the full turn around a corner, walked square by square."""
    seen: set[int] = set()
    out = []
    for start in range(o.n):
        if start in seen:
            continue
        cyc = [start]
        j = _turn(o, start)
        while j != start:
            cyc.append(j)
            j = _turn(o, j)
        seen.update(cyc)
        out.append(VertexClass(tuple(cyc), len(cyc), len(cyc) >= 2))
    return out


def singular_sheets(o: Origami, marked: bool) -> list[bool]:
    """Whether each sheet's lower-left corner is singular: a corner of
    cone order >= 2, or any corner of a marked surface."""
    sing = [False] * o.n
    for vc in vertex_classes(o):
        for i in vc.sheets:
            sing[i] = marked or vc.cone_order >= 2
    return sing


def _primitive_pair(direction: tuple[int, int]) -> tuple[int, int]:
    p, q = direction
    if p < 0 or q < 0 or gcd(p, q) != 1:
        raise ValueError(f"direction ({p}, {q}) is not primitive")
    return p, q


def ray_trace_oracle(
    o: Origami,
    start_sheet: int,
    direction: tuple[int, int],
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
    p, q = _primitive_pair(direction)
    sing = singular_sheets(o, marked)
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


def crossing_word(direction: tuple[int, int]) -> str:
    """Edge-crossing word of the (p, q) geodesic across one torus period.

    H marks a right-edge crossing, V a top-edge crossing; events at equal
    time (only the shared endpoint for a primitive direction) order H
    before V.  Exactly p H's and q V's.
    """
    p, q = _primitive_pair(direction)
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


def word_monodromy(o: Origami, direction: tuple[int, int]) -> tuple[int, ...]:
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
    return general_cross(u, v).is_zero and general_dot(u, v).sign() < 0


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
                    if GeneralRadicalSum.of(hx * hx, hy * hy, -R2).sign() > 0:
                        continue
                    if _segment_interior_empty((ox, oy), (wx, wy), shifts):
                        pts.append(PlanarPoint(hx, hy, tag))
    return PointSet(pts)


# -- the general sum of radicals ---------------------------------------------


def _float_with_bound(mid: Fraction, err: Fraction) -> tuple[float, float]:
    """float(mid) with a conservative bound on its distance to a value
    known to lie within err of mid."""
    value = float(mid)
    if err == 0 and Fraction(value) == mid:
        return value, 0.0
    # float(mid) is correctly rounded: one half-ulp of conversion error.
    conv = abs(value) * 2.0 ** -52 + 5e-324
    return value, float(err) * (1 + 2.0 ** -50) + conv


class GeneralRadicalSum(Immutable):
    """Finite sum of c_k * sqrt(d_k) with distinct squarefree d_k >= 1:
    the reference for :class:`holoset.exact.RadicalSum`, which holds one
    biquadratic field's elements and takes their signs from integers.

    Closed under ring operations (products reduce sqrt(d1)*sqrt(d2) to a
    single squarefree radical), with an exact zero test by linear
    independence of distinct squarefree radicals over Q.  Signs of nonzero
    values are decided by escalating dyadic intervals.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[int, Fraction]] = None):
        clean: dict[int, Fraction] = {}
        for d, c in (terms or {}).items():
            if d != 1 and c:
                f, d = squarefree_split(d)
                c *= f
            clean[d] = clean.get(d, _ZERO) + c
        _setattr(self, "_terms", {d: c for d, c in clean.items() if c})

    @classmethod
    def _squarefree(cls, terms: dict[int, Fraction]) -> "GeneralRadicalSum":
        """The sum of terms whose radicands are squarefree already, as the
        ring operations make them: none is factored again."""
        rs = cls.__new__(cls)
        _setattr(rs, "_terms", {d: c for d, c in terms.items() if c})
        return rs

    @classmethod
    def of(cls, *values: Union[QuadExt, Fraction, int]) -> "GeneralRadicalSum":
        terms: dict[int, Fraction] = {}
        for v in values:
            if isinstance(v, QuadExt):
                terms[1] = terms.get(1, _ZERO) + v.a
                if v.B:
                    terms[v.d] = terms.get(v.d, _ZERO) + v.b
            else:
                terms[1] = terms.get(1, _ZERO) + Fraction(v)
        return cls._squarefree(terms)

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "GeneralRadicalSum(0)"
        bits = []
        for d in sorted(self._terms):
            c = self._terms[d]
            bits.append(str(c) if d == 1 else f"{c}*sqrt({d})")
        return f"GeneralRadicalSum({' + '.join(bits)})"

    def __eq__(self, other) -> bool:
        other = _lift_general(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> "GeneralRadicalSum":
        other = _lift_general(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for d, c in other._terms.items():
            terms[d] = terms.get(d, _ZERO) + c
        return GeneralRadicalSum._squarefree(terms)

    __radd__ = __add__

    def __neg__(self) -> "GeneralRadicalSum":
        return GeneralRadicalSum._squarefree({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "GeneralRadicalSum":
        other = _lift_general(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "GeneralRadicalSum":
        other = _lift_general(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GeneralRadicalSum":
        other = _lift_general(other)
        if other is NotImplemented:
            return NotImplemented
        # d1/g and d2/g are coprime and squarefree, so their product is too
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                g = gcd(d1, d2)
                m = (d1 // g) * (d2 // g)
                terms[m] = terms.get(m, _ZERO) + c1 * c2 * g
        return GeneralRadicalSum._squarefree(terms)

    __rmul__ = __mul__

    def approx(self, precision_bits: int = 53) -> tuple[Fraction, Fraction]:
        """Dyadic midpoint plus rigorous error bound for the sum: each
        sqrt(d) lies within 2**-k of (2s+1)/2**k, s = isqrt(d << 2*m) and
        k = m + 1, with m bits from :func:`_radical_bits`, so each term's
        error stays below 2**-(precision_bits+9)."""
        mid = err = _ZERO
        for d, c in self._terms.items():
            if d == 1:
                mid += c
                continue
            m = _radical_bits(c.numerator, c.denominator, precision_bits)
            scale = 1 << (m + 1)
            mid += c * Fraction(2 * _isqrt_shifted(d, m) + 1, scale)
            err += abs(c) / scale
        return mid, err

    def _split(self) -> tuple[Fraction, list[tuple[int, Fraction]]]:
        """The rational part and the (d, c) terms with d > 1."""
        irr = [(d, c) for d, c in self._terms.items() if d != 1]
        return self._terms.get(1, Fraction(0)), irr

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; 0 only for the zero sum.

        Square roots of distinct squarefree integers are linearly
        independent over Q (Besicovitch 1940), so a sum with nonempty
        terms is nonzero.  Its dyadic error bound shrinks to 0 as the
        precision doubles from 64 bits, so the loop below terminates.
        """
        rat, irr = self._split()
        if len(irr) <= 1:
            d, c = irr[0] if irr else (1, Fraction(0))
            return _quad_sign(rat, c, d)
        bits = 64
        while True:
            mid, err = self.approx(bits)
            if mid > err:
                return 1
            if mid < -err:
                return -1
            bits *= 2

    def to_float(self, precision_bits: int = 53) -> tuple[float, float]:
        return _float_with_bound(*self.approx(precision_bits))


def _lift_general(x) -> Union[GeneralRadicalSum, type(NotImplemented)]:
    if isinstance(x, GeneralRadicalSum):
        return x
    if isinstance(x, (QuadExt, int, Fraction)):
        return GeneralRadicalSum.of(x)
    return NotImplemented


def general_dot(u, v) -> GeneralRadicalSum:
    """Exact dot product of two planar vectors whose coordinates may lie
    in different quadratic fields."""
    of = GeneralRadicalSum.of
    return of(u[0]) * of(v[0]) + of(u[1]) * of(v[1])


def general_cross(u, v) -> GeneralRadicalSum:
    """Exact 2D cross product u_x*v_y - u_y*v_x."""
    of = GeneralRadicalSum.of
    return of(u[0]) * of(v[1]) - of(u[1]) * of(v[0])
