"""Packing and covering diagnostics for finite planar point sets.

min_gap finds the smallest pairwise distance with an exact witness;
covering_radius estimates the largest empty disk centered in a window;
growth_counts tracks N(R)/R^2 across radii.  Everything reported from a
finite set is labeled a finite-window estimate: no claim about the
infinite set is implied.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exact import (
    FloatRangeError,
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    _surd_float,
    as_fraction,
    as_positive,
    as_quad,
    format_quadext,
    norm_sq_bracket,
    sqrt_with_error,
)

ESTIMATE_LABEL = "finite-window estimate"

Window = tuple[Fraction, Fraction, Fraction, Fraction]


class MinGapResult(NamedTuple):
    gap: float
    err: float
    pair: tuple[PlanarPoint, PlanarPoint]


class CoveringResult(NamedTuple):
    radius: float
    center: tuple[float, float]
    center_exact: tuple[Fraction, Fraction]


class GrowthCounts(NamedTuple):
    counts: tuple[tuple[Fraction, int], ...]
    coefficients: tuple[float, ...]
    non_quadratic: bool


class DeloneReport(NamedTuple):
    min_gap: MinGapResult
    covering: CoveringResult
    growth: GrowthCounts
    label: str = ESTIMATE_LABEL


def _local_floats(points: Sequence[PlanarPoint], ox, oy) -> tuple[list, list, float]:
    """Coordinates relative to (ox, oy), rational or in their axis's field,
    as floats, and the largest error bound among them.

    Each is ``(p.x - ox).to_float()``, shifted exactly in integers with no
    difference built, which keeps the floats accurate even when the set
    sits at a huge offset from the origin.  The points of a set share
    coordinate objects, so each object is shifted once per axis, in a
    dict per axis keyed by id and local to the call: the points keep
    every object alive while it runs, and one object can be an x and a y.
    """
    ox, oy = as_quad(ox), as_quad(oy)
    mx: dict[int, tuple[float, float]] = {}
    my: dict[int, tuple[float, float]] = {}
    xs: list[float] = []
    ys: list[float] = []
    worst = 0.0
    for p in points:
        try:
            fx, ex = mx.get(id(p.x)) or mx.setdefault(id(p.x), _shifted_float(p.x, ox))
            fy, ey = my.get(id(p.y)) or my.setdefault(id(p.y), _shifted_float(p.y, oy))
        except OverflowError:
            raise FloatRangeError(p) from None
        xs.append(fx)
        ys.append(fy)
        worst = max(worst, ex, ey)
    return xs, ys, worst


def _shifted_float(u, o) -> tuple[float, float]:  # (u - o).to_float()
    q, r = u.q, o.q
    return _surd_float(u.A * r - o.A * q, u.B * r - o.B * q, q * r, max(u.d, o.d))


def _cell_pairs(xs, ys, r: float = 0.0) -> tuple[list, float]:
    """(dist, i, j) for the pairs i < j of points in neighbouring square
    cells of side 2h, dist = sqrt(dx*dx + dy*dy); and `reach`, within
    which that holds every pair: about one point per cell, and r within
    reach.

    A float t lies in cell floor((t/2 - o)/h), halved so that no span of
    finite floats overflows.  With m cells on the longer axis, rounding
    moves t/2h by under 2.0001u(m + 2), u = 2^-53: floats two cells apart
    lie over 2h(1 - 4.0002u(m + 2)) apart, and their distance (error under
    3u) exceeds reach = 2h(1 - 2^-50(m + 4)) once h >= 2^-400 (no square
    underflows).
    """
    n = len(xs)
    ox, oy = min(xs) * 0.5, min(ys) * 0.5
    wx, wy = max(xs) * 0.5 - ox, max(ys) * 0.5 - oy
    h = max(math.sqrt(wx) * math.sqrt(wy / n), max(wx, wy) / n, 2.0**-400,
            r * (0.5 + 2.0**-21))
    reach = 2 * h * (1 - 2.0**-50 * (int(max(wx, wy) / h) + 5))
    cells: dict[tuple[int, int], list[int]] = {}
    for k, (x, y) in enumerate(zip(xs, ys)):
        key = (math.floor((x * 0.5 - ox) / h), math.floor((y * 0.5 - oy) / h))
        cells.setdefault(key, []).append(k)
    found = []
    for (a, b), members in cells.items():
        near = [
            j for da in (-1, 0, 1) for db in (-1, 0, 1)
            for j in cells.get((a + da, b + db), ())
        ]
        for i in members:
            x, y = xs[i], ys[i]
            for j in near:
                if i < j:
                    dx, dy = x - xs[j], y - ys[j]
                    found.append((math.sqrt(dx * dx + dy * dy), i, j))
    return found, reach


def _difference(memo: dict, a: QuadExt, b: QuadExt) -> QuadExt:
    """a - b, kept in memo by the ids of a and b (both kept alive)."""
    key = (id(a), id(b))
    if key not in memo:
        memo[key] = a - b
    return memo[key]


def min_gap(ps: PointSet) -> MinGapResult:
    """Smallest pairwise distance and a witnessing pair.

    A scan of neighbouring cells finds the smallest float distance, the
    cell side doubling until some pair lies within reach; every pair
    within a rounding margin of it is then re-ranked exactly, one exact
    distance per difference vector, so the witness is the true minimum
    with ties broken by canonical point order.
    """
    points = ps.points
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    xs, ys, coord_err = _local_floats(points, points[0].x, points[0].y)
    found, reach = _cell_pairs(xs, ys)
    r = reach
    # a pair within reach is a pair within r: the nearest pair is found
    while not found or min(found)[0] > reach:
        r *= 2
        found, reach = _cell_pairs(xs, ys, r)
    best = min(found)[0]

    # collect every pair whose float distance could tie the best, then
    # settle the order exactly
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
    margin = 4.0 * coord_err + 1e-12 * span + 1e-6 * best
    if best + margin > reach:
        found = _cell_pairs(xs, ys, best + margin)[0]
    # the first pair of each exact difference vector; a PointSet has one
    # radical per axis, so each difference lies in its axis's field.  Tied
    # pairs share coordinate objects: one subtraction per pair of objects
    first: dict[tuple, tuple[int, int]] = {}
    diffs: dict = {}
    for i, j in sorted((i, j) for d, i, j in found if d <= best + margin):
        p, q = points[i], points[j]
        key = (_difference(diffs, p.x, q.x), _difference(diffs, p.y, q.y))
        first.setdefault(key, (i, j))
    best_exact: Optional[RadicalSum] = None
    witness: Optional[tuple[int, int]] = None
    for i, j in first.values():
        sq = points[i].dist_sq(points[j])
        # RadicalSum is canonical, so termwise equality is value equality
        # and an exact tie needs no sign
        if best_exact is None or (
            sq != best_exact and (sq - best_exact).sign() < 0
        ):
            best_exact = sq
            witness = (i, j)
    gap, err = sqrt_with_error(best_exact)
    return MinGapResult(gap, err, (points[witness[0]], points[witness[1]]))


def _as_window(window) -> Window:
    x0, y0, x1, y1 = (as_fraction(v) for v in window)
    if x1 < x0 or y1 < y0:
        raise ValueError("window is empty")
    return x0, y0, x1, y1


# Largest grid searched: a finer one raises ValueError before the search
# starts.  The search keeps no array per center, so the cap bounds its
# worst-case time, not its memory (25x the 2001 x 2001 grid of a 20 x 20
# window at resolution 1/100).
COVER_GRID_CAP = 10**8


def _squares(cand, cx, cy) -> list:
    """dx*dx + dy*dy from (cx, cy) to each candidate point: one query."""
    return [(x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in cand]


def _corner_dist(x, y, lx, hx, ly, hy) -> float:
    """Float distance from (x, y) to the farthest corner of a box."""
    dx, dy = max(x - lx, hx - x), max(y - ly, hy - y)
    return math.sqrt(dx * dx + dy * dy)


def covering_radius(
    ps: PointSet, window, resolution
) -> CoveringResult:
    """Largest distance from a grid of window centers to the point set.

    Centers are spaced `resolution` apart starting at the window's lower
    left corner; the reported radius is within resolution*sqrt(2) of the
    true largest-empty-disk radius over the window.  Distances are
    compared as floats, so among centers at exactly the same true
    distance the one whose float rounds highest is reported; x-major
    order breaks only ties between equal floats.  Grids of more than
    COVER_GRID_CAP centers raise ValueError.

    The result is that of querying every center, each distance
    sqrt(dx*dx + dy*dy) in floats.  The search halves square blocks of
    centers breadth first, from one power-of-two block over the grid;
    each block queries one representative center against the candidate
    points its parent handed down.  Every center of the block lies in
    the box of its corner centers, so none lies farther from the set
    than g, the distance from the representative's nearest point to the
    box's farthest corner; rounding is monotone, so that holds for the
    floats too.  A block is dropped once g falls below the largest
    distance found so far, or equals it and the block holds no center
    earlier in x-major order.  The nearest point of every center of the
    block lies within g + f of the representative, f its distance to
    the farthest corner: only those points go on to the block's four
    children, with a 2^-40 relative margin for the rounding of
    distances and 2^-500 for a square that underflows.  Each child gets
    its own g, from the same nearest point to the child's farthest
    corner, and is not kept when that cannot beat the distance found so
    far.
    """
    points = ps.points
    if not points:
        raise ValueError("point set is empty")
    x0, y0, x1, y1 = _as_window(window)
    res = as_positive(resolution, "resolution")
    nx = int((x1 - x0) / res) + 1
    ny = int((y1 - y0) / res) + 1
    if nx * ny > COVER_GRID_CAP:
        raise ValueError(
            f"covering grid would have {nx * ny} centers (cap is "
            f"{COVER_GRID_CAP}); use a coarser resolution or a smaller window"
        )
    xs, ys, _ = _local_floats(points, x0, y0)
    resf = float(res)
    # (distance, -index) of the farthest center so far: ties go to the
    # first in x-major order, and a block whose bound and first index
    # cannot beat it is dropped
    top = (-1.0, 0)
    side = 1 << (max(nx, ny) - 1).bit_length()
    # blocks of side `side` as (corner, bound of the parent, candidates)
    level = [(0, 0, math.inf, list(zip(xs, ys)))]
    while level:
        children = []
        half = side // 2
        for ax, ay, cap, cand in level:
            first = ax * ny + ay
            if (cap, -first) <= top:
                continue
            bx, by = min(ax + side, nx) - 1, min(ay + side, ny) - 1
            rx, ry = (ax + bx) // 2, (ay + by) // 2
            cx, cy = rx * resf, ry * resf
            sq = _squares(cand, cx, cy)
            m = min(sq)
            top = max(top, (math.sqrt(m), -(rx * ny + ry)))
            if ax == bx and ay == by:
                continue
            # every center of the block lies in the box of its corners
            x, y = cand[sq.index(m)]
            lx, hx, ly, hy = ax * resf, bx * resf, ay * resf, by * resf
            bound = _corner_dist(x, y, lx, hx, ly, hy)
            if (bound, -first) <= top:
                continue
            r = bound + _corner_dist(cx, cy, lx, hx, ly, hy)
            r += 2.0**-40 * r + 2.0**-500
            r2 = r * r
            near = [p for p, s in zip(cand, sq) if s <= r2]
            for kx in range(ax, bx + 1, half):
                # each child's own bound g: _corner_dist from (x, y) to its box
                dx = max(x - kx * resf, (min(kx + half, nx) - 1) * resf - x)
                for ky in range(ay, by + 1, half):
                    dy = max(y - ky * resf, (min(ky + half, ny) - 1) * resf - y)
                    g = math.sqrt(dx * dx + dy * dy)
                    if (g, -(kx * ny + ky)) > top:
                        children.append((kx, ky, g, near))
        level, side = children, half
    best, best_lin = top[0], -top[1]
    cx = x0 + (best_lin // ny) * res
    cy = y0 + (best_lin % ny) * res
    return CoveringResult(best, (float(cx), float(cy)), (cx, cy))


def _square_float(r: Fraction) -> float:
    """float(r*r), which the coefficient N(R)/R^2 divides by; ValueError
    naming r when it overflows or underflows to 0."""
    try:
        t = float(r * r)
    except OverflowError:
        t = 0.0
    if not t:
        raise ValueError(f"radius {r}: its square lies beyond the float range")
    return t


def growth_counts(ps: PointSet, radii: Sequence) -> GrowthCounts:
    """Point counts N(R) of ps in each closed R-ball about the origin, and
    quadratic-density coefficients N(R)/R^2.

    Flags non-quadratic growth when the coefficients over the top half
    of the radii spread by more than a factor of 4.  A coefficient is
    inf when R^2 is a subnormal float and the ball holds a point.
    """
    rs = [as_fraction(r) for r in radii]
    if not rs:
        raise ValueError("radii must be nonempty")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly increasing")
    if rs[0] <= 0:
        raise ValueError("radii must be positive")
    ts = [_square_float(r) for r in rs]
    # every norm once, as a float with a rigorous bound, sorted by the
    # float; a norm beyond the float range is (inf, inf), so always exact
    bracketed = sorted(
        (norm_sq_bracket(p.x, p.y) + (p,) for p in ps.points),
        key=lambda t: t[0],
    )
    values = [v for v, _, _ in bracketed]
    slack = max((e for _, e, _ in bracketed), default=0.0)
    counts = []
    for r, t in zip(rs, ts):
        rsq = r * r
        # a norm whose float lies farther than w from float(r^2) is
        # decided by the float: w covers every norm's bound, the rounding
        # of float(r^2) and that of t -/+ w; the rest take an exact sign
        w = slack * (1 + 2.0**-48) + abs(t) * 2.0**-48 + 5e-324
        lo = bisect_left(values, t - w)
        hi = bisect_right(values, t + w)
        near = sum(
            (p.norm_sq() - rsq).sign() <= 0 for _, _, p in bracketed[lo:hi]
        )
        counts.append((r, lo + near))
    counts = tuple(counts)
    coefficients = tuple(n / t for (_, n), t in zip(counts, ts))
    top = coefficients[len(coefficients) // 2 :]
    low, high = min(top), max(top)
    non_quadratic = low == 0 or high / low > 4
    return GrowthCounts(counts, coefficients, non_quadratic)


def delone_report(ps: PointSet, window, resolution, radii) -> DeloneReport:
    """Bundle of gap, covering and growth diagnostics for one set."""
    gap = min_gap(ps)
    covering = covering_radius(ps, window, resolution)
    growth = growth_counts(ps, radii)
    return DeloneReport(gap, covering, growth)


def _point_json(p: PlanarPoint) -> list:
    return [format_quadext(p.x), format_quadext(p.y)]


def report_to_json_dict(report: DeloneReport) -> dict:
    """The report as JSON values; ValueError naming the radius of a growth
    coefficient that is inf, which JSON cannot hold."""
    for (r, _), c in zip(report.growth.counts, report.growth.coefficients):
        if c == float("inf"):
            raise ValueError(
                f"radius {r}: its growth coefficient N(R)/R^2 lies beyond "
                f"the float range"
            )
    return {
        "label": report.label,
        "min_gap": {
            "gap": report.min_gap.gap,
            "err": report.min_gap.err,
            "pair": [_point_json(p) for p in report.min_gap.pair],
        },
        "covering_radius": {
            "radius": report.covering.radius,
            "center": list(report.covering.center),
            "center_exact": [str(c) for c in report.covering.center_exact],
        },
        "growth": {
            "counts": [[str(r), n] for r, n in report.growth.counts],
            "coefficients": list(report.growth.coefficients),
            "non_quadratic": report.growth.non_quadratic,
        },
    }
