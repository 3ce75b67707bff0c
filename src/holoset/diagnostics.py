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
    sits at a huge offset from the origin.
    """
    ox, oy = as_quad(ox), as_quad(oy)
    xs: list[float] = []
    ys: list[float] = []
    worst = 0.0
    for p in points:
        try:
            fx, ex = _shifted_float(p.x, ox)
            fy, ey = _shifted_float(p.y, oy)
        except OverflowError:
            raise FloatRangeError(p) from None
        xs.append(fx)
        ys.append(fy)
        worst = max(worst, ex, ey)
    return xs, ys, worst


def _shifted_float(u, o) -> tuple[float, float]:  # (u - o).to_float()
    q, r = u.q, o.q
    return _surd_float(u.A * r - o.A * q, u.B * r - o.B * q, q * r, max(u.d, o.d))


def _float_dist(ax, ay, bx, by):
    """sqrt(dx*dx + dy*dy) for dx = ax - bx and dy = ay - by, x first and
    without hypot, the distance a KD-tree query computes; inf where a
    difference or a square overflows."""
    import numpy as np
    with np.errstate(over="ignore"):
        dx, dy = ax - bx, ay - by
        return np.sqrt(dx * dx + dy * dy)


class _BucketGrid:
    """Float points in square cells of side 2h, sorted x-major by cell,
    with a start and a count per cell: about 3n cells at most for n points.

    A float t lies in cell floor((t/2 - o)/h), halved so that no span of
    finite floats overflows.  With m cells on the longer axis, rounding
    moves t/2h by under 2.0001u(m + 2), u = 2^-53: floats two cells apart
    lie over 2h(1 - 4.0002u(m + 2)) apart, and their _float_dist (error
    under 3u) exceeds `reach` = 2h(1 - 2^-50(m + 4)) once h >= 2^-400 (no
    square underflows).  So every point whose _float_dist from a point or
    query is at most `reach` lies in the 3x3 cells around it.
    """

    def __init__(self, xs, ys, r: float = 0.0):
        import numpy as np
        n = len(xs)
        self.xs, self.ys = xs, ys = np.array(xs), np.array(ys)
        self.ox, self.oy = xs.min() * 0.5, ys.min() * 0.5
        wx, wy = xs.max() * 0.5 - self.ox, ys.max() * 0.5 - self.oy
        # about one point per cell, at most n + 1 cells on an axis, and r
        # within reach
        dense = math.sqrt(wx) * math.sqrt(wy / n)
        self.h = float(max(dense, max(wx, wy) / n, 2.0**-400, r * (0.5 + 2.0**-21)))
        self.nx, self.ny = int(wx / self.h) + 1, int(wy / self.h) + 1
        self.reach = 2 * self.h * (1 - 2.0**-50 * (max(self.nx, self.ny) + 4))
        cx, cy = self._cells(xs, ys)
        cell = cx * self.ny + cy
        self.order = np.argsort(cell, kind="stable")
        self.count = np.bincount(cell, minlength=self.nx * self.ny)
        self.start = np.cumsum(self.count) - self.count
        # about sqrt(cells) blocks of k x k cells, each with the bounding
        # box of its points, for the queries far from every point
        k = max(1, math.isqrt(math.isqrt(self.nx * self.ny)))
        block = cx // k * (self.ny // k + 1) + cy // k
        self.border = np.argsort(block, kind="stable")
        self.bstart = np.flatnonzero(np.diff(block[self.border], prepend=-1))
        self.bend = np.append(self.bstart[1:], n)
        self.box = [
            f.reduceat(t[self.border], self.bstart)
            for t in (xs, ys)
            for f in (np.minimum, np.maximum)
        ]

    def _cells(self, xs, ys):
        """Cell coordinates, clamped to [-2, cells + 1]: beyond that, the
        3x3 cells around one hold no point either way."""
        import numpy as np
        with np.errstate(over="ignore"):
            return [
                np.clip(np.floor((t * 0.5 - o) / self.h), -2, m + 1).astype(np.int64)
                for t, o, m in ((xs, self.ox, self.nx), (ys, self.oy, self.ny))
            ]

    def _slots(self, qx, qy):
        """Pairs (q, k) of query and point indices covering every point in
        the 3x3 cells around each query, one vectorised pass per slot."""
        import numpy as np
        a, b = self._cells(qx, qy)
        # the three cells of one column are consecutive in the order
        lo, hi = np.maximum(b - 1, 0), np.minimum(b + 1, self.ny - 1)
        for col in (a - 1, a, a + 1):
            q = np.flatnonzero((col >= 0) & (col < self.nx) & (lo <= hi))
            pos = self.start[col[q] * self.ny + lo[q]]
            last = col[q] * self.ny + hi[q]
            end = self.start[last] + self.count[last]
            while (more := pos < end).any():
                q, pos, end = q[more], pos[more], end[more]
                yield q, self.order[pos]
                pos += 1

    def nearest(self, qx, qy):
        """_float_dist from each query to the nearest point."""
        import numpy as np
        xs, ys = self.xs, self.ys
        dist = np.full(len(qx), np.inf)
        for q, k in self._slots(qx, qy):
            dist[q] = np.minimum(dist[q], _float_dist(xs[k], ys[k], qx[q], qy[q]))
        # a query whose nearest point in its 3x3 cells is not within reach
        # searches the blocks
        far = np.flatnonzero(~(dist < self.reach))
        step = max(1, _QUERY_CHUNK // len(self.bstart))
        for f in (far[c : c + step] for c in range(0, len(far), step)):
            dist[f] = self._far(qx[f], qy[f])
        return dist

    def _far(self, qx, qy):
        """_float_dist from each query to the nearest point, from the
        blocks whose box lies within the distance to some block's first
        point.  Rounding is monotone, so the float distance to a box is
        at most that to each of its points: the nearest point's block is
        always among them."""
        import numpy as np
        xs, ys, (x0, x1, y0, y1) = self.xs, self.ys, self.box
        first = self.border[self.bstart]
        cx, cy = qx[:, None], qy[:, None]
        best = _float_dist(xs[first], ys[first], cx, cy).min(axis=1)
        with np.errstate(over="ignore"):
            gx = np.maximum(np.maximum(x0 - cx, cx - x1), 0.0)
            gy = np.maximum(np.maximum(y0 - cy, cy - y1), 0.0)
        q, b = np.nonzero(_float_dist(gx, gy, 0.0, 0.0) <= best[:, None])
        pos, end = self.bstart[b], self.bend[b]
        while (more := pos < end).any():
            q, pos, end = q[more], pos[more], end[more]
            k = self.border[pos]
            np.minimum.at(best, q, _float_dist(xs[k], ys[k], qx[q], qy[q]))
            pos += 1
        return best

    def pairs(self, r: float):
        """Index pairs i < j, in order, of points whose _float_dist is at
        most r, with those distances."""
        if r > self.reach:
            return _BucketGrid(self.xs, self.ys, r).pairs(r)
        import numpy as np
        xs, ys = self.xs, self.ys
        i, j = (np.concatenate(c) for c in zip(*self._slots(xs, ys)))
        dist = _float_dist(xs[i], ys[i], xs[j], ys[j])
        keep = np.flatnonzero((i < j) & (dist <= r))
        keep = keep[np.lexsort((j[keep], i[keep]))]
        return i[keep], j[keep], dist[keep]


def min_gap(ps: PointSet) -> MinGapResult:
    """Smallest pairwise distance and a witnessing pair.

    A bucket grid over the float coordinates finds the smallest float
    distance, the radius doubling until some pair lies within it; every
    pair within a rounding margin of it is then re-ranked exactly, one
    exact distance per difference vector, so the witness is the true
    minimum with ties broken by canonical point order.
    """
    points = ps.points
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    xs, ys, coord_err = _local_floats(points, points[0].x, points[0].y)
    grid = _BucketGrid(xs, ys)
    r = grid.reach
    while not (found := grid.pairs(r)[2]).size:
        r *= 2
    best = float(found.min())

    # collect every pair whose float distance could tie the best, then
    # settle the order exactly
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
    margin = 4.0 * coord_err + 1e-12 * span + 1e-6 * best
    # the first pair of each exact difference vector; a PointSet has one
    # radical per axis, so each difference lies in its axis's field
    first: dict[tuple, tuple[int, int]] = {}
    for i, j in zip(*(a.tolist() for a in grid.pairs(best + margin)[:2])):
        p, q = points[i], points[j]
        key = (p.x - q.x, p.y - q.y)
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


# The covering search queries one representative center per block of
# _COVER_BLOCK x _COVER_BLOCK grid centers, then every center of the
# blocks that could still hold the largest distance.
_COVER_BLOCK = 8
# Largest grid searched: a finer one raises ValueError before anything is
# allocated, instead of exhausting memory (25x the 2001 x 2001 grid of a
# 20 x 20 window at resolution 1/100).
COVER_GRID_CAP = 10**8
# centers per nearest-point query, and distances per chunk of its
# all-points scan: the arrays of one query set the search's peak memory
_QUERY_CHUNK = 50_000


def covering_radius(
    ps: PointSet, window, resolution
) -> CoveringResult:
    """Largest distance from a grid of window centers to the point set.

    Centers are spaced `resolution` apart starting at the window's lower
    left corner; the reported radius is within resolution*sqrt(2) of the
    true largest-empty-disk radius over the window.  Ties go to the
    first center in x-major order.  Grids of more than COVER_GRID_CAP
    centers raise ValueError.

    The result is that of querying every center.  The distance to the
    nearest point is 1-Lipschitz, so a block of centers whose
    representative lies d from the set holds no center farther than d
    plus the block's half-diagonal; only blocks whose bound reaches the
    largest distance found so far are queried in full.
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
    # numpy loads here, not at module level, so subcommands that never
    # search a covering radius start without it
    import numpy as np

    grid = _BucketGrid(*_local_floats(points, x0, y0)[:2])
    resf = float(res)

    block = _COVER_BLOCK
    nby = -(-ny // block)
    n_blocks = -(-nx // block) * nby
    offsets = np.arange(block)
    # every center lies within block//2 steps of its block's
    # representative on each axis
    half_diag = (block // 2) * resf * 2.0**0.5
    best = rep_best = -1.0
    best_lin = 0
    per_chunk = max(1, _QUERY_CHUNK // (block * block))
    for k0 in range(0, n_blocks, _QUERY_CHUNK):
        k = np.arange(k0, min(k0 + _QUERY_CHUNK, n_blocks))
        ox, oy = (k // nby) * block, (k % nby) * block
        rep_d = grid.nearest(
            np.minimum(ox + block // 2, nx - 1) * resf,
            np.minimum(oy + block // 2, ny - 1) * resf,
        )
        rep_best = max(rep_best, float(rep_d.max()))
        # a block can hold the maximum only if its bound reaches every
        # distance found so far; the margin covers float rounding of
        # centers and distances
        margin = 2.0**-40 * (rep_best + half_diag + max(nx, ny) * resf)
        keep = rep_d + (half_diag + margin) >= max(rep_best, best)
        ox, oy = ox[keep], oy[keep]
        for c0 in range(0, len(ox), per_chunk):
            ix = ox[c0 : c0 + per_chunk, None, None] + offsets[None, :, None]
            iy = oy[c0 : c0 + per_chunk, None, None] + offsets[None, None, :]
            ix, iy = np.broadcast_arrays(ix, iy)
            inside = (ix < nx) & (iy < ny)
            ix, iy = ix[inside], iy[inside]
            dists = grid.nearest(ix * resf, iy * resf)
            top = float(dists.max())
            if top >= best:
                # ties go to the first center in x-major order
                lin = int((ix * ny + iy)[dists == top].min())
                if top > best or lin < best_lin:
                    best, best_lin = top, lin
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
