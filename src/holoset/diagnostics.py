"""Packing and covering diagnostics for finite planar point sets.

min_gap finds the smallest pairwise distance with an exact witness;
covering_radius estimates the largest empty disk centered in a window;
growth_counts tracks N(R)/R^2 across radii.  Everything reported from a
finite set is labeled a finite-window estimate: no claim about the
infinite set is implied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    PlanarPoint,
    PointSet,
    RadicalSum,
    as_fraction,
    format_quadext,
    sqrt_with_error,
)

ESTIMATE_LABEL = "finite-window estimate"

Window = tuple[Fraction, Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class MinGapResult:
    gap: float
    err: float
    pair: tuple[PlanarPoint, PlanarPoint]


@dataclass(frozen=True)
class CoveringResult:
    radius: float
    center: tuple[float, float]
    center_exact: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class GrowthCounts:
    counts: tuple[tuple[Fraction, int], ...]
    coefficients: tuple[float, ...]
    non_quadratic: bool


@dataclass(frozen=True)
class DeloneReport:
    min_gap: MinGapResult
    covering: CoveringResult
    growth: GrowthCounts
    label: str = ESTIMATE_LABEL


def _local_floats(points: Sequence[PlanarPoint]) -> tuple[list, list, float]:
    """Coordinates relative to the first point, as floats.

    Translating exactly first keeps the floats accurate even when the
    set sits at a huge offset from the origin.
    """
    ref = points[0]
    xs: list[float] = []
    ys: list[float] = []
    worst = 0.0
    for p in points:
        fx, ex = (p.x - ref.x).to_float()
        fy, ey = (p.y - ref.y).to_float()
        xs.append(fx)
        ys.append(fy)
        worst = max(worst, ex, ey)
    return xs, ys, worst


def min_gap(ps: PointSet) -> MinGapResult:
    """Smallest pairwise distance and a witnessing pair.

    A KD-tree over the float coordinates gives the nearest-neighbour
    distance; every pair within a rounding margin of it is then re-ranked
    exactly, so the witness is the true minimum with ties broken by
    canonical point order.
    """
    # scipy loads here, not at module level, so subcommands that never
    # search a gap start without it
    from scipy.spatial import cKDTree

    points = ps.points
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    xs, ys, coord_err = _local_floats(points)
    coords = list(zip(xs, ys))
    tree = cKDTree(coords)
    best = float(tree.query(coords, k=2)[0][:, 1].min())

    # collect every pair whose float distance could tie the best, then
    # settle the order exactly
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
    margin = 4.0 * coord_err + 1e-12 * span + 1e-6 * best
    best_exact: Optional[RadicalSum] = None
    witness: Optional[tuple[int, int]] = None
    for i, j in sorted(tree.query_pairs(best + margin)):
        sq = points[i].dist_sq(points[j])
        if best_exact is None or (sq - best_exact).sign() < 0:
            best_exact = sq
            witness = (i, j)
    gap, err = sqrt_with_error(best_exact)
    return MinGapResult(gap, err, (points[witness[0]], points[witness[1]]))


def _as_window(window) -> Window:
    x0, y0, x1, y1 = (as_fraction(v) for v in window)
    if x1 < x0 or y1 < y0:
        raise ValueError("window is empty")
    return x0, y0, x1, y1


def covering_radius(
    ps: PointSet, window, resolution
) -> CoveringResult:
    """Largest distance from a grid of window centers to the point set.

    Centers are spaced `resolution` apart starting at the window's lower
    left corner; the reported radius is within resolution*sqrt(2) of the
    true largest-empty-disk radius over the window.  Ties go to the
    first center in x-major order.
    """
    # numpy and scipy load here, not at module level, so subcommands
    # that never search a covering radius start without them
    import numpy as np
    from scipy.spatial import cKDTree

    points = ps.points
    if not points:
        raise ValueError("point set is empty")
    x0, y0, x1, y1 = _as_window(window)
    res = as_fraction(resolution)
    if res <= 0:
        raise ValueError("resolution must be positive")
    # exact translation to the window origin keeps floats accurate for
    # far-from-origin windows
    coords = np.empty((len(points), 2), dtype=float)
    for k, p in enumerate(points):
        coords[k, 0] = (p.x - x0).to_float()[0]
        coords[k, 1] = (p.y - y0).to_float()[0]
    tree = cKDTree(coords)
    nx = int((x1 - x0) / res) + 1
    ny = int((y1 - y0) / res) + 1
    resf = float(res)
    ys_row = np.arange(ny, dtype=float) * resf
    best = -1.0
    best_ij = (0, 0)
    chunk_rows = max(1, 200_000 // max(ny, 1))
    for ix0 in range(0, nx, chunk_rows):
        rows = range(ix0, min(ix0 + chunk_rows, nx))
        centers = np.empty((len(rows) * ny, 2), dtype=float)
        for r, ix in enumerate(rows):
            centers[r * ny : (r + 1) * ny, 0] = ix * resf
            centers[r * ny : (r + 1) * ny, 1] = ys_row
        dists, _ = tree.query(centers, k=1, workers=1)
        k = int(np.argmax(dists))
        if dists[k] > best:
            best = float(dists[k])
            best_ij = (ix0 + k // ny, k % ny)
    cx = x0 + best_ij[0] * res
    cy = y0 + best_ij[1] * res
    return CoveringResult(best, (float(cx), float(cy)), (cx, cy))


def growth_counts(ps: PointSet, radii: Sequence) -> GrowthCounts:
    """Point counts N(R) of ps in each closed R-ball about the origin, and
    quadratic-density coefficients N(R)/R^2.

    Flags non-quadratic growth when the coefficients over the top half
    of the radii spread by more than a factor of 4.
    """
    rs = [as_fraction(r) for r in radii]
    if not rs:
        raise ValueError("radii must be nonempty")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly increasing")
    if rs[0] <= 0:
        raise ValueError("radii must be positive")
    norms = [p.norm_sq() for p in ps.points]
    counts = []
    for r in rs:
        rsq = RadicalSum.of(r * r)
        counts.append((r, sum((n - rsq).sign() <= 0 for n in norms)))
    counts = tuple(counts)
    coefficients = tuple(n / float(r * r) for r, n in counts)
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
