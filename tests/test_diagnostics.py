"""Tests for gap, covering and growth diagnostics."""

import json
import math
import random
from fractions import Fraction

import pytest

from holoset.coprime import (
    coprime_points,
    crt_hole,
    gcd_filtered_points,
)
from holoset import diagnostics
from holoset.diagnostics import (
    ESTIMATE_LABEL,
    CoveringResult,
    DeloneReport,
    covering_radius,
    delone_report,
    growth_counts,
    min_gap,
    report_to_json_dict,
)
from holoset.double_cover import ShiftVector, closed_form
from holoset.exact import (
    FloatRangeError,
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    point,
    read_pointset_csv,
    sqrt_bounds_frac,
)
from oracles import GeneralRadicalSum, gcd_filtered_window

SQRT_HALF = math.sqrt(0.5)


def test_min_gap_three_points():
    ps = PointSet([point(0, 0), point(3, 4), point(0, 1)])
    res = min_gap(ps)
    assert res.gap == pytest.approx(1.0, abs=1e-12)
    assert res.err < 1e-9
    assert [(p.x, p.y) for p in res.pair] == [(0, 0), (0, 1)]


def test_min_gap_needs_two_points():
    with pytest.raises(ValueError):
        min_gap(PointSet([point(1, 1)]))


def test_min_gap_coprime_grid():
    res = min_gap(coprime_points(10))
    assert res.gap == pytest.approx(1.0, abs=1e-12)
    assert res.pair[0].dist_sq(res.pair[1]).to_quadext() == 1


def test_min_gap_example_surface():
    res = min_gap(closed_form(None, 10))
    assert res.gap == pytest.approx(0.4933259, abs=1e-6)
    tags = {res.pair[0].tag, res.pair[1].tag}
    assert tags <= {"UU", "UV", "VU"}
    assert len(tags) == 2


def example_gap_sq(shift: ShiftVector) -> GeneralRadicalSum:
    """min(1, dist(t, Z^2)^2, dist(2t, Z^2)^2), the squared gap of the
    example's whole holonomy set: the nearest integer point to a point
    is a corner of the unit square that holds it."""
    best = GeneralRadicalSum.of(1)
    for k in (1, 2):
        x, y = k * shift.tx, k * shift.ty
        for a in (x.floor(), x.floor() + 1):
            for b in (y.floor(), y.floor() + 1):
                sq = GeneralRadicalSum.of((x - a) * (x - a), (y - b) * (y - b))
                if (sq - best).sign() < 0:
                    best = sq
    return best


SQRT5_SQRT7 = ShiftVector(QuadExt(-2, 1, 5), QuadExt(-2, 1, 7))
# t near (1/2, 1/2): dist(2t, Z^2) is the gap, between the two translates
NEAR_HALF = ShiftVector(QuadExt(0, Fraction(1, 3), 2), QuadExt(0, Fraction(2, 7), 3))


@pytest.mark.parametrize(
    "shift, radius",
    [(None, 3), (None, 8), (None, 16), (SQRT5_SQRT7, 3), (SQRT5_SQRT7, 8),
     (NEAR_HALF, 3), (NEAR_HALF, 8)],
    ids=["sqrt2-sqrt3-3", "sqrt2-sqrt3-8", "sqrt2-sqrt3-16", "sqrt5-sqrt7-3",
         "sqrt5-sqrt7-8", "near-half-3", "near-half-8"],
)
def test_min_gap_is_the_example_gap_constant(shift, radius):
    # the gap of S = P u (Z^2 + t) u (Z^2 - t) is attained inside the ball
    res = min_gap(closed_form(shift, radius))
    want = example_gap_sq(shift or ShiftVector())
    p, q = res.pair
    dx, dy = p.x - q.x, p.y - q.y
    assert (GeneralRadicalSum.of(dx * dx, dy * dy) - want).is_zero
    # |gap - sqrt(want)| <= err, squared; want within werr of mid
    mid, werr = want.approx(200)
    gap, err = Fraction(res.gap), Fraction(res.err)
    assert abs(gap * gap - mid) + werr <= err * (2 * gap + err)


def test_min_gap_matches_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 120)
        coords = {
            (
                Fraction(rng.randint(-160, 160), rng.choice((1, 2, 4, 8))),
                Fraction(rng.randint(-160, 160), rng.choice((1, 2, 4, 8))),
            )
            for _ in range(n)
        }
        if len(coords) < 2:
            continue
        ps = PointSet([point(x, y) for x, y in coords])
        pts = ps.points
        # (distance^2, i, j) minimal: the first minimal pair in canonical
        # (i, j) order, which is the witness min_gap must return
        brute, i, j = min(
            ((p.x.a - q.x.a) ** 2 + (p.y.a - q.y.a) ** 2, i, j)
            for i, p in enumerate(pts)
            for j, q in enumerate(pts[i + 1 :], start=i + 1)
        )
        res = min_gap(ps)
        got = res.pair[0].dist_sq(res.pair[1]).to_quadext()
        assert got == brute
        assert res.pair == (pts[i], pts[j])
    # far from the origin, with x in Q(sqrt(2)) and y in Q(sqrt(3))
    off = 10 ** 30
    for _ in range(10):
        pts = PointSet(
            PlanarPoint(
                QuadExt(off + rng.randint(-3, 3), rng.randint(-3, 3), 2),
                QuadExt(off + rng.randint(-3, 3), rng.randint(-3, 3), 3),
            )
            for _ in range(rng.randint(2, 30))
        ).points
        if len(pts) < 2:
            continue
        best, i, j = None, None, None
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                sq = pts[a].dist_sq(pts[b])
                if best is None or (sq - best).sign() < 0:
                    best, i, j = sq, a, b
        res = min_gap(PointSet(pts))
        assert res.pair == (pts[i], pts[j])


def test_min_gap_negation_symmetric_witness():
    ps = closed_form(None, 5)
    res = min_gap(ps)
    p, q = res.pair
    assert point(-p.x, -p.y) in ps and point(-q.x, -q.y) in ps
    mirrored = point(-p.x, -p.y).dist_sq(point(-q.x, -q.y))
    assert (mirrored - p.dist_sq(q)).is_zero


def test_covering_unit_lattice():
    # window kept away from the origin, which the gcd filter excludes
    ps = gcd_filtered_points(10 ** 9, 10)
    res = covering_radius(ps, (1, 1, 3, 3), Fraction(1, 100))
    assert res.radius == pytest.approx(SQRT_HALF, abs=1e-9)
    cx, cy = res.center_exact
    assert (cx - Fraction(1, 2)).denominator == 1
    assert (cy - Fraction(1, 2)).denominator == 1


def test_covering_single_point_farthest_corner():
    ps = PointSet([point(0, 0)])
    res = covering_radius(ps, (1, 1, 2, 2), 1)
    assert res.radius == pytest.approx(math.sqrt(8), abs=1e-12)
    assert res.center_exact == (2, 2)


def test_covering_refinement_monotone():
    ps = closed_form(None, 5)
    coarse = covering_radius(ps, (-2, -2, 2, 2), Fraction(1, 5))
    fine = covering_radius(ps, (-2, -2, 2, 2), Fraction(1, 10))
    assert fine.radius >= coarse.radius - 1e-12
    assert fine.radius >= coarse.radius - float(Fraction(1, 5)) * math.sqrt(2)


def test_covering_validation():
    ps = PointSet([point(0, 0)])
    with pytest.raises(ValueError):
        covering_radius(PointSet([]), (0, 0, 1, 1), 1)
    with pytest.raises(ValueError):
        covering_radius(ps, (1, 0, 0, 1), 1)
    with pytest.raises(ValueError):
        covering_radius(ps, (0, 0, 1, 1), 0)


def test_covering_detects_crt_hole():
    cert = crt_hole(1, 1)
    cx, cy = cert.center
    ps = gcd_filtered_window(1, (cx - 6, cy - 6, cx + 6, cy + 6))
    res = covering_radius(
        ps, (cx - 1, cy - 1, cx + 1, cy + 1), Fraction(1, 4)
    )
    assert res.radius >= 1.0 - 1e-9


def brute_force_covering(ps, window, resolution):
    """Every grid center queried at once; numpy's argmax returns the
    first maximum, which in this x-major layout is the tie rule."""
    import numpy as np
    from scipy.spatial import cKDTree

    x0, y0, x1, y1 = (Fraction(v) for v in window)
    res = Fraction(resolution)
    coords = [(float(p.x - x0), float(p.y - y0)) for p in ps.points]
    nx = int((x1 - x0) / res) + 1
    ny = int((y1 - y0) / res) + 1
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    resf = float(res)
    centers = np.column_stack((ix.ravel() * resf, iy.ravel() * resf))
    dists = cKDTree(coords).query(centers, k=1)[0]
    k = int(np.argmax(dists))
    cx = x0 + (k // ny) * res
    cy = y0 + (k % ny) * res
    return CoveringResult(float(dists[k]), (float(cx), float(cy)), (cx, cy))


def padded(window, res, pad):
    """The window grown by `pad` grid steps on its upper x and y sides,
    or as given when pad is None: a grid of another size, whose
    power-of-two blocks of the covering search split it elsewhere."""
    if pad is None:
        return window
    x0, y0, x1, y1 = window
    return x0, y0, x1 + pad * res, y1 + pad * res


@pytest.mark.parametrize("pad", [None, 64])
def test_covering_matches_brute_force_with_ties(pad):
    # the unit lattice: every half-integer center of the window ties, in
    # blocks of every level of the search
    ps = gcd_filtered_points(10 ** 9, 10)
    res = Fraction(1, 100)
    window = padded((1, 1, 3, 3), res, pad)
    got = covering_radius(ps, window, res)
    assert got == brute_force_covering(ps, window, res)
    assert got.center_exact == (Fraction(3, 2), Fraction(3, 2))


def test_covering_matches_brute_force_on_benchmark_windows():
    ps = closed_form(None, 16)
    offsets = [(0, 0), (1, 0), (0, -1), (-1, 1), (2, 2), (-2, -1)]
    for ox, oy in offsets:
        ox, oy = Fraction(ox, 2), Fraction(oy, 2)
        window = (ox - 10, oy - 10, ox + 10, oy + 10)
        res = Fraction(1, 20)
        assert covering_radius(ps, window, res) == brute_force_covering(
            ps, window, res
        ), window


@pytest.mark.parametrize(
    "window, res",
    [
        ((0, 0, Fraction(1, 2), Fraction(1, 4)), Fraction(1, 10)),  # 6 x 3
        ((-3, -2, 3, Fraction(5, 2)), Fraction(1, 7)),  # 43 x 32
        ((-1, -4, -1, 4), Fraction(1, 9)),  # 1 x 73
        ((-4, Fraction(1, 3), 4, Fraction(1, 3)), Fraction(2, 11)),  # 45 x 1
        ((Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)), 1),
    ],
)
def test_covering_matches_brute_force_on_ragged_grids(window, res):
    # blocks cut off at the grid's edges, grids smaller than one block,
    # one-row and one-column grids and a single center
    ps = closed_form(None, 5)
    assert covering_radius(ps, window, res) == brute_force_covering(
        ps, window, res
    )


@pytest.mark.parametrize("pad", [None, 64])
def test_covering_matches_brute_force_on_crt_hole(pad):
    cert = crt_hole(1, 1)
    cx, cy = cert.center
    ps = gcd_filtered_window(1, (cx - 6, cy - 6, cx + 6, cy + 6))
    res = Fraction(1, 40)
    window = padded((cx - 1, cy - 1, cx + 1, cy + 1), res, pad)
    assert covering_radius(ps, window, res) == brute_force_covering(
        ps, window, res
    )


def brute_force_gap_pair(ps):
    """The first exactly minimal pair in canonical (i, j) order, from a
    scan of every pair; a rational set is scanned as integers over a
    common denominator."""
    pts = ps.points
    pairs = [
        (i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
    ]
    if all(p.x.is_rational and p.y.is_rational for p in pts):
        den = math.lcm(*(c.a.denominator for p in pts for c in p))
        xy = [(int(p.x.a * den), int(p.y.a * den)) for p in pts]
        _, i, j = min(
            ((xy[i][0] - xy[j][0]) ** 2 + (xy[i][1] - xy[j][1]) ** 2, i, j)
            for i, j in pairs
        )
        return pts[i], pts[j]
    best = witness = None
    for i, j in pairs:
        sq = pts[i].dist_sq(pts[j])
        if best is None or (sq - best).sign() < 0:
            best, witness = sq, (pts[i], pts[j])
    return witness


def _ragged_lattice():
    # integer points of a jagged region with holes
    rng = random.Random(3)
    return PointSet(
        point(i, j)
        for i in range(-12, 13)
        for j in range(-rng.randint(0, 9), rng.randint(1, 9))
        if rng.random() < 0.7
    )


OFF = 10**30
# point sets the covering search and the min-gap cells must answer
# exactly as the KD-tree and the pair scan do, with windows over, beside
# and far outside each set, each searched at resolutions 1/4 and 1/10
# unless it gives its own
GRID_CASES = {
    "single point": (PointSet([point(3, -2)]), [(0, -4, 4, 4)]),
    "two points 1e9 apart": (
        PointSet([point(0, 0), point(10**9, 0)]),
        [(-2, -2, 2, 2), (5 * 10**8 - 2, -2, 5 * 10**8 + 2, 2),
         (0, 0, 10**9, 10**9, 10**7)],
    ),
    "500 points in one cell": (
        PointSet(
            [point(Fraction(k, 10**6), Fraction(7 * k % 500, 10**6))
             for k in range(500)]
            + [point(x, y) for x in (-10, 10) for y in (-10, 10)]
        ),
        [(Fraction(-1, 1000), Fraction(-1, 1000), Fraction(3, 2000),
          Fraction(3, 2000)), (-3, -3, 3, 3)],
    ),
    "floats that coincide": (
        PointSet(
            [point(i, j) for i in range(5) for j in range(4)]
            + [point(2 + Fraction(1, 10**25), 3), point(1, 1 - Fraction(1, 10**25))]
        ),
        [(-1, -1, 5, 4), (2, 3, 2, 3)],
    ),
    "offset 1e30": (
        PointSet(point(p.x + OFF, p.y - OFF, p.tag) for p in closed_form(None, 3)),
        [(OFF - 2, -OFF - 2, OFF + 2, -OFF + 2), (OFF, -OFF, OFF + 1, -OFF),
         (OFF + 10, -OFF + 10, OFF + 12, -OFF + 11)],
    ),
    "window outside the set": (
        closed_form(None, 3), [(20, 20, 23, 22), (-40, -1, -38, 1)],
    ),
    "ragged lattice": (
        _ragged_lattice(), [(-14, -11, 14, 10), (11, 5, 15, 12)],
    ),
    "one row": (
        PointSet(point(Fraction(k * k, 7), 0) for k in range(40)),
        [(-5, -1, 240, 1), (100, 0, 101, 0)],
    ),
    "one column": (
        PointSet(point(0, Fraction(k * k % 97, 3)) for k in range(60)),
        [(-1, -2, 1, 34)],
    ),
    "distances beyond the float range": (
        PointSet([point(0, 0), point(10**200, 1), point(-(10**200), 3)]),
        [(-1, -1, 1, 1)],
    ),
    "span beyond the float range": (
        PointSet([point(0, 0), point(1, 15 * 10**307), point(2, -15 * 10**307)]),
        [(-1, -1, 3, 1)],
    ),
}


@pytest.mark.parametrize("case", GRID_CASES)
def test_bucket_grid_matches_kd_tree_and_pair_scan(case):
    ps, windows = GRID_CASES[case]
    for window in windows:
        for res in window[4:] or (Fraction(1, 4), Fraction(1, 10)):
            assert covering_radius(ps, window[:4], res) == brute_force_covering(
                ps, window[:4], res
            ), (window, res)
    if len(ps) > 1:
        assert min_gap(ps).pair == brute_force_gap_pair(ps)


@pytest.mark.parametrize("pad", [None, 64])
def test_covering_matches_brute_force_on_windows_outside_the_set(pad):
    # the centers lie far from every point, wholly or in the corners of a
    # window wider than the set
    ps = closed_form(None, 8)
    res = Fraction(1, 4)
    for window in [(12, 12, 16, 15), (-30, -2, -26, 2), (-12, -12, 12, 12)]:
        window = padded(window, res, pad)
        assert covering_radius(ps, window, res) == brute_force_covering(
            ps, window, res
        ), window


def scan_covering(ps, window, resolution):
    """Every grid center against every point, in floats; the first
    maximum in x-major order."""
    x0, y0, x1, y1 = (Fraction(v) for v in window)
    res = Fraction(resolution)
    coords = [(float(p.x - x0), float(p.y - y0)) for p in ps.points]
    nx = int((x1 - x0) / res) + 1
    ny = int((y1 - y0) / res) + 1
    resf = float(res)
    best = k_best = None
    for k in range(nx * ny):
        cx, cy = (k // ny) * resf, (k % ny) * resf
        d = math.sqrt(min((x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in coords))
        if best is None or d > best:
            best, k_best = d, k
    cx = x0 + (k_best // ny) * res
    cy = y0 + (k_best % ny) * res
    return CoveringResult(best, (float(cx), float(cy)), (cx, cy))


def test_far_queries_match_a_scan_of_every_point():
    # windows on every side of random sets, from just beside them to far
    # away: each block's bound and candidates must hold on all four sides
    rng = random.Random(5)
    sets = [
        [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(400)],
        [(rng.uniform(-3, 5), rng.uniform(-0.3, 0.5)) for _ in range(900)],
        [(rng.randint(-20, 20), rng.gauss(0, 1e-3)) for _ in range(300)],
    ]
    for coords in sets:
        ps = PointSet(point(Fraction(x), Fraction(y)) for x, y in coords)
        xs, ys = zip(*coords)
        mx, my = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
        for _ in range(12):
            angle = rng.uniform(0, 2 * math.pi)
            dist = math.exp(rng.uniform(-3, 4))
            wx = mx + ((max(xs) - min(xs)) / 2 + dist) * math.cos(angle)
            wy = my + ((max(ys) - min(ys)) / 2 + dist) * math.sin(angle)
            window = (Fraction(wx), Fraction(wy), Fraction(wx) + Fraction(1, 2),
                      Fraction(wy) + Fraction(1, 3))
            res = Fraction(1, 16)
            assert covering_radius(ps, window, res) == scan_covering(
                ps, window, res
            ), window


def test_local_floats_are_those_of_the_exact_differences():
    rng = random.Random(12)

    def rat(digits):
        return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 99))

    pts = [
        point(QuadExt(rat(6), rat(3), 2), QuadExt(rat(6), rat(3), 3))
        for _ in range(150)
    ]
    pts += [point(rat(4), QuadExt(rat(4), rat(2), 3)) for _ in range(30)]
    pts += [point(p.x + 10**30, p.y - 10**30) for p in pts[:40]]
    origins = [
        (Fraction(-10), Fraction(7, 3)),  # a rational window corner
        (pts[0].x, pts[0].y),  # a same-field irrational origin
        (pts[-1].x, pts[-1].y),  # ... offset by 10**30
        (Fraction(10**30 + 1, 7), 0),
    ]
    for ox, oy in origins:
        xs, ys, worst = diagnostics._local_floats(pts, ox, oy)
        want = [((p.x - ox).to_float(), (p.y - oy).to_float()) for p in pts]
        assert [x.hex() for x in xs] == [wx[0].hex() for wx, _ in want]
        assert [y.hex() for y in ys] == [wy[0].hex() for _, wy in want]
        assert worst == max(e for wx, wy in want for e in (wx[1], wy[1]))


def test_local_floats_shift_each_object_once_per_axis(monkeypatch):
    # u is an x and a y coordinate, one object with two shifts
    u, w, f = QuadExt(-1, 1, 2), QuadExt(3, -1, 2), QuadExt(5)
    pts = [PlanarPoint(u, u), PlanarPoint(w, u), PlanarPoint(u, f),
           PlanarPoint(w, f), PlanarPoint(u, u)]
    ox, oy = QuadExt(1), QuadExt(0, 1, 2)
    calls = []
    shifted = diagnostics._shifted_float
    monkeypatch.setattr(
        diagnostics, "_shifted_float", lambda v, o: calls.append(1) or shifted(v, o)
    )
    xs, ys, worst = diagnostics._local_floats(pts, ox, oy)
    assert xs == [float(p.x - ox) for p in pts]
    assert ys == [float(p.y - oy) for p in pts]
    assert xs[0] != ys[0]
    assert len(calls) == 4  # (u, x), (w, x), (u, y), (f, y)


def test_min_gap_subtracts_once_per_pair_of_coordinate_objects(
    tmp_path, monkeypatch
):
    # the CSV reader shares each distinct coordinate, so the float-tied
    # pairs of the example set use 62 distinct x pairs and 62 y pairs; one
    # subtraction per pair of objects keys them (it was two per tied pair,
    # 1,910 in all)
    from holoset import cli

    path = tmp_path / "example.csv"
    assert cli.main(["example", "--radius", "16", "--out", str(path)]) == 0
    with open(path, newline="") as f:
        ps = read_pointset_csv(f)
    calls = []
    sub = QuadExt.__sub__
    monkeypatch.setattr(QuadExt, "__sub__", lambda a, b: calls.append(1) or sub(a, b))
    res = min_gap(ps)
    assert len(calls) <= 130
    monkeypatch.undo()
    assert res == min_gap(closed_form(None, 16))
    assert res.gap == pytest.approx(0.4933250905622992, abs=1e-15)
    assert [(p.x, p.y, p.tag) for p in res.pair] == [
        (QuadExt(-14, -1, 2), QuadExt(-2, -1, 3), "VU"),
        (QuadExt(-15), QuadExt(-4), "UU"),
    ]


def test_local_floats_beyond_the_float_range_raise():
    far = point(QuadExt(10**400, 1, 2), 0)
    with pytest.raises(FloatRangeError, match="beyond the float range"):
        diagnostics._local_floats([point(1, 0), far], 0, 0)
    # the shift brings it back: the difference is what must have a float
    xs, _, _ = diagnostics._local_floats([far], QuadExt(10**400), 0)
    assert xs == [QuadExt(0, 1, 2).to_float()[0]]


def counted_queries(monkeypatch) -> list:
    """The candidate count of each query the covering search makes."""
    queries = []
    squares = diagnostics._squares

    def counting(cand, cx, cy):
        queries.append(len(cand))
        return squares(cand, cx, cy)

    monkeypatch.setattr(diagnostics, "_squares", counting)
    return queries


def test_far_queries_do_not_touch_every_point(monkeypatch):
    ps = closed_form(None, 10)
    queries = counted_queries(monkeypatch)
    res = Fraction(1, 8)
    for window in [(40, 25, 41, 26), (-4, -61, -3, -60), (15, 0, 16, 1)]:
        queries.clear()
        got = covering_radius(ps, window, res)
        assert got == brute_force_covering(ps, window, res), window
        # the root block scans every point; the blocks below it together
        # measure fewer distances than one more scan would
        assert queries[0] == len(ps)
        assert sum(queries[1:]) < len(ps), window


def test_covering_search_queries_few_centers(monkeypatch):
    ps = closed_form(None, 16)
    queries = counted_queries(monkeypatch)
    # of the 2001 x 2001 = 4,004,001 grid centers of each window
    for window, cap in [((-10, -10, 10, 10), 100_000), ((30, 30, 50, 50), 1_000)]:
        queries.clear()
        covering_radius(ps, window, Fraction(1, 100))
        assert len(queries) < cap, window
        if window == (-10, -10, 10, 10):
            # each child block's own bound: 12,896 queries, 29,276 without
            assert len(queries) <= 20_000


@pytest.mark.parametrize("seed", range(4))
def test_covering_matches_brute_force_on_random_windows(seed):
    # grids of 1 x 1, 1 x n, n x 1, 2 x 2 and larger, where one-center
    # blocks and the child bounds meet the edges
    ps = closed_form(None, 6)
    rng = random.Random(seed)
    for shape in ["1x1", "1xn", "nx1", "2x2"] + ["nxm"] * 4:
        res = Fraction(1, rng.randint(1, 30))
        x0 = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
        y0 = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
        w = res * rng.randint(2, 90) + Fraction(rng.randint(0, 5), 97)
        h = res * rng.randint(2, 90) + Fraction(rng.randint(0, 5), 97)
        if shape in ("1x1", "1xn"):
            w = 0
        if shape in ("1x1", "nx1"):
            h = 0
        if shape == "2x2":
            w = h = res
        window = (x0, y0, x0 + w, y0 + h)
        assert covering_radius(ps, window, res) == brute_force_covering(
            ps, window, res
        ), window


def test_covering_ties_at_every_center_stay_cheap(monkeypatch):
    # from 1e30 away every center's float distance is the same: the first
    # center wins, and the blocks after it are dropped unqueried
    ps = PointSet([point(10**30, 0), point(0, 10**30)])
    queries = counted_queries(monkeypatch)
    window, res = (0, 0, 1, 1), Fraction(1, 100)
    got = covering_radius(ps, window, res)
    assert got == brute_force_covering(ps, window, res)
    assert got.center_exact == (0, 0)
    assert len(queries) < 1_000  # of 10,201 centers


def test_bucket_grid_rounding_margin():
    # 255 points on the line x = 0, which set the grid's cell side:
    # (0, -ylo) at the bottom and 252 points 1e-25 apart at the top, whose
    # floats coincide.  The center (0, 0) lies within rounding of the top
    # of its cell, and (0, yb) is two cells up by the rounded cell formula
    # yet nearer than one cell side; (0, -yp) lies in the 3x3 cells,
    # farther than (0, yb) and nearer than the side, so only the rounding
    # margin sends the center on to the scan that finds (0, yb).
    ylo, yhi = Fraction(32.58639626351197), Fraction(93.31558930005703)
    yp, yb = Fraction(0.49373327671987616), Fraction(0.4937332767198761)
    ps = PointSet(
        [point(0, -ylo), point(0, -yp), point(0, yb)]
        + [point(0, yhi + Fraction(k, 10**25)) for k in range(252)]
    )
    got = covering_radius(ps, (0, 0, 0, 0), 1)
    assert got == brute_force_covering(ps, (0, 0, 0, 0), 1)
    assert got.radius == float(yb)


def test_covering_grid_cap(monkeypatch):
    monkeypatch.setattr(diagnostics, "COVER_GRID_CAP", 110)
    ps = PointSet([point(0, 0)])
    assert covering_radius(ps, (0, 0, 9, 10), 1).center_exact == (9, 10)
    with pytest.raises(ValueError, match="would have 121 centers"):
        covering_radius(ps, (0, 0, 10, 10), 1)


def test_growth_counts_coprime_density():
    growth = growth_counts(coprime_points(50), (20, 50))
    target = 6 / math.pi
    for coeff in growth.coefficients:
        assert abs(coeff - target) / target < 0.05
    assert not growth.non_quadratic
    assert growth.counts[0][1] <= growth.counts[1][1]


def test_growth_counts_full_lattice():
    growth = growth_counts(gcd_filtered_points(10 ** 9, 40), (20, 40))
    for coeff in growth.coefficients:
        assert abs(coeff - math.pi) / math.pi < 0.05


def test_growth_flags_linear_sets():
    line = PointSet([point(i, 0) for i in range(-64, 65)])
    growth = growth_counts(line, (2, 8, 64))
    assert [n for _, n in growth.counts] == [5, 17, 129]
    assert growth.non_quadratic


def test_growth_counts_closed_ball_counts_exact_ties():
    # (4+sqrt(2), 4-sqrt(2)) has norm exactly 6 and (sqrt(2), 7/4) has
    # norm exactly 9/4: a closed ball of that radius holds the point, one
    # just smaller does not.
    ps = PointSet(
        [
            point(1, 0),
            point(QuadExt(0, 1, 2), Fraction(7, 4)),
            point(QuadExt(4, 1, 2), QuadExt(4, -1, 2)),
        ]
    )
    tiny = Fraction(1, 10**30)
    radii = (1, Fraction(9, 4) - tiny, Fraction(9, 4), 6 - tiny, 6)
    growth = growth_counts(ps, radii)
    assert [n for _, n in growth.counts] == [1, 1, 2, 2, 3]


def test_growth_counts_the_set_it_is_given():
    ps = coprime_points(10)
    growth = growth_counts(ps, (1, 2, 3, 10, 20))
    assert [n for _, n in growth.counts] == [
        4,
        8,
        len(coprime_points(3)),
        len(ps),
        len(ps),
    ]


def sqrt_bracket(n: RadicalSum):
    """Rationals lo < sqrt(n) < hi less than 1e-30 apart, for irrational
    sqrt(n)."""
    mid, err = n.approx(200)
    lo = sqrt_bounds_frac(mid - err, 120)[0]
    hi = sqrt_bounds_frac(mid + err, 120)[1]
    assert hi - lo < Fraction(1, 10**30)
    return lo, hi


def exact_counts(points, radii):
    """Points in each closed ball, one exact sign per point and radius."""
    return [
        sum(GeneralRadicalSum.of(p.x * p.x, p.y * p.y, -r * r).sign() <= 0
            for p in points)
        for r in radii
    ]


def test_growth_counts_radii_at_two_radical_norms():
    ps = closed_form(None, 6)
    # norms with a rational, a sqrt(2) and a sqrt(3) term
    norms = [n for n in (p.norm_sq() for p in ps.points) if len(n.terms) == 3]
    norms = norms[::20]
    assert len(norms) >= 5
    radii = sorted({r for n in norms for r in sqrt_bracket(n)})
    growth = growth_counts(ps, radii)
    expected = exact_counts(ps.points, radii)
    assert [n for _, n in growth.counts] == expected
    # each bracket straddles one norm, so the count steps up across it
    assert expected[1] > expected[0]


def test_growth_counts_norms_lost_to_cancellation():
    # x = p - q*sqrt(2) for convergents p/q of sqrt(2): the float of
    # x^2 = p^2 + 2q^2 - 2pq*sqrt(2) carries no correct digit
    pts, p, q = [], 1, 1
    for _ in range(40):
        p, q = p + 2 * q, p + q
        pts.append(point(QuadExt(p, -q, 2), 0))
    ps = PointSet(pts)
    radii = set()
    for pt in pts[-12:]:
        mid, err = RadicalSum.of(pt.x).approx(200)
        radii |= {abs(mid) - err, abs(mid) + err}
    radii = sorted(radii)
    growth = growth_counts(ps, radii)
    assert [n for _, n in growth.counts] == exact_counts(pts, radii)


def test_growth_counts_points_beyond_float_range():
    ps = PointSet([point(1, 0), point(QuadExt(10**200, 1, 2), 0)])
    growth = growth_counts(ps, (1, 2))
    assert [n for _, n in growth.counts] == [1, 1]


def test_growth_validation():
    with pytest.raises(ValueError):
        growth_counts(coprime_points(5), ())
    with pytest.raises(ValueError):
        growth_counts(coprime_points(5), (5, 5))
    with pytest.raises(ValueError):
        growth_counts(coprime_points(5), (0, 5))


def test_delone_report_example_surface():
    ps = closed_form(None, 5)
    report = delone_report(ps, (-2, -2, 2, 2), Fraction(1, 20), (2, 3, 5))
    assert report.label == ESTIMATE_LABEL
    assert report.min_gap.gap > 0.49
    assert report.covering.radius < 0.71
    counts = [n for _, n in report.growth.counts]
    assert counts == sorted(counts)
    assert not report.growth.non_quadratic


def test_delone_report_two_points():
    ps = PointSet([point(0, 0), point(2, 0)])
    report = delone_report(ps, (0, 0, 2, 0), Fraction(1, 2), (1, 3))
    assert report.min_gap.gap == pytest.approx(2.0, abs=1e-12)
    assert report.growth.counts[0][1] == 1
    assert report.growth.counts[1][1] == 2


def test_report_records_are_immutable():
    report = delone_report(
        closed_form(None, 3), (-1, -1, 1, 1), Fraction(1, 10), (1, 2, 3)
    )
    for record, names in (
        (report, ("min_gap", "covering", "growth", "label")),
        (report.min_gap, ("gap", "err", "pair")),
        (report.covering, ("radius", "center", "center_exact")),
        (report.growth, ("counts", "coefficients", "non_quadratic")),
    ):
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)


def test_report_json_round_trip():
    ps = closed_form(None, 3)
    report = delone_report(ps, (-1, -1, 1, 1), Fraction(1, 10), (1, 2, 3))
    doc = report_to_json_dict(report)
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["label"] == ESTIMATE_LABEL
    assert len(back["min_gap"]["pair"]) == 2
    assert back["growth"]["counts"][0][0] == "1"
