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
    gcd_filtered_window,
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
from holoset.double_cover import closed_form
from holoset.exact import (
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    point,
    sqrt_bounds_frac,
)

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


@pytest.mark.parametrize("chunk", [None, 64])
def test_covering_matches_brute_force_with_ties(monkeypatch, chunk):
    # the unit lattice: every half-integer center of the window ties;
    # with one block per query chunk, the ties span several chunks
    if chunk:
        monkeypatch.setattr(diagnostics, "_QUERY_CHUNK", chunk)
    ps = gcd_filtered_points(10 ** 9, 10)
    window, res = (1, 1, 3, 3), Fraction(1, 100)
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


@pytest.mark.parametrize("chunk", [None, 64])
def test_covering_matches_brute_force_on_crt_hole(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(diagnostics, "_QUERY_CHUNK", chunk)
    cert = crt_hole(1, 1)
    cx, cy = cert.center
    ps = gcd_filtered_window(1, (cx - 6, cy - 6, cx + 6, cy + 6))
    window, res = (cx - 1, cy - 1, cx + 1, cy + 1), Fraction(1, 40)
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
# point sets the bucket grid must answer exactly as the KD-tree and the
# pair scan do, with windows over, beside and far outside each set, each
# searched at resolutions 1/4 and 1/10 unless it gives its own
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
        sum((p.norm_sq() - RadicalSum.of(r * r)).sign() <= 0 for p in points)
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
        mid, err = pt.x.approx(200)
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


def test_report_json_round_trip():
    ps = closed_form(None, 3)
    report = delone_report(ps, (-1, -1, 1, 1), Fraction(1, 10), (1, 2, 3))
    doc = report_to_json_dict(report)
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["label"] == ESTIMATE_LABEL
    assert len(back["min_gap"]["pair"]) == 2
    assert back["growth"]["counts"][0][0] == "1"
