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
from holoset.diagnostics import (
    ESTIMATE_LABEL,
    DeloneReport,
    covering_radius,
    delone_report,
    growth_counts,
    min_gap,
    report_to_json_dict,
)
from holoset.double_cover import closed_form
from holoset.exact import PlanarPoint, PointSet, QuadExt, point

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
