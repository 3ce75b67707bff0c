"""Tests for the branched double cover holonomy families."""

import math
from fractions import Fraction

import pytest

from holoset.coprime import coprime_points
from holoset.double_cover import (
    TAG_UU,
    TAG_UV,
    TAG_VU,
    ShiftVector,
    _ball_row,
    closed_form,
    geometric_oracle,
    slope_class,
)
from holoset.exact import (
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    point,
    sqrt_bounds_frac,
)

SQRT2M1 = QuadExt(-1, 1, 2)
SQRT3M1 = QuadExt(-1, 1, 3)


def tags_of(ps):
    return [p.tag for p in ps.points]


def coords_of(ps):
    return [(p.x, p.y) for p in ps.points]


def test_default_shift():
    s = ShiftVector()
    assert s.tx == SQRT2M1
    assert s.ty == SQRT3M1


def test_shift_validation():
    with pytest.raises(ValueError):
        ShiftVector(tx=QuadExt(Fraction(1, 2)), ty=SQRT3M1)
    with pytest.raises(ValueError):
        ShiftVector(tx=QuadExt(1, 1, 2), ty=SQRT3M1)
    with pytest.raises(ValueError):
        ShiftVector(tx=QuadExt(-2, 1, 2), ty=SQRT3M1)


def test_closed_form_membership_examples():
    ps = closed_form(None, 3)
    one_zero = [p for p in ps.points if (p.x, p.y) == (1, 0)]
    assert len(one_zero) == 1 and one_zero[0].tag == TAG_UU
    shifted = [p for p in ps.points if p.x == SQRT2M1 and p.y == SQRT3M1]
    assert len(shifted) == 1 and shifted[0].tag == TAG_UV
    assert point(2, 2) not in ps
    assert point(-SQRT2M1, -SQRT3M1) in ps


def test_closed_form_radius_one_exact():
    ps = closed_form(None, 1)
    assert len(ps.points) == 12
    uu = {(p.x, p.y) for p in ps.points if p.tag == TAG_UU}
    assert uu == {(-1, 0), (0, -1), (0, 1), (1, 0)}
    uv = {(p.x, p.y) for p in ps.points if p.tag == TAG_UV}
    expected_uv = {
        (SQRT2M1, SQRT3M1),
        (SQRT2M1, SQRT3M1 - 1),
        (SQRT2M1 - 1, SQRT3M1),
        (SQRT2M1 - 1, SQRT3M1 - 1),
    }
    assert uv == expected_uv


def test_uu_family_is_coprime_set():
    R = 6
    ps = closed_form(None, R)
    uu = {(p.x, p.y) for p in ps.points if p.tag == TAG_UU}
    expected = {(p.x, p.y) for p in coprime_points(R).points}
    assert uu == expected


def test_negation_closure_and_family_swap():
    ps = closed_form(None, 4)
    assert ps.negate() == ps
    by_coord = {(p.x, p.y): p.tag for p in ps.points}
    swap = {TAG_UU: TAG_UU, TAG_UV: TAG_VU, TAG_VU: TAG_UV}
    for (x, y), tag in by_coord.items():
        assert by_coord[(-x, -y)] == swap[tag]


def test_smallest_norm_element():
    ps = closed_form(None, 1)
    best = min(ps.points, key=lambda p: p.norm_sq().to_float()[0])
    # the minimum is attained by the shifted point nearest the origin,
    # in either sign
    assert (best.x, best.y) in {
        (SQRT2M1, SQRT3M1 - 1),
        (-SQRT2M1, 1 - SQRT3M1),
    }
    norm = math.sqrt(best.norm_sq().to_float()[0])
    assert norm == pytest.approx(0.4933259, abs=1e-6)


@pytest.mark.parametrize("radius", [1, 3])
def test_oracle_matches_closed_form(radius):
    a = closed_form(None, radius)
    b = geometric_oracle(None, radius)
    assert a == b
    assert tags_of(a) == tags_of(b)


def test_oracle_excludes_blocked_segments():
    ps = geometric_oracle(None, 3)
    assert point(2, 0) not in ps
    assert point(2, 2) not in ps
    assert point(2, 1) in ps
    assert point(SQRT2M1, SQRT3M1) in ps


def test_oracle_nondefault_shift_agrees():
    shift = ShiftVector(
        tx=QuadExt(Fraction(-1, 2), Fraction(1, 2), 2),
        ty=QuadExt(-2, 1, 5),
    )
    assert closed_form(shift, 2) == geometric_oracle(shift, 2)


def reference_closed_form(shift, radius):
    """closed_form with one exact ball test per candidate."""
    shift = shift or ShiftVector()
    R = Fraction(radius)
    R2 = R * R
    pts = [PlanarPoint(p.x, p.y, TAG_UU) for p in coprime_points(R)]
    for sx, sy, tag in (
        (shift.tx, shift.ty, TAG_UV),
        (-shift.tx, -shift.ty, TAG_VU),
    ):
        for a in range((-R - sx - 1).floor(), (R - sx + 1).floor() + 2):
            x = a + sx
            for b in range((-R - sy - 1).floor(), (R - sy + 1).floor() + 2):
                y = b + sy
                if RadicalSum.of(x * x, y * y, -R2).sign() <= 0:
                    pts.append(PlanarPoint(x, y, tag))
    return PointSet(pts)


def radii_around(v):
    """Rationals lo < |v| < hi less than 1e-30 apart."""
    mid, err = v.norm_sq().approx(200)
    lo = sqrt_bounds_frac(mid - err, 120)[0]
    hi = sqrt_bounds_frac(mid + err, 120)[1]
    assert hi - lo < Fraction(1, 10**30)
    return lo, hi


@pytest.mark.parametrize(
    "shift",
    [
        None,
        ShiftVector(
            tx=QuadExt(Fraction(-1, 2), Fraction(1, 2), 2),
            ty=QuadExt(-2, 1, 5),
        ),
    ],
)
def test_closed_form_at_radii_next_to_shifted_points(shift):
    # each radius puts one shifted point within 1e-30 of the sphere, at
    # the end of its row of the ball
    s = shift or ShiftVector()
    targets = [
        point(a + s.tx, b + s.ty) for a, b in ((3, 2), (-4, 1), (0, -5))
    ] + [point(a - s.tx, b - s.ty) for a, b in ((2, -3), (-1, 4), (5, 0))]
    for v in targets:
        lo, hi = radii_around(v)
        below, above = closed_form(shift, lo), closed_form(shift, hi)
        assert v not in below and v in above
        for got, r in ((below, lo), (above, hi)):
            ref = reference_closed_form(shift, r)
            assert got == ref and tags_of(got) == tags_of(ref)


def test_ball_row_where_floats_lose_the_row():
    # at x ~ 1e9 the float of R^2 - x^2 is off by hundreds, so the float
    # ends of the row can be several steps wrong; the exact walk mends them
    x = 10**9 + SQRT2M1
    xx = x * x
    for extra in (Fraction(1, 2), 7, 100, Fraction(1001, 3), 2000):
        R2 = xx.a + xx.b * Fraction(14142135623730951, 10**16) + extra
        expected = [
            b
            for b in range(-80, 80)
            if RadicalSum.of(xx, (b + SQRT3M1) * (b + SQRT3M1), -R2).sign() <= 0
        ]
        row = _ball_row(x, SQRT3M1, R2)
        assert list(row) == expected and expected, extra


def test_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        closed_form(None, 0)
    with pytest.raises(ValueError):
        geometric_oracle(None, -1)


def test_slope_class_examples():
    assert slope_class(point(0, 0), point(2, 3)) == "rational"
    assert slope_class(point(0, 0), point(0, 5)) == "infinite"
    assert slope_class(point(0, 0), point(SQRT2M1, SQRT3M1)) == "irrational"


def test_slope_class_same_field():
    r2 = QuadExt(0, 1, 2)
    assert slope_class(point(0, 0), point(r2, 2 * r2)) == "rational"
    assert slope_class(point(0, 0), point(1 + r2, 2 + r2)) == "irrational"
    assert slope_class(point(0, 0), point(r2, 5)) == "irrational"
    assert slope_class(point(1, 1), point(3, 1)) == "rational"


def test_slope_class_coincident_points():
    with pytest.raises(ValueError):
        slope_class(point(1, 2), point(1, 2))


def test_uv_segments_have_irrational_slope():
    ps = closed_form(None, 3)
    origin = point(0, 0)
    for p in ps.points:
        if p.tag in (TAG_UV, TAG_VU):
            assert slope_class(origin, p) == "irrational"


def test_interior_membership_norm_boundary():
    # (3,4) has norm exactly 5 and the ball is closed
    ps = closed_form(None, 5)
    assert point(3, 4) in ps
    assert point(3, 4) not in closed_form(None, Fraction(499, 100))
