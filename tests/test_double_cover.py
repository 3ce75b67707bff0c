"""Tests for the branched double cover holonomy families."""

import math
import random
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
)
from holoset.exact import (
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    point,
    sqrt_bounds_frac,
)
from oracles import segment_oracle, slope_class

SQRT2M1 = QuadExt(-1, 1, 2)
SQRT3M1 = QuadExt(-1, 1, 3)

# tx and ty in one field: the only shifts where one family blocks the other
SAME_FIELD_SHIFTS = [
    ShiftVector(SQRT2M1, SQRT2M1),
    ShiftVector(SQRT2M1, QuadExt(2, -1, 2)),
    ShiftVector(SQRT2M1, QuadExt(Fraction(-1, 2), Fraction(1, 2), 2)),
]

# ty - tx = (1 - sqrt(2))**48, about 4e-19: in floats t and (a, a) + t lie
# on the diagonal, between (1, 1) and (2, 2) by norm
NEAR_DIAGONAL_SHIFT = ShiftVector(
    SQRT2M1, SQRT2M1 + math.prod([QuadExt(1, -1, 2)] * 48)
)


def tags_of(ps):
    return [p.tag for p in ps.points]


def coords_of(ps):
    return [(p.x, p.y) for p in ps.points]


def test_default_shift():
    s = ShiftVector()
    assert s.tx == SQRT2M1
    assert s.ty == SQRT3M1


def test_shift_validation():
    for kwargs, message in [
        ({"tx": QuadExt(Fraction(1, 2))}, "tx must be irrational"),
        ({"tx": QuadExt(1, 1, 2)}, r"tx must lie in \(0, 1\)"),
        ({"tx": QuadExt(-2, 1, 2)}, r"tx must lie in \(0, 1\)"),
        ({"ty": QuadExt(3)}, "ty must be irrational"),
        ({"ty": QuadExt(1, 1, 3)}, r"ty must lie in \(0, 1\)"),
        ({"tx": QuadExt(1), "ty": QuadExt(1)}, "tx must be irrational"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ShiftVector(**kwargs)


def test_shift_is_an_immutable_value():
    s = ShiftVector(SQRT2M1, ty=SQRT3M1)
    assert s == ShiftVector() and hash(s) == hash(ShiftVector())
    assert s != ShiftVector(ty=QuadExt(-2, 1, 5))
    assert repr(s) == f"ShiftVector(tx={SQRT2M1!r}, ty={SQRT3M1!r})"
    for name in ("tx", "ty", "tz"):
        with pytest.raises(AttributeError):
            setattr(s, name, SQRT2M1)


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


@pytest.mark.parametrize(
    "shift,blocked", zip(SAME_FIELD_SHIFTS, [(1, 1), (1, -1), (2, 1)])
)
def test_closed_form_refuses_same_field_shift(shift, blocked):
    # the three-family description would emit the integer vector
    # `blocked`, though a translate of t lies on its segment from 0
    with pytest.raises(ValueError, match="linearly independent over Q"):
        closed_form(shift, 3)
    assert point(*blocked) not in geometric_oracle(shift, 3)


@pytest.mark.parametrize(
    "shift,radius,count",
    [(None, 4, 134), (None, Fraction(41, 10), 140)]
    + list(zip(SAME_FIELD_SHIFTS, [3] * 3, [70, 70, 68]))
    + list(zip(SAME_FIELD_SHIFTS, [4] * 3, [126] * 3))
    + [(NEAR_DIAGONAL_SHIFT, 3, 76)],
    ids=["default-4", "default-41/10"]
    + [f"same-field{i}-{r}" for r in (3, 4) for i in range(3)]
    + ["near-diagonal-3"],
)
def test_oracle_matches_segment_oracle(shift, radius, count):
    # the angular sweep against the per-segment blocker scan; on the
    # same-field shifts one family blocks the other, and near the
    # diagonal only the exact sort keeps (1, 1) and (2, 2) in one run
    a = geometric_oracle(shift, radius)
    b = segment_oracle(shift, radius)
    assert len(a) == count
    assert a == b and tags_of(a) == tags_of(b)


def random_cross_field_shift(rng: random.Random) -> ShiftVector:
    """tx and ty in (0, 1), in distinct fields, with small denominators."""
    dx, dy = rng.sample((2, 3, 5, 6, 7, 10, 11), 2)

    def coordinate(d: int) -> QuadExt:
        while True:
            b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 4))
            u = QuadExt(Fraction(rng.randint(-40, 40), rng.randint(1, 5)), b, d)
            if QuadExt(0) < u < QuadExt(1):
                return u

    return ShiftVector(coordinate(dx), coordinate(dy))


def test_oracle_matches_closed_form_on_random_shifts():
    rng = random.Random(16)
    for i in range(20):
        shift = random_cross_field_shift(rng)
        radius = 8 if i % 5 == 0 else Fraction(rng.randint(10, 79), 10)
        a = closed_form(shift, radius)
        b = geometric_oracle(shift, radius)
        assert a == b and tags_of(a) == tags_of(b), (shift, radius)


def test_oracle_takes_linearly_many_exact_signs(monkeypatch):
    # the float presort leaves the exact sort one cross sign per
    # neighbouring pair, and the walk over the runs one more: about 3 per
    # point kept; an exact sort from scratch takes about 10 (n log n)
    calls = 0
    sign = RadicalSum.sign

    def counted(self):
        nonlocal calls
        calls += 1
        return sign(self)

    monkeypatch.setattr(RadicalSum, "sign", counted)
    ps = geometric_oracle(None, 8)
    assert len(ps) == 522
    assert 0 < calls < 4 * len(ps)


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


def test_closed_form_shares_one_object_per_coordinate_value():
    # the writer and the float filters work once per object
    ps = closed_form(None, Fraction(23, 4))
    for column in (ps.xs, ps.ys):
        assert len({id(u) for u in column}) == len(set(column))


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
