from __future__ import annotations

import io
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoset.exact import (
    CsvRowError,
    FieldMismatchError,
    ParseError,
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    format_quadext,
    parse_quadext,
    point,
    read_pointset_csv,
    write_pointset_csv,
)

SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13]


def mp_value(u: QuadExt, dps: int = 60) -> mpmath.mpf:
    with mpmath.workdps(dps):
        return mpmath.mpf(u.a.numerator) / u.a.denominator + (
            mpmath.mpf(u.b.numerator) / u.b.denominator
        ) * mpmath.sqrt(u.d)


def test_add_embeds_rationals():
    assert QuadExt(1) + QuadExt(0, 1, 2) == QuadExt(1, 1, 2)


def test_mul_collapses_radical():
    r2 = QuadExt(0, 1, 2)
    assert r2 * r2 == QuadExt(2)
    assert (r2 * r2).is_rational


def test_mismatched_fields_raise():
    with pytest.raises(FieldMismatchError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    with pytest.raises(FieldMismatchError):
        QuadExt(0, 1, 2) * QuadExt(0, 1, 3)


def test_non_squarefree_radicand_reduces():
    assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
    assert QuadExt(0, 1, 4) == QuadExt(2)
    assert QuadExt(5, 3, 1) == QuadExt(8)


def test_quad_sign_examples():
    assert QuadExt(-1, 1, 2).sign() == 1
    assert QuadExt(1, -1, 2).sign() == -1
    assert QuadExt(0, 0, 2).sign() == 0
    assert QuadExt(-3, 2, 2).sign() == -1
    assert QuadExt(-2, Fraction(3, 2), 2).sign() == 1


def test_to_float_zero():
    value, err = QuadExt(0, 0, 2).to_float(53)
    assert value == 0.0
    assert err == 0.0


def test_to_float_sqrt2_shift():
    value, err = QuadExt(-1, 1, 2).to_float(53)
    assert abs(value - 0.41421356237309515) < 1e-15
    assert err <= 1e-15


RATIONAL_FLOAT_CASES = [
    0,
    1,
    -1,
    Fraction(1, 3),
    Fraction(-7, 10**30),
    2**53 + 1,
    10**20 + Fraction(1, 7),
]


def _count_to_float_calls(monkeypatch) -> list:
    calls = []
    original = QuadExt.to_float

    def spy(self, precision_bits=53):
        calls.append(self)
        return original(self, precision_bits)

    monkeypatch.setattr(QuadExt, "to_float", spy)
    return calls


@pytest.mark.parametrize("q", RATIONAL_FLOAT_CASES)
def test_float_of_rational_matches_to_float(q, monkeypatch):
    u = QuadExt(q)
    want = u.to_float()[0]
    calls = _count_to_float_calls(monkeypatch)
    got = float(u)
    assert got == want and type(got) is float
    assert calls == []  # rationals skip the error-bound machinery


def test_float_of_huge_rational_overflows_like_to_float():
    u = QuadExt(Fraction(10**400, 3))
    with pytest.raises(OverflowError):
        float(u)
    with pytest.raises(OverflowError):
        u.to_float()


def test_float_of_irrational_goes_through_to_float(monkeypatch):
    u = QuadExt(1, 1, 2)
    calls = _count_to_float_calls(monkeypatch)
    assert float(u) == u.to_float()[0]
    assert calls == [u, u]


def test_to_float_error_bound_contract():
    rng = random.Random(7)
    for _ in range(300):
        u = QuadExt(
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
            rng.choice(SQUAREFREE),
        )
        for bits in (24, 53, 113):
            mid, err = u.approx(bits)
            assert err <= Fraction(2) ** (1 - bits) * (1 + abs(mid))
            true = mp_value(u)
            assert abs(float(mid) - float(true)) <= float(err) + 1e-13 * (
                1 + abs(float(true))
            )


def test_sign_agrees_with_113_bit_floats():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(10_000):
        u = QuadExt(
            Fraction(rng.randint(-500, 500), rng.randint(1, 60)),
            Fraction(rng.randint(-500, 500), rng.randint(1, 60)),
            rng.choice(SQUAREFREE),
        )
        value, err = u.to_float(113)
        if abs(value) > err:
            want = 1 if value > 0 else -1
            assert u.sign() == want
            checked += 1
        else:
            assert u.sign() == 0
    assert checked > 9_000


def test_cancellation_keeps_error_bound_honest():
    # a nearly cancels b*sqrt(d); the bound must shrink with it.
    big = Fraction(10**6)
    u = QuadExt(-big * 14142135623730951 / 10**16, big, 2)
    mid, err = u.approx(53)
    assert err <= Fraction(2) ** -52 * (1 + abs(mid)) * 2


def test_format_examples():
    assert format_quadext(QuadExt(-1, 1, 2)) == "-1/1+1/1*sqrt(2)"
    assert format_quadext(QuadExt(2)) == "2"
    assert format_quadext(QuadExt(Fraction(-1, 2))) == "-1/2"
    assert format_quadext(QuadExt(0, 1, 2)) == "0/1+1/1*sqrt(2)"
    assert format_quadext(QuadExt(1, -1, 2)) == "1/1+-1/1*sqrt(2)"


def test_parse_accepts_short_forms():
    assert parse_quadext("3") == QuadExt(3)
    assert parse_quadext("-1/2") == QuadExt(Fraction(-1, 2))
    assert parse_quadext("sqrt(2)") == QuadExt(0, 1, 2)
    assert parse_quadext("-sqrt(3)") == QuadExt(0, -1, 3)
    assert parse_quadext("3/4*sqrt(5)") == QuadExt(0, Fraction(3, 4), 5)
    assert parse_quadext("1+sqrt(2)") == QuadExt(1, 1, 2)
    assert parse_quadext("1-sqrt(2)") == QuadExt(1, -1, 2)
    assert parse_quadext(" -1/1+1/1*sqrt(2) ") == QuadExt(-1, 1, 2)


def test_parse_rejects_garbage():
    for bad in ("", "sqrt()", "1++2", "sqrt(-2)", "one", "1/0"):
        with pytest.raises(ParseError):
            parse_quadext(bad)


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@st.composite
def quadexts(draw, d=None):
    dd = d if d is not None else draw(st.sampled_from(SQUAREFREE))
    return QuadExt(draw(rationals), draw(rationals), dd)


@given(quadexts())
@settings(max_examples=300, deadline=None)
def test_serialization_round_trip(u):
    assert parse_quadext(format_quadext(u)) == u


@given(quadexts(d=2), quadexts(d=2), quadexts(d=2))
@settings(max_examples=200, deadline=None)
def test_ring_axioms(u, v, w):
    assert u + v == v + u
    assert u * v == v * u
    assert (u + v) + w == u + (v + w)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + QuadExt(0) == u
    assert u * QuadExt(1) == u
    assert u + (-u) == QuadExt(0)


@given(quadexts())
@settings(max_examples=200, deadline=None)
def test_canonicalization_idempotent(u):
    again = QuadExt(u.a, u.b, u.d)
    assert again == u
    assert (again.a, again.b, again.d) == (u.a, u.b, u.d)


@given(quadexts(d=3))
@settings(max_examples=150, deadline=None)
def test_division_inverts_multiplication(u):
    v = QuadExt(2, 1, 3)
    assert (u * v) / v == u


def test_comparisons_are_exact():
    # 99/70 is a famous near-sqrt(2); the comparison must resolve exactly.
    assert QuadExt(Fraction(99, 70)) > QuadExt(0, 1, 2)
    assert QuadExt(Fraction(140, 99)) < QuadExt(0, 1, 2)
    assert QuadExt(0, 1, 2) < QuadExt(0, 1, 3)


def test_compare_error_names_the_operand_type():
    with pytest.raises(TypeError, match="<class 'float'>"):
        QuadExt(1).compare(1.5)


def test_floor():
    assert QuadExt(0, 1, 2).floor() == 1
    assert QuadExt(0, -1, 2).floor() == -2
    assert QuadExt(Fraction(7, 2)).floor() == 3
    assert QuadExt(Fraction(-7, 2)).floor() == -4
    assert QuadExt(5, 3, 2).floor() == 9  # 5 + 4.2426...


# -- RadicalSum ---------------------------------------------------------------


def test_radical_sum_zero_test_is_exact():
    s = RadicalSum.of(QuadExt(0, 1, 2), QuadExt(0, -1, 2))
    assert s.is_zero and s.sign() == 0
    t = RadicalSum.of(QuadExt(0, 1, 2), QuadExt(0, -1, 3))
    assert not t.is_zero
    assert t.sign() == -1


def test_radical_sum_close_call_resolves():
    # sqrt(2) + sqrt(3) vs a very good rational approximation of it.
    approx = Fraction(
        3146264369941972342329, 1000000000000000000000
    )
    s = RadicalSum.of(QuadExt(0, 1, 2), QuadExt(0, 1, 3)) - approx
    assert s.sign() != 0


def test_radical_sum_sign_is_never_zero_for_a_nonzero_sum():
    # (sqrt(3) - sqrt(2))**2501 = a*sqrt(3) + b*sqrt(2) with integers a, b
    # of about 1250 digits; its value, near 10**-1247, cancels far below
    # 4096 bits, yet distinct squarefree radicals make it nonzero.
    base = RadicalSum({3: Fraction(1), 2: Fraction(-1)})
    s, n = RadicalSum({1: Fraction(1)}), 2501
    while n:
        if n & 1:
            s = s * base
        base = base * base
        n >>= 1
    assert set(s.terms) == {2, 3}
    assert s.sign() == 1
    assert (-s).sign() == -1


def test_radical_sum_product_reduces_radicals():
    s = RadicalSum.of(QuadExt(0, 1, 2)) * RadicalSum.of(QuadExt(0, 1, 6))
    assert s == RadicalSum.of(QuadExt(0, 2, 3))


def test_radical_sum_matches_mpmath():
    rng = random.Random(3)
    for _ in range(100):
        terms = [
            QuadExt(
                Fraction(rng.randint(-9, 9)),
                Fraction(rng.randint(-9, 9)),
                rng.choice(SQUAREFREE),
            )
            for _ in range(3)
        ]
        s = RadicalSum.of(*terms)
        with mpmath.workdps(50):
            ref = sum(mp_value(t) for t in terms)
            got = s.sign()
            if abs(ref) > mpmath.mpf("1e-40"):
                assert got == (1 if ref > 0 else -1)
            else:
                assert got == 0


# -- points and point sets ------------------------------------------------------


def test_pointset_canonical_order_and_dedup():
    pts = [
        point(1, 0, "a"),
        point(0, 1, "b"),
        point(1, 0, "c"),
        point(-1, 2),
    ]
    ps = PointSet(pts)
    coords = [(int(p.x.a), int(p.y.a)) for p in ps]
    assert coords == [(-1, 2), (0, 1), (1, 0)]
    assert ps[2].tag == "a"  # smallest tag wins on duplicates
    assert len(ps) == 3


def test_pointset_dedup_is_value_exact():
    two_sqrt2 = QuadExt(0, 2, 2)
    # the double nearest 2*sqrt(2), as an exact rational: equal as floats,
    # different in value, so it must stay a point of its own
    near = QuadExt(Fraction(float(two_sqrt2)))
    assert float(near) == float(two_sqrt2) and near != two_sqrt2
    ps = PointSet(
        [
            point(1, 0, "b"),
            PlanarPoint(QuadExt(Fraction(2, 2)), QuadExt(0), "a"),
            PlanarPoint(two_sqrt2, QuadExt(1), "c"),
            PlanarPoint(QuadExt(0, 1, 8), QuadExt(1), "d"),
            PlanarPoint(near, QuadExt(1), "e"),
        ]
    )
    tags = {(p.x, p.y): p.tag for p in ps}  # smallest tag wins
    assert tags == {
        (QuadExt(1), QuadExt(0)): "a",
        (two_sqrt2, QuadExt(1)): "c",
        (near, QuadExt(1)): "e",
    }
    assert len(ps) == 3

    def row(x):
        return PointSet([PlanarPoint(x, QuadExt(1))])

    assert row(QuadExt(0, 1, 8)) == row(two_sqrt2) != row(near)


def test_pointset_mixed_fields_sort_exactly():
    t = PlanarPoint(QuadExt(-1, 1, 2), QuadExt(-1, 1, 3))
    ps = PointSet([point(1, 0), t, point(0, 0)])
    assert ps[0] == point(0, 0)
    assert ps[1] == t  # 0.414... sorts between 0 and 1
    assert ps[2] == point(1, 0)
    assert (ps.d_x, ps.d_y) == (2, 3)


def test_pointset_rejects_mixed_radicals_on_one_axis():
    with pytest.raises(FieldMismatchError):
        PointSet(
            [
                PlanarPoint(QuadExt(0, 1, 2), QuadExt(0)),
                PlanarPoint(QuadExt(0, 1, 3), QuadExt(0)),
            ]
        )


def _reference_coord_cmp(u: QuadExt, v: QuadExt) -> int:
    if u.a == v.a and u.b == v.b and u.d == v.d:
        return 0
    return RadicalSum.of(u, -v).sign()  # exact, with no float bracket


def _reference_points(pts) -> list[PlanarPoint]:
    """PointSet's canonical order and de-duplication, the plain way: a
    key sort of (numerator, numerator) or (Fraction, Fraction) pairs for
    integer or rational sets, an exact comparison sort otherwise, then
    componentwise equality of neighbours, keeping the smallest tag."""
    import functools

    def point_cmp(p, q):
        return _reference_coord_cmp(p.x, q.x) or _reference_coord_cmp(p.y, q.y)

    def tag_key(tag):
        return (1, "") if tag is None else (0, tag)

    def components(p):
        return (p.x.a, p.x.b, p.x.d, p.y.a, p.y.b, p.y.d)

    pts = list(pts)
    if all(p.x.b == 0 and p.y.b == 0 for p in pts):
        if all(p.x.a.denominator == 1 and p.y.a.denominator == 1 for p in pts):
            pts = sorted(pts, key=lambda p: (p.x.a.numerator, p.y.a.numerator))
        else:
            pts = sorted(pts, key=lambda p: (p.x.a, p.y.a))
    else:
        pts = sorted(pts, key=functools.cmp_to_key(point_cmp))
    out: list[PlanarPoint] = []
    for p in pts:
        if out and components(out[-1]) == components(p):
            if tag_key(p.tag) < tag_key(out[-1].tag):
                out[-1] = p
            continue
        out.append(p)
    return out


TINY = Fraction(1, 10**30)
HUGE = 10**400  # beyond the float range


def _fresh(u: QuadExt) -> QuadExt:
    """An equal value as a distinct object, with distinct components."""
    return QuadExt(Fraction(2 * u.a.numerator, 2 * u.a.denominator),
                   Fraction(2 * u.b.numerator, 2 * u.b.denominator), u.d)


def _integer_values(rng):
    return [QuadExt(rng.randint(-6, 6)) for _ in range(6)] + [QuadExt(HUGE)]


def _rational_values(rng):
    third = Fraction(1, 3)
    return [
        QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(6)
    ] + [QuadExt(third), QuadExt(third + TINY), QuadExt(2), QuadExt(HUGE + third)]


def _radical_values(d):
    def values(rng):
        r = QuadExt(1, 1, d)
        return [
            QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)), d)
            for _ in range(5)
        ] + [r, r + TINY, r - TINY, QuadExt(1), QuadExt(HUGE, 1, d),
             QuadExt(HUGE + TINY, 1, d), QuadExt(-HUGE)]
    return values


@pytest.mark.parametrize(
    "xs, ys",
    [
        (_integer_values, _integer_values),
        (_rational_values, _rational_values),
        (_radical_values(2), _radical_values(3)),
        (_radical_values(2), _rational_values),
    ],
    ids=["integer", "rational", "sqrt2-by-sqrt3", "sqrt2-by-rational"],
)
def test_pointset_matches_reference_on_shuffled_input(xs, ys):
    rng = random.Random(20141)
    for _ in range(20):
        xv, yv = xs(rng), ys(rng)
        pts = []
        for _ in range(60):
            x, y = rng.choice(xv), rng.choice(yv)
            if rng.random() < 0.3:  # an equal value as a distinct object
                x, y = _fresh(x), _fresh(y)
            pts.append(PlanarPoint(x, y, rng.choice([None, "a", "b", "c"])))
        rng.shuffle(pts)
        got = PointSet(pts).points
        want = _reference_points(pts)
        assert len(got) == len(want)
        # the very objects, so the kept duplicate and its tag agree too
        assert all(g is w for g, w in zip(got, want))


def _reference_csv(ps: PointSet) -> str:
    """One row per point, each cell formatted from scratch."""
    lines = ["x_exact,y_exact,x_float,y_float,tag"]
    for p in ps:
        lines.append(",".join((
            format_quadext(p.x), format_quadext(p.y),
            format(float(p.x), ".12g"), format(float(p.y), ".12g"),
            p.tag or "",
        )))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_per_row_reference():
    # the same (a, b) over sqrt(2) on one axis and sqrt(3) on the other,
    # equal values as distinct objects, values 1e-30 apart, shared objects
    rng = random.Random(7)
    third = Fraction(1, 3)
    common = [QuadExt(2), QuadExt(third), QuadExt(third + TINY), QuadExt(1)]
    xs = common + [QuadExt(1, 1, 2), QuadExt(1, 1, 2) + TINY]
    ys = common + [QuadExt(1, 1, 3), QuadExt(third, 1, 3)]
    pts = []
    for _ in range(200):
        x, y = rng.choice(xs), rng.choice(ys)
        if rng.random() < 0.5:
            x, y = _fresh(x), _fresh(y)
        pts.append(PlanarPoint(x, y, rng.choice([None, "UV"])))
    for ps in (
        PointSet(pts),
        PointSet(PlanarPoint(p.y, p.x, p.tag) for p in pts),
    ):
        buf = io.StringIO()
        write_pointset_csv(ps, buf)
        assert buf.getvalue() == _reference_csv(ps)


def test_pointset_membership_and_negation():
    ps = PointSet([point(1, 2), point(-1, -2), point(3, 0), point(-3, 0)])
    assert point(1, 2) in ps
    assert point(2, 1) not in ps
    assert ps.negate() == ps


def test_dist_sq_mixed_fields():
    p = PlanarPoint(QuadExt(0, 1, 2), QuadExt(0))
    q = PlanarPoint(QuadExt(0), QuadExt(0, 1, 3))
    d2 = p.dist_sq(q)
    assert d2 == RadicalSum.of(5)


def test_csv_round_trip():
    pts = PointSet(
        [
            point(2, 0),
            PlanarPoint(QuadExt(-1, 1, 2), QuadExt(-1, 1, 3), "UV"),
            point(Fraction(1, 3), Fraction(-1, 2), "UU"),
        ]
    )
    buf = io.StringIO()
    write_pointset_csv(pts, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "x_exact,y_exact,x_float,y_float,tag"
    assert "-1/1+1/1*sqrt(2)" in text
    back = read_pointset_csv(io.StringIO(text))
    assert back == pts
    assert [p.tag for p in back] == [p.tag for p in pts]


def test_csv_bad_rows_reported_with_line_numbers():
    text = "x_exact,y_exact,x_float,y_float,tag\n1,2,1,2,\nnope,3,0,3,\n4,alsobad,4,0,\n"
    with pytest.raises(CsvRowError) as ei:
        read_pointset_csv(io.StringIO(text))
    assert ei.value.lines == [3, 4]
