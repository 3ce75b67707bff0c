"""Every float-bracket filter agrees with the exact path it short-cuts.

The filters in ``double_cover._norm_le`` and
``diagnostics.growth_counts`` decide from the certified float brackets
of ``QuadExt.to_float`` and fall back to exact arithmetic near the
boundary.  ``QuadExt.compare`` and ``QuadExt.floor`` take no float: a
comparison is the sign of an integer difference and a floor one integer
square root, checked here against the exact sign and a second integer
formula.  ``oracles._strictly_between``, the segment test of the
reference oracle, takes no float either and is checked against a second
exact formula.  Each is compared with its exact reference on
random inputs and on inputs built to defeat a float: values 1e-30
apart, equal values built differently, offsets of 1e30, values beyond
the float range, values of subnormal size, values within 1e-20 of an
integer, points 1e-25 off a segment, and radii within 1e-30 of one- and
two-radical norms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from holoset.diagnostics import growth_counts
from holoset.double_cover import _norm_le
from holoset.exact import PointSet, QuadExt, point
from oracles import GeneralRadicalSum, _strictly_between, general_cross, general_dot

TINY = Fraction(1, 10**30)
HUGE = 10**400  # beyond the float range
SUBNORMAL = Fraction(1, 10**310)


def convergent_gaps(d: int, count: int) -> list[QuadExt]:
    """p - q*sqrt(d) for successive convergents p/q of sqrt(d): values
    that shrink towards 0 much faster than their float bracket does."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    out = []
    for _ in range(count):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append(QuadExt(p1, -q1, d))
    return out


GAPS = {d: convergent_gaps(d, 60) for d in (2, 3, 5)}


def random_rational(rng: random.Random, digits: int) -> Fraction:
    return Fraction(
        rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits)
    )


def random_quad(rng: random.Random, d: int, digits: int = 6) -> QuadExt:
    return QuadExt(random_rational(rng, digits), random_rational(rng, digits), d)


def near(u: QuadExt, delta: Fraction) -> QuadExt:
    """A rational within |delta| of u, on the side of delta's sign."""
    mid, err = GeneralRadicalSum.of(u).approx(200)
    return QuadExt(mid + (err if delta > 0 else -err) + delta)


# -- to_float ------------------------------------------------------------------


@pytest.mark.parametrize("bits", [24, 53, 113])
def test_to_float_is_float_with_bound_of_approx(bits):
    rng = random.Random(bits)
    for _ in range(10_000):
        u = QuadExt(
            random_rational(rng, 40),
            random_rational(rng, 40) if rng.random() < 0.9 else 0,
            rng.choice((1, 2, 3, 5, 8, 12, 9973)),
        )
        got, want = u.to_float(bits), GeneralRadicalSum.of(u).to_float(bits)
        assert [x.hex() for x in got] == [x.hex() for x in want], (u, bits)


def test_to_float_extremes_match_float_with_bound():
    values = [
        *GAPS[2],
        *(g * SUBNORMAL for g in GAPS[3][:10]),
        QuadExt(Fraction(3, 10**320)),
        QuadExt(0, Fraction(1, 10**330), 2),
        QuadExt(10**30, 1, 2),
        QuadExt(Fraction(10**308), 1, 7),
    ]
    for u in values:
        for bits in (24, 53, 113):
            got, want = u.to_float(bits), GeneralRadicalSum.of(u).to_float(bits)
            assert [x.hex() for x in got] == [x.hex() for x in want], u
    for u in (QuadExt(HUGE), QuadExt(HUGE, 1, 2), QuadExt(0, HUGE, 3)):
        with pytest.raises(OverflowError):
            u.to_float()
        with pytest.raises(OverflowError):
            GeneralRadicalSum.of(u).to_float(53)


# -- compare -------------------------------------------------------------------


def compare_cases() -> list[tuple]:
    rng = random.Random(11)
    cases = []
    for _ in range(300):
        d, e = rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 5))
        cases.append((random_quad(rng, d), random_quad(rng, e)))
    for d, gaps in GAPS.items():
        for g in gaps:
            cases += [
                (g, QuadExt(0)),  # float sign of g is unreliable
                (g, QuadExt(TINY)),
                (g, QuadExt(-TINY)),
                (g, near(g, TINY)),  # 1e-30 apart
                (g, near(g, -TINY)),
                (g + 1, near(g + 1, TINY)),
                (g, GAPS[5 if d != 5 else 2][len(cases) % 60]),  # fields mix
                (g + 10**30, near(g, TINY) + 10**30),  # offset 1e30
                (g + HUGE, near(g, TINY) + HUGE),  # beyond the float range
                (g + HUGE, QuadExt(-HUGE)),
                (g * SUBNORMAL, near(g, TINY) * SUBNORMAL),  # subnormal size
            ]
    # equal values built differently
    cases += [
        (QuadExt(1, 2, 8), QuadExt(1, 4, 2)),
        (QuadExt(Fraction(2, 4)), QuadExt(Fraction(1, 2))),
        (QuadExt(3, 0, 5), QuadExt(3)),
        (QuadExt(1, 1, 2) + QuadExt(0, 1, 2) - QuadExt(0, 1, 2), QuadExt(1, 1, 2)),
        (QuadExt(HUGE, 1, 2), QuadExt(0, 1, 2) + HUGE),
        (QuadExt(0, SUBNORMAL, 3), QuadExt(0, 1, 3) * SUBNORMAL),
    ]
    return cases


def test_compare_agrees_with_exact_sign():
    for u, v in compare_cases():
        want = GeneralRadicalSum.of(u, -v).sign()
        if u.d == v.d or u.d == 1 or v.d == 1:
            assert (u - v).sign() == want
        assert u.compare(v) == want, (u, v)
        assert v.compare(u) == -want, (u, v)


def test_compare_takes_ints():
    for g in GAPS[2]:
        assert g.compare(0) == GeneralRadicalSum.of(g).sign()


# -- floor ---------------------------------------------------------------------


def integer_floor(u: QuadExt) -> int:
    """floor(a + b*sqrt(d)) from integers alone: with a common denominator
    D, a + b*sqrt(d) = (P + Q*sqrt(d))/D, and floor(Q*sqrt(d)) is an isqrt."""
    D = u.a.denominator * u.b.denominator
    P = u.a.numerator * u.b.denominator
    Q = u.b.numerator * u.a.denominator
    r = isqrt(Q * Q * u.d)
    fq = r if Q >= 0 else -r - (r * r != Q * Q * u.d)
    return (P + fq) // D


def floor_cases() -> list[QuadExt]:
    rng = random.Random(5)
    cases = [random_quad(rng, rng.choice((2, 3, 5, 7))) for _ in range(500)]
    for gaps in GAPS.values():
        for g in gaps:  # the later ones lie within 1e-20 of an integer
            n = rng.randint(-(10**6), 10**6)
            cases += [g, -g, g + n, n - g, g + 10**30, g + HUGE, g * SUBNORMAL]
    return cases


def test_floor_agrees_with_exact_walk():
    for u in floor_cases():
        assert u.floor() == integer_floor(u), u
    assert any(abs(GeneralRadicalSum.of(g).approx(200)[0]) < Fraction(1, 10**20)
               for g in GAPS[2])


# -- _norm_le ------------------------------------------------------------------


def norm_le_cases() -> list[tuple]:
    rng = random.Random(3)
    tx, ty = QuadExt(-1, 1, 2), QuadExt(-1, 1, 3)
    pairs = []
    for _ in range(40):
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        pairs += [
            (a + tx, b + ty),  # two-radical norm
            (a + tx, QuadExt(b)),  # one-radical norm
            (QuadExt(a), QuadExt(b)),  # rational norm
            (a + tx + 10**30, b + ty),  # offset 1e30
            (a + tx + HUGE, b + ty),  # beyond the float range
            ((a + tx) * SUBNORMAL, (b + ty) * SUBNORMAL),  # subnormal size
        ]
    pairs += [(g, QuadExt(0)) for g in GAPS[2]]
    cases = []
    for x, y in pairs:
        n = GeneralRadicalSum.of(x * x, y * y)
        mid, err = n.approx(200)
        radii = [mid - err - TINY, mid + err + TINY, mid + 2 * err, mid - 2 * err]
        if len(n.terms) <= 1:
            radii.append(mid)  # a rational norm: the tie itself
        for R2 in radii:
            cases.append((x, y, R2))
        cases.append((x, y, random_rational(rng, 4) ** 2))
    return cases


def test_norm_le_agrees_with_exact_sign():
    for x, y, R2 in norm_le_cases():
        want = GeneralRadicalSum.of(x * x, y * y, -R2).sign() <= 0
        assert _norm_le(x, y, R2) == want, (x, y, R2)


# -- _strictly_between ---------------------------------------------------------


def exact_between(w, src, dst) -> bool:
    """A second exact formula for _strictly_between: w - src is parallel
    to dst - src and w lies past neither end."""
    (wx, wy), (sx, sy), (dx, dy) = w, src, dst
    if not general_cross((wx - sx, wy - sy), (dx - sx, dy - sy)).is_zero:
        return False
    if general_dot((wx - sx, wy - sy), (dx - sx, dy - sy)).sign() <= 0:
        return False
    return general_dot((wx - dx, wy - dy), (sx - dx, sy - dy)).sign() > 0


def between_cases() -> list[tuple]:
    rng = random.Random(17)
    cases = []
    ts = [Fraction(-1, 3), 0, Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), 1,
          Fraction(4, 3)]
    for _ in range(60):
        sx, sy = random_quad(rng, 2, 3), random_quad(rng, 3, 3)
        ux = QuadExt(random_rational(rng, 3), random_rational(rng, 3), 2)
        uy = QuadExt(random_rational(rng, 3), random_rational(rng, 3), 3)
        if not ux and not uy:
            continue
        k = rng.choice((3, Fraction(7, 5), 11))
        src, dst = (sx, sy), (sx + k * ux, sy + k * uy)
        for t in ts:
            w = (sx + t * k * ux, sy + t * k * uy)  # collinear
            for off in (0, 10**30, HUGE):
                shift = lambda p: (p[0] + off, p[1] + off)  # noqa: E731
                cases.append((shift(w), shift(src), shift(dst)))
            cases.append(((w[0], w[1] + Fraction(1, 10**25)), src, dst))  # near miss
            cases.append(((w[0] - Fraction(1, 10**25), w[1]), src, dst))
            cases.append(
                (tuple(c * SUBNORMAL for c in w), tuple(c * SUBNORMAL for c in src),
                 tuple(c * SUBNORMAL for c in dst))
            )
        cases.append(((random_quad(rng, 2, 3), random_quad(rng, 3, 3)), src, dst))
    return cases


def test_strictly_between_agrees_with_exact_test():
    hits = 0
    for w, src, dst in between_cases():
        want = exact_between(w, src, dst)
        hits += want
        assert _strictly_between(w, src, dst) == want, (w, src, dst)
    assert hits  # some triples do lie on their open segment


# -- growth_counts -------------------------------------------------------------


def test_growth_counts_agree_with_per_point_signs():
    tx, ty = QuadExt(-1, 1, 2), QuadExt(-1, 1, 3)
    pts = [point(a + tx, b + ty) for a in range(-4, 5) for b in range(-4, 5)]
    pts += [point(a + tx, QuadExt(b)) for a in range(-3, 3) for b in (-2, 5)]
    pts += [point(g, 0) for g in GAPS[2][:20]]
    small = Fraction(1, 10**160)
    pts += [
        point(tx + 10**30, ty),  # offset 1e30
        point(tx + HUGE, ty),  # beyond the float range
        point(tx * small, ty * small),  # a norm of subnormal size
        point(QuadExt(3), QuadExt(4)),  # a rational norm of 25
    ]
    ps = PointSet(pts)
    radii = {Fraction(5), Fraction(10**30), small, 2 * small}
    for p in ps.points[::7] + ps.points[-12:]:
        mid, err = p.norm_sq().approx(200)
        if mid > 10**300:
            continue  # r*r would be beyond the float range
        for r2 in (mid - err - TINY, mid + err + TINY):
            if r2 > 0:
                r = Fraction(isqrt(int(r2 * 2**400)), 2**200)  # r*r <= r2
                radii |= {r, r + Fraction(1, 2**200)}
    radii = sorted(r for r in radii if r > 0)
    growth = growth_counts(ps, radii)
    expected = [
        sum(GeneralRadicalSum.of(p.x * p.x, p.y * p.y, -r * r).sign() <= 0
            for p in ps.points)
        for r in radii
    ]
    assert [n for _, n in growth.counts] == expected
