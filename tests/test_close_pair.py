"""Tests for continued fractions, inhomogeneous approximation and the
close-pair construction."""

import json
import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from holoset.close_pair import (
    ClosePairResult,
    ConfigError,
    ContinuedFraction,
    Cylinder,
    IncompleteExpansionError,
    QuadIrrational,
    RatioRationalError,
    WidthPreconditionError,
    cf_expand,
    close_pair,
    convergents,
    inhom_approx,
    load_cylinder_pair,
)
from holoset.exact import FieldMismatchError, QuadExt

SQRT2 = QuadIrrational(0, 2, 1)
SQRT3 = QuadIrrational(0, 3, 1)
GOLDEN = QuadIrrational(1, 5, 2)


def mp_value(x: QuadIrrational):
    mpmath.mp.prec = 150
    return (x.P + mpmath.sqrt(x.D)) / x.Q


# -- QuadIrrational ------------------------------------------------------


def test_quad_irrational_validation():
    square = "^D must be positive and not a perfect square$"
    with pytest.raises(ValueError, match=square):
        QuadIrrational(0, 4, 1)
    with pytest.raises(ValueError, match=square):
        QuadIrrational(0, -2, 1)
    with pytest.raises(ValueError, match="^Q must be nonzero$"):
        QuadIrrational(1, 2, 0)


def test_quad_irrational_divisibility_normalization():
    x = QuadIrrational(1, 2, 3)
    assert (x.D - x.P * x.P) % x.Q == 0
    assert float(x) == pytest.approx((1 + 2 ** 0.5) / 3)


def test_quad_irrational_reduction():
    x = QuadIrrational(2, 8, 2)
    assert (x.P, x.D, x.Q) == (1, 2, 1)


def reduce_by_search(P, D, Q):
    """The reduction by trial of every divisor e of gcd(P, Q), largest
    first: the reference the one-gcd reduction must match."""
    if (D - P * P) % Q != 0:
        s = abs(Q)
        P, D, Q = P * s, D * s * s, Q * s
    g = math.gcd(P, Q)
    for e in range(g, 1, -1):
        if g % e == 0 and D % (e * e) == 0:
            if (D // (e * e) - (P // e) ** 2) % (Q // e) == 0:
                return P // e, D // (e * e), Q // e
    return P, D, Q


def test_quad_irrational_reduction_matches_the_divisor_search():
    rng = random.Random(7)
    for _ in range(2000):
        d = rng.choice([2, 3, 5, 6, 7, 10, 13])
        D = rng.randint(1, 30) ** 2 * d
        P, Q = rng.randint(-60, 60), rng.choice([-1, 1]) * rng.randint(1, 60)
        x = QuadIrrational(P, D, Q)
        assert (x.P, x.D, x.Q) == reduce_by_search(P, D, Q), (P, D, Q)
        assert x.d == d


def test_quad_irrational_keeps_the_field_radicand():
    # D = 1000000007**2 * 2 has no factorisation by trial division in
    # reasonable time, nor has gcd(P, Q) = 1000000007**2 a divisor search
    for q in (QuadExt(0, 1000000007, 2), QuadExt(0, Fraction(1, 1000000007), 2)):
        x = QuadIrrational.from_quadext(q)
        assert x.d == 2
        assert x.to_quadext() == q
    with pytest.raises(ValueError, match="^d must be the squarefree part of D$"):
        QuadIrrational(0, 8, 1, 3)


def test_quad_irrational_is_an_immutable_value():
    x = QuadIrrational(2, 8, 2)
    assert x == QuadIrrational(1, 2, 1) and hash(x) == hash(QuadIrrational(1, 2, 1))
    assert x != SQRT2 and SQRT2 != (0, 2, 1)
    for name in ("P", "D", "Q", "d", "R"):
        with pytest.raises(AttributeError):
            setattr(SQRT2, name, 1)


def test_from_quadext_round_trip():
    for q in (
        QuadExt(0, 1, 2),
        QuadExt(Fraction(1, 2), Fraction(1, 2), 5),
        QuadExt(3, -1, 2),
        QuadExt(Fraction(-2, 3), Fraction(5, 7), 11),
    ):
        x = QuadIrrational.from_quadext(q)
        assert x.to_quadext() == q
        assert (x.D - x.P * x.P) % x.Q == 0
    with pytest.raises(ValueError):
        QuadIrrational.from_quadext(QuadExt(Fraction(3, 4)))


def test_floor():
    assert SQRT2.floor() == 1
    assert GOLDEN.floor() == 1
    assert QuadIrrational.from_quadext(QuadExt(3, -1, 2)).floor() == 1
    assert QuadIrrational.from_quadext(QuadExt(0, -1, 2)).floor() == -2


# -- continued fractions -------------------------------------------------


def test_cf_expand_classics():
    assert cf_expand(SQRT2) == ContinuedFraction(1, (), (2,))
    assert cf_expand(GOLDEN) == ContinuedFraction(1, (), (1,))
    assert cf_expand(SQRT3) == ContinuedFraction(1, (), (1, 2))


def test_cf_expand_with_preperiod():
    x = QuadIrrational.from_quadext(QuadExt(3, -1, 2))
    assert cf_expand(x) == ContinuedFraction(1, (1, 1), (2,))


def test_cf_expand_budget():
    with pytest.raises(IncompleteExpansionError):
        cf_expand(SQRT3, max_terms=2)


def test_cf_validation():
    with pytest.raises(ValueError, match="^period must be nonempty$"):
        ContinuedFraction(1, (), ())
    after = "^partial quotients after a0 must be >= 1$"
    with pytest.raises(ValueError, match=after):
        ContinuedFraction(1, (0,), (2,))
    with pytest.raises(ValueError, match=after):
        ContinuedFraction(1, (), (3, -1))


def test_cf_is_an_immutable_value():
    cf = ContinuedFraction(1, (1, 1), (2,))
    assert cf == cf_expand(QuadIrrational.from_quadext(QuadExt(3, -1, 2)))
    assert hash(cf) == hash(ContinuedFraction(1, (1, 1), (2,)))
    assert cf != ContinuedFraction(1, (1,), (1, 2))
    assert repr(cf) == "ContinuedFraction(a0=1, preperiod=(1, 1), period=(2,))"
    for name in ("a0", "preperiod", "period", "terms_seen"):
        with pytest.raises(AttributeError):
            setattr(cf, name, ())


def test_convergents_sqrt2():
    cf = cf_expand(SQRT2)
    assert list(islice(convergents(cf), 4)) == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert next(convergents(cf)) == (1, 1)


def test_convergents_golden_fibonacci():
    cf = cf_expand(GOLDEN)
    cs = list(islice(convergents(cf), 7))
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert cs == [(fib[i + 1], fib[i]) for i in range(7)]


@pytest.mark.parametrize(
    "lam",
    [SQRT2, SQRT3, GOLDEN, QuadIrrational(1, 7, 3), QuadIrrational(-3, 19, 5)],
)
def test_convergent_quality(lam):
    lam_q = lam.to_quadext()
    cs = list(islice(convergents(cf_expand(lam)), 10))
    prev = None
    for i in range(9):
        p, q = cs[i]
        q_next = cs[i + 1][1]
        delta = lam_q * q - p
        # |lambda - p/q| < 1/(q * q_next), exactly
        assert (delta * delta * (q_next * q_next)).compare(1) < 0
        if prev is not None:
            assert (delta * delta).compare(prev) < 0
        prev = delta * delta


# -- inhomogeneous approximation -----------------------------------------


def exact_residual(lam: QuadIrrational, c, m: int, mp_: int) -> QuadExt:
    lam_q = lam.to_quadext()
    c_q = c if isinstance(c, QuadExt) else QuadExt(Fraction(c))
    return c_q + m - lam_q * mp_


def test_inhom_zero_offset():
    assert inhom_approx(SQRT2, 0, Fraction(1, 10 ** 12)) == (0, 0)


def test_inhom_sqrt2_half():
    eps = Fraction(1, 1000)
    m, mp_ = inhom_approx(SQRT2, Fraction(1, 2), eps)
    res = exact_residual(SQRT2, Fraction(1, 2), m, mp_)
    assert (res * res).compare(eps * eps) < 0


def test_inhom_brute_force_agrees():
    # an independent scan confirms pairs below 1e-3 exist at small height
    mpmath.mp.prec = 150
    lam = mp_value(SQRT2)
    best = min(
        abs(mpmath.fraction(1, 2) + mpmath.nint(lam * mp_ - 0.5) - lam * mp_)
        for mp_ in range(1, 5001)
    )
    assert best < 1e-3


def test_inhom_golden_third():
    eps = Fraction(1, 10 ** 6)
    m, mp_ = inhom_approx(GOLDEN, Fraction(1, 3), eps)
    res = exact_residual(GOLDEN, Fraction(1, 3), m, mp_)
    assert (res * res).compare(eps * eps) < 0
    mpmath.mp.prec = 113
    val = abs(mpmath.fraction(1, 3) + m - mp_ * mp_value(GOLDEN))
    assert val < 1e-6


def test_inhom_irrational_offset_same_field():
    c = QuadExt(-1, 1, 2)
    eps = Fraction(1, 10 ** 4)
    m, mp_ = inhom_approx(SQRT2, c, eps)
    res = exact_residual(SQRT2, c, m, mp_)
    assert (res * res).compare(eps * eps) < 0


def test_inhom_rejects_mixed_fields():
    with pytest.raises(FieldMismatchError):
        inhom_approx(SQRT2, QuadExt(0, 1, 3), Fraction(1, 100))


def test_inhom_validates_eps():
    with pytest.raises(ValueError):
        inhom_approx(SQRT2, Fraction(1, 2), 0)


def test_inhom_random_instances():
    rng = random.Random(20260819)
    mpmath.mp.prec = 113
    done = 0
    while done < 20:
        P = rng.randint(-9, 9)
        D = rng.randint(2, 120)
        Q = rng.randint(1, 9)
        try:
            lam = QuadIrrational(P, D, Q)
        except ValueError:
            continue
        c = Fraction(rng.randint(1, 999), 1000)
        eps = Fraction(1, 10 ** 4)
        m, mp_ = inhom_approx(lam, c, eps)
        res = exact_residual(lam, c, m, mp_)
        assert (res * res).compare(eps * eps) < 0
        c_mp = mpmath.fraction(c.numerator, c.denominator)
        assert abs(c_mp + m - mp_ * mp_value(lam)) < 1e-4
        done += 1


def test_inhom_greedy_step_lands_within_a_quarter_of_eps():
    """For the first convergent p/q with q >= 2/eps, |q*lambda - p| < 1/q
    <= eps/2, so the greedy residual c - j*(q*lambda - p) is at most half
    of that: 16*res**2 < eps**2, exactly, with c rational or in the field
    of lambda and eps from 1 down to 1e-15."""
    rng = random.Random(1414)
    done = 0
    while done < 1200:
        try:
            Q = rng.choice((-1, 1)) * rng.randint(1, 12)
            lam = QuadIrrational(rng.randint(-40, 40), rng.randint(2, 400), Q)
        except ValueError:
            continue
        c = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        if done % 2:
            c = QuadExt(c, Fraction(rng.randint(-999, 999), rng.randint(1, 999)), lam.d)
        eps = Fraction(rng.randint(1, 10), 10 ** rng.randint(1, 15))
        m, mp_ = inhom_approx(lam, c, eps)
        res = exact_residual(lam, c, m, mp_)
        assert (16 * res * res).compare(eps * eps) < 0, (lam, c, eps)
        done += 1


# -- cylinders ---------------------------------------------------------------------


UNIT = Cylinder((1, 0), (Fraction(1, 3), Fraction(1, 50)), Fraction(1, 50))
ROOT2 = Cylinder(
    (QuadExt(0, 1, 2), 0),
    (Fraction(1, 7), Fraction(1, 50)),
    Fraction(1, 50),
)


def test_cylinder_validation():
    with pytest.raises(
        ValueError, match="^crossing holonomy must span the width exactly once$"
    ):
        Cylinder((1, 0), (Fraction(1, 3), Fraction(1, 50)), Fraction(1, 49))
    with pytest.raises(ValueError, match="^width must be positive$"):
        Cylinder((1, 0), (Fraction(1, 3), Fraction(1, 50)), 0)
    with pytest.raises(ValueError, match="^circumference must be nonzero$"):
        Cylinder((0, 0), (1, 1), 1)


def test_cylinder_is_an_immutable_value():
    again = Cylinder(
        circumference=(1, 0), crossing=("1/3", "1/50"), width="0.02"
    )
    assert again == UNIT and hash(again) == hash(UNIT)
    assert again.crossing == (QuadExt(Fraction(1, 3)), QuadExt(Fraction(1, 50)))
    assert UNIT != ROOT2
    assert repr(UNIT).startswith("Cylinder(circumference=(QuadExt(")
    for name in ("circumference", "crossing", "width", "area"):
        with pytest.raises(AttributeError):
            setattr(UNIT, name, 1)
    res = close_pair(UNIT, ROOT2, Fraction(1, 5))
    for name in ("n0", "n0p", "v1", "v2", "dist", "dist_err"):
        with pytest.raises(AttributeError):
            setattr(res, name, 1)


def test_cylinder_accepts_consistent_data():
    assert UNIT.width == Fraction(1, 50)
    assert ROOT2.circumference[0] == QuadExt(0, 1, 2)


# -- close_pair ----------------------------------------------------------


def on_orbit(v, h, n, l) -> bool:
    return v[0] - h[0] == n * l[0] and v[1] - h[1] == n * l[1]


def test_close_pair_worked_example():
    res = close_pair(UNIT, ROOT2, Fraction(1, 5))
    assert isinstance(res, ClosePairResult)
    assert res.dist < 0.2
    assert res.dist_err < 1e-12
    assert on_orbit(res.v1, UNIT.crossing, res.n0, UNIT.circumference)
    assert on_orbit(res.v2, ROOT2.crossing, res.n0p, ROOT2.circumference)


def test_close_pair_rejects_rational_ratio():
    other = Cylinder((1, 0), (Fraction(1, 7), Fraction(1, 50)), Fraction(1, 50))
    with pytest.raises(RatioRationalError):
        close_pair(UNIT, other, Fraction(1, 5))
    with pytest.raises(RatioRationalError):
        close_pair(UNIT, UNIT, Fraction(1, 5))


def test_close_pair_rejects_nonparallel():
    vert = Cylinder((0, 1), (Fraction(1, 50), Fraction(1, 3)), Fraction(1, 50))
    with pytest.raises(ValueError):
        close_pair(UNIT, vert, Fraction(1, 5))


def test_close_pair_width_precondition():
    wide = Cylinder((1, 0), (Fraction(1, 3), Fraction(1, 2)), Fraction(1, 2))
    wide2 = Cylinder(
        (QuadExt(0, 1, 2), 0),
        (Fraction(1, 7), Fraction(-1, 2)),
        Fraction(1, 2),
    )
    with pytest.raises(WidthPreconditionError):
        close_pair(wide, wide2, Fraction(1, 5))


def golden_cylinders(width=Fraction(1, 100)):
    ci = Cylinder((1, 0), (Fraction(1, 3), width), width)
    cj = Cylinder(
        (QuadExt(Fraction(1, 2), Fraction(1, 2), 5), 0),
        (Fraction(1, 7), width),
        width,
    )
    return ci, cj


def test_close_pair_golden_shrinking_r():
    ci, cj = golden_cylinders()
    dists = []
    for r in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        res = close_pair(ci, cj, r)
        assert res.dist < float(r)
        assert on_orbit(res.v1, ci.crossing, res.n0, ci.circumference)
        assert on_orbit(res.v2, cj.crossing, res.n0p, cj.circumference)
        dists.append(res.dist)
    assert dists[1] < dists[0] and dists[2] < dists[1]


def test_close_pair_antiparallel():
    cj = Cylinder(
        (QuadExt(0, -1, 2), 0),
        (Fraction(1, 7), Fraction(1, 50)),
        Fraction(1, 50),
    )
    res = close_pair(UNIT, cj, Fraction(1, 5))
    assert res.dist < 0.2
    assert on_orbit(res.v2, cj.crossing, res.n0p, cj.circumference)


def test_close_pair_distance_is_verified():
    res = close_pair(UNIT, ROOT2, Fraction(1, 5))
    mpmath.mp.prec = 113
    v1x = mpmath.mpf(res.n0) + mpmath.fraction(1, 3)
    v2x = mpmath.fraction(1, 7) + res.n0p * mpmath.sqrt(2)
    true = abs(v1x - v2x)
    assert abs(true - res.dist) <= res.dist_err + mpmath.mpf(2) ** -100


# -- configuration loading -----------------------------------------------


CONFIG = {
    "l": ["1", "0"],
    "h": ["1/3", "1/50"],
    "w": "1/50",
    "l_prime": ["sqrt(2)", "0"],
    "h_prime": ["1/7", "1/50"],
    "w_prime": "0.02",
}


def test_load_cylinder_pair_dict():
    ci, cj = load_cylinder_pair(CONFIG)
    assert ci.width == Fraction(1, 50)
    assert cj.width == Fraction(1, 50)
    assert cj.circumference[0] == QuadExt(0, 1, 2)
    res = close_pair(ci, cj, Fraction(1, 5))
    assert res.dist < 0.2


def test_load_cylinder_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(CONFIG))
    ci, cj = load_cylinder_pair(str(path))
    assert ci.crossing[0] == Fraction(1, 3)


def test_load_cylinder_pair_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_cylinder_pair([1, 2])
    bad = dict(CONFIG)
    del bad["w"]
    with pytest.raises(ConfigError):
        load_cylinder_pair(bad)
    bad = dict(CONFIG)
    bad["h"] = ["1/3", "nonsense"]
    with pytest.raises(ConfigError):
        load_cylinder_pair(bad)
    bad = dict(CONFIG)
    bad["w"] = "1/49"
    with pytest.raises(ConfigError):
        load_cylinder_pair(bad)
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_cylinder_pair(str(path))
