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
    RatioRationalError,
    WidthPreconditionError,
    cf_expand,
    close_pair,
    convergents,
    inhom_approx,
    load_cylinder_pair,
)
from holoset import exact
from holoset.exact import FieldMismatchError, QuadExt

SQRT2 = QuadExt(0, 1, 2)
SQRT3 = QuadExt(0, 1, 3)
GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)


def mp_value(x: QuadExt):
    mpmath.mp.prec = 150
    return (x.A + x.B * mpmath.sqrt(x.d)) / x.q


def test_floor():
    assert SQRT2.floor() == 1
    assert GOLDEN.floor() == 1
    assert QuadExt(3, -1, 2).floor() == 1
    assert QuadExt(0, -1, 2).floor() == -2


# -- continued fractions -------------------------------------------------


def test_cf_expand_classics():
    assert cf_expand(SQRT2) == ContinuedFraction(1, (), (2,))
    assert cf_expand(GOLDEN) == ContinuedFraction(1, (), (1,))
    assert cf_expand(SQRT3) == ContinuedFraction(1, (), (1, 2))


def test_cf_expand_with_preperiod():
    assert cf_expand(QuadExt(3, -1, 2)) == ContinuedFraction(1, (1, 1), (2,))


def test_cf_expand_budget():
    with pytest.raises(IncompleteExpansionError):
        cf_expand(SQRT3, max_terms=2)


def complete_quotients(x: QuadExt, n: int) -> list[QuadExt]:
    """x_0 = x and x_{i+1} = 1/(x_i - floor(x_i)), by exact field
    arithmetic: the reference the (P, Q) recurrence must match."""
    xs = [x]
    for _ in range(n - 1):
        xs.append((xs[-1] - xs[-1].floor()).inverse())
    return xs


def test_cf_expand_matches_the_exact_iteration():
    """Through a0, the preperiod and two periods, the quotients are the
    floors of the complete quotients; the period is the least one and
    starts no later than it must.  (P + sqrt(D))/Q with Q < 0 has B < 0,
    and D = f*f*d puts a square factor in the radicand."""
    rng = random.Random(1618)
    negative = square = 0
    for _ in range(2000):
        f = rng.randint(1, 6)
        D = f * f * rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        P, Q = rng.randint(-50, 50), rng.choice((-1, 1)) * rng.randint(1, 50)
        x = QuadExt(Fraction(P, Q), Fraction(1, Q), D)
        negative += x.B < 0
        square += f > 1
        cf = cf_expand(x)
        k, p = 1 + len(cf.preperiod), len(cf.period)
        xs = complete_quotients(x, k + 2 * p)
        assert list(islice(cf.terms(), k + 2 * p)) == [v.floor() for v in xs], x
        assert xs[k] == xs[k + p] and len(set(xs[k : k + p])) == p, x
        assert not cf.preperiod or xs[k - 1] != xs[k - 1 + p], x
    assert negative > 500 and square > 500


def test_cf_expand_rejects_a_rational():
    for x in (QuadExt(Fraction(3, 4)), QuadExt(0, 1, 4)):
        with pytest.raises(ValueError, match="^value is rational$"):
            cf_expand(x)


def test_cf_expand_never_factors_the_radicand(monkeypatch):
    # D = 1000000007**2 * 2 has no factorisation by trial division in
    # reasonable time; the expansion takes B and d as they are stored
    xs = (QuadExt(0, 1000000007, 2), QuadExt(0, Fraction(1, 1000000007), 2))

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(exact, "squarefree_split", refuse)
    for x in xs:
        with pytest.raises(IncompleteExpansionError):
            cf_expand(x, max_terms=50)


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
    assert cf == cf_expand(QuadExt(3, -1, 2))
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
    [
        SQRT2,
        SQRT3,
        GOLDEN,
        QuadExt(Fraction(1, 3), Fraction(1, 3), 7),
        QuadExt(Fraction(-3, 5), Fraction(1, 5), 19),
    ],
)
def test_convergent_quality(lam):
    cs = list(islice(convergents(cf_expand(lam)), 10))
    prev = None
    for i in range(9):
        p, q = cs[i]
        q_next = cs[i + 1][1]
        delta = lam * q - p
        # |lambda - p/q| < 1/(q * q_next), exactly
        assert (delta * delta * (q_next * q_next)).compare(1) < 0
        if prev is not None:
            assert (delta * delta).compare(prev) < 0
        prev = delta * delta


# -- inhomogeneous approximation -----------------------------------------


def exact_residual(lam: QuadExt, c, m: int, mp_: int) -> QuadExt:
    c_q = c if isinstance(c, QuadExt) else QuadExt(Fraction(c))
    return c_q + m - lam * mp_


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
        if math.isqrt(D) ** 2 == D:
            continue
        lam = QuadExt(Fraction(P, Q), Fraction(1, Q), D)
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
        Q = rng.choice((-1, 1)) * rng.randint(1, 12)
        P, D = rng.randint(-40, 40), rng.randint(2, 400)
        if math.isqrt(D) ** 2 == D:
            continue
        lam = QuadExt(Fraction(P, Q), Fraction(1, Q), D)
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


def _write_config(tmp_path, config) -> str:
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_load_cylinder_pair_dict(tmp_path):
    ci, cj = load_cylinder_pair(_write_config(tmp_path, CONFIG))
    assert ci.width == Fraction(1, 50)
    assert cj.width == Fraction(1, 50)
    assert cj.circumference[0] == QuadExt(0, 1, 2)
    res = close_pair(ci, cj, Fraction(1, 5))
    assert res.dist < 0.2


def test_load_cylinder_pair_file(tmp_path):
    ci, cj = load_cylinder_pair(_write_config(tmp_path, CONFIG))
    assert ci.crossing[0] == Fraction(1, 3)


def test_load_cylinder_pair_reads_a_path_object(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(CONFIG))
    ci, cj = load_cylinder_pair(path)
    assert (ci.crossing[0], cj.circumference[0]) == (Fraction(1, 3), QuadExt(0, 1, 2))


def test_load_cylinder_pair_errors(tmp_path):
    def load(config):
        return load_cylinder_pair(_write_config(tmp_path, config))

    with pytest.raises(ConfigError, match="^configuration must be a JSON object$"):
        load([1, 2])
    bad = dict(CONFIG)
    del bad["w"]
    with pytest.raises(ConfigError):
        load(bad)
    bad = dict(CONFIG)
    bad["h"] = ["1/3", "nonsense"]
    with pytest.raises(ConfigError):
        load(bad)
    # a vector is a JSON array of two entries, not any iterable of two
    for vec in ("10", {"1": 0, "0": 1}, ["1"], ["1", "0", "0"], None):
        bad = dict(CONFIG, l=vec)
        with pytest.raises(ConfigError, match="^missing or malformed vector 'l'$"):
            load(bad)
    bad = dict(CONFIG)
    bad["w"] = "1/49"
    with pytest.raises(ConfigError):
        load(bad)
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_cylinder_pair(str(path))
