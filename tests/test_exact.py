from __future__ import annotations

import csv
import io
import math
import random
import re
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoset.close_pair import Cylinder, close_pair, inhom_approx
from holoset.coprime import crt_hole, gcd_filtered_points
from holoset.diagnostics import covering_radius
from holoset.double_cover import closed_form, geometric_oracle
import holoset.exact as exact
from holoset.exact import (
    MAX_RADICAND,
    CsvRowError,
    FieldMismatchError,
    ParseError,
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    cross,
    dot,
    floor_surd,
    format_quadext,
    parse_quadext,
    point,
    read_pointset_csv,
    squarefree_split,
    write_pointset_csv,
)
from holoset.origami import Origami, enumerate_holonomies
from oracles import GeneralRadicalSum, general_cross, general_dot

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
    with pytest.raises(FieldMismatchError, match=r"sqrt\(2\) with sqrt\(3\)"):
        QuadExt(0, 1, 2) / QuadExt(0, 1, 3)


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
    value, err = QuadExt(0, 0, 2).to_float()
    assert value == 0.0
    assert err == 0.0


def test_to_float_sqrt2_shift():
    value, err = QuadExt(-1, 1, 2).to_float()
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

    def spy(self):
        calls.append(self)
        return original(self)

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
            mid, err = RadicalSum.of(u).approx(bits)
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
        value, err = GeneralRadicalSum.of(u).to_float(113)
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
    mid, err = RadicalSum.of(u).approx(53)
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


def test_parse_bounds_the_radicand():
    # trial division would not finish on radicands like 2**61 - 1
    assert parse_quadext(f"sqrt({MAX_RADICAND})") == QuadExt(0, 1000, 1)
    assert parse_quadext("1+2*sqrt(999983)") == QuadExt(1, 2, 999983)
    for bad in (
        f"sqrt({MAX_RADICAND + 1})",
        "sqrt(2305843009213693951)",
        "1/2-3*sqrt(2305843009213693951)",
    ):
        with pytest.raises(ParseError, match=re.escape(repr(bad))):
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


def test_floor_surd_matches_mpmath():
    for D in (2, 3, 5, 8, 12, 9997):
        s = isqrt(D)
        for P in range(-25, 26, 7):
            for Q in (-11, -3, -1, 1, 2, 13):
                with mpmath.workdps(40):
                    want = int(mpmath.floor((P + mpmath.sqrt(D)) / Q))
                assert floor_surd(P, s, Q) == want, (P, D, Q)


def test_floor_takes_integers_only(monkeypatch):
    rng = random.Random(11)
    cases = [
        QuadExt(
            Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**4)),
            Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**4)),
            rng.choice(SQUAREFREE),
        )
        for _ in range(300)
    ]
    want = []
    for u in cases:
        with mpmath.workdps(80):
            want.append(int(mpmath.floor(mp_value(u, 80))))

    def refuse(*args, **kwargs):
        raise AssertionError("floor left integer arithmetic")

    for name in ("to_float", "sign", "__init__"):
        monkeypatch.setattr(QuadExt, name, refuse)
    assert [u.floor() for u in cases] == want


def test_compare_and_sort_take_integers_only(monkeypatch):
    """Comparisons within one field, or against a rational, and the
    PointSet sort and membership of freshly built points decide from the
    integers (A + B*sqrt(d))/q: no float bracket and no RadicalSum."""
    rng = random.Random(14)

    def rat(digits: int) -> Fraction:
        return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**4))

    pairs = []
    for _ in range(200):
        d = rng.choice(SQUAREFREE[1:])
        u, v = QuadExt(rat(9), rat(9), d), QuadExt(rat(9), rat(9), d)
        r = QuadExt(rat(9))
        pairs += [(u, v), (u, r), (r, u), (r, QuadExt(rat(9)))]
        pairs += [(u, QuadExt(u.a, u.b, d))]
        pairs += [(u, u + Fraction(1, 10**30)), (u, u - Fraction(1, 10**30))]
    g = QuadExt(1)
    for _ in range(80):  # (1 - sqrt(2))**n, down to within 1e-30 of 0
        g = g * QuadExt(1, -1, 2)
        pairs += [(g, QuadExt(0)), (g, -g), (g + 1, QuadExt(1))]
    want = [
        ref_sign((u.a, 1), (u.b, u.d), (-v.a, 1), (-v.b, v.d)) for u, v in pairs
    ]
    ps = closed_form(None, Fraction(41, 10))
    fresh = [  # new coordinate objects, as the CSV reader builds them
        PlanarPoint(parse_quadext(str(p.x)), parse_quadext(str(p.y)), p.tag)
        for p in ps
    ]
    rng.shuffle(fresh)

    def refuse(*args, **kwargs):
        raise AssertionError("comparison left integer arithmetic")

    monkeypatch.setattr(QuadExt, "to_float", refuse)
    monkeypatch.setattr(exact, "_surd_float", refuse)
    monkeypatch.setattr(RadicalSum, "approx", refuse)
    monkeypatch.setattr(RadicalSum, "sign", refuse)
    assert [u.compare(v) for u, v in pairs] == want
    assert [v.compare(u) for u, v in pairs] == [-w for w in want]
    built = PointSet(fresh)
    assert [(p.x, p.y, p.tag) for p in built] == [(p.x, p.y, p.tag) for p in ps]
    assert all(p in built for p in fresh)
    assert not any(PlanarPoint(p.x + Fraction(1, 2), p.y) in built for p in fresh)


# -- integer representation ------------------------------------------------------


def ref_sign(*terms: tuple[Fraction, int]) -> int:
    """Sign of the sum of c*sqrt(d) over the terms (c, d), d squarefree:
    like terms merged, then rational brackets of each sqrt(d) refined until
    the sum's bracket excludes 0, which happens unless every merged
    coefficient is 0 (distinct squarefree radicals are independent)."""
    merged: dict[int, Fraction] = {}
    for c, d in terms:
        merged[d] = merged.get(d, Fraction(0)) + c
    if not any(merged.values()):
        return 0
    bits = 16
    while True:
        lo = hi = Fraction(0)
        for d, c in merged.items():
            r = isqrt(d << (2 * bits))
            inexact = r * r != d << (2 * bits)
            ends = [c * Fraction(r + k, 1 << bits) for k in (0, inexact)]
            lo, hi = lo + min(ends), hi + max(ends)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2


def ref_floor(a: Fraction, b: Fraction, d: int) -> int:
    """floor(a + b*sqrt(d)) by stepping an estimate with ref_sign."""
    n = math.floor(a + b * Fraction(isqrt(d * 10**40), 10**20))
    while ref_sign((a - n, 1), (b, d)) < 0:
        n -= 1
    while ref_sign((a - n - 1, 1), (b, d)) >= 0:
        n += 1
    return n


def random_parts(rng: random.Random) -> tuple[Fraction, Fraction]:
    def rat():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
    return rat(), rat() if rng.random() < 0.85 else Fraction(0)


def test_integers_are_canonical():
    rng = random.Random(2)
    for _ in range(500):
        a, b = random_parts(rng)
        d = rng.choice(SQUAREFREE)
        u = QuadExt(a, b, d)
        assert u.q > 0 and math.gcd(u.A, u.B, u.q) == 1
        assert (u.a, u.b) == ((a, b) if d > 1 or b == 0 else (a + b, 0))
        assert (u.B == 0) == (u.d == 1)
        assert (u.A, u.B, u.q) == (
            (u.a * u.q).numerator, (u.b * u.q).numerator, u.q
        )


def test_ring_operations_match_fraction_reference():
    rng = random.Random(3)
    for _ in range(400):
        d = rng.choice(SQUAREFREE[1:])
        (a1, b1), (a2, b2) = random_parts(rng), random_parts(rng)
        u, v = QuadExt(a1, b1, d), QuadExt(a2, b2, d)
        k = rng.randint(-50, 50)
        for got, want in (
            (u + v, (a1 + a2, b1 + b2)),
            (u - v, (a1 - a2, b1 - b2)),
            (u * v, (a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1)),
            (-u, (-a1, -b1)),
            (u + k, (a1 + k, b1)),
            (k - u, (k - a1, -b1)),
            (u * a2, (a1 * a2, b1 * a2)),
        ):
            assert (got.a, got.b) == want
            assert got.d == (d if want[1] else 1)
        if a2 or b2:
            n = a2 * a2 - b2 * b2 * d
            w = u / v
            assert (w.a, w.b) == (
                (a1 * a2 - b1 * b2 * d) / n, (b1 * a2 - a1 * b2) / n
            )


def test_sign_compare_floor_match_fraction_reference():
    rng = random.Random(4)
    cases = []
    for _ in range(400):
        d, e = rng.choice(SQUAREFREE), rng.choice(SQUAREFREE)
        (a1, b1), (a2, b2) = random_parts(rng), random_parts(rng)
        cases.append(((a1, b1, d), (a2, b2, e)))
    for g in (QuadExt(p, -q, 2) for p, q in ((99, 70), (577, 408), (3363, 2378))):
        cases.append(((g.a, g.b, 2), (Fraction(0), Fraction(0), 1)))
    cases += [(x, x) for x, _ in cases[:20]]
    for (a1, b1, d), (a2, b2, e) in cases:
        u, v = QuadExt(a1, b1, d), QuadExt(a2, b2, e)
        assert u.sign() == ref_sign((u.a, 1), (u.b, u.d))
        assert u.floor() == ref_floor(u.a, u.b, u.d)
        want = ref_sign((u.a, 1), (u.b, u.d), (-v.a, 1), (-v.b, v.d))
        assert u.compare(v) == want and v.compare(u) == -want
        assert (u == v) == (want == 0)


@pytest.mark.parametrize(
    "r", [0, 1, -7, 2**70, -(3**50), Fraction(1, 3), Fraction(-22, 7),
          Fraction(2**80 + 1, 2**64)],
)
def test_rationals_equal_and_hash_as_themselves(r):
    u = QuadExt(r)
    assert u == r and r == u
    assert hash(u) == hash(r) == hash(Fraction(r))
    assert u.is_rational and u.d == 1
    assert {u: 1}[r] == 1 and {r: 1}[u] == 1


def test_parse_non_reduced_tokens_match_fraction_parser():
    for text, a, b, d in (
        ("2/4+6/8*sqrt(12)", "2/4", "6/8", 12),
        ("-10/20-9/6*sqrt(8)", "-10/20", "-9/6", 8),
        ("4/6*sqrt(18)", "0", "4/6", 18),
        ("-sqrt(50)", "0", "-1", 50),
        ("3/9+0/5*sqrt(7)", "3/9", "0", 7),
        ("1/2+3/2*sqrt(4)", "1/2", "3/2", 4),
        ("-0/7", "-0/7", "0", 1),
        ("14/-1", None, None, None),
    ):
        if a is None:
            with pytest.raises(ParseError):
                parse_quadext(text)
            continue
        u = parse_quadext(text)
        assert u == QuadExt(Fraction(a), Fraction(b), d), text
        assert parse_quadext(format_quadext(u)) == u


def test_to_float_keeps_only_its_53_bit_irrational_bracket():
    rng = random.Random(6)
    for _ in range(200):
        a, b = random_parts(rng)
        u = QuadExt(a, b, rng.choice(SQUAREFREE))
        fresh = GeneralRadicalSum.of(u).to_float(53)
        assert u._fb is None
        got = u.to_float()
        assert [x.hex() for x in got] == [x.hex() for x in fresh]
        # a rational takes A/q again each time; nothing is kept
        assert (u._fb is got) == (not u.is_rational)
        assert u.to_float() == got and float(u) == got[0]
    u = QuadExt(1, 1, 2)
    object.__setattr__(u, "_fb", (1.0, 0.5))  # the slot is what to_float reads
    assert u.to_float() == (1.0, 0.5) and float(u) == 1.0


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
    # 4096 bits, yet distinct squarefree radicals make it nonzero: the
    # integer sign and the reference's doubling precision both find it
    for cls, base in (
        (RadicalSum, RadicalSum.of(QuadExt(0, 1, 3), QuadExt(0, -1, 2))),
        (GeneralRadicalSum, GeneralRadicalSum({3: Fraction(1), 2: Fraction(-1)})),
    ):
        s, n = cls.of(1), 2501
        while n:
            if n & 1:
                s = s * base
            base = base * base
            n >>= 1
        assert set(s.terms) == {2, 3}
        assert s.sign() == 1
        assert (s * -1).sign() == -1


def test_radical_sum_product_reduces_radicals():
    s = RadicalSum.of(QuadExt(0, 1, 2)) * RadicalSum.of(QuadExt(0, 1, 6))
    assert s == RadicalSum.of(QuadExt(0, 2, 3))


def test_radical_sum_keeps_reducing_given_radicands():
    assert GeneralRadicalSum({8: 1}).terms == {2: Fraction(2)}
    assert GeneralRadicalSum({8: 1, 2: -2}).is_zero


def test_radical_sum_products_are_not_factored_again():
    # products of four primes near 10**6: factoring them by trial division
    # would take a noticeable fraction of a second
    squarefree_split.cache_clear()
    u = (QuadExt(0, 1, 999983), QuadExt(0, 1, 999979))
    v = (QuadExt(0, 1, 999961), QuadExt(0, 1, 999959))
    misses = squarefree_split.cache_info().misses
    s = dot(u, v)
    assert squarefree_split.cache_info().misses == misses
    assert s.terms == {999983 * 999961: 1, 999979 * 999959: 1}


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
        s = GeneralRadicalSum.of(*terms)
        with mpmath.workdps(50):
            ref = sum(mp_value(t) for t in terms)
            got = s.sign()
            if abs(ref) > mpmath.mpf("1e-40"):
                assert got == (1 if ref > 0 else -1)
            else:
                assert got == 0


# field pairs (d, e) of the two axes; (2, 6) and (6, 10) share a factor, and
# (2, 2), (3, 1) and (1, 1) give one field or none
FIELD_PAIRS = [(2, 3), (5, 7), (2, 6), (3, 5), (6, 10), (2, 2), (3, 1), (1, 1)]


def biquadratic_vectors(rng: random.Random, count: int):
    """Pairs of vectors with x in Q(sqrt(d)) and y in Q(sqrt(e)): every
    other pair parallel, so that its cross product is exactly 0."""

    def coord(d: int) -> QuadExt:
        return QuadExt(Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 6)), d)

    for i in range(count):
        d, e = FIELD_PAIRS[i % len(FIELD_PAIRS)]
        u = (coord(d), coord(e))
        if i % 2 == 0:
            k = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            yield u, (u[0] * k, u[1] * k)
        else:
            yield u, (coord(d), coord(e))


def test_radical_sum_sign_agrees_with_general_sum():
    values = zeros = 0
    for u, v in biquadratic_vectors(random.Random(24), 10_000):
        for got, want in ((cross(u, v), general_cross(u, v)),
                          (dot(u, v), general_dot(u, v))):
            assert got.sign() == want.sign(), (u, v)
            assert got.terms == want.terms and got.is_zero == want.is_zero
            values += 1
            zeros += want.is_zero
    assert values == 20_000 and zeros >= values // 4


def test_radical_sum_approx_is_the_general_sums():
    for u, v in biquadratic_vectors(random.Random(25), 400):
        got, want = cross(u, v), general_cross(u, v)
        for bits in (53, 64, 120, 200):
            assert got.approx(bits) == want.approx(bits), (u, v, bits)


def test_radical_sum_equality_is_by_value():
    r2, r3, r6 = QuadExt(0, 1, 2), QuadExt(0, 1, 3), QuadExt(0, 1, 6)
    # sqrt(2) + sqrt(6) from the fields (2, 3) and (2, 6)
    a = RadicalSum.of(r2, r3, r6) - RadicalSum.of(r3)
    b = RadicalSum.of(r2, r6)
    assert a == b and hash(a) == hash(b) and a.terms == {2: 1, 6: 1}
    # a lone sqrt(2)*sqrt(3) is the QuadExt sqrt(6)
    c = cross((r2, 0), (0, r3))
    assert c.to_quadext() == r6 and c == RadicalSum.of(r6)
    assert RadicalSum.of(r2, -r2, Fraction(1, 2)).to_quadext() == Fraction(1, 2)
    with pytest.raises(ValueError):
        b.to_quadext()


def test_radical_sum_refuses_a_third_field():
    r2, r3, r5 = QuadExt(0, 1, 2), QuadExt(0, 1, 3), QuadExt(0, 1, 5)
    with pytest.raises(FieldMismatchError, match=r"\[2, 3, 5\]"):
        RadicalSum.of(r2, r3, r5)
    with pytest.raises(FieldMismatchError, match=r"\[2, 3, 5, 10\]"):
        cross((1 + r2, QuadExt(1)), (1 + r3, 1 + r5))
    with pytest.raises(FieldMismatchError):
        dot((1 + r2, 1 + r3), (1 + r5, QuadExt(1)))
    # a third radical that cancels is no third field
    assert RadicalSum.of(r2, r3, r5, -r5) == RadicalSum.of(r2, r3)


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


def test_pointset_rejects_mixed_radicals_on_one_axis():
    with pytest.raises(FieldMismatchError, match=r"^x-coordinates mix radicals \[2, 3\]$"):
        PointSet(
            [
                PlanarPoint(QuadExt(0, 1, 2), QuadExt(0)),
                PlanarPoint(QuadExt(0, 1, 3), QuadExt(0)),
            ]
        )


def _reference_coord_cmp(u: QuadExt, v: QuadExt) -> int:
    if u.a == v.a and u.b == v.b and u.d == v.d:
        return 0
    return GeneralRadicalSum.of(u, -v).sign()  # exact, with no float bracket


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
        inputs = [pts]
        if all(p.x.is_rational and p.y.is_rational for p in pts):
            inputs += _presorted_inputs(rng, _reference_points(pts))
        for given in inputs:
            got = PointSet(given).points
            want = _reference_points(given)
            assert len(got) == len(want)
            # the very objects, so the kept duplicate and its tag agree too
            assert all(g is w for g, w in zip(got, want))


def test_radical_pointset_compares_each_distinct_value_once(monkeypatch):
    # shuffled points over a sqrt(2) axis and an axis of sqrt(3) and
    # rational values; equal values as distinct objects, duplicates with
    # other tags.  The order is the reference comparison sort, and the
    # exact comparisons grow with the distinct values, not the points.
    rng = random.Random(2020)
    xv = _radical_values(2)(rng)
    yv = _radical_values(3)(rng) + _rational_values(rng)
    pts = []
    for _ in range(400):
        x, y = rng.choice(xv), rng.choice(yv)
        if rng.random() < 0.3:
            x, y = _fresh(x), _fresh(y)
        pts.append(PlanarPoint(x, y, rng.choice([None, "a", "b"])))
    rng.shuffle(pts)
    calls = []
    compare = exact._compare
    monkeypatch.setattr(
        exact, "_compare", lambda u, v: calls.append(1) or compare(u, v)
    )
    got = PointSet(pts).points
    monkeypatch.undo()
    want = _reference_points(pts)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    kx, ky = len(set(xv)), len(set(yv))
    assert len(calls) <= kx * kx + ky * ky < 1_000  # a sort of the points: 3,000+


def _presorted_inputs(rng, increasing: list[PlanarPoint]) -> list[list]:
    """Inputs that are in canonical order already, or nearly: the strictly
    increasing points themselves, the same with equal-value duplicates
    carrying other tags next to some of them, and the points with one
    adjacent pair swapped."""
    with_duplicates = []
    for p in increasing:
        with_duplicates.append(p)
        for _ in range(rng.choice([0, 0, 1, 2])):
            twin = PlanarPoint(_fresh(p.x), _fresh(p.y), rng.choice([None, "a", "z"]))
            with_duplicates.insert(len(with_duplicates) - rng.randint(0, 1), twin)
    swapped = list(increasing)
    if len(swapped) > 1:
        i = rng.randrange(len(swapped) - 1)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return [list(increasing), with_duplicates, swapped]


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


def _written(ps: PointSet) -> str:
    buf = io.StringIO()
    write_pointset_csv(ps, buf)
    return buf.getvalue()


def _csv_writer_text(ps: PointSet) -> str:
    """The rows as csv.writer writes them."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x_exact", "y_exact", "x_float", "y_float", "tag"])
    for p in ps:
        w.writerow([format_quadext(p.x), format_quadext(p.y),
                    format(float(p.x), ".12g"), format(float(p.y), ".12g"),
                    p.tag or ""])
    return buf.getvalue()


def _csv_writer_quoting_cr(ps: PointSet) -> str:
    """The rows as csv.writer writes them under a "\\r\\n" terminator, which
    also quotes a bare carriage return, each row ended by "\\n"."""
    rows = [["x_exact", "y_exact", "x_float", "y_float", "tag"]] + [
        [format_quadext(p.x), format_quadext(p.y),
         format(float(p.x), ".12g"), format(float(p.y), ".12g"), p.tag or ""]
        for p in ps
    ]
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


def _equal_x_in_distinct_objects() -> PointSet:
    # runs of one x value that alternate between equal objects, rational
    # and radical, so that a run of one object is not a run of one value
    one, root = QuadExt(1), QuadExt(1, 1, 2)
    xs = [one, _fresh(one), one, root, _fresh(root), _fresh(root), root]
    return PointSet._from_columns(
        tuple(xs), tuple(QuadExt(k) for k in range(7)), (None,) * 7
    )


@pytest.mark.parametrize(
    "ps",
    [
        PointSet([point(1, 2, 'say "hi", then'), point(3, 4, "two\nlines")]),
        PointSet([point(1, 2, "cr\rhere"), point(3, 4, "a,\rb"), point(5, 6)]),
        closed_form(None, 5),
        PointSet([point(k, -k, tag) for k, tag in
                  enumerate([None, "UU", "a,b", None, "", "UV", " x "])]),
        PointSet([]),
        _equal_x_in_distinct_objects(),
        gcd_filtered_points(2, Fraction(7, 2)),
    ],
    ids=["quoted-tags", "cr-tags", "radical", "mixed-tags", "empty",
         "equal-x-distinct-objects", "columns"],
)
def test_csv_writer_equals_csv_writer(ps):
    text = _written(ps)
    assert text == _csv_writer_quoting_cr(ps)
    if all("\r" not in (p.tag or "") for p in ps):
        assert text == _csv_writer_text(ps)


def test_pointset_sorts_without_merging_when_no_key_repeats(monkeypatch):
    calls = []
    merge = exact._merge_duplicates
    monkeypatch.setattr(
        exact, "_merge_duplicates", lambda *a: calls.append(1) or merge(*a)
    )
    rng = random.Random(22)
    pts = [point(x, y, rng.choice([None, "b", "a"]))
           for x in range(-6, 7) for y in range(-3, 4)]
    rng.shuffle(pts)
    got = PointSet(pts).points
    assert not calls  # no two keys equal: no merge
    want = _reference_points(pts)
    assert all(g is w for g, w in zip(got, want)) and len(got) == len(want)
    # equal values with other tags: the merge runs and keeps the smallest
    twins = [PlanarPoint(_fresh(p.x), _fresh(p.y), "a") for p in pts[::5]]
    given = pts + twins
    rng.shuffle(given)
    got = PointSet(given).points
    assert calls == [1]
    want = _reference_points(given)
    assert all(g is w for g, w in zip(got, want)) and len(got) == len(want)
    tags = {(p.x, p.y): p.tag for p in got}
    assert all(tags[t.x, t.y] == "a" for t in twins)


def test_radical_set_builds_no_rational_key(monkeypatch):
    # rational points with non-integer coordinates and one radical point:
    # every set is ordered by rank keys, so the rational points come out in
    # one order wherever the radical point stands, and in the same order
    # when it is absent
    rational = [point(Fraction(k, 2), Fraction(-k, 3)) for k in range(1, 401)]
    radical = PlanarPoint(QuadExt(0, 1, 2), QuadExt(1))
    for pts in (rational + [radical], [radical] + rational, rational):
        got = PointSet(pts).points
        want = _reference_points(pts)
        assert all(g is w for g, w in zip(got, want)) and len(got) == len(want)
        assert [p for p in got if p is not radical] == _reference_points(rational)
    # integer coordinates rank and hash as ints: no Fraction at all
    made = []
    monkeypatch.setattr(exact, "Fraction", lambda *a: made.append(a) or Fraction(*a))
    pts = [PlanarPoint(k + QuadExt(0, 1, 2), QuadExt(k % 7)) for k in range(400)]
    assert len(PointSet(pts)) == 400 and made == []


def _read_tags(ps: PointSet) -> list:
    """The tags read_pointset_csv gives back: stripped, and None if empty."""
    return [(p.tag or "").strip() or None for p in ps]


@pytest.mark.parametrize(
    "tag",
    ["a,b", 'say "hi"', '"', "two\nlines", " lead", "trail ", "  both  ", " ",
     "", ",\n\"", "plain"],
)
def test_csv_writer_quotes_free_form_tags_as_csv_writer(tag):
    ps = PointSet([
        PlanarPoint(QuadExt(-1, 1, 2), QuadExt(3), tag),
        point(0, Fraction(1, 3), "UV"),
        point(2, 0),
    ])
    text = _written(ps)
    assert text == _csv_writer_text(ps)
    back = read_pointset_csv(io.StringIO(text))
    assert back == ps and back.points == ps.points
    assert [p.tag for p in back] == _read_tags(ps)


@pytest.mark.parametrize("tag", ["cr\rhere", "\r", "crlf\r\nend", "a,\rb"])
def test_csv_writer_quotes_carriage_returns(tag):
    # Python 3.11's csv.writer leaves a bare \r unquoted under a "\n"
    # terminator, and csv.reader then splits the row there
    ps = PointSet([point(1, 2, tag), point(3, 4)])
    text = _written(ps)
    quoted = '"' + tag.replace('"', '""') + '"'
    assert text.splitlines(keepends=True)[0] == "x_exact,y_exact,x_float,y_float,tag\n"
    assert text.endswith(f"1,2,1,2,{quoted}\n3,4,3,4,\n")
    back = read_pointset_csv(io.StringIO(text))
    assert back == ps and [p.tag for p in back] == _read_tags(ps)


def test_pointset_from_columns_builds_points_on_access():
    ps = gcd_filtered_points(2, Fraction(7, 2))
    assert ps._points is None
    pts = ps.points
    assert ps.points is pts and list(ps) == list(pts) and ps[3] is pts[3]
    assert [(p.x, p.y, p.tag) for p in pts] == list(zip(ps.xs, ps.ys, ps.tags))
    # the columns share one lifted QuadExt per integer
    assert len({id(u) for u in ps.xs + ps.ys}) == 7
    assert point(-3, 1) in ps and point(2, 2) in ps and point(0, 0) not in ps


def test_pointset_membership_and_negation():
    ps = PointSet([point(1, 2), point(-1, -2), point(3, 0), point(-3, 0)])
    assert point(1, 2) in ps
    assert point(2, 1) not in ps
    pairs = set(zip(ps.xs, ps.ys))
    assert {(-x, -y) for x, y in pairs} == pairs


def test_planar_point_equality_and_hash_ignore_the_tag():
    p = PlanarPoint(QuadExt(-1, 1, 2), QuadExt(1), "UV")
    q = PlanarPoint(QuadExt(-1, 1, 2), QuadExt(1))
    assert q.tag is None
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != PlanarPoint(QuadExt(-1, 1, 2), QuadExt(2), "UV")
    assert p != (p.x, p.y)
    assert tuple(p) == (p.x, p.y)
    assert repr(q) == (
        "PlanarPoint(x=QuadExt(Fraction(-1, 1), Fraction(1, 1), 2), "
        "y=QuadExt(Fraction(1, 1), Fraction(0, 1), 1), tag=None)"
    )
    for name in ("x", "y", "tag", "z"):
        with pytest.raises(AttributeError):
            setattr(p, name, QuadExt(0))


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


def test_csv_reader_parses_each_distinct_text_once(monkeypatch):
    # a written set, then duplicates with other tags, an equal value in
    # another text, and one text on both axes
    text = _written(closed_form(None, 5)) + (
        "-1/1+1/1*sqrt(2),-1/1+1/1*sqrt(3),0,0,VU\n"
        "-1/1+1/1*sqrt(2),-1/1+1/1*sqrt(3),0,0,A\n"
        "2/2,0,1,0,\n"
        "1,1,1,1,\n"
    )
    rows = list(csv.reader(io.StringIO(text)))[1:]
    calls = []
    parse = exact.parse_quadext
    monkeypatch.setattr(exact, "parse_quadext", lambda t: calls.append(t) or parse(t))
    back = read_pointset_csv(io.StringIO(text))
    monkeypatch.undo()
    texts = {r[0] for r in rows} | {r[1] for r in rows}
    assert sorted(calls) == sorted(texts)
    # the points of one text share its object
    assert len({id(u) for u in back.xs + back.ys}) <= len(texts)
    # the set that parsing every cell gives: the same points, tags, order
    want = PointSet(PlanarPoint(parse(r[0]), parse(r[1]), r[4] or None) for r in rows)
    assert back.points == want.points and back.tags == want.tags


def test_csv_bad_rows_reported_with_line_numbers():
    text = "x_exact,y_exact,x_float,y_float,tag\n1,2,1,2,\nnope,3,0,3,\n4,alsobad,4,0,\n"
    with pytest.raises(CsvRowError) as ei:
        read_pointset_csv(io.StringIO(text))
    assert ei.value.lines == [3, 4]


# -- positive exact arguments -----------------------------------------------------


POSITIVE_ARGS = [
    ("radius", lambda x: gcd_filtered_points(1, x)),
    ("radius", lambda x: crt_hole(1, x)),
    ("radius", lambda x: closed_form(None, x)),
    ("radius", lambda x: geometric_oracle(None, x)),
    ("radius", lambda x: enumerate_holonomies(Origami((1, 0, 2), (2, 1, 0)), x)),
    ("r", lambda x: close_pair(
        Cylinder((1, 0), (0, Fraction(1, 50)), Fraction(1, 50)),
        Cylinder((QuadExt(0, 1, 2), 0), (0, Fraction(1, 50)), Fraction(1, 50)),
        x,
    )),
    ("eps", lambda x: inhom_approx(QuadExt(0, 1, 2), Fraction(1, 3), x)),
    ("resolution", lambda x: covering_radius(gcd_filtered_points(1, 2), (0, 0, 1, 1), x)),
    ("width", lambda x: Cylinder((1, 0), (0, x), x)),
]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name,call", POSITIVE_ARGS)
def test_nonpositive_arguments_are_refused(name, call, value):
    with pytest.raises(ValueError) as ei:
        call(value)
    assert str(ei.value) == f"{name} must be positive"
