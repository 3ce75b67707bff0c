"""Ten end-to-end checks, one per shipped guarantee.

Each test is one acceptance criterion; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.  Expected values marked as frozen
were derived from the independent oracles in the per-module test files.
"""

import json
import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from holoset.cli import main as cli_main
from holoset.close_pair import Cylinder, close_pair, inhom_approx
from holoset.coprime import (
    coprime_points,
    crt_hole,
    verify_hole,
)
from holoset.diagnostics import covering_radius, min_gap
from holoset.double_cover import closed_form, geometric_oracle
from holoset.exact import QuadExt, RadicalSum
from holoset.origami import (
    DisconnectedSurfaceError,
    Origami,
    enumerate_holonomies,
    primitive_directions,
    saddle_connections_in_direction,
)
from oracles import gcd_filtered_window, ray_trace_oracle, vertex_classes

GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
SQRT2 = QuadExt(0, 1, 2)


def test_criterion_01_torus_identity():
    start = time.perf_counter()
    ps = enumerate_holonomies(Origami((0,), (0,)), 50, marked=True)
    expected = coprime_points(50)
    elapsed = time.perf_counter() - start
    assert ps == expected
    assert len(ps.points) == len(expected.points) > 4000
    assert elapsed < 1.0


def test_criterion_02_gcd_containment_random_origamis():
    start = time.perf_counter()
    rng = random.Random(20260819)
    surfaces = []
    while len(surfaces) < 20:
        n = rng.randint(2, 8)
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            surfaces.append(Origami(h, v))
        except DisconnectedSurfaceError:
            continue
    for o in surfaces:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ps = enumerate_holonomies(o, 30)
        for p in ps.points:
            a, b = int(p.x.a), int(p.y.a)
            g = math.gcd(abs(a), abs(b))
            assert 1 <= g <= o.n, (o.h, o.v, a, b)
            # g is the content, so (a, b) = g * primitive by construction
            assert math.gcd(abs(a) // g if a else 0, abs(b) // g if b else 0) <= 1
    assert time.perf_counter() - start < 30.0


def test_criterion_03_monodromy_matches_ray_tracing():
    cases = [
        (Origami((1, 0, 2), (2, 1, 0)), False),
        (Origami((1, 2, 3, 0), (1, 0, 2, 3)), False),
        (Origami((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)), False),
        (Origami((1, 2, 0, 4, 5, 3), (3, 1, 2, 0, 4, 5)), False),
        (Origami((1, 0, 3, 2), (2, 3, 0, 1)), True),
    ]
    directions = list(primitive_directions(Fraction(100)))
    assert len(directions) > 40
    for o, marked in cases:
        singular = [
            i
            for vc in vertex_classes(o)
            for i in vc.sheets
            if marked or vc.singular
        ]
        assert singular, "every fixture must exercise the comparison"
        for d in directions:
            from_sigma = saddle_connections_in_direction(o, d, marked)
            traced = Counter()
            for i in singular:
                s = ray_trace_oracle(o, i, d, s_max=o.n, marked=marked)
                assert s is not None
                traced[s] += 1
            assert from_sigma == traced, (o.h, o.v, d)


def test_criterion_04_coprime_density():
    start = time.perf_counter()
    n = len(coprime_points(200).points)
    elapsed = time.perf_counter() - start
    assert n == 76360  # frozen; Moebius oracle mobius_visible_count in test_coprime
    target = 6 * 200 * 200 / math.pi
    assert abs(n - target) / target < 0.02
    assert elapsed < 2.0


def test_criterion_05_hole_certificates():
    for max_gcd, radius in ((1, 1), (2, 1), (1, 2), (3, 2)):
        start = time.perf_counter()
        cert = crt_hole(max_gcd, radius)
        report = verify_hole(cert)
        assert report.passed, (max_gcd, radius, report.failure)
        cx, cy = cert.center
        margin = radius + 3
        ps = gcd_filtered_window(
            max_gcd, (cx - margin, cy - margin, cx + margin, cy + margin)
        )
        window = (cx - radius, cy - radius, cx + radius, cy + radius)
        res = covering_radius(ps, window, Fraction(1, 2))
        assert res.radius >= radius - 1e-9, (max_gcd, radius, res.radius)
        assert time.perf_counter() - start < 5.0, (max_gcd, radius)


def test_criterion_06_example_surface_equivalence():
    for radius in (3, 5, 8):
        start = time.perf_counter()
        closed = closed_form(None, radius)
        oracle = geometric_oracle(None, radius)
        elapsed = time.perf_counter() - start
        assert closed == oracle
        assert [p.tag for p in closed.points] == [p.tag for p in oracle.points]
        assert elapsed < 60.0, radius


def test_criterion_07_example_surface_delone_estimates():
    gap10 = min_gap(closed_form(None, 10))
    gap30 = min_gap(closed_form(None, 30))
    assert abs(gap10.gap - gap30.gap) < 1e-9
    assert gap10.gap > 0.49

    # brute-force window minimization as the independent oracle
    pts = closed_form(None, 3).points
    floats = [(float(p.x), float(p.y)) for p in pts]
    fbest = min(
        (ax - bx) ** 2 + (ay - by) ** 2
        for i, (ax, ay) in enumerate(floats)
        for bx, by in floats[i + 1 :]
    )
    best_sq = None
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            bx, by = floats[j]
            ax, ay = floats[i]
            if (ax - bx) ** 2 + (ay - by) ** 2 > fbest + 1e-9:
                continue
            d2 = a.dist_sq(pts[j])
            if best_sq is None or (d2 - best_sq).sign() < 0:
                best_sq = d2
    witness_sq = gap10.pair[0].dist_sq(gap10.pair[1])
    assert (witness_sq - best_sq).is_zero

    res = covering_radius(closed_form(None, 16), (-10, -10, 10, 10), Fraction(1, 100))
    assert res.radius <= 0.7072


def test_criterion_08_close_pair_engine():
    base = Cylinder((1, 0), (Fraction(1, 3), Fraction(1, 100)), Fraction(1, 100))
    for lam in (SQRT2, GOLDEN):
        other = Cylinder(
            (lam, 0), (Fraction(1, 7), Fraction(1, 100)), Fraction(1, 100)
        )
        for r in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
            start = time.perf_counter()
            res = close_pair(base, other, r)
            elapsed = time.perf_counter() - start
            assert res.dist < r
            dx = RadicalSum.of(res.v1[0]) - RadicalSum.of(res.v2[0])
            dy = RadicalSum.of(res.v1[1]) - RadicalSum.of(res.v2[1])
            assert (dx * dx + dy * dy - r * r).sign() < 0
            assert res.v1[0] == base.crossing[0] + res.n0 * base.circumference[0]
            assert res.v1[1] == base.crossing[1] + res.n0 * base.circumference[1]
            assert res.v2[0] == other.crossing[0] + res.n0p * other.circumference[0]
            assert res.v2[1] == other.crossing[1] + res.n0p * other.circumference[1]
            assert elapsed < 1.0, (lam, r)


def test_criterion_09_inhom_approx_soundness():
    rng = random.Random(9)
    squarefree = (2, 3, 5, 6, 7, 10, 11, 13)
    eps = Fraction(1, 10**6)
    brute_runs = 0
    for k in range(100):
        d = rng.choice(squarefree)
        p = rng.randint(-15, 15)
        q = rng.choice([v for v in range(-8, 9) if v])
        lam = QuadExt(Fraction(p, q), Fraction(1, q), d)
        den = rng.randint(2, 60)
        c = Fraction(rng.randint(1, den - 1), den)
        m, mprime = inhom_approx(lam, c, eps)
        with mp.workprec(113):
            lam_f = (p + mp.sqrt(d)) / q
            res = abs(mp.mpf(c.numerator) / c.denominator + m - mprime * lam_f)
            assert res < mp.mpf(10) ** -6, (lam, c)
        if k % 10 == 0:
            brute_runs += 1
            lam_float = (p + math.sqrt(d)) / q
            best_err, best_pair = None, None
            for j in range(-5000, 5001):
                t = j * lam_float - float(c)
                err = abs(t - round(t))
                if best_err is None or err < best_err:
                    best_err, best_pair = err, (round(t), j)
            assert best_err < 1e-2
            mb, mpb = best_pair
            exact = c + mb - lam * mpb
            assert (exact * exact).compare(Fraction(1, 10**4)) < 0
    assert brute_runs == 10


def test_criterion_10_cli_determinism(tmp_path):
    origami = tmp_path / "four.json"
    origami.write_text(
        json.dumps({"n": 4, "h": [1, 2, 3, 0], "v": [1, 0, 2, 3]}),
        encoding="utf-8",
    )
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "l": ["1", "0"],
                "h": ["1/3", "1/100"],
                "w": "1/100",
                "l_prime": ["1/2+1/2*sqrt(5)", "0"],
                "h_prime": ["1/7", "1/100"],
                "w_prime": "1/100",
            }
        ),
        encoding="utf-8",
    )
    pts = tmp_path / "pts.csv"
    assert cli_main(["example", "--radius", "4", "--out", str(pts)]) == 0
    invocations = [
        ("coprime", "--radius", "10"),
        ("coprime", "--radius", "6", "--max-gcd", "3"),
        ("enumerate", str(origami), "--radius", "3", "--marked"),
        ("hole", "--radius", "3/2", "--max-gcd", "2"),
        ("example", "--radius", "3"),
        ("example", "--radius", "2", "--oracle"),
        ("close-pair", str(pair), "--radius", "0.001"),
        (
            "diagnose", str(pts), "--window=-2,-2,2,2",
            "--resolution", "1/5", "--radii", "1,2,4",
        ),
        ("plot", str(pts), "--point-size", "3"),
        ("plot", str(pts), "--axis-range=-2,-2,2,2"),
    ]
    for args in invocations:
        blobs = []
        for name in ("first.out", "second.out"):
            out = tmp_path / name
            assert cli_main([*args, "--out", str(out)]) == 0, args
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"nondeterministic output: {args}"
        assert blobs[0], f"empty output: {args}"
