from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, isqrt, pi

import pytest

from holoset.coprime import (
    CertificateError,
    HoleCertificate,
    crt_hole,
    coprime_points,
    first_primes_above,
    gcd_filtered_points,
    solve_crt,
    verify_hole,
)
from holoset.exact import PointSet, point


def mobius_visible_count(R: int) -> int:
    """Independent count of visible lattice points via Moebius inversion."""
    R2 = R * R

    def lattice_count(bound: int) -> int:
        if bound < 1:
            return 0
        r = isqrt(bound)
        c = 0
        for a in range(-r, r + 1):
            rem = bound - a * a
            if rem >= 0:
                c += 2 * isqrt(rem) + 1
        return c - 1

    mu = [0] * (R + 1)
    mu[1] = 1
    for d in range(1, R + 1):
        if mu[d]:
            for m in range(2 * d, R + 1, d):
                mu[m] -= mu[d]
    return sum(mu[d] * lattice_count(R2 // (d * d)) for d in range(1, R + 1))


def test_small_radius_counts():
    assert len(coprime_points(1)) == 4
    ps = coprime_points(2)
    assert len(ps) == 8
    assert point(1, 1) in ps and point(2, 0) not in ps
    assert point(2, 1) not in ps  # norm sqrt(5) exceeds 2
    assert point(2, 1) in coprime_points(3)


def test_gcd_convention_on_axes():
    ps = coprime_points(3)
    assert point(1, 0) in ps
    assert point(3, 0) not in ps
    ps2 = gcd_filtered_points(2, 3)
    assert point(2, 0) in ps2
    assert point(3, 0) not in ps2
    assert point(2, 2) in ps2


def test_counts_match_mobius_oracle():
    for R in (5, 20, 50):
        assert len(coprime_points(R)) == mobius_visible_count(R)


def test_frozen_radius_200_count_matches_mobius_oracle():
    # criterion 04 freezes this count; the oracle builds no points
    assert len(coprime_points(200)) == mobius_visible_count(200) == 76360


def test_density_near_six_over_pi_squared():
    R = 100
    count = len(coprime_points(R))
    expected = 6 / pi**2 * pi * R * R
    assert abs(count - expected) / expected < 0.02


def test_fractional_radius_is_exact():
    # radius 5/2: (2,1) has norm^2 5 < 25/4, (2,2) has norm^2 8 > 25/4
    ps = coprime_points(Fraction(5, 2))
    assert point(2, 1) in ps
    assert point(2, 2) not in ps


def _shuffled_point_set(pts, seed: int) -> PointSet:
    pts = list(pts)
    random.Random(seed).shuffle(pts)
    return PointSet(pts)


@pytest.mark.parametrize("radius", [Fraction(1), Fraction(6), Fraction(53, 5)])
@pytest.mark.parametrize("max_gcd", [1, 2, 3, 4])
def test_columns_equal_the_points_path(max_gcd, radius):
    # the filter hands its columns to PointSet as they are; the same
    # points, built one by one and shuffled, must canonicalise to them
    ps = gcd_filtered_points(max_gcd, radius)
    r = int(radius)
    expected = _shuffled_point_set(
        (
            point(p, q)
            for p in range(-r, r + 1)
            for q in range(-r, r + 1)
            if (p or q) and p * p + q * q <= radius**2 and gcd(p, q) <= max_gcd
        ),
        seed=max_gcd,
    )
    assert ps == expected
    assert ps.points == expected.points
    assert ps.tags == expected.tags == (None,) * len(ps)


def test_first_primes_above():
    assert first_primes_above(1, 9) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert first_primes_above(5, 4) == [7, 11, 13, 17]


def test_solve_crt_basics():
    x = solve_crt([-1, -2, -3], [30, 1001, 7429])
    assert x % 30 == 29 and (x + 2) % 1001 == 0 and (x + 3) % 7429 == 0
    with pytest.raises(ValueError):
        solve_crt([0, 1], [4, 6])


def test_hole_certificate_unit_example():
    cert = crt_hole(1, 1)
    assert cert.n == 3
    assert cert.primes == ((2, 3, 5), (7, 11, 13), (17, 19, 23))
    assert cert.row_products == [30, 1001, 7429]
    assert cert.col_products == [238, 627, 1495]
    assert cert.x == 119740619
    assert cert.y == 121379047
    assert verify_hole(cert).passed


def test_hole_sizes_and_prime_offsets():
    cert = crt_hole(1, 2)
    assert cert.n == 5
    flat = [p for row in cert.primes for p in row]
    assert flat[0] == 2 and flat[-1] == 97 and len(flat) == 25
    assert verify_hole(cert).passed

    cert5 = crt_hole(5, 1)
    assert cert5.primes[0][0] == 7
    assert verify_hole(cert5).passed


def test_degenerate_single_cell():
    cert = crt_hole(1, Fraction(1, 4))
    assert cert.n == 1
    assert (cert.x + 1) % cert.primes[0][0] == 0
    assert (cert.y + 1) % cert.primes[0][0] == 0
    assert verify_hole(cert).passed


def test_perturbed_certificate_fails_with_counterexample():
    cert = crt_hole(1, 1)
    broken = HoleCertificate(
        cert.max_gcd, cert.radius, cert.n, cert.primes, cert.x - 1, cert.y
    )
    report = verify_hole(broken)
    assert not report.passed
    assert report.failure == "row congruence broken"
    assert report.counterexample is not None


def test_tampered_prime_grid_fails():
    cert = crt_hole(1, 1)
    rows = [list(r) for r in cert.primes]
    rows[0][0] = 9  # not prime
    broken = HoleCertificate(
        cert.max_gcd, cert.radius, cert.n,
        tuple(tuple(r) for r in rows), cert.x, cert.y,
    )
    assert not verify_hole(broken).passed


def test_certificate_json_round_trip():
    cert = crt_hole(2, 1)
    text = cert.dumps()
    data = json.loads(text)
    assert isinstance(data["x"], str)  # big integers as decimal strings
    back = HoleCertificate.from_json_dict(data)
    assert back == cert
    assert verify_hole(back).passed


def test_certificate_and_report_are_immutable():
    cert = crt_hole(1, 1)
    report = verify_hole(cert)
    assert report.to_json_dict() == {
        "passed": True, "failure": None, "counterexample": None
    }
    assert cert.center == (cert.x + 2, cert.y + 2)
    for record, names in (
        (cert, ("max_gcd", "radius", "n", "primes", "x", "y", "extra")),
        (report, ("passed", "failure", "counterexample", "extra")),
    ):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)


def test_malformed_certificate_raises():
    with pytest.raises(CertificateError):
        HoleCertificate.from_json_dict({"n": 2})


@pytest.mark.parametrize(
    "field,value",
    [
        ("x", 119740619.9),
        ("x", "119740619.9"),
        ("y", " 12"),
        ("n", 2.5),
        ("n", True),
        ("max_gcd", False),
        ("primes", [[2.0, 3], [5, 7]]),
        ("primes", ["23", "57"]),
        ("primes", "2357"),
        ("radius", True),
        ("radius", 0.7),
        ("radius", 1.0),
        ("radius", "0.7"),
        ("radius", "1e0"),
        ("radius", " 1/2"),
        ("radius", "1/-2"),
        ("radius", "1/2/3"),
        ("radius", "1/0"),
        ("radius", None),
    ],
)
def test_certificate_fields_are_read_as_written(field, value):
    """JSON numbers that are no ints, bools and rows that are no lists are
    refused, not truncated or unpacked into another certificate."""
    data = crt_hole(1, Fraction(1, 2)).to_json_dict()
    data[field] = value
    with pytest.raises(CertificateError, match="^malformed certificate: "):
        HoleCertificate.from_json_dict(data)


def test_certificate_with_a_bool_radius_is_refused_not_verified():
    # Fraction(True) is 1, and the radius-1 certificate would verify
    data = crt_hole(1, 1).to_json_dict()
    data["radius"] = True
    with pytest.raises(CertificateError):
        HoleCertificate.from_json_dict(data)


@pytest.mark.parametrize(
    "value, radius",
    [(1, 1), ("1", 1), ("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4))],
)
def test_certificate_reads_int_and_written_radius(value, radius):
    data = crt_hole(1, Fraction(1, 2)).to_json_dict()
    data["radius"] = value
    assert HoleCertificate.from_json_dict(data).radius == radius


def test_certificate_reads_ints_and_integer_strings():
    cert = crt_hole(1, Fraction(1, 2))
    data = cert.to_json_dict()
    data.update(x=cert.x, y=str(cert.y), n=str(cert.n), max_gcd="1")
    data["primes"] = [[str(p) for p in row] for row in cert.primes]
    assert HoleCertificate.from_json_dict(data) == cert


def test_ball_is_actually_empty_of_small_gcd_points():
    cert = crt_hole(1, 1)
    cx, cy = cert.center
    R2 = cert.radius * cert.radius
    hits = []
    for i in range(1, cert.n + 1):
        for j in range(1, cert.n + 1):
            dx, dy = cert.x + i - cx, cert.y + j - cy
            if dx * dx + dy * dy < R2:
                hits.append((i, j))
                assert gcd(cert.x + i, cert.y + j) > 1
    assert hits  # the ball does see grid points, all with gcd > 1
