"""The two workloads, as pipelines of holoset CLI invocations.

Inputs come from the seed alone; the program sees only the files and
flags written here.  Each workload has a full size (what the benchmark
measures) and a smoke size (what its tests run).

lattice     integer sets, write path: ``coprime`` at a large radius and
            with ``--max-gcd`` above 1, ``enumerate`` on random
            transitive origamis of 4, 6 and 8 sheets.  Exercises the integer
            canonicalisation in ``exact`` (``point()``, the integer sort
            in ``PointSet``) and the ``origami`` monodromy walk.
radical     mixed radicals, written and then read and certified.  Its
            irrational part runs ``example`` at a large radius (closed
            form in Z[sqrt2] x Z[sqrt3]), and ``example`` with and without
            ``--oracle`` at one small radius: the comparison sort and
            ``RadicalSum.sign``, where the integer fast path hardly runs.
            Its certify part runs ``diagnose`` and ``plot`` over a
            double-cover CSV made before timing, ``close-pair`` on
            cylinder pairs with ratio (p + sqrt d)/q, and ``hole``: the
            only place where ``diagnostics`` runs and CSV is parsed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import checks

WORKLOADS = ("lattice", "radical")
SHEETS = (4, 6, 8)  # origami sizes in lattice; one of them is --marked


@dataclass(frozen=True)
class Size:
    coprime_radius: tuple[int, int]  # inclusive range for the large radius
    gcd_radius_tenths: tuple[int, int]  # half-open range, in tenths
    enumerate_radius: int
    example_radius: int  # the large radius, lowered by up to 3/4
    small_radius_tenths: tuple[int, int]  # half-open, shared with --oracle
    points_radius: int  # radius of the double-cover CSV for certify
    window_half: int  # diagnose window [-h, h]^2 before the seeded offset
    resolution: Fraction
    hole_radii: tuple[Fraction, ...]


FULL = Size(
    coprime_radius=(198, 200),
    gcd_radius_tenths=(580, 620),
    enumerate_radius=30,
    example_radius=40,
    small_radius_tenths=(38, 43),
    points_radius=16,
    window_half=10,
    resolution=Fraction(1, 100),
    hole_radii=(Fraction(5), Fraction(11, 2), Fraction(6), Fraction(13, 2)),
)
SMOKE = Size(
    coprime_radius=(18, 20),
    gcd_radius_tenths=(80, 100),
    enumerate_radius=6,
    example_radius=6,
    small_radius_tenths=(15, 20),
    points_radius=6,
    window_half=3,
    resolution=Fraction(1, 10),
    hole_radii=(Fraction(3, 2), Fraction(2)),
)
SIZES = {"full": FULL, "smoke": SMOKE}

# diagnose window offsets; the covering radius of each is frozen
WINDOW_OFFSETS = tuple(
    (Fraction(x, 2), Fraction(y, 2))
    for x, y in ((0, 0), (1, 0), (0, -1), (-1, 1), (2, 2), (-2, -1)))


@dataclass
class Step:
    """One CLI invocation: its arguments, its output file, and the check
    its output must pass.  `reads` names the point CSV it reads, if any;
    `stable` maps the output to the bytes that are digested."""

    name: str
    argv: list[str]
    out: str
    check: Callable[[Path], list[str]]
    reads: Optional[str] = None
    stable: Callable[[bytes], bytes] = field(default=lambda data: data)


@dataclass
class Plan:
    """A workload at one seed: set-up invocations (untimed) and the
    pipeline that is timed."""

    setup: list[Step]
    steps: list[Step]


def random_origami(rng: random.Random, n: int) -> dict:
    """A transitive permutation pair on n sheets with h*v != v*h, so the
    surface has a singularity even without --marked."""
    while True:
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            for j in (h[i], v[i]):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == n and any(h[v[i]] != v[h[i]] for i in range(n)):
            return {"n": n, "h": h, "v": v}


def lattice(rng: random.Random, size: Size, work: Path, ref) -> Plan:
    big = Fraction(rng.randint(*size.coprime_radius))
    small = Fraction(rng.randrange(*size.gcd_radius_tenths), 10)
    max_gcd = rng.randint(2, 4)
    steps = [
        Step("coprime", ["coprime", "--radius", str(big), "--out", "coprime.csv"],
             "coprime.csv", lambda p: checks.coprime(p, big, 1)),
        Step("coprime-gcd",
             ["coprime", "--radius", str(small), "--max-gcd", str(max_gcd),
              "--out", "coprime-gcd.csv"],
             "coprime-gcd.csv", lambda p: checks.coprime(p, small, max_gcd)),
    ]
    marked = rng.choice(SHEETS)
    r = Fraction(size.enumerate_radius)
    for n in SHEETS:
        name = f"enumerate-{n}"
        (work / f"origami-{n}.json").write_text(
            json.dumps(random_origami(rng, n)), encoding="utf-8")
        argv = ["enumerate", f"origami-{n}.json", "--radius", str(r)]
        argv += ["--marked"] if n == marked else []
        steps.append(Step(name, argv + ["--out", name + ".csv"], name + ".csv",
                          lambda p, n=n: checks.enumerate_(p, r, n)))
    return Plan([], steps)


def irrational(rng: random.Random, size: Size, work: Path) -> Plan:
    big = size.example_radius - Fraction(rng.randrange(4), 4)
    small = Fraction(rng.randrange(*size.small_radius_tenths), 10)
    return Plan([], [
        Step("example", ["example", "--radius", str(big), "--out", "example.csv"],
             "example.csv", lambda p: checks.example(p, big)),
        Step("example-small",
             ["example", "--radius", str(small), "--out", "example-small.csv"],
             "example-small.csv", lambda p: checks.example(p, small)),
        Step("example-oracle",
             ["example", "--radius", str(small), "--oracle",
              "--out", "example-oracle.csv"],
             "example-oracle.csv",
             lambda p: checks.same_bytes(p, work / "example-small.csv")),
    ])


def cylinder_pair(rng: random.Random) -> tuple[dict, Fraction]:
    """Parallel horizontal cylinders with ratio (p + sqrt d)/q and equal
    heights, so the width precondition holds for every target r."""
    d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
    p, q = rng.randint(0, 5), rng.randint(1, 4)
    w = Fraction(1, rng.randint(50, 200))
    pair = {
        "l": ["1", "0"],
        "h": [str(Fraction(rng.randint(1, 9), 10)), str(w)],
        "w": str(w),
        "l_prime": [f"{p}/{q}+1/{q}*sqrt({d})", "0"],
        "h_prime": [str(Fraction(rng.randint(1, 9), 10)), str(w)],
        "w_prime": str(w),
    }
    return pair, Fraction(1, 10 ** rng.randint(3, 8))


def certify(rng: random.Random, size: Size, work: Path, ref) -> Plan:
    """The certify part of radical.  `ref` holds the frozen min-gap pair
    and covering radii of the double-cover CSV at this size, or None
    while they are being frozen."""
    setup = [Step(
        "points",
        ["example", "--radius", str(size.points_radius), "--out", "points.csv"],
        "points.csv",
        lambda p: checks.example(p, Fraction(size.points_radius)),
    )]
    k = rng.randrange(len(WINDOW_OFFSETS))
    window = window_arg(size, k)
    radii = sorted(
        Fraction(t, 10) for t in rng.sample(range(10, 10 * size.points_radius), 4))
    reference = None if ref is None else {
        "min_gap_pair": ref["min_gap_pair"], "covering": ref["covering"].get(window)}
    steps = [
        Step("diagnose",
             ["diagnose", "points.csv", "--window=" + window,
              "--resolution", str(size.resolution),
              "--radii", ",".join(map(str, radii)), "--out", "diagnose.json"],
             "diagnose.json",
             lambda p: checks.diagnose(p, work / "points.csv", radii,
                                       size.resolution, reference),
             reads="points.csv", stable=checks.diagnose_stable),
        Step("plot",
             ["plot", "points.csv", "--point-size", str(rng.randint(1, 4)),
              "--out", "plot.svg"],
             "plot.svg", lambda p: checks.plot(p, work / "points.csv"),
             reads="points.csv"),
    ]
    for i in (1, 2):
        pair, r = cylinder_pair(rng)
        (work / f"pair-{i}.json").write_text(json.dumps(pair), encoding="utf-8")
        steps.append(Step(
            f"close-pair-{i}",
            ["close-pair", f"pair-{i}.json", "--radius", str(r),
             "--out", f"close-pair-{i}.json"],
            f"close-pair-{i}.json", lambda p, r=r: checks.close_pair(p, r)))
    radius, max_gcd = rng.choice(size.hole_radii), rng.randint(1, 3)
    steps.append(Step(
        "hole",
        ["hole", "--radius", str(radius), "--max-gcd", str(max_gcd),
         "--out", "hole.json"],
        "hole.json", lambda p: checks.hole(p, radius, max_gcd)))
    return Plan(setup, steps)


def window_arg(size: Size, k: int) -> str:
    ox, oy = WINDOW_OFFSETS[k]
    h = size.window_half
    return ",".join(map(str, (ox - h, oy - h, ox + h, oy + h)))


def radical(rng: random.Random, size: Size, work: Path, ref) -> Plan:
    """The irrational part, then the certify part, in one pipeline."""
    written = irrational(rng, size, work)
    read = certify(rng, size, work, ref)
    return Plan(written.setup + read.setup, written.steps + read.steps)


BUILDERS = {"lattice": lattice, "radical": radical}


def plan(workload: str, seed: int, size: Size, work: Path, ref=None) -> Plan:
    """Write the workload's input files into `work` and return its steps."""
    return BUILDERS[workload](random.Random(seed), size, work, ref)
