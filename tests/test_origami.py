from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from holoset import origami
from holoset.coprime import coprime_points
from holoset.exact import PointSet, point
from holoset.origami import (
    DisconnectedSurfaceError,
    Origami,
    OrigamiFormatError,
    TORUS_NOTICE,
    enumerate_holonomies,
    monodromy,
    primitive_directions,
    saddle_connections_in_direction,
)
from oracles import (
    crossing_word,
    ray_trace_oracle,
    singular_sheets,
    vertex_classes,
    word_monodromy,
)

# fixed corpus: torus, a 3-sheet and a 4-sheet cover, a 5-sheet stair,
# a two-cylinder 6-sheet cover, and a commuting 4-sheet pair
TORUS = Origami((0,), (0,))
ORIG3 = Origami((1, 0, 2), (2, 1, 0))
ORIG4 = Origami((1, 2, 3, 0), (1, 0, 2, 3))
ORIG5 = Origami((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))
ORIG6 = Origami((1, 2, 0, 4, 5, 3), (3, 1, 2, 0, 4, 5))
ORIG4B = Origami((1, 0, 3, 2), (2, 3, 0, 1))

CORPUS = [TORUS, ORIG3, ORIG4, ORIG5, ORIG6, ORIG4B]


def test_loader_validates_permutations():
    with pytest.raises(OrigamiFormatError):
        Origami((1, 1, 2), (0, 1, 2))
    with pytest.raises(OrigamiFormatError):
        Origami.from_json_dict({"n": 2, "h": [0, 1], "v": [0]})
    with pytest.raises(OrigamiFormatError):
        Origami.from_json_dict([1, 2])


def test_loader_detects_disconnected():
    with pytest.raises(DisconnectedSurfaceError):
        Origami((0, 1), (0, 1))


def test_json_round_trip(tmp_path):
    path = tmp_path / "o.json"
    path.write_text('{"n": 4, "h": [1, 2, 3, 0], "v": [1, 0, 2, 3]}')
    o = Origami.from_path(path)
    assert (o.n, o.h, o.v) == (ORIG4.n, ORIG4.h, ORIG4.v)


def test_vertex_classes_three_sheets():
    classes = vertex_classes(ORIG3)
    assert len(classes) == 1
    assert set(classes[0].sheets) == {0, 1, 2}
    assert classes[0].cone_order == 3
    assert classes[0].singular


def test_vertex_classes_four_sheets():
    classes = vertex_classes(ORIG4)
    assert [set(c.sheets) for c in classes] == [{0, 1, 2}, {3}]
    assert [c.cone_order for c in classes] == [3, 1]
    assert [c.singular for c in classes] == [True, False]


def test_vertex_classes_cover_all_sheets():
    for o in CORPUS:
        classes = vertex_classes(o)
        sheets = sorted(s for c in classes for s in c.sheets)
        assert sheets == list(range(o.n))
        assert sum(c.cone_order for c in classes) == o.n


def test_torus_has_single_regular_vertex():
    classes = vertex_classes(TORUS)
    assert len(classes) == 1 and classes[0].cone_order == 1
    assert not classes[0].singular


def test_singular_flags_are_the_corners_of_cone_order_two_or_more():
    # a corner is singular when the commutator moves it; the oracle walks
    # the corners square by square and counts each cycle's cone order
    rng = random.Random(25)
    built = regular = 0
    while built < 3000:
        n = rng.randint(1, 12)
        h, v = list(range(n)), list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = Origami(h, v)
        except DisconnectedSurfaceError:
            continue
        built += 1
        for marked in (False, True):
            want = singular_sheets(o, marked)
            assert origami._singular_flags(o, marked) == want, (o.h, o.v, marked)
        regular += not any(singular_sheets(o, False))
    assert 0 < regular < built


def test_crossing_words():
    assert crossing_word((1, 0)) == "H"
    assert crossing_word((0, 1)) == "V"
    assert crossing_word((1, 1)) == "HV"
    assert crossing_word((2, 1)) == "HHV"
    assert crossing_word((1, 2)) == "VHV"
    assert crossing_word((3, 2)) == "HVHHV"


def test_crossing_word_counts():
    for p, q in [(3, 4), (5, 2), (7, 1), (4, 9)]:
        w = crossing_word((p, q))
        assert w.count("H") == p and w.count("V") == q


def test_crossing_word_rejects_non_primitive():
    with pytest.raises(ValueError):
        crossing_word((2, 2))
    with pytest.raises(ValueError):
        crossing_word((0, 3))


@pytest.mark.parametrize("p, q", [(0, 0), (-1, 2), (3, -1)])
def test_direction_validation(p, q):
    # refused before any parent is taken: a negative pair's descent never ends
    match = r"^direction must be nonzero with p, q >= 0$"
    with pytest.raises(ValueError, match=match):
        monodromy(ORIG3, (p, q))
    with pytest.raises(ValueError, match=match):
        saddle_connections_in_direction(TORUS, (p, q))


def test_monodromy_axis_directions():
    for o in CORPUS:
        assert monodromy(o, (1, 0)) == o.h
        assert monodromy(o, (0, 1)) == o.v


def test_monodromy_diagonal():
    # word "HV" applied leftmost first: sheet i goes to v[h[i]]
    sigma = monodromy(ORIG3, (1, 1))
    assert sigma == tuple(ORIG3.v[ORIG3.h[i]] for i in range(3))
    assert sigma == (1, 2, 0)


def _seeded_origamis():
    """One transitive origami for each of 3..10 sheets, and its mirror."""
    rng = random.Random(22)
    out = []
    for n in range(3, 11):
        while True:
            h, v = list(range(n)), list(range(n))
            rng.shuffle(h)
            rng.shuffle(v)
            try:
                o = Origami(h, v)
            except DisconnectedSurfaceError:
                continue
            out += [o, o.reflect_h()]
            break
    return out


def test_composed_monodromy_matches_letter_walk():
    dirs = list(primitive_directions(2500))
    assert len(dirs) > 1000
    for o in _seeded_origamis():
        memo: dict = {}
        for d in dirs:
            want = word_monodromy(o, d)
            assert monodromy(o, d, memo) == want, (o.h, o.v, d)
        # without a memo, in another order: each call from scratch
        for d in dirs[::97]:
            assert monodromy(o, d) == word_monodromy(o, d), (o.h, o.v, d)


@pytest.mark.parametrize("p, q", [(1, 10**4), (9999, 10**4), (10**4, 1)])
def test_composed_monodromy_far_directions(p, q):
    # ancestors are made from a stack: a chain of 10^4 parents recurses
    # nowhere, so no RecursionError
    for o in _seeded_origamis()[:4]:
        assert monodromy(o, (p, q)) == word_monodromy(o, (p, q))


@pytest.mark.parametrize("p, q", [(2, 2), (0, 3), (3, 0), (4, 6)])
def test_monodromy_rejects_non_primitive(p, q):
    with pytest.raises(ValueError, match="not primitive"):
        monodromy(ORIG3, (p, q))
    with pytest.raises(ValueError, match="not primitive"):
        saddle_connections_in_direction(TORUS, (p, q))


def test_enumerate_composes_once_per_direction(monkeypatch):
    calls = []
    compose = origami._compose

    def counted(first, then):
        calls.append(1)
        return compose(first, then)

    monkeypatch.setattr(origami, "_compose", counted)
    radius = 30
    enumerate_holonomies(ORIG6, radius)
    # the axes are h and v as they are; every other direction, on the
    # surface and on its mirror, is one composition of two memoised parents
    off_axis = sum(1 for p, q in primitive_directions(radius**2) if p and q)
    assert len(calls) == 2 * off_axis


def test_saddle_connections_three_sheet_horizontal():
    counts = saddle_connections_in_direction(ORIG3, (1, 0))
    assert counts == Counter({1: 3})


def test_saddle_connections_four_sheet_horizontal():
    counts = saddle_connections_in_direction(ORIG4, (1, 0))
    assert counts == Counter({1: 2, 2: 1})


def test_saddle_connection_steps_bounded_by_sheet_count():
    dirs = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (2, 3)]
    for o in CORPUS:
        for d in dirs:
            if not any(singular_sheets(o, False)):
                continue
            for s in saddle_connections_in_direction(o, d):
                assert 1 <= s <= o.n


def test_torus_notice_when_unmarked():
    with pytest.warns(UserWarning, match=TORUS_NOTICE):
        counts = saddle_connections_in_direction(TORUS, (1, 0))
    assert counts == Counter()
    with pytest.warns(UserWarning, match=TORUS_NOTICE):
        assert len(enumerate_holonomies(TORUS, 5)) == 0


def test_torus_marked_single_step():
    counts = saddle_connections_in_direction(TORUS, (1, 0), marked=True)
    assert counts == Counter({1: 1})
    assert ray_trace_oracle(TORUS, 0, (1, 0), 5, marked=True) == 1


def test_ray_trace_examples():
    assert ray_trace_oracle(ORIG3, 0, (1, 1), 10) == 1
    assert ray_trace_oracle(ORIG4, 2, (1, 0), 10) == 2


def test_ray_trace_from_regular_corner_matches_walk():
    # starting at the regular corner of ORIG4 the nearest singular corner
    # in direction (1,0) is one period away (sheet 0's class)
    assert ray_trace_oracle(ORIG4, 3, (1, 0), 10) == 1


def test_sigma_method_matches_ray_trace_everywhere():
    dirs = [
        (p, q)
        for p in range(0, 11)
        for q in range(0, 11)
        if (p, q) != (0, 0) and gcd(p, q) == 1 and p * p + q * q <= 100
    ]
    for o in CORPUS:
        for marked in (False, True):
            sing = singular_sheets(o, marked)
            if not any(sing):
                continue
            for d in dirs:
                got = saddle_connections_in_direction(o, d, marked)
                want: Counter = Counter()
                for i in range(o.n):
                    if sing[i]:
                        s = ray_trace_oracle(o, i, d, o.n + 1, marked)
                        assert s is not None
                        want[s] += 1
                assert got == want, (o.h, o.v, d, marked)


def test_primitive_directions_complete():
    got = sorted(primitive_directions(Fraction(100)))
    want = sorted(
        (p, q)
        for p in range(0, 11)
        for q in range(0, 11)
        if (p, q) != (0, 0) and gcd(p, q) == 1 and p * p + q * q <= 100
    )
    assert got == want


def test_enumerate_holonomies_four_sheet():
    ps = enumerate_holonomies(ORIG4, 2.5)
    assert point(1, 0) in ps
    assert point(2, 0) in ps
    assert point(-2, 0) in ps
    for p in ps:
        g = gcd(abs(int(p.x.a)), abs(int(p.y.a)))
        assert 1 <= g <= 4


def test_enumerate_closed_under_negation():
    for o in (ORIG3, ORIG4, ORIG6):
        ps = enumerate_holonomies(o, 4)
        pairs = set(zip(ps.xs, ps.ys))
        assert {(-x, -y) for x, y in pairs} == pairs
        assert len(ps) > 0


def test_marked_torus_equals_coprime():
    assert enumerate_holonomies(TORUS, 5, marked=True) == coprime_points(5)


def test_holonomy_gcd_bounded_random_origamis():
    rng = random.Random(99)
    built = 0
    while built < 6:
        n = rng.randint(2, 6)
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = Origami(tuple(h), tuple(v))
        except DisconnectedSurfaceError:
            continue
        built += 1
        ps = enumerate_holonomies(o, 8, marked=True)
        for p in ps:
            x, y = int(p.x.a), int(p.y.a)
            g = gcd(abs(x), abs(y))
            assert 1 <= g <= n
            assert gcd(abs(x) // g if x else 0, abs(y) // g if y else 0) <= 1


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("o", [ORIG3, ORIG4, ORIG5, ORIG6], ids=["3", "4", "5", "6"])
def test_enumerate_equals_its_points_shuffled(o, marked):
    ps = enumerate_holonomies(o, 9, marked=marked)
    pts = [point(p.x, p.y, p.tag) for p in ps]
    random.Random(len(pts)).shuffle(pts)
    again = PointSet(pts)
    assert ps == again
    assert ps.points == again.points
    assert ps.tags == again.tags
