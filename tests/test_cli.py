"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import holoset
from holoset import close_pair as close_pair_mod
from holoset.cli import main
from holoset.exact import parse_quadext, read_pointset_csv

TORUS = {"n": 1, "h": [0], "v": [0]}
FOUR_SHEETS = {"n": 4, "h": [1, 2, 3, 0], "v": [1, 0, 2, 3]}
DISCONNECTED = {"n": 2, "h": [0, 1], "v": [0, 1]}

GOLDEN_PAIR = {
    "l": ["1", "0"],
    "h": ["1/3", "1/100"],
    "w": "1/100",
    "l_prime": ["1/2+1/2*sqrt(5)", "0"],
    "h_prime": ["1/7", "1/100"],
    "w_prime": "1/100",
}
RATIONAL_PAIR = {
    "l": ["1", "0"],
    "h": ["1/3", "1/50"],
    "w": "1/50",
    "l_prime": ["2", "0"],
    "h_prime": ["1/7", "1/50"],
    "w_prime": "1/50",
}
WIDE_PAIR = {
    "l": ["1", "0"],
    "h": ["1/3", "1/2"],
    "w": "1/2",
    "l_prime": ["sqrt(2)", "0"],
    "h_prime": ["1/7", "-1/2"],
    "w_prime": "1/2",
}


# child interpreters import holoset from where this one did, so the
# suite also runs from a checkout that is not installed
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(
            None,
            (str(Path(holoset.__file__).parents[1]), os.environ.get("PYTHONPATH")),
        )
    ),
}


def run(*args):
    return main([str(a) for a in args])


def data_rows(csv_text):
    lines = csv_text.splitlines()
    assert lines[0] == "x_exact,y_exact,x_float,y_float,tag"
    return lines[1:]


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- coprime -------------------------------------------------------------------


def test_coprime_radius_one(capsys):
    assert run("coprime", "--radius", "1") == 0
    assert len(data_rows(capsys.readouterr().out)) == 4


def test_coprime_max_gcd_two(capsys):
    assert run("coprime", "--radius", "2", "--max-gcd", "2") == 0
    assert len(data_rows(capsys.readouterr().out)) == 12


def test_coprime_small_radius_empty(capsys):
    assert run("coprime", "--radius", "0.5") == 0
    assert data_rows(capsys.readouterr().out) == []


def test_coprime_bad_radius_exits_two():
    with pytest.raises(SystemExit) as exc:
        run("coprime", "--radius", "abc")
    assert exc.value.code == 2


def test_coprime_out_file(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    assert run("coprime", "--radius", "3", "--out", out) == 0
    assert capsys.readouterr().out == ""
    with open(out, newline="") as f:
        ps = read_pointset_csv(f)
    assert len(ps.points) == 16


# -- enumerate -----------------------------------------------------------------


def test_enumerate_marked_torus_matches_coprime(tmp_path, capsys):
    path = write_json(tmp_path / "torus.json", TORUS)
    assert run("enumerate", path, "--radius", "5", "--marked") == 0
    got = capsys.readouterr().out
    assert run("coprime", "--radius", "5") == 0
    assert got == capsys.readouterr().out


def test_enumerate_unmarked_torus_warns_and_is_empty(tmp_path, capsys):
    path = write_json(tmp_path / "torus.json", TORUS)
    with pytest.warns(UserWarning):
        assert run("enumerate", path, "--radius", "5") == 0
    assert data_rows(capsys.readouterr().out) == []


def test_enumerate_four_sheets(tmp_path, capsys):
    path = write_json(tmp_path / "four.json", FOUR_SHEETS)
    assert run("enumerate", path, "--radius", "2.5") == 0
    rows = data_rows(capsys.readouterr().out)
    assert any(r.startswith("2,0,") for r in rows)
    assert any(r.startswith("1,0,") for r in rows)


def test_enumerate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert run("enumerate", str(path), "--radius", "1") == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_missing_file(capsys):
    assert run("enumerate", "/no/such/file.json", "--radius", "1") == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_disconnected_exits_three(tmp_path, capsys):
    path = write_json(tmp_path / "disc.json", DISCONNECTED)
    assert run("enumerate", path, "--radius", "1") == 3
    assert "unreachable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "h": [1.9, 0], "v": [0, 1]},
        {"n": 2, "h": [1, 0], "v": [True, False]},
        {"n": 2.5, "h": [1, 0], "v": [0, 1]},
        {"n": True, "h": [0], "v": [0]},
        {"n": 2, "h": ["1", "0"], "v": [0, 1]},
    ],
)
def test_enumerate_rejects_non_integer_json(tmp_path, capsys, doc):
    path = write_json(tmp_path / "bad.json", doc)
    assert run("enumerate", path, "--radius", "3", "--marked") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# -- hole ----------------------------------------------------------------------


def test_hole_basic(capsys):
    assert run("hole", "--radius", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["failure"] is None
    assert doc["certificate"]["primes"][0][0] == 2
    assert doc["digits"]["x"] == len(doc["certificate"]["x"])


def test_hole_max_gcd_two_starts_at_three(capsys):
    assert run("hole", "--radius", "1", "--max-gcd", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    flat = [p for row in doc["certificate"]["primes"] for p in row]
    assert min(flat) == 3
    assert doc["verification"]["passed"] is True


def test_hole_refuses_oversized(capsys):
    assert run("hole", "--radius", "10") == 2
    err = capsys.readouterr().err
    assert "refusing" in err and "digits" in err


@pytest.mark.parametrize("max_gcd", ["-3", "-2", "0"])
def test_hole_rejects_max_gcd_below_one(capsys, max_gcd):
    assert run("hole", "--radius", "1", "--max-gcd", max_gcd) == 2
    assert capsys.readouterr().err == "error: max_gcd must be >= 1\n"


# -- example -------------------------------------------------------------------


def test_example_closed_form_and_oracle_agree(capsys):
    assert run("example", "--radius", "5") == 0
    closed = capsys.readouterr().out
    assert run("example", "--radius", "5", "--oracle") == 0
    assert closed == capsys.readouterr().out
    assert "-1/1+1/1*sqrt(2),-1/1+1/1*sqrt(3)" in closed


def test_example_tiny_radius_empty(capsys):
    assert run("example", "--radius", "0.2") == 0
    assert data_rows(capsys.readouterr().out) == []


# -- close-pair ----------------------------------------------------------------


def test_close_pair_golden(tmp_path, capsys):
    path = write_json(tmp_path / "pair.json", GOLDEN_PAIR)
    assert run("close-pair", path, "--radius", "0.01") == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["dist"] < 0.01
    assert doc["dist_err"] < 1e-9
    for key in ("v1", "v2"):
        parse_quadext(doc[key][0])
        parse_quadext(doc[key][1])
    assert isinstance(doc["n0"], int) and isinstance(doc["n0_prime"], int)


def test_close_pair_rational_ratio_exits_four(tmp_path, capsys):
    path = write_json(tmp_path / "pair.json", RATIONAL_PAIR)
    assert run("close-pair", path, "--radius", "0.01") == 4
    assert "rational" in capsys.readouterr().err


def test_close_pair_width_violation_exits_five(tmp_path, capsys):
    path = write_json(tmp_path / "pair.json", WIDE_PAIR)
    assert run("close-pair", path, "--radius", "1/5") == 5
    assert "error:" in capsys.readouterr().err


def test_close_pair_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text("[]", encoding="utf-8")
    assert run("close-pair", str(path), "--radius", "0.01") == 2
    assert "object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [
        close_pair_mod.ApproximationSearchError("approximation search failed"),
        close_pair_mod.VerificationError("verification failed"),
    ],
)
def test_close_pair_search_failures_exit_two(tmp_path, capsys, monkeypatch, error):
    def failing(*_args):
        raise error

    monkeypatch.setattr("holoset.cli.close_pair", failing)
    path = write_json(tmp_path / "pair.json", GOLDEN_PAIR)
    assert run("close-pair", path, "--radius", "0.01") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


# -- diagnose ------------------------------------------------------------------


def test_diagnose_coprime(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert run("coprime", "--radius", "5", "--out", csv_path) == 0
    out_path = tmp_path / "report.json"
    code = run(
        "diagnose",
        csv_path,
        "--window=-2,-2,2,2",
        "--resolution",
        "1/4",
        "--radii",
        "2,5",
        "--out",
        out_path,
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["label"] == "finite-window estimate"
    assert doc["min_gap"]["gap"] == pytest.approx(1.0, abs=1e-9)
    assert doc["covering_radius"]["radius"] == pytest.approx(1.0, abs=1e-9)
    assert doc["growth"]["counts"] == [["2", 8], ["5", 48]]
    assert doc["growth"]["non_quadratic"] is False


def test_diagnose_bad_rows_listed(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text(
        "x_exact,y_exact,x_float,y_float,tag\n1,0,1,0,\nzzz,1,0,1,\n",
        encoding="utf-8",
    )
    code = run(
        "diagnose", csv_path, "--window", "0,0,1,1",
        "--resolution", "1", "--radii", "1",
    )
    assert code == 2
    assert "lines [3]" in capsys.readouterr().err


def test_diagnose_grid_over_cap_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert run("coprime", "--radius", "2", "--out", csv_path) == 0
    capsys.readouterr()
    code = run(
        "diagnose", csv_path, "--window=0,0,1,1",
        "--resolution", "1/1000000000000", "--radii", "1",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: covering grid would have 1000000000002000000000001 centers "
        "(cap is 100000000); use a coarser resolution or a smaller window\n"
    )


def test_diagnose_window_arity_checked():
    with pytest.raises(SystemExit) as exc:
        run("diagnose", "x.csv", "--window", "1,2,3",
            "--resolution", "1", "--radii", "1")
    assert exc.value.code == 2


# -- plot ----------------------------------------------------------------------


def test_plot_coprime(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert run("coprime", "--radius", "20", "--out", csv_path) == 0
    with open(csv_path, newline="") as f:
        n = len(read_pointset_csv(f).points)
    assert run("plot", csv_path) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg ")
    assert 'width="800" height="800"' in svg
    assert svg.count("<circle ") == n
    assert svg.count("<line ") == 2


def test_plot_empty_is_axes_only(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert run("coprime", "--radius", "0.5", "--out", csv_path) == 0
    assert run("plot", csv_path) == 0
    svg = capsys.readouterr().out
    assert "<circle" not in svg
    assert svg.count("<line ") == 2
    assert svg.rstrip().endswith("</svg>")


def test_plot_tag_classes(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert run("example", "--radius", "5", "--out", csv_path) == 0
    assert run("plot", csv_path) == 0
    svg = capsys.readouterr().out
    for cls in (".tag-uu", ".tag-uv", ".tag-vu"):
        assert cls in svg
    assert 'class="tag-uv"' in svg


def test_plot_axis_range(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert run("coprime", "--radius", "3", "--out", csv_path) == 0
    assert run("plot", csv_path, "--axis-range=-1,-1,1,1") == 0
    svg = capsys.readouterr().out
    assert 'viewBox="-1.100000 -1.100000 2.200000 2.200000"' in svg


def test_plot_bad_rows_listed(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text(
        "x_exact,y_exact,x_float,y_float,tag\nbogus\n1,0,1,0,\n",
        encoding="utf-8",
    )
    assert run("plot", csv_path) == 2
    assert "lines [2]" in capsys.readouterr().err


def test_plot_rejects_zero_point_size(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    svg_path = tmp_path / "pts.svg"
    assert run("coprime", "--radius", "1", "--out", csv_path) == 0
    capsys.readouterr()
    for size in ("0", "nan", "inf", "-inf"):
        argv = ("plot", csv_path, f"--point-size={size}", "--out", svg_path)
        assert run(*argv) == 2, size
        assert capsys.readouterr().err == "error: point size must be positive\n"
        assert not svg_path.exists()


BEYOND_FLOAT = str(10**400)


@pytest.mark.parametrize(
    "x", [BEYOND_FLOAT, BEYOND_FLOAT + "+1/1*sqrt(2)"], ids=["rational", "radical"]
)
@pytest.mark.parametrize(
    "command",
    [
        ("plot",),
        ("diagnose", "--window=0,0,1,1", "--resolution", "1/2", "--radii", "1,2"),
    ],
    ids=["plot", "diagnose"],
)
def test_value_beyond_float_range_exits_two(tmp_path, capsys, x, command):
    csv_path = tmp_path / "huge.csv"
    out = tmp_path / "out"
    csv_path.write_text(
        f"x_exact,y_exact,x_float,y_float,tag\n{x},0,,,\n0,1,0,1,\n",
        encoding="utf-8",
    )
    code = run(command[0], csv_path, *command[1:], "--out", out)
    captured = capsys.readouterr()
    assert code == 2
    want = x if x == BEYOND_FLOAT else BEYOND_FLOAT + "/1+1/1*sqrt(2)"
    assert captured.err == (
        f"error: point ({want}, 0) lies beyond the float range\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "radii, name",
    [("1,2e400", "2" + "0" * 400), ("1e-200,1", "1/1" + "0" * 200)],
    ids=["overflow", "underflow"],
)
def test_radius_beyond_float_range_exits_two(tmp_path, capsys, radii, name):
    csv_path = tmp_path / "pts.csv"
    out = tmp_path / "out.json"
    assert run("coprime", "--radius", "2", "--out", csv_path) == 0
    code = run(
        "diagnose", csv_path, "--window=0,0,1,1", "--resolution", "1/2",
        "--radii", radii, "--out", out,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: radius {name}: its square lies beyond the float range\n"
    )
    assert captured.out == "" and not out.exists()


def test_infinite_growth_coefficient_exits_two(tmp_path, capsys):
    # 1e-160 squared is a subnormal float, and (1e-170, 0) lies in its ball
    csv_path = tmp_path / "tiny.csv"
    out = tmp_path / "out.json"
    tiny = "1/1" + "0" * 170
    csv_path.write_text(
        f"x_exact,y_exact,x_float,y_float,tag\n{tiny},0,,,\n1,0,1,0,\n",
        encoding="utf-8",
    )
    code = run(
        "diagnose", csv_path, "--window=0,0,1,1", "--resolution", "1/2",
        "--radii", "1e-160,1", "--out", out,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: radius 1/1{'0' * 160}: its growth coefficient N(R)/R^2 "
        f"lies beyond the float range\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "rows, axis_range",
    [
        ([("1", "0")], "--axis-range=-1e308,0,1e308,1"),
        ([("1" + "0" * 308, "0"), ("-1" + "0" * 308, "0")], None),
    ],
    ids=["axis-range", "data-bounds"],
)
def test_plot_extent_beyond_float_range_exits_two(tmp_path, capsys, rows, axis_range):
    # each bound is a finite float, but the padded span overflows
    csv_path = tmp_path / "pts.csv"
    svg_path = tmp_path / "pts.svg"
    csv_path.write_text(
        "x_exact,y_exact,x_float,y_float,tag\n"
        + "".join(f"{x},{y},0,0,\n" for x, y in rows),
        encoding="utf-8",
    )
    argv = ["plot", csv_path, "--out", svg_path] + ([axis_range] if axis_range else [])
    code = run(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: plot extent x -1e+308..1e+308, y ")
    assert captured.err.endswith("lies beyond the float range\n")
    assert captured.out == "" and not svg_path.exists()


def test_axis_range_beyond_float_range_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    svg_path = tmp_path / "pts.svg"
    assert run("coprime", "--radius", "2", "--out", csv_path) == 0
    code = run("plot", csv_path, "--axis-range=0,0,1e400,1", "--out", svg_path)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: axis range bound 1{'0' * 400} lies beyond the float range\n"
    )
    assert captured.out == "" and not svg_path.exists()


# -- determinism and round trips -----------------------------------------------


def rerun_bytes(tmp_path, *args):
    blobs = []
    for name in ("a.out", "b.out"):
        out = tmp_path / name
        assert run(*args, "--out", out) == 0
        blobs.append(out.read_bytes())
    return blobs


def test_outputs_byte_identical(tmp_path):
    origami = write_json(tmp_path / "four.json", FOUR_SHEETS)
    pair = write_json(tmp_path / "pair.json", GOLDEN_PAIR)
    pts = tmp_path / "pts.csv"
    assert run("example", "--radius", "4", "--out", pts) == 0
    pts8 = tmp_path / "pts8.csv"
    assert run("example", "--radius", "8", "--out", pts8) == 0
    # sha256 of each output, frozen from a reference run: a change to
    # any byte of any output fails here, not only nondeterminism
    invocations = [
        (("coprime", "--radius", "10"),
         "4f04420c2130a8dfb858dc700b9327928482fa2e5173b85724c76dd0248a00d6"),
        # lattice sizes, where the integer keys and the cell memo run
        (("coprime", "--radius", "199"),
         "ec70b60afc6b4171138a91d11a859e6ce511368ba62b39b83a0a835db9fc02a6"),
        (("coprime", "--radius", "303/5", "--max-gcd", "2"),
         "88e124c6731f4f4f47f61df0a45d945b16173a8bbf2bdbf806f57737b0c9bb17"),
        (("enumerate", origami, "--radius", "3", "--marked"),
         "7fd4295671bd060c2cd6ed159087dd496fd2643ed82d51272d06fd8b9d4557fa"),
        (("hole", "--radius", "1"),
         "234bb24e7892ef8070f82b4020e219f8132fd1a165a5d0512f3ef2bd0d017995"),
        (("example", "--radius", "3"),
         "54f6a1cb4492adf530beeef833ebce8054ee5491c64fa3bb8daab911696b6473"),
        (("close-pair", pair, "--radius", "0.01"),
         "a8fd23875e4e0473c36daa4ca0a12ba55485cb9677075feabe62e4df6193163d"),
        (("diagnose", pts, "--window=-2,-2,2,2",
          "--resolution", "1/5", "--radii", "2,4"),
         "4c070822faacd98620387bbb2ce1867be528f14d10e33308ead391bfd4eb8a50"),
        (("plot", pts),
         "d4af4e51f5b8666cb4d992c68c92cdfae711a663fdd336ea2c498a182796211f"),
        # a 501x501 grid, large enough that the covering search prunes
        (("diagnose", pts8, "--window=-5,-5,5,5",
          "--resolution", "1/50", "--radii", "2,4,8"),
         "16ada7c825d64ef86da6fb89134a09cbcde8d86ad0837c7550a93240a0d95dcd"),
        (("example", "--radius", "157/20"),
         "c2d205446ed349919a270855ef2e2bac2b48a26b71c490da14019a198504ce0a"),
        # the oracle and the comparison sort share the float-bracket
        # filters, so agreement between them cannot catch a filter bug
        (("example", "--radius", "41/10", "--oracle"),
         "01b90b6d23fc2986eebf1c89f8a05f300c5e88ee2b59ae193298b0093f9d1dba"),
        (("example", "--radius", "157/4"),
         "f7f20b6728a5a80aa9b7e894cc05477a0560fcc055a0f0589d2dfb8168c1b64b"),
    ]
    for args, digest in invocations:
        first, second = rerun_bytes(tmp_path, *args)
        assert first == second, f"nondeterministic output from {args[0]}"
        assert hashlib.sha256(first).hexdigest() == digest, args[0]


def test_written_csvs_reload_without_loss(tmp_path):
    for args, expected in [
        (("coprime", "--radius", "4"), 32),
        (("example", "--radius", "2"), 34),
    ]:
        out = tmp_path / "pts.csv"
        assert run(*args, "--out", out) == 0
        with open(out, newline="") as f:
            ps = read_pointset_csv(f)
        rows = data_rows(out.read_text(encoding="utf-8"))
        assert len(ps.points) == len(rows) == expected


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "holoset", "coprime", "--radius", "1"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert len(data_rows(proc.stdout)) == 4


def test_subcommands_without_diagnose_do_not_import_numpy_or_scipy(tmp_path):
    csv_path, svg_path = str(tmp_path / "ex.csv"), str(tmp_path / "ex.svg")
    script = textwrap.dedent(
        f"""
        import sys
        from holoset.cli import main
        assert main(["coprime", "--radius", "5"]) == 0
        assert main(["example", "--radius", "3", "--out", {csv_path!r}]) == 0
        assert main(["plot", {csv_path!r}, "--out", {svg_path!r}]) == 0
        heavy = sorted({{m.split(".")[0] for m in sys.modules}} & {{"numpy", "scipy"}})
        print(heavy, file=sys.stderr)
        sys.exit(1 if heavy else 0)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(data_rows(proc.stdout)) > 0
    assert (tmp_path / "ex.svg").read_text().count("<circle ") > 0


def test_diagnose_does_not_import_scipy(tmp_path):
    csv_path, json_path = str(tmp_path / "ex.csv"), str(tmp_path / "ex.json")
    script = textwrap.dedent(
        f"""
        import sys
        from holoset.cli import main
        assert main(["example", "--radius", "3", "--out", {csv_path!r}]) == 0
        argv = ["diagnose", {csv_path!r}, "--window=-1,-1,1,1",
                "--resolution", "1/10", "--radii", "1,2", "--out", {json_path!r}]
        assert main(argv) == 0
        sys.exit("scipy" in sys.modules)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "covering_radius" in json.loads((tmp_path / "ex.json").read_text())
