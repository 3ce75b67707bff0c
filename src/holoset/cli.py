"""Command-line front end for the holonomy-set toolkit.

Subcommands generate point sets (square-tiled surfaces, gcd-filtered
lattices, the branched double cover), build and verify empty-ball
certificates, search for close holonomy pairs, run Delone diagnostics
over a CSV of points, and render SVG scatter plots.

Every subcommand is deterministic: identical inputs produce
byte-identical output files, so artifacts can be diffed and cached.
Files are written atomically (temp file in the target directory, then
rename).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import Optional, Sequence

from .close_pair import close_pair, load_cylinder_pair
from .coprime import (
    CertificateError,
    crt_hole,
    gcd_filtered_points,
    verify_hole,
)
from .diagnostics import delone_report, report_to_json_dict
from .double_cover import closed_form, geometric_oracle
from .exact import (
    FloatRangeError,
    PointSet,
    as_fraction,
    format_quadext,
    read_pointset_csv,
    write_pointset_csv,
)
from .origami import Origami, enumerate_holonomies

# the other exit codes are the exit_code attributes of the error classes
EXIT_OK = 0
EXIT_INVALID = 2

# Refuse hole certificates whose CRT moduli would be absurdly large; the
# estimate below tracks the true digit count closely for small grids.
SIZE_CAP_DIGITS = 500

SVG_CANVAS = 800
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _window_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected x0,y0,x1,y1")
    return tuple(_fraction_arg(p) for p in parts)


def _radii_arg(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return tuple(_fraction_arg(p) for p in parts)


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write to stdout, or atomically to a file."""
    if out_path is None:
        sys.stdout.write(text)
        return
    path = Path(out_path)
    parent = str(path.parent) if str(path.parent) else "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(ps: PointSet) -> str:
    buf = StringIO()
    write_pointset_csv(ps, buf)
    return buf.getvalue()


def _json_text(doc: dict) -> str:
    import json  # only the commands that write JSON pay for it

    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _read_points(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        return read_pointset_csv(f)


# -- subcommands ---------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    o = Origami.from_path(args.input_path)
    ps = enumerate_holonomies(o, args.radius, marked=args.marked)
    _emit(_csv_text(ps), args.out)
    return EXIT_OK


def cmd_coprime(args: argparse.Namespace) -> int:
    ps = gcd_filtered_points(args.max_gcd, args.radius)
    _emit(_csv_text(ps), args.out)
    return EXIT_OK


def _certificate_digit_estimate(max_gcd: int, radius: Fraction) -> int:
    """Rough digit count of the CRT moduli a certificate would need.

    The grid takes m = n*n primes above max_gcd; their product has about
    m * max(ln m, ln max_gcd) / ln 10 digits (prime number theorem), which
    is accurate enough to decide whether building it is sane.
    """
    if max_gcd < 1:
        raise ValueError("max_gcd must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = math.floor(2 * radius) + 1
    m = n * n
    per_prime = max(math.log(max(m, 3)), math.log(max_gcd + 2))
    return int(m * per_prime / math.log(10)) + 1


def cmd_hole(args: argparse.Namespace) -> int:
    estimate = _certificate_digit_estimate(args.max_gcd, args.radius)
    if estimate > SIZE_CAP_DIGITS:
        raise CertificateError(
            f"refusing to build certificate: CRT moduli would have roughly "
            f"{estimate} digits (cap is {SIZE_CAP_DIGITS}); use a smaller "
            f"radius"
        )
    cert = crt_hole(args.max_gcd, args.radius)
    report = verify_hole(cert)
    doc = {
        "certificate": cert.to_json_dict(),
        "digits": {"x": len(str(cert.x)), "y": len(str(cert.y))},
        "verification": report.to_json_dict(),
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_example(args: argparse.Namespace) -> int:
    build = geometric_oracle if args.oracle else closed_form
    ps = build(None, args.radius)
    _emit(_csv_text(ps), args.out)
    return EXIT_OK


def cmd_close_pair(args: argparse.Namespace) -> int:
    ci, cj = load_cylinder_pair(args.input_path)
    res = close_pair(ci, cj, args.radius)
    doc = {
        "n0": res.n0,
        "n0_prime": res.n0p,
        "v1": [format_quadext(res.v1[0]), format_quadext(res.v1[1])],
        "v2": [format_quadext(res.v2[0]), format_quadext(res.v2[1])],
        "dist": res.dist,
        "dist_err": res.dist_err,
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    ps = _read_points(args.input_path)
    report = delone_report(ps, args.window, args.resolution, args.radii)
    _emit(_json_text(report_to_json_dict(report)), args.out)
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    ps = _read_points(args.input_path)
    _emit(render_svg(ps, args.point_size, args.axis_range), args.out)
    return EXIT_OK


# -- SVG rendering -------------------------------------------------------------


def _tag_class(tag: Optional[str]) -> str:
    if tag is None:
        return "pt"
    return "tag-" + re.sub(r"[^A-Za-z0-9]+", "-", tag).lower()


def render_svg(ps: PointSet, point_size: float = 2.0, axis_range=None) -> str:
    """Scatter plot of a point set on a fixed 800x800 canvas.

    The viewBox comes from the data bounds padded by 5% (or from
    axis_range when given); y points up.  Marker colors are keyed by
    point tag, assigned in sorted tag order, so output is a pure
    function of the input set.
    """
    if not (point_size > 0 and math.isfinite(point_size)):
        raise ValueError("point size must be positive")
    coords = []
    for p in ps:
        try:
            coords.append((float(p.x), -float(p.y), p.tag))
        except OverflowError:
            raise FloatRangeError(p) from None
    if axis_range is not None:
        bounds = []
        for v in axis_range:
            try:
                bounds.append(float(v))
            except OverflowError:
                raise ValueError(
                    f"axis range bound {v} lies beyond the float range"
                ) from None
        x0, y0, x1, y1 = bounds
        if x1 <= x0 or y1 <= y0:
            raise ValueError("axis range is empty")
        min_x, max_x, min_y, max_y = x0, x1, -y1, -y0
    elif coords:
        min_x = min(c[0] for c in coords)
        max_x = max(c[0] for c in coords)
        min_y = min(c[1] for c in coords)
        max_y = max(c[1] for c in coords)
    else:
        min_x, max_x, min_y, max_y = -1.0, 1.0, -1.0, 1.0
    pad = 0.05 * max(max_x - min_x, max_y - min_y)
    if pad == 0:
        pad = 1.0
    vx, vy = min_x - pad, min_y - pad
    vw, vh = max_x - min_x + 2 * pad, max_y - min_y + 2 * pad
    scale = max(vw, vh) / SVG_CANVAS
    if not all(map(math.isfinite, (vx, vy, vw, vh, scale))):
        raise ValueError(
            f"plot extent x {min_x!r}..{max_x!r}, y {-max_y!r}..{-min_y!r}: "
            f"its padded span lies beyond the float range"
        )

    classes = {tag: _tag_class(tag) for tag in {c[2] for c in coords}}
    tags = sorted(tag for tag in classes if tag is not None)
    styles = [f".axis {{ stroke: #999999; stroke-width: {scale:.6f}; }}"]
    styles.append(f".pt {{ fill: {_PALETTE[0]}; }}")
    for i, tag in enumerate(tags):
        color = _PALETTE[i % len(_PALETTE)]
        styles.append(f".{classes[tag]} {{ fill: {color}; }}")

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_CANVAS}" '
        f'height="{SVG_CANVAS}" '
        f'viewBox="{vx:.6f} {vy:.6f} {vw:.6f} {vh:.6f}">',
        "<style>",
        *styles,
        "</style>",
        f'<line class="axis" x1="{vx:.6f}" y1="0.000000" '
        f'x2="{vx + vw:.6f}" y2="0.000000"/>',
        f'<line class="axis" x1="0.000000" y1="{vy:.6f}" '
        f'x2="0.000000" y2="{vy + vh:.6f}"/>',
    ]
    r = point_size * scale
    for x, y, tag in coords:
        lines.append(
            f'<circle class="{classes[tag]}" cx="{x:.6f}" cy="{y:.6f}" '
            f'r="{r:.6f}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoset",
        description="generate, certify, and plot holonomy point sets",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    p = sub.add_parser(
        "enumerate", help="holonomy vectors of a square-tiled surface"
    )
    p.set_defaults(func=cmd_enumerate)
    p.add_argument(
        "input_path", metavar="origami", help="path to origami JSON {n, h, v}"
    )
    p.add_argument("--radius", type=_fraction_arg, required=True)
    p.add_argument(
        "--marked",
        action="store_true",
        help="count regular vertices as marked points",
    )
    p.add_argument("--out", dest="out", help="output CSV path (default stdout)")

    p = sub.add_parser("coprime", help="gcd-filtered integer vectors")
    p.set_defaults(func=cmd_coprime)
    p.add_argument("--radius", type=_fraction_arg, required=True)
    p.add_argument("--max-gcd", dest="max_gcd", type=int, default=1)
    p.add_argument("--out", dest="out", help="output CSV path (default stdout)")

    p = sub.add_parser(
        "hole", help="CRT certificate for an empty ball in the gcd filter"
    )
    p.set_defaults(func=cmd_hole)
    p.add_argument("--radius", type=_fraction_arg, required=True)
    p.add_argument("--max-gcd", dest="max_gcd", type=int, default=1)
    p.add_argument("--out", dest="out", help="output JSON path (default stdout)")

    p = sub.add_parser(
        "example", help="holonomy set of the shifted branched double cover"
    )
    p.set_defaults(func=cmd_example)
    p.add_argument("--radius", type=_fraction_arg, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="rebuild from segment geometry instead of the closed form",
    )
    p.add_argument("--out", dest="out", help="output CSV path (default stdout)")

    p = sub.add_parser(
        "close-pair", help="holonomy vectors closer than r from twist orbits"
    )
    p.set_defaults(func=cmd_close_pair)
    p.add_argument(
        "input_path", metavar="config", help="path to cylinder-pair JSON"
    )
    p.add_argument(
        "--radius", type=_fraction_arg, required=True, help="closeness target r"
    )
    p.add_argument("--out", dest="out", help="output JSON path (default stdout)")

    p = sub.add_parser("diagnose", help="gap/covering/growth report for a CSV")
    p.set_defaults(func=cmd_diagnose)
    p.add_argument("input_path", metavar="points", help="path to point CSV")
    p.add_argument("--window", type=_window_arg, required=True, metavar="X0,Y0,X1,Y1")
    p.add_argument("--resolution", type=_fraction_arg, required=True)
    p.add_argument(
        "--radii", type=_radii_arg, required=True, metavar="R1,R2,..."
    )
    p.add_argument("--out", dest="out", help="output JSON path (default stdout)")

    p = sub.add_parser("plot", help="SVG scatter plot of a point CSV")
    p.set_defaults(func=cmd_plot)
    p.add_argument("input_path", metavar="points", help="path to point CSV")
    p.add_argument("--out", dest="out", help="output SVG path (default stdout)")
    p.add_argument("--point-size", dest="point_size", type=float, default=2.0)
    p.add_argument(
        "--axis-range",
        dest="axis_range",
        type=_window_arg,
        metavar="X0,Y0,X1,Y1",
        help="fix the view to this data rectangle instead of the data bounds",
    )

    return parser


def _fail(code: int, exc: BaseException) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        # an error class may carry its exit code; any other OSError or
        # ValueError is invalid input, and any other RuntimeError a bug
        code = getattr(exc, "exit_code", None)
        if code is None and isinstance(exc, RuntimeError):
            raise
        return _fail(code or EXIT_INVALID, exc)


if __name__ == "__main__":
    sys.exit(main())
