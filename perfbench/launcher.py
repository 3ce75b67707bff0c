"""Run one holoset CLI invocation with spans around each layer's public calls.

    python launcher.py TRACE_JSON holoset-args...

The launcher imports ``holoset.cli`` (timed), wraps public names of the
``cli``, ``exact``, ``coprime``, ``origami``, ``double_cover``,
``close_pair`` and ``diagnostics`` modules from outside, calls
``holoset.cli.main(args)`` and writes the aggregated trace as JSON.
Nothing in the program changes.

Modules bind imported names at import time, so a function is wrapped where
callers look it up (``holoset.coprime.point``, not ``holoset.exact.point``),
and methods are wrapped on their class.  A name that no longer exists is
skipped: its metric goes unreported and the invocation still runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from fractions import Fraction


class Tracer:
    """Spans and counters aggregated by name, kept in memory.

    For every span name it keeps the number of calls, the inclusive time
    (only the outermost span counts when spans of one name nest) and the
    self time: each span's duration minus the durations of its direct
    child spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[list] = []  # [name, start, child_s]
        self._depth: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self._depth[name] -= 1
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        if not self._depth[name]:
            rec[1] += duration
        rec[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, value) -> None:
        """Add value() to a counter; a counter whose value cannot be
        taken (the program changed shape) is dropped from the report."""
        try:
            n = value()
        except Exception:  # noqa: BLE001 - never fail the traced program
            self.broken.add(name)
            return
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec[0] if rec else 0

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def to_json_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "installed": sorted(self.installed - self.broken),
        }


def patch(tracer: Tracer, owner, attr: str, make, names) -> None:
    """Replace owner.attr by make(original) if it exists.

    owner is a module or a class (classmethods stay classmethods).  The
    span and counter names it feeds are marked installed.
    """
    if owner is None:
        return
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    tracer.installed.update(names)


def install(tr: Tracer) -> None:
    """Wrap the public calls of every layer that is present."""
    mod = {
        name: sys.modules.get("holoset." + name)
        for name in (
            "cli", "exact", "coprime", "origami",
            "double_cover", "close_pair", "diagnostics",
        )
    }

    def cls(module: str, name: str):
        return getattr(mod[module], name, None)

    def span(owner, attr, name, **counters):
        """Span `name` around owner.attr; each counter maps to a function
        of (result, args) added after the call."""

        def make(fn):
            inner = tr.span(name, fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = inner(*args, **kwargs)
                for counter, value in counters.items():
                    tr.count(counter, lambda: value(result, args))
                return result

            return traced if counters else inner

        patch(tr, owner, attr, make, (name, *counters))

    def rows(result, args):
        return len(result)

    # cli: parsing is building the parser plus parse_args
    def traced_parser(build):
        @functools.wraps(build)
        def build_parser(*args, **kwargs):
            parser = tr.span("cli.parse", build)(*args, **kwargs)
            parser.parse_args = tr.span("cli.parse", parser.parse_args)
            return parser

        return build_parser

    patch(tr, mod["cli"], "build_parser", traced_parser, ("cli.parse",))
    span(mod["cli"], "render_svg", "cli.render_svg")

    # exact: construction, canonicalisation, comparison, sign, CSV
    for module in ("coprime", "origami", "double_cover"):
        span(mod[module], "point", "exact.point")

    counts = tr.counts  # the hottest counter skips Tracer.count

    def counted_init(init):
        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            counts["exact.quadext_new"] = counts.get("exact.quadext_new", 0) + 1
            init(self, *args, **kwargs)

        return __init__

    patch(tr, cls("exact", "QuadExt"), "__init__", counted_init,
          ("exact.quadext_new",))

    def traced_pointset(init):
        # the input is listed outside the span, so building the points
        # counts for the caller, not for canonicalisation
        inner = tr.span("exact.pointset", init)

        @functools.wraps(init)
        def __init__(self, points, *args, **kwargs):
            pts = list(points)
            inner(self, pts, *args, **kwargs)
            tr.count("exact.pointset_in", lambda: len(pts))
            tr.count("exact.pointset_out", lambda: len(self))

        return __init__

    patch(tr, cls("exact", "PointSet"), "__init__", traced_pointset,
          ("exact.pointset", "exact.pointset_in", "exact.pointset_out"))
    span(cls("exact", "QuadExt"), "compare", "exact.compare")
    span(cls("exact", "RadicalSum"), "sign", "exact.sign")
    span(mod["cli"], "write_pointset_csv", "exact.write_csv",
         **{"exact.write_csv_rows": lambda r, a: len(a[0])})
    span(mod["cli"], "read_pointset_csv", "exact.read_csv",
         **{"exact.read_csv_rows": rows})

    # coprime
    for module in ("cli", "coprime"):
        span(mod[module], "gcd_filtered_points", "coprime.filter",
             **{"coprime.points": rows})
    span(mod["cli"], "crt_hole", "coprime.hole",
         **{"coprime.cert_digits": lambda c, a: len(str(c.x)) + len(str(c.y))})
    span(mod["cli"], "verify_hole", "coprime.verify")

    # origami
    span(cls("origami", "Origami"), "from_path", "origami.load")
    span(mod["cli"], "enumerate_holonomies", "origami.enumerate")
    span(mod["origami"], "monodromy", "origami.monodromy")

    def counted_directions(gen):
        @functools.wraps(gen)
        def primitive_directions(*args, **kwargs):
            n = 0
            for item in gen(*args, **kwargs):
                n += 1
                yield item
            tr.count("origami.directions", lambda: n)

        return primitive_directions

    patch(tr, mod["origami"], "primitive_directions", counted_directions,
          ("origami.directions",))

    # double_cover: sign calls per point kept is the wasted-work ratio
    def sign_ratio(name):
        def make(fn):
            inner = tr.span(name, fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                before = tr.calls("exact.sign")
                result = inner(*args, **kwargs)
                tr.count("double_cover.signs",
                         lambda: tr.calls("exact.sign") - before)
                tr.count("double_cover.points", lambda: len(result))
                return result

            return traced

        return make

    for attr, name in (("closed_form", "double_cover.closed_form"),
                       ("geometric_oracle", "double_cover.oracle")):
        patch(tr, mod["cli"], attr, sign_ratio(name),
              (name, "double_cover.signs", "double_cover.points"))

    # close_pair
    span(mod["cli"], "load_cylinder_pair", "close_pair.load")
    span(mod["cli"], "close_pair", "close_pair.solve")
    span(mod["close_pair"], "inhom_approx", "close_pair.inhom")
    span(mod["close_pair"], "cf_expand", "close_pair.cf_expand",
         **{"close_pair.cf_terms":
            lambda cf, a: 1 + len(cf.preperiod) + len(cf.period)})

    # diagnostics; the covering grid size is computed from the arguments
    span(mod["diagnostics"], "min_gap", "diagnostics.min_gap")
    span(mod["diagnostics"], "covering_radius", "diagnostics.covering",
         **{"diagnostics.covering_centres": covering_centres})
    span(mod["diagnostics"], "growth_counts", "diagnostics.growth")


def covering_centres(result, args) -> int:
    """Grid centres the covering search queries, by the formula
    ``covering_radius(points, window, resolution)`` uses."""
    x0, y0, x1, y1 = (Fraction(str(v)) for v in args[1])
    res = Fraction(str(args[2]))
    return (int((x1 - x0) / res) + 1) * (int((y1 - y0) / res) + 1)


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    tr = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("holoset.cli")
    import_s = time.perf_counter() - start
    install(tr)
    tr.installed.add("cli.main")
    tr.enter("cli.main")
    try:
        rc = cli.main(args)
    except SystemExit as exc:
        rc = exc.code
    finally:
        tr.exit()
        doc = tr.to_json_dict()
        doc["import_s"] = import_s
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
