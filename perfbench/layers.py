"""Per-layer metrics from the launcher's span records.

Times and counts are totals per pipeline, except the three start-up
metrics (``cli.import_s``, ``cli.import_scipy_s``, ``cli.parse_s``), which
are per invocation because every process pays them once.  Each value is
the median over the traced pipelines (or invocations) of a run.  A layer
that does not run in a workload reports 0; a metric whose wrapped name
is gone from the program is left out.
"""

from __future__ import annotations

import statistics

import harness

# (metric, unit, better, source); the source says where the value comes
# from: a span's inclusive "total" time, its "self" time or its "calls",
# a launcher "count", a "ratio" of two counts, or a per-"invocation"
# value.  The comment after each layer names the end-to-end metric it
# should move, and on which workload.
METRICS = [
    # cli: import and parse move setup_s everywhere; scipy also job_s on
    # lattice, and on radical in every step but diagnose, which needs it;
    # main_s moves job_s, render_svg_s on radical
    ("cli.import_s", "s", "lower", ("invocation", "import")),
    ("cli.import_scipy_s", "s", "lower", ("invocation", "scipy")),
    ("cli.parse_s", "s", "lower", ("invocation", "cli.parse")),
    ("cli.main_s", "s", "lower", ("total", "cli.main")),
    ("cli.render_svg_s", "s", "lower", ("total", "cli.render_svg")),
    ("cli.out_bytes", "bytes", "lower", ("pipeline", "out_bytes")),
    # exact: point/QuadExt/PointSet move job_s, points_per_s and
    # peak_rss_mb on lattice (PointSet also job_s on radical); compare
    # and sign move job_s on radical; CSV writes move job_s on both,
    # reads on radical
    ("exact.point_calls", "count", "lower", ("calls", "exact.point")),
    ("exact.point_s", "s", "lower", ("total", "exact.point")),
    ("exact.quadext_new", "count", "lower", ("count", "exact.quadext_new")),
    ("exact.pointset_s", "s", "lower", ("total", "exact.pointset")),
    ("exact.pointset_in", "count", "lower", ("count", "exact.pointset_in")),
    ("exact.pointset_out", "count", "higher", ("count", "exact.pointset_out")),
    ("exact.dedup_ratio", "ratio", "higher",
     ("ratio", "exact.pointset_out", "exact.pointset_in")),
    ("exact.compare_calls", "count", "lower", ("calls", "exact.compare")),
    ("exact.compare_s", "s", "lower", ("total", "exact.compare")),
    ("exact.sign_calls", "count", "lower", ("calls", "exact.sign")),
    ("exact.sign_s", "s", "lower", ("total", "exact.sign")),
    ("exact.write_csv_s", "s", "lower", ("total", "exact.write_csv")),
    ("exact.write_csv_rows", "count", "higher", ("count", "exact.write_csv_rows")),
    ("exact.read_csv_s", "s", "lower", ("total", "exact.read_csv")),
    ("exact.read_csv_rows", "count", "higher", ("count", "exact.read_csv_rows")),
    # coprime: filter moves job_s on lattice; hole and verify on radical
    ("coprime.filter_s", "s", "lower", ("total", "coprime.filter")),
    ("coprime.filter_self_s", "s", "lower", ("self", "coprime.filter")),
    ("coprime.points", "count", "higher", ("count", "coprime.points")),
    ("coprime.hole_s", "s", "lower", ("total", "coprime.hole")),
    ("coprime.verify_s", "s", "lower", ("total", "coprime.verify")),
    ("coprime.cert_digits", "count", "lower", ("count", "coprime.cert_digits")),
    # origami: moves job_s on lattice
    ("origami.load_s", "s", "lower", ("total", "origami.load")),
    ("origami.enumerate_s", "s", "lower", ("total", "origami.enumerate")),
    ("origami.enumerate_self_s", "s", "lower", ("self", "origami.enumerate")),
    ("origami.directions", "count", "lower", ("count", "origami.directions")),
    ("origami.monodromy_s", "s", "lower", ("total", "origami.monodromy")),
    # double_cover: moves job_s on radical; sign calls per point kept
    # is the wasted-work ratio
    ("double_cover.closed_form_s", "s", "lower",
     ("total", "double_cover.closed_form")),
    ("double_cover.closed_form_self_s", "s", "lower",
     ("self", "double_cover.closed_form")),
    ("double_cover.oracle_s", "s", "lower", ("total", "double_cover.oracle")),
    ("double_cover.oracle_self_s", "s", "lower", ("self", "double_cover.oracle")),
    ("double_cover.signs_per_point", "ratio", "lower",
     ("ratio", "double_cover.signs", "double_cover.points")),
    # close_pair: moves job_s on radical
    ("close_pair.load_s", "s", "lower", ("total", "close_pair.load")),
    ("close_pair.solve_s", "s", "lower", ("total", "close_pair.solve")),
    ("close_pair.inhom_s", "s", "lower", ("total", "close_pair.inhom")),
    ("close_pair.cf_terms", "count", "lower", ("count", "close_pair.cf_terms")),
    # diagnostics: moves job_s on radical; the centre count is computed
    # from the window and the resolution, and explains covering_s
    ("diagnostics.min_gap_s", "s", "lower", ("total", "diagnostics.min_gap")),
    ("diagnostics.covering_s", "s", "lower", ("total", "diagnostics.covering")),
    ("diagnostics.growth_s", "s", "lower", ("total", "diagnostics.growth")),
    ("diagnostics.covering_centres", "count", "lower",
     ("count", "diagnostics.covering_centres")),
    # traced job_s minus untraced job_s
    ("trace.overhead_s", "s", "lower", ("pipeline", "overhead")),
]


def merge(traces: list[dict]) -> dict:
    """Sum the span records of the invocations of one pipeline."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    installed: set[str] = set()
    for tr in traces:
        for name, (calls, total, self_s) in tr["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, n in tr["counts"].items():
            counts[name] = counts.get(name, 0) + n
        installed.update(tr["installed"])
    return {"spans": spans, "counts": counts, "installed": installed}


def _value(source, merged: dict):
    kind, *names = source
    if any(n not in merged["installed"] for n in names):
        return None
    spans, counts = merged["spans"], merged["counts"]
    if kind == "ratio":
        den = counts.get(names[1], 0)
        return counts.get(names[0], 0) / den if den else 0.0
    if kind == "count":
        return counts.get(names[0], 0)
    field = {"calls": 0, "total": 1, "self": 2}[kind]
    return spans.get(names[0], [0, 0.0, 0.0])[field]


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics of one run.

    `traced` and `untraced` hold the run's pipelines (harness.Pipeline)
    with and without the launcher; the traced outcomes carry its traces.
    """
    pipelines = []
    invocations = []
    for p in traced:
        traces = [o.trace for o in p.outcomes.values() if o.trace is not None]
        pipelines.append(merge(traces))
        invocations.extend(o for o in p.outcomes.values() if o.trace is not None)
    overhead = harness.job_seconds(traced) - harness.job_seconds(untraced)
    out_bytes = statistics.median(
        sum(o.out_bytes for o in p.outcomes.values()) for p in traced)
    metrics = {}
    for name, unit, _better, source in METRICS:
        kind, what = source[0], source[1]
        if kind == "pipeline":
            value = overhead if what == "overhead" else out_bytes
        elif kind == "invocation":
            if what == "import":
                values = [o.trace["import_s"] for o in invocations]
            elif what == "scipy":
                values = [o.scipy_import_s for o in invocations]
            else:
                values = [_value(("total", what), merge([o.trace])) for o in invocations]
            value = None if None in values or not values else statistics.median(values)
        else:
            values = [_value(source, m) for m in pipelines]
            value = None if None in values or not values else statistics.median(values)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics
