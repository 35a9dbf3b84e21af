"""Per-layer metrics of a traced run, from its spans and work counts.

Times ending in ``_s`` are unscaled seconds per pass (the run's total
divided by its passes), counts are per pass and repeat exactly, shares
are of the timed phase's wall time, and rates divide the run's total work by the
run's total self time of the span that does that work.  A layer that
the workload never reaches reports 0.
"""
from __future__ import annotations

from collections import defaultdict

from spans import CONSTRUCTION, LAYERS, layer_of, percentile, tail_percentile

BUILD_BUCKETS = ("small", "t100", "t400", "t1600")
BUCKET_PARTS = {
    "double_self_s": ("builders.double",),
    "validate_s": ("builders.validate",),
    "surface_build_s": ("surface.build",),
    "holonomy_s": ("holonomy.is_parallel", "holonomy.generators", "holonomy.vertex"),
    "jsonio_s": ("jsonio.dump", "jsonio.load"),
    "diameter_s": ("surface.diameter",),
}

# name -> unit, in the order printed and listed in BENCHMARK.json
UNITS = {
    "bench.traced_ops_per_s": "ops/s",
    "bench.passes": "count",
    "bench.pass_s": "s",
    "bench.self_s": "s",
    "bench.span_cover_frac": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "construction.share": "ratio",
    "scan.self_s": "s",
    "tracer.calls": "count",
    "tracer.self_s": "s",
    "tracer.steps": "count",
    "tracer.steps_per_s": "1/s",
    "tracer.call_p50_ms": "ms",
    "tracer.call_ptail_ms": "ms",
    "tracer.call_ptail_pct": "%",
    "tracer.vertex_hit_frac": "ratio",
    "tracer.reps_s": "s",
    "selfx.calls": "count",
    "selfx.self_s": "s",
    "selfx.pairs": "count",
    "selfx.pairs_per_s": "1/s",
    "selfx.hash_chart_frac": "ratio",
    "selfx.max_chart_chords": "count",
    "selfx.event_frac": "ratio",
    "density.calls": "count",
    "density.self_s": "s",
    "density.tests": "count",
    "density.tests_per_s": "1/s",
    "density.covered_frac": "ratio",
    "surface.build_calls": "count",
    "surface.build_s": "s",
    "surface.tris_per_s": "1/s",
    "surface.diameter_s": "s",
    "builders.double_self_s": "s",
    "builders.validate_s": "s",
    "holonomy.is_parallel_s": "s",
    "holonomy.generators": "count",
    "holonomy.vertex_s": "s",
    "jsonio.dump_s": "s",
    "jsonio.load_self_s": "s",
    "jsonio.bytes": "B",
    **{f"build.{b}.{part}": "s" for b in BUILD_BUCKETS for part in BUCKET_PARTS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder, res: dict, traced_ops_per_s: float) -> dict:
    """Metric name -> (value, unit) for one traced run."""
    passes, wall = res["passes"], res["wall"]
    selfs = recorder.self_times()
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    by_bucket: dict[tuple[str, str], float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    trace_ms: list[float] = []
    for span, self_s in zip(recorder.spans, selfs):
        name, start, end, _parent, op = span
        by_name[name] += self_s
        by_layer[layer_of(name)] += self_s
        inclusive[name] += end - start
        by_bucket[(recorder.op_tags[op], name)] += self_s
        if name == "tracer.trace":
            trace_ms.append((end - start) * 1000.0)
    c = res["pass_counts"][0]
    total = defaultdict(float)
    for counts in res["pass_counts"]:
        for k, v in counts.items():
            total[k] += v

    def per_pass(x: float) -> float:
        return x / passes

    library = sum(by_layer[layer] for layer in LAYERS)
    pct = tail_percentile(len(trace_ms))
    v = {
        "bench.traced_ops_per_s": traced_ops_per_s,
        "bench.passes": passes,
        "bench.pass_s": per_pass(wall),
        "bench.self_s": per_pass(by_layer["bench"]),
        "bench.span_cover_frac": library / wall,
        **{f"{layer}.share": by_layer[layer] / wall for layer in LAYERS},
        "construction.share": sum(by_layer[layer] for layer in CONSTRUCTION) / wall,
        "scan.self_s": per_pass(by_layer["scan"]),
        "tracer.calls": c.get("tracer.calls", 0),
        "tracer.self_s": per_pass(by_layer["tracer"]),
        "tracer.steps": c.get("tracer.steps", 0),
        "tracer.steps_per_s": _ratio(total["tracer.steps"], by_name["tracer.trace"]),
        "tracer.call_p50_ms": percentile(trace_ms, 50) if trace_ms else 0.0,
        "tracer.call_ptail_ms": percentile(trace_ms, pct) if trace_ms else 0.0,
        "tracer.call_ptail_pct": pct if trace_ms else 0.0,
        "tracer.vertex_hit_frac": _ratio(c.get("tracer.vertex_hits", 0), c.get("tracer.calls", 0)),
        "tracer.reps_s": per_pass(by_name["tracer.reps"]),
        "selfx.calls": c.get("selfx.calls", 0),
        "selfx.self_s": per_pass(by_layer["selfx"]),
        "selfx.pairs": c.get("selfx.pairs", 0),
        "selfx.pairs_per_s": _ratio(total["selfx.pairs"], by_name["selfx"]),
        "selfx.hash_chart_frac": _ratio(c.get("selfx.hash_charts", 0), c.get("selfx.charts", 0)),
        "selfx.max_chart_chords": c.get("selfx.max_chart_chords", 0),
        "selfx.event_frac": _ratio(c.get("selfx.event_calls", 0), c.get("selfx.calls", 0)),
        "density.calls": c.get("density.calls", 0),
        "density.self_s": per_pass(by_layer["density"]),
        "density.tests": c.get("density.tests", 0.0),
        "density.tests_per_s": _ratio(total["density.tests"], by_name["density"]),
        "density.covered_frac": _ratio(c.get("density.covered_sum", 0.0), c.get("density.calls", 0)),
        "surface.build_calls": c.get("surface.build_calls", 0),
        "surface.build_s": per_pass(by_name["surface.build"]),
        "surface.tris_per_s": _ratio(total["surface.tris"], by_name["surface.build"]),
        "surface.diameter_s": per_pass(by_name["surface.diameter"]),
        "builders.double_self_s": per_pass(by_name["builders.double"]),
        "builders.validate_s": per_pass(by_name["builders.validate"]),
        "holonomy.is_parallel_s": per_pass(inclusive["holonomy.is_parallel"]),
        "holonomy.generators": c.get("holonomy.generators", 0),
        "holonomy.vertex_s": per_pass(by_name["holonomy.vertex"]),
        "jsonio.dump_s": per_pass(by_name["jsonio.dump"]),
        "jsonio.load_self_s": per_pass(by_name["jsonio.load"]),
        "jsonio.bytes": c.get("jsonio.bytes", 0),
    }
    for b in BUILD_BUCKETS:
        for part, names in BUCKET_PARTS.items():
            v[f"build.{b}.{part}"] = per_pass(sum(by_bucket[(b, n)] for n in names))
    return {name: (v[name], unit) for name, unit in UNITS.items()}


def describe(values: dict, res: dict) -> list[str]:
    """Readable lines: layer shares, the dominant layer, rates with their bases."""
    v = {k: val for k, (val, _unit) in values.items()}
    shares = sorted(((v[f"{layer}.share"], layer) for layer in LAYERS), reverse=True)
    lines = [
        "self-time shares of the traced wall time: "
        + ", ".join(f"{layer} {share:.1%}" for share, layer in shares if share > 0),
        f"dominant layer: {shares[0][1]} ({shares[0][0]:.1%}); library spans cover "
        f"{v['bench.span_cover_frac']:.1%}, the benchmark's own checks and counting "
        f"{v['bench.self_s'] * v['bench.passes'] / res['wall']:.1%}",
        f"bench.traced_ops_per_s = {v['bench.traced_ops_per_s']:.4f} (as ops_per_s, traced)",
    ]
    passes = v["bench.passes"]
    rates = (
        ("tracer.steps_per_s", "tracer.steps", "", "tracer.trace"),
        ("selfx.pairs_per_s", "selfx.pairs", "", "selfx"),
        ("density.tests_per_s", "density.tests", " (computed)", "density"),
    )
    for rate, count, note, span in rates:
        if v[rate]:
            work = v[count] * passes
            lines.append(f"{rate} = {v[rate]:.6g} (= {work:.6g} {count}{note} / "
                         f"{work / v[rate]:.4f} s {span} self, {passes} passes)")
    if v["surface.tris_per_s"]:
        lines.append(f"surface.tris_per_s = {v['surface.tris_per_s']:.6g} (per s of surface.build self)")
    if v["tracer.calls"]:
        lines.append(f"tracer.vertex_hit_frac = {v['tracer.vertex_hit_frac']:.6g} "
                     f"(of {v['tracer.calls']} traces per pass); call p50 "
                     f"{v['tracer.call_p50_ms']:.3f} ms, p{v['tracer.call_ptail_pct']:g} "
                     f"{v['tracer.call_ptail_ms']:.3f} ms")
    if v["selfx.calls"]:
        lines.append(f"selfx.hash_chart_frac = {v['selfx.hash_chart_frac']:.4f} (charts over 192 "
                     f"chords, of charts with 2+ chords); selfx.event_frac = "
                     f"{v['selfx.event_frac']:.4f} (of {v['selfx.calls']} calls per pass)")
    if v["density.calls"]:
        lines.append(f"density.covered_frac = {v['density.covered_frac']:.6f} "
                     f"(mean over {v['density.calls']} calls per pass)")
    for b in BUILD_BUCKETS:
        parts = {part: v[f"build.{b}.{part}"] for part in BUCKET_PARTS}
        if any(parts.values()):
            lines.append(f"build {b}: " + ", ".join(f"{p} {x:.4f}" for p, x in parts.items()))
    return lines
