"""Per-layer metrics, computed from the spans of a traced run.

A layer's self time is its spans' durations minus the part covered by their
child spans.  ``PER_LAYER`` lists every metric with its unit, its direction,
and the end-to-end metric and workload it should move; ``BENCHMARK.json``
carries the same names, units and directions.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better, end-to-end metric it should move, on which workloads.
PER_LAYER = [
    ("fileio.sniff_format_s", "s", "lower", "wall_s", "metric"),
    ("fileio.parse_metric_s", "s", "lower", "wall_s", "metric"),
    ("fileio.parse_order_s", "s", "lower", "wall_s", "metric"),
    ("fileio.parse_points_s", "s", "lower", "wall_s", "points"),
    ("fileio.write_s", "s", "lower", "setup_s", "points metric exhaustive"),
    ("fileio.bytes_read", "bytes", "lower", "wall_s", "metric"),
    ("core.metric_from_points_s", "s", "lower", "wall_s", "points"),
    ("core.pairs_ranked", "count", "lower", "peak_rss_mb", "points"),
    ("core.rank_matrix_mb", "MiB", "lower", "peak_rss_mb", "points"),
    ("core.build_onng_s", "s", "lower", "wall_s", "points metric"),
    ("core.build_onng_calls", "count", "lower", "wall_s", "points metric"),
    ("core.path_order_s", "s", "lower", "wall_s", "points metric"),
    ("line.order_line_s", "s", "lower", "wall_s", "points"),
    ("euclid.order_euclid_s", "s", "lower", "wall_s", "points"),
    ("euclid.guarantee", "count", "higher", "none (strategy quality)", "points"),
    ("euclid.center_indegree", "count", "higher", "none (strategy quality)", "points"),
    ("ramsey.order_metric_s", "s", "lower", "wall_s", "metric"),
    ("ramsey.k_attempts", "count", "lower", "wall_s", "metric"),
    ("ramsey.hit_ratio", "ratio", "higher", "wall_s", "metric"),
    ("oracle.best_order_exhaustive_s", "s", "lower", "wall_s", "exhaustive"),
    ("oracle.orders_enumerated", "count", "lower", "wall_s", "exhaustive"),
    ("oracle.problem1_search_s", "s", "lower", "wall_s", "exhaustive"),
    ("oracle.metrics_enumerated", "count", "lower", "wall_s", "exhaustive"),
    ("oracle.metrics_scanned", "count", "lower", "wall_s", "exhaustive"),
    ("oracle.canonical_yield", "ratio", "higher", "wall_s", "exhaustive"),
    ("oracle.parallel_efficiency", "ratio", "higher", "wall_s", "exhaustive"),
    ("cli.import_s", "s", "lower", "wall_s", "points metric exhaustive"),
    ("cli.report_s", "s", "lower", "wall_s", "points metric exhaustive"),
    ("cli.uncovered_s", "s", "lower", "wall_s", "points metric exhaustive"),
    ("trace.overhead_s", "s", "lower", "none (tracing cost)", "points metric exhaustive"),
]

# Spans whose summed self time is a metric, and that metric.
SELF_TIME_METRIC = {
    "fileio.sniff_format": "fileio.sniff_format_s",
    "fileio.parse_metric": "fileio.parse_metric_s",
    "fileio.parse_order": "fileio.parse_order_s",
    "fileio.parse_points": "fileio.parse_points_s",
    "core.metric_from_points": "core.metric_from_points_s",
    "core.build_onng": "core.build_onng_s",
    "core.path_order": "core.path_order_s",
    "line.order_line": "line.order_line_s",
    "euclid.order_euclid": "euclid.order_euclid_s",
    "ramsey.order_metric": "ramsey.order_metric_s",
    "oracle.best_order_exhaustive": "oracle.best_order_exhaustive_s",
    "oracle.problem1_search": "oracle.problem1_search_s",
    "cli.import": "cli.import_s",
    "cli.report": "cli.report_s",
}


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span of one command, by position in ``spans``."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_self_times(docs: list[dict]) -> dict[str, float]:
    """Self time summed per layer (the span name's module prefix)."""
    total: dict[str, float] = defaultdict(float)
    for doc in docs:
        for span, t in zip(doc["spans"], self_times(doc["spans"])):
            total[span["name"].split(".", 1)[0]] += t
    return dict(total)


def _rank_matrix_mib(n: int) -> float:
    # The dense n x n rank matrix RankedMetric keeps: int32 unless the pair
    # count needs int64.  Computed from n and dtype, not measured.
    itemsize = 4 if n * (n - 1) // 2 < 2**31 - 1 else 8
    return n * n * itemsize / 2**20


def per_layer(cmd_docs, setup_docs, reports, cmd_walls, jobs1_docs, traced_wall, untraced_wall) -> dict:
    """Every ``PER_LAYER`` metric for one workload.

    ``cmd_docs`` and ``setup_docs`` are the tracer outputs of the traced
    commands and traced set-up; ``reports`` the parsed stdout of each traced
    command; ``cmd_walls`` each traced command's wall time seen by the
    harness; ``jobs1_docs`` maps a parallel search's command id to the tracer
    output of the same search with ``--jobs 1``.
    """
    m: dict[str, float] = {name: 0.0 if unit == "s" else 0 for name, unit, *_ in PER_LAYER}
    attempts = hits = scanned_c = enumerated_c = 0
    efficiencies = []
    for doc in cmd_docs:
        spans = doc["spans"]
        for span, t in zip(spans, self_times(spans)):
            name, counts = span["name"], span.get("counts", {})
            if name in SELF_TIME_METRIC:
                m[SELF_TIME_METRIC[name]] += t
            if name in ("fileio.parse_points", "fileio.parse_metric", "fileio.parse_order"):
                m["fileio.bytes_read"] += counts["bytes"]
            if name in ("core.metric_from_points", "fileio.parse_metric"):
                m["core.rank_matrix_mb"] = max(m["core.rank_matrix_mb"], _rank_matrix_mib(counts["n"]))
            if name == "core.metric_from_points":
                m["core.pairs_ranked"] += counts["n"] * (counts["n"] - 1) // 2
            elif name == "core.build_onng":
                m["core.build_onng_calls"] += 1
            elif name == "ramsey.order_metric":
                k_max = max(3, (counts["n"] - 1).bit_length())
                attempts += k_max - counts["k"] + 1 if counts["witness"] else k_max - 2
                hits += counts["witness"]
            elif name == "oracle.best_order_exhaustive":
                m["oracle.orders_enumerated"] += counts["orders"]
            elif name == "oracle.problem1_search":
                m["oracle.metrics_enumerated"] += counts["enumerated"]
                m["oracle.metrics_scanned"] += counts["scanned"]
                if counts["canonical"]:
                    scanned_c += counts["scanned"]
                    enumerated_c += counts["enumerated"]
                ref = jobs1_docs.get(doc["cmd"])
                if counts["jobs"] > 1 and ref is not None:
                    t1 = _span_seconds(ref, "oracle.problem1_search")
                    efficiencies.append(t1 / (counts["jobs"] * (span["end"] - span["start"])))
        roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        m["cli.uncovered_s"] += cmd_walls[doc["cmd"]] - roots
    for doc in setup_docs:
        for span, t in zip(doc["spans"], self_times(doc["spans"])):
            if span["name"] == "fileio.write":
                m["fileio.write_s"] += t
    euclid = [r for r in reports.values() if r.get("strategy") == "euclid"]
    if euclid:
        m["euclid.guarantee"] = sum(r["guarantee"] for r in euclid) / len(euclid)
        m["euclid.center_indegree"] = sum(r["indegrees"][r["center"]] for r in euclid) / len(euclid)
    m["ramsey.k_attempts"] = attempts
    m["ramsey.hit_ratio"] = hits / attempts if attempts else 0
    m["oracle.canonical_yield"] = scanned_c / enumerated_c if enumerated_c else 0
    if efficiencies:
        m["oracle.parallel_efficiency"] = sum(efficiencies) / len(efficiencies)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def _span_seconds(doc: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in doc["spans"] if s["name"] == name)
