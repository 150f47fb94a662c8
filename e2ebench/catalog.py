"""Names, units and span sources of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same end-to-end and
per-layer metrics; the benchmark's tests check that the two agree.
"""

from __future__ import annotations

import re

WORKLOADS = ("audited-cell", "traced-scale", "campaign-grid")

#: Reported by every run without tracing, on every workload (``name, unit``).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_p50_s", "s"),
    ("msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Printed (not in the result object) on the workloads they apply to: a
#: metric of the result object must exist, and be non-zero, on every workload.
WORKLOAD_ONLY = {
    "replay_records_per_s": ("1/s", ("traced-scale",)),
    "cell_p95_s": ("s", ("campaign-grid",)),
    "error_rate": ("ratio", WORKLOADS),
}

#: Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS = {
    "core.audit": ("core.audit_s", None),
    "trace.ccp": ("trace.ccp_s", "trace.ccp_calls"),
    "recovery.plan": ("recovery.plan_s", None),
    "trace.record": ("trace.record_s", "trace.records"),
    "traceio.write": ("traceio.write_s", None),
    "traceio.replay": ("traceio.replay_s", None),
    "traceio.verify": ("traceio.verify_s", None),
    "simulation.engine": ("simulation.engine.self_s", None),
    "simulation.network.send": ("simulation.network.send_s", None),
    "simulation.node.send": ("simulation.node.send_s", None),
    "simulation.node.deliver": ("simulation.node.deliver_s", None),
    "simulation.node.checkpoint": ("simulation.node.checkpoint_s", None),
    "gc.on_receive": ("gc.on_receive_s", None),
    "campaign.execute_cell": ("campaign.execute_cell_s", None),
    "campaign.store_append": ("campaign.store_append_s", "campaign.store_append_calls"),
    "campaign.store_enqueue": ("campaign.store_enqueue_s", None),
    "campaign.aggregate": ("campaign.aggregate_s", None),
    "campaign.query": ("campaign.query_s", None),
}

#: Deterministic counts read from public results: they repeat exactly for a
#: given seed, and a change that moves them changed behaviour.
COUNTS = (
    ("simulation.network.app_sent", "count"),
    ("simulation.network.app_delivered", "count"),
    ("simulation.network.dropped", "count"),
    ("simulation.network.partition_blocked", "count"),
    ("simulation.network.control_sent", "count"),
    ("protocols.forced", "count"),
    ("protocols.forced_ratio", "ratio"),
    ("gc.collected", "count"),
    ("gc.collection_ratio", "ratio"),
    ("gc.peak_retained", "count"),
    ("core.audits", "count"),
    ("core.violations", "count"),
    ("recovery.sessions", "count"),
    ("recovery.rolled_back", "count"),
    ("recovery.lost_checkpoints", "count"),
    ("traceio.records_written", "count"),
    ("traceio.bytes_written", "bytes"),
    ("traceio.records_read", "count"),
    ("campaign.cells_failed", "count"),
)


def _per_layer():
    metrics = []
    for seconds_metric, count_metric in SPAN_METRICS.values():
        metrics.append((seconds_metric, "s"))
        if count_metric is not None:
            metrics.append((count_metric, "count"))
    metrics.extend(COUNTS)
    metrics.append(("bench.tracing_overhead", "ratio"))
    return tuple(metrics)


#: Reported by every traced run, on every workload (zero where unused).
PER_LAYER = _per_layer()

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
