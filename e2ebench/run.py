"""End-to-end and per-layer benchmark of the repro system.

Run from the repository root::

    python3 e2ebench/run.py --workload audited-cell --seed 1 --seconds 25 --trace 0

A run is a number of passes that fill ``--seconds``; every pass runs in a
fresh process (``worker.py``) on inputs made from ``--seed`` and the pass
index.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` every pass is traced and the run reports the per-layer
metrics, and its first passes also run untraced, for the tracing overhead.
The human-readable report comes first; the last line of standard output is
the JSON result.
See ``e2ebench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from catalog import END_TO_END, PER_LAYER, SPAN_METRICS, WORKLOAD_ONLY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".e2ebench-out")

#: Every pass must have ended this long after the run started.
DEADLINE_S = 170.0
#: Passes a traced run also runs untraced, to measure the tracing overhead.
OVERHEAD_PAIRS = 3


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _run_pass(
    args: argparse.Namespace, pass_index: int, trace: int, deadline: float
) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass", str(pass_index),
        "--trace", str(trace),
        "--scale", args.scale,
        "--out", OUT,
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {pass_index} did not finish before the deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"pass {pass_index} exited with code {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(lines[-1])


def _percentile(values: List[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def end_to_end(workload: str, reports: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics (and the workload-only ones) of untraced passes."""
    cells = [t for r in reports for t in r["cell_s"]]
    wall = sum(r["wall_s"] for r in reports)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        # A mean, not a median: the host's slow phases outlast a pass, and
        # the mean over all passes spread less between runs.
        "wall_s": wall / len(reports),
        "cells_per_s": len(cells) / wall,
        "cell_p50_s": statistics.median(cells),
        "msgs_per_s": sum(r["delivered"] for r in reports) / sum(r["sim_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }
    attempted = sum(r["attempted"] for r in reports)
    metrics["error_rate"] = sum(r["failed"] for r in reports) / attempted
    if workload == "traced-scale":
        metrics["replay_records_per_s"] = sum(
            r["counts"]["traceio.records_written"] for r in reports
        ) / sum(r["replay_s"] + r["verify_s"] for r in reports)
    if workload == "campaign-grid":
        metrics["cell_p95_s"] = _percentile(cells, 95)
    return metrics


def _summed_counts(reports: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for report in reports:
        for name, value in report["counts"].items():
            if name == "gc.peak_retained":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    return counts


def per_layer(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The per-layer metrics: summed self time and counts over traced passes."""
    metrics: Dict[str, float] = {}
    for span, (seconds_metric, count_metric) in SPAN_METRICS.items():
        metrics[seconds_metric] = sum(r["spans"].get(span, (0, 0.0))[1] for r in traced)
        if count_metric is not None:
            metrics[count_metric] = sum(r["spans"].get(span, (0, 0.0))[0] for r in traced)
    counts = _summed_counts(traced)
    for name, value in counts.items():
        if name not in ("protocols.checkpoints", "gc.stored"):
            metrics[name] = value
    metrics["protocols.forced_ratio"] = counts["protocols.forced"] / max(
        counts["protocols.checkpoints"], 1
    )
    metrics["gc.collection_ratio"] = counts["gc.collected"] / max(counts["gc.stored"], 1)
    metrics["traceio.records_read"] = sum(r["tallies"].get("traceio.replay", 0) for r in traced)
    metrics["bench.tracing_overhead"] = sum(
        r["wall_s"] for r in traced[: len(untraced)]
    ) / sum(r["wall_s"] for r in untraced)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="'tiny' runs one small pass (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Importing here compiles the package's bytecode once, so no pass pays
    # for it inside its set-up time.
    import cells

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        # Keep only this run's spans of this workload.
        shutil.rmtree(os.path.join(OUT, "spans", args.workload), ignore_errors=True)
    passes = cells.pass_count(args.workload, args.seconds, args.scale)
    reports: List[Dict[str, Any]] = []
    # A traced run also runs its first passes untraced, each right after its
    # traced twin, for the tracing overhead.
    untraced: List[Dict[str, Any]] = []
    try:
        for k in range(passes):
            reports.append(_run_pass(args, k, args.trace, deadline))
            if args.trace and k < OVERHEAD_PAIRS:
                untraced.append(_run_pass(args, k, 0, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r["errors"]]
    for k, twin in enumerate(untraced):
        if reports[k]["counts"] != twin["counts"]:
            # Tracing must not change what the program does.
            failed += 1
            errors.append(f"pass {k}: traced and untraced counts differ")

    cell_count = sum(len(r["cell_s"]) for r in reports)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  cells {cell_count}"
          f"  trace {args.trace}")
    if args.trace:
        values = per_layer(reports, untraced)
        catalog = PER_LAYER
    else:
        values = end_to_end(args.workload, reports)
        catalog = END_TO_END + tuple(
            (name, unit) for name, (unit, where) in WORKLOAD_ONLY.items()
            if args.workload in where
        )
    for name, unit in catalog:
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    for note in (n for r in reports for n in r["notes"]):
        print(f"  failed as the model allows: {note}")
    for error in errors:
        print(f"  FAILED: {error}")
    reported = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
