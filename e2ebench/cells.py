"""The benchmark's three workloads: inputs made from a seed, timed bodies, checks.

Each workload runs in passes; one pass is one fresh process (see
``worker.py``).  :func:`prepare` builds a pass's inputs from the seed and the
pass index (this is set-up, timed as ``setup_s``); :func:`run` executes the
timed body, checks every output and returns the pass report.

* ``audited-cell`` — 8 processes x 400 time units of uniform-random traffic,
  FDAS + RDT-LGC with ``audit="full"`` and two crashes: the audit, analysis
  and recovery stack is the critical path; trace I/O and the store are
  bypassed.
* ``traced-scale`` — 32 processes x 400 time units, unaudited, streaming a
  trace artifact that is then replayed and verified: the message hot path
  and trace encoding dominate; the recorder records but is never queried.
* ``campaign-grid`` — the 240-cell topology campaign run serially into a
  fresh SQL store, then aggregated and queried: per-cell overhead and the
  store are on the critical path; audits and trace I/O are bypassed.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.gc.registry import collector_class
from repro.scenarios.campaign import aggregate, executor, queries
from repro.scenarios.campaign.sqlstore import SQLResultStore
from repro.scenarios.experiments import topology_campaign_spec
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationResult, run_simulation
from repro.simulation.workloads import UniformRandomWorkload
from repro.traceio import reader

#: Host seconds one pass of each workload takes (process start and set-up
#: included) on a 2-core x86-64 container; sets how many passes fill a run.
NOMINAL_PASS_S = {"audited-cell": 4.4, "traced-scale": 3.3, "campaign-grid": 3.0}

#: Sizes per scale.  ``tiny`` exists for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "audited": dict(processes=8, duration=400.0, cells=3),
        "traced": dict(processes=32, duration=400.0, cells=2),
        "campaign": dict(processes=6, duration=30.0, seeds=2, collectors=None),
    },
    "tiny": {
        "audited": dict(processes=4, duration=60.0, cells=1),
        "traced": dict(processes=6, duration=60.0, cells=1),
        "campaign": dict(
            processes=6, duration=12.0, seeds=1, collectors=(("rdt-lgc", {}),)
        ),
    },
}


def pass_count(workload: str, seconds: int, scale: str) -> int:
    """Passes in one run: enough to fill ``seconds``, at least three."""
    if scale == "tiny":
        return 1
    return max(3, round(seconds / NOMINAL_PASS_S[workload]))


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # A string seed hashes the same in every process (unlike hash()).
    return random.Random(f"{workload}:{seed}:{pass_index}")


def new_report() -> Dict[str, Any]:
    """An empty pass report."""
    return {
        "wall_s": 0.0,
        "cell_s": [],
        "sim_s": 0.0,
        "delivered": 0,
        "replay_s": 0.0,
        "verify_s": 0.0,
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "notes": [],
        "counts": {
            "simulation.network.app_sent": 0,
            "simulation.network.app_delivered": 0,
            "simulation.network.dropped": 0,
            "simulation.network.partition_blocked": 0,
            "simulation.network.control_sent": 0,
            "protocols.forced": 0,
            "protocols.checkpoints": 0,
            "gc.collected": 0,
            "gc.stored": 0,
            "gc.peak_retained": 0,
            "core.audits": 0,
            "core.violations": 0,
            "recovery.sessions": 0,
            "recovery.rolled_back": 0,
            "recovery.lost_checkpoints": 0,
            "traceio.records_written": 0,
            "traceio.bytes_written": 0,
            "campaign.cells_failed": 0,
        },
    }


def add_result(report: Dict[str, Any], result: SimulationResult) -> None:
    """Fold one run's public counters into the pass report."""
    counts = report["counts"]
    counts["simulation.network.app_sent"] += result.messages_sent
    counts["simulation.network.app_delivered"] += result.messages_delivered
    counts["simulation.network.dropped"] += result.messages_dropped
    counts["simulation.network.partition_blocked"] += result.messages_blocked_by_partition
    counts["simulation.network.control_sent"] += result.control_messages
    counts["protocols.forced"] += result.forced_checkpoints
    counts["protocols.checkpoints"] += result.total_checkpoints
    counts["gc.collected"] += result.total_collected
    counts["gc.stored"] += result.total_stored
    counts["gc.peak_retained"] = max(counts["gc.peak_retained"], result.peak_total_retained)
    counts["core.audits"] += len(result.audits)
    counts["core.violations"] += sum(
        a.safety_violations + a.optimality_violations for a in result.audits
    )
    counts["recovery.sessions"] += len(result.recoveries)
    counts["recovery.rolled_back"] += sum(r.rolled_back_processes for r in result.recoveries)
    counts["recovery.lost_checkpoints"] += sum(
        r.lost_general_checkpoints for r in result.recoveries
    )
    report["delivered"] += result.messages_delivered


def _fail(report: Dict[str, Any], message: str) -> None:
    report["failed"] += 1
    report["errors"].append(message)


# ----------------------------------------------------------------------
# audited-cell
# ----------------------------------------------------------------------
def _prepare_audited(seed: int, pass_index: int, scale: str, workdir: str) -> Any:
    size = SIZES[scale]["audited"]
    rng = _rng("audited-cell", seed, pass_index)
    n, duration = size["processes"], size["duration"]
    configs = []
    for _ in range(size["cells"]):
        # Two crashes of random processes at a third and two thirds of the run.
        # Fixed instants keep the audited history per cell alike: a crash
        # truncates the recorder's log, so a late crash alone would shrink the
        # final audit and a pass's cost would swing with the draw.
        crashes = [(duration / 3.0, rng.randrange(n)), (2.0 * duration / 3.0, rng.randrange(n))]
        configs.append(
            SimulationConfig(
                num_processes=n,
                duration=duration,
                workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
                protocol="fdas",
                collector="rdt-lgc",
                failures=FailureSchedule.of(crashes),
                audit="full",
                seed=rng.randrange(2**31),
            )
        )
    return configs


def _run_audited(configs: List[SimulationConfig], report: Dict[str, Any], tracer: Any) -> None:
    results: List[Optional[SimulationResult]] = []
    begin = time.perf_counter()
    for index, config in enumerate(configs):
        if tracer is not None:
            tracer.set_run(f"cell{index}")
        start = time.perf_counter()
        try:
            result: Optional[SimulationResult] = run_simulation(config)
        except Exception as exc:  # noqa: BLE001 - a failed cell is a result
            result = None
            _fail(report, f"cell {index}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        report["cell_s"].append(elapsed)
        report["sim_s"] += elapsed
        results.append(result)
    report["wall_s"] = time.perf_counter() - begin
    report["attempted"] += len(configs)
    for index, result in enumerate(results):
        if result is None:
            continue
        add_result(report, result)
        if not result.audits:
            report["attempted"] += 1
            _fail(report, f"cell {index}: no audit ran")
        for audit in result.audits:
            report["attempted"] += 1
            if not (audit.is_safe and audit.is_optimal):
                _fail(
                    report,
                    f"cell {index}: audit {audit.label} has "
                    f"{audit.safety_violations} safety and "
                    f"{audit.optimality_violations} optimality violations",
                )


# ----------------------------------------------------------------------
# traced-scale
# ----------------------------------------------------------------------
def _prepare_traced(seed: int, pass_index: int, scale: str, workdir: str) -> Any:
    size = SIZES[scale]["traced"]
    rng = _rng("traced-scale", seed, pass_index)
    os.makedirs(workdir, exist_ok=True)
    return [
        SimulationConfig(
            num_processes=size["processes"],
            duration=size["duration"],
            workload=UniformRandomWorkload(),
            audit="off",
            seed=rng.randrange(2**31),
            trace_path=os.path.join(workdir, f"cell{index}.trace.jsonl"),
        )
        for index in range(size["cells"])
    ]


def _run_traced(configs: List[SimulationConfig], report: Dict[str, Any], tracer: Any) -> None:
    outcomes = []
    begin = time.perf_counter()
    for index, config in enumerate(configs):
        if tracer is not None:
            tracer.set_run(f"cell{index}")
        start = time.perf_counter()
        try:
            result = run_simulation(config)
            simulated = time.perf_counter()
            replayed = reader.TraceReader(config.trace_path).replay()
            replayed_at = time.perf_counter()
            problems = reader.verify_trace(config.trace_path)
        except Exception as exc:  # noqa: BLE001 - a failed cell is a result
            outcomes.append((index, config, None, None, [f"{type(exc).__name__}: {exc}"]))
            continue
        done = time.perf_counter()
        report["cell_s"].append(done - start)
        report["sim_s"] += simulated - start
        report["replay_s"] += replayed_at - simulated
        report["verify_s"] += done - replayed_at
        outcomes.append((index, config, result, replayed, problems))
    report["wall_s"] = time.perf_counter() - begin
    counts = report["counts"]
    for index, config, result, replayed, problems in outcomes:
        report["attempted"] += 2  # the cell and the verify of its artifact
        if result is None:
            # Neither the cell nor the verify of its artifact succeeded.
            report["failed"] += 1
            _fail(report, f"cell {index}: {problems[0]}")
            continue
        add_result(report, result)
        counts["traceio.records_written"] += int(replayed.footer["records"])
        counts["traceio.bytes_written"] += os.path.getsize(config.trace_path)
        if problems:
            _fail(report, f"cell {index}: verify_trace: {problems}")
        elif replayed.metrics != result.metrics_dict():
            _fail(report, f"cell {index}: replayed metrics differ from the run's")


# ----------------------------------------------------------------------
# campaign-grid
# ----------------------------------------------------------------------
def _prepare_campaign(seed: int, pass_index: int, scale: str, workdir: str) -> Any:
    size = SIZES[scale]["campaign"]
    rng = _rng("campaign-grid", seed, pass_index)
    # num_processes stays at 6: hierarchical_network_config builds an
    # invalid NetworkConfig below 6 processes (see README.md).
    spec = topology_campaign_spec(
        num_processes=size["processes"],
        duration=size["duration"],
        num_seeds=size["seeds"],
        collectors=size["collectors"],
        base_seed=rng.randrange(2**31),
    )
    os.makedirs(workdir, exist_ok=True)
    store_path = os.path.join(workdir, "results.sqlite")
    return spec, store_path, SQLResultStore(store_path)


@contextmanager
def _counting_simulations(report: Dict[str, Any]) -> Iterator[None]:
    """Read each cell's SimulationResult (and its host time) inside the sweep.

    The executor binds ``run_simulation`` by name; the shim adds two clock
    reads per cell and no per-message cost.
    """
    original = executor.run_simulation

    def counted(config: SimulationConfig) -> SimulationResult:
        start = time.perf_counter()
        result = original(config)
        report["sim_s"] += time.perf_counter() - start
        add_result(report, result)
        return result

    executor.run_simulation = counted
    try:
        yield
    finally:
        executor.run_simulation = original


#: How a recovery that needs an already-discarded checkpoint fails.
_LOST_CHECKPOINT = "is not on stable storage"


def _run_campaign(inputs: Any, report: Dict[str, Any], tracer: Any) -> None:
    spec, store_path, store = inputs
    cells = spec.cell_count
    mark = [0.0]

    def progress(done: int, total: int) -> None:
        now = time.perf_counter()
        report["cell_s"].append(now - mark[0])
        mark[0] = now
        if tracer is not None:
            tracer.set_run(f"cell{done}")

    query_errors = {}
    if tracer is not None:
        tracer.set_run("cell0")
    with _counting_simulations(report):
        begin = mark[0] = time.perf_counter()
        try:
            run = executor.run_campaign(spec, store_path=store_path, workers=1, progress=progress)
        except Exception as exc:  # noqa: BLE001 - a broken sweep is a result
            report["wall_s"] = time.perf_counter() - begin
            report["attempted"] += cells
            report["failed"] += cells
            report["errors"].append(f"run_campaign: {type(exc).__name__}: {exc}")
            return
        if tracer is not None:
            tracer.set_run("reduce")
        from_store = aggregate.aggregate_campaign(store.records())
        in_memory = aggregate.aggregate_campaign(run.records)
        for name in queries.QUERIES:
            try:
                queries.run_query(store, name)
            except Exception as exc:  # noqa: BLE001 - every query must run
                query_errors[name] = f"{type(exc).__name__}: {exc}"
        report["wall_s"] = time.perf_counter() - begin
    report["attempted"] += len(run.records) + 1 + len(queries.QUERIES)
    for record in run.failed_records:
        collector = record["params"]["collector"]
        error = str(record.get("error"))
        if collector_class(collector).uses_time_assumptions and _LOST_CHECKPOINT in error:
            # The time-based baseline discards checkpoints by age; when a run
            # breaks its delay or period assumption, recovery can need one it
            # already discarded.  The grid keeps that cell as a failed result
            # by design: it is the program's correct output, not an error.
            report["notes"].append(f"cell {record['cell_id']} ({collector}): {error}")
        else:
            _fail(report, f"cell {record['cell_id']} ({collector}): {error}")
    if len(run.records) != cells:
        _fail(report, f"run returned {len(run.records)} records for {cells} cells")
    if (from_store.to_json(), from_store.to_csv()) != (in_memory.to_json(), in_memory.to_csv()):
        _fail(report, "aggregate of the store differs from the in-memory aggregate")
    for name, error in sorted(query_errors.items()):
        _fail(report, f"query {name}: {error}")
    report["counts"]["campaign.cells_failed"] = store.status_counts().get("failed", 0)


_WORKLOADS = {
    "audited-cell": (_prepare_audited, _run_audited),
    "traced-scale": (_prepare_traced, _run_traced),
    "campaign-grid": (_prepare_campaign, _run_campaign),
}


def prepare(workload: str, seed: int, pass_index: int, scale: str, workdir: str) -> Any:
    """Build one pass's inputs (set-up: configs, spec, store schema)."""
    return _WORKLOADS[workload][0](seed, pass_index, scale, workdir)


def run(workload: str, inputs: Any, tracer: Any = None) -> Dict[str, Any]:
    """Run one pass's timed body and its checks; returns the pass report."""
    report = new_report()
    _WORKLOADS[workload][1](inputs, report, tracer)
    return report
