"""In-memory span tracing for the traced benchmark run.

A :class:`Tracer` records one span per call into a layer's public entry
point: the span's name, start, end, the span that was open when it began
(its parent) and the run id of the cell it belongs to.  Spans stay in memory
while the benchmark measures and are written out once it ends.

:func:`instrument` wraps the layers' entry points from the benchmark's side
(class attributes and module globals are replaced in the traced process);
the program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Spans kept in parallel arrays; single-threaded, nested by a stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.runs: List[str] = []
        self._run_ids: Dict[str, int] = {}
        self._current_run = -1
        self._stack: List[int] = []
        #: Depth of open opaque spans; calls beneath one record no spans.
        self._muted = 0
        #: Per span name, the sum of what the entry point's ``tally`` read
        #: from each call's return value (records replayed, …).
        self.tallies: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        """The interned id of span name ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_run(self, run_id: str) -> None:
        """Spans opened from now on belong to the cell ``run_id``."""
        rid = self._run_ids.get(run_id)
        if rid is None:
            rid = self._run_ids[run_id] = len(self.runs)
            self.runs.append(run_id)
        self._current_run = rid

    def open(self, nid: int) -> int:
        """Open a span of name id ``nid`` now; returns its index."""
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._current_run)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close span ``index`` now (spans close in reverse opening order)."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (hand-built trees and tests)."""
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.run.append(self._current_run)
        return index

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        tally: Optional[Callable[[Any], int]] = None,
        opaque: bool = False,
    ) -> Callable[..., Any]:
        """``function`` with every call recorded as a span named ``name``.

        ``tally`` reads a count from each call's return value into
        :attr:`tallies`.  An ``opaque`` span records no spans beneath it, so
        all of its time is its own.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._muted:
                return function(*args, **kwargs)
            index = tracer.open(nid)
            tracer._muted += opaque
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._muted -= opaque
                tracer.close(index)
            if tally is not None:
                tracer.tallies[name] = tracer.tallies.get(name, 0) + tally(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its children cover."""
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self.start)):
            lo, hi = self.start[index], self.end[index]
            covered = 0.0
            reach = lo
            for child in sorted(children.get(index, ()), key=self.start.__getitem__):
                # Union of the child intervals, clipped to the parent's.
                c_lo = max(self.start[child], reach)
                c_hi = min(self.end[child], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            result.append((hi - lo) - covered)
        return result

    def per_name(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (span count, summed self time)``."""
        totals: Dict[str, Tuple[int, float]] = {}
        for nid, own in zip(self.name, self.self_times()):
            count, seconds = totals.get(self.names[nid], (0, 0.0))
            totals[self.names[nid]] = (count + 1, seconds + own)
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one gzip'd JSON line: name, start, end, parent, run."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index in range(len(self.start)):
                run = self.run[index]
                handle.write(
                    json.dumps(
                        [
                            self.names[self.name[index]],
                            self.start[index],
                            self.end[index],
                            self.parent[index],
                            self.runs[run] if run >= 0 else None,
                        ]
                    )
                    + "\n"
                )


#: Spans timed as a whole: replay drives a recorder of its own (and verify
#: replays again), which must not count as the simulation's recording.
OPAQUE = frozenset({"traceio.replay", "traceio.verify"})


def _footer_records(replayed: Any) -> int:
    return int((replayed.footer or {}).get("records", 0))


def _entry_points() -> List[Tuple[Any, str, str, Optional[Callable[[Any], int]]]]:
    """``(owner, attribute, span name, tally)`` of every traced entry point."""
    from repro.gc.registry import available_collectors, collector_class
    from repro.recovery.manager import RecoveryManager
    from repro.scenarios.campaign import aggregate, executor, queries
    from repro.scenarios.campaign.sqlstore import SQLResultStore
    from repro.simulation import runner
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.network import Network
    from repro.simulation.node import SimulationNode
    from repro.simulation.trace import TraceRecorder
    from repro.traceio import reader
    from repro.traceio.writer import TraceWriter

    points: List[Tuple[Any, str, str, Optional[Callable[[Any], int]]]] = [
        (SimulationEngine, "run", "simulation.engine", None),
        (Network, "send_app_message", "simulation.network.send", None),
        (SimulationNode, "send_message", "simulation.node.send", None),
        (SimulationNode, "deliver", "simulation.node.deliver", None),
        (SimulationNode, "take_checkpoint", "simulation.node.checkpoint", None),
        (TraceRecorder, "ccp", "trace.ccp", None),
        # Bound by name in the runner module, so the module global is wrapped.
        (runner, "audit_garbage_collection", "core.audit", None),
        (RecoveryManager, "plan", "recovery.plan", None),
        (reader.TraceReader, "replay", "traceio.replay", _footer_records),
        (reader, "verify_trace", "traceio.verify", None),
        (executor, "execute_cell", "campaign.execute_cell", None),
        (SQLResultStore, "append", "campaign.store_append", None),
        (SQLResultStore, "enqueue", "campaign.store_enqueue", None),
        (aggregate, "aggregate_campaign", "campaign.aggregate", None),
        (queries, "run_query", "campaign.query", None),
    ]
    for method in (
        "record_send",
        "record_receive",
        "record_duplicate_receive",
        "record_checkpoint",
        "record_internal",
        "record_join",
        "record_leave",
    ):
        points.append((TraceRecorder, method, "trace.record", None))
    for method in (
        "on_send",
        "on_receive",
        "on_duplicate_receive",
        "on_checkpoint",
        "on_internal",
        "on_join",
        "on_leave",
        "on_recovery",
        "write_sample",
        "write_partition_event",
        "finalize",
    ):
        points.append((TraceWriter, method, "traceio.write", None))
    # Every collector class that defines its own on_receive (an override that
    # calls super() nests, which self time accounts for).
    seen = set()
    for name in available_collectors():
        for cls in collector_class(name).__mro__:
            if "on_receive" in vars(cls) and cls not in seen:
                seen.add(cls)
                points.append((cls, "on_receive", "gc.on_receive", None))
    return points


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point, in this process, to record into ``tracer``."""
    for owner, attribute, name, tally in _entry_points():
        original = vars(owner)[attribute]
        setattr(
            owner, attribute, tracer.wrap(original, name, tally, opaque=name in OPAQUE)
        )
