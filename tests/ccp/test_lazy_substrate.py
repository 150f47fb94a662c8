"""The recorder's checkpoint-knowledge tracker is lazy and chunk-invariant.

Recording costs the tracker nothing: it applies events only when an
analysis reads it, through per-process cursors.  These tests pin the two
halves of that contract:

* a recorder that is never analysed applies zero tracker events — an
  unaudited simulation, and the replay of every golden trace;
* catching up in chunks, with queries in between, gives exactly the answers
  of one catch-up at the end — across a join beyond the provisioned
  capacity, recovery truncation, and pruning with late deliveries of
  pruned sends.
"""

import glob
import hashlib
import os
import random

import pytest
from differential import assert_matches_classic

from repro.causality.events import EventKind
from repro.ccp.checkpoint import CheckpointId
from repro.membership import MembershipSchedule
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import UniformRandomWorkload
from repro.traceio import TraceReader, analysis_table

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces")
GOLDEN_TRACES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.trace.jsonl")))

#: sha256 prefix of each golden trace's rendered analysis table (text +
#: CSV), as the classic full-recompute substrate rendered it.
GOLDEN_TABLE_DIGESTS = {
    "cbr-wang-coordinated-crash.trace.jsonl": "41ebfb018fd4cfab",
    "duplicating.trace.jsonl": "2955366803ca8736",
    "fdi-partitioned-fifo.trace.jsonl": "c01c3b17947f4e00",
    "gilbert-elliott-crash.trace.jsonl": "0e3fdec5c6052b85",
    "lossy-uniform.trace.jsonl": "aebaaf74fb87962c",
    "manivannan-singhal-pruned.trace.jsonl": "a6e40719ef508f25",
    "uniform-baseline.trace.jsonl": "0fafbfc6f155c821",
}


class TestUnqueriedRecorderDoesNoTrackerWork:
    def test_unaudited_run(self):
        config = SimulationConfig(
            num_processes=5,
            duration=120.0,
            workload=UniformRandomWorkload(
                mean_message_gap=1.0, mean_checkpoint_gap=5.0
            ),
            seed=3,
        )
        runner = SimulationRunner(config)
        runner.run()
        assert runner.trace.log.total_events() > 0
        assert runner.trace.knowledge_events_applied == 0

    def test_join_beyond_capacity_applies_nothing(self):
        recorder = TraceRecorder(2)
        recorder.record_checkpoint(0, 0, (0, 0), forced=False, time=0.0)
        recorder.record_checkpoint(1, 0, (0, 0), forced=False, time=0.0)
        recorder.record_join(2, 1.0)
        recorder.record_checkpoint(2, 0, (0, 0, 0), forced=False, time=1.0)
        recorder.record_send(0, 2, 0, 2.0)
        recorder.record_receive(0, 3.0)
        assert recorder.knowledge_events_applied == 0
        # The first analysis catches up once; a second read is free.
        recorder.ccp().analyses.theorem2_retained
        assert recorder.knowledge_events_applied == recorder.log.total_events()
        recorder.ccp().analyses.recovery_line({0})
        assert recorder.knowledge_events_applied == recorder.log.total_events()

    @pytest.mark.parametrize(
        "path", GOLDEN_TRACES, ids=[os.path.basename(p) for p in GOLDEN_TRACES]
    )
    def test_golden_trace_replay(self, path):
        replayed = TraceReader(path).replay()
        assert replayed.recorder.log.total_events() > 0
        assert replayed.recorder.knowledge_events_applied == 0

    def test_every_golden_trace_is_covered(self):
        assert sorted(GOLDEN_TABLE_DIGESTS) == [
            os.path.basename(path) for path in GOLDEN_TRACES
        ]

    @pytest.mark.parametrize(
        "path", GOLDEN_TRACES, ids=[os.path.basename(p) for p in GOLDEN_TRACES]
    )
    def test_golden_analysis_table_is_byte_identical(self, path):
        recorder = TraceReader(path).replay().recorder
        table = analysis_table(recorder)
        text = table.render() + "\n" + table.render_csv()
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == GOLDEN_TABLE_DIGESTS[os.path.basename(path)]


# ----------------------------------------------------------------------
# Chunked versus one-shot catch-up
# ----------------------------------------------------------------------
def _answers(recorder: TraceRecorder):
    """Everything the tracker serves, in comparable form."""
    ccp = recorder.ccp()
    analyses = ccp.analyses
    faulty_sets = [
        frozenset((pid,))
        for pid in ccp.active_processes
        if ccp.last_stable(pid) >= 0
    ]
    tracker = recorder.knowledge_tracker
    return {
        "theorem1": analyses.theorem1_retained,
        "theorem2": analyses.theorem2_retained,
        "lines": {faulty: analyses.recovery_line(faulty) for faulty in faulty_sets},
        "ck": [list(row) for row in tracker.ck],
    }


class _Twins:
    """Two recorders fed identically; only ``queried`` is read between chunks.

    Eliminations, which need an analysis, are computed on ``queried`` and
    applied to both, so ``lazy`` catches up only where pruning forces it.
    """

    def __init__(self, num_processes: int, **options) -> None:
        self.queried = TraceRecorder(num_processes, **options)
        self.lazy = TraceRecorder(num_processes, **options)
        self.time = 0.0
        self.queries = 0

    def both(self, method: str, *args, **kwargs) -> None:
        self.time += 1.0
        for recorder in (self.queried, self.lazy):
            getattr(recorder, method)(*args, time=self.time, **kwargs)

    def checkpoint(self, pid: int) -> None:
        index = self.queried.checkpoints_taken[pid]
        zeros = (0,) * self.queried.num_processes
        self.both("record_checkpoint", pid, index, zeros, forced=False)

    def query(self) -> None:
        _answers(self.queried)
        self.queries += 1

    def eliminate_garbage(self) -> None:
        ccp = self.queried.ccp()
        retained = ccp.analyses.theorem1_retained
        for pid in ccp.active_processes:
            for index in range(
                ccp.base_interval(pid), self.queried.checkpoints_taken[pid] - 1
            ):
                if CheckpointId(pid, index) not in retained:
                    for recorder in (self.queried, self.lazy):
                        recorder.record_elimination(pid, index)

    def assert_agree(self) -> None:
        assert self.queries > 0
        assert _answers(self.queried) == _answers(self.lazy)


def _random_traffic(twins: _Twins, rng: random.Random, steps: int, members, state):
    """``steps`` random sends, receives and checkpoints among ``members``."""
    pending = state.setdefault("pending", [])
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.2:
            twins.checkpoint(rng.choice(members))
        elif roll < 0.6 or not pending:
            sender, receiver = rng.sample(members, 2)
            message_id = state["next_id"] = state.get("next_id", -1) + 1
            twins.both("record_send", sender, receiver, message_id)
            pending.append(message_id)
        else:
            message_id = pending.pop(rng.randrange(len(pending)))
            twins.both("record_receive", message_id)


@pytest.mark.parametrize("seed", range(8))
def test_chunked_catch_up_equals_one_shot_across_join(seed):
    rng = random.Random(seed)
    twins = _Twins(3)
    state: dict = {}
    members = [0, 1, 2]
    for pid in members:
        twins.checkpoint(pid)
    for chunk in range(6):
        _random_traffic(twins, rng, 12, members, state)
        if chunk == 1:
            # A join beyond the provisioned capacity grows the tracker.
            twins.both("record_join", 3)
            members.append(3)
            twins.checkpoint(3)
        twins.query()
    twins.assert_agree()
    assert twins.lazy.knowledge_events_applied == twins.lazy.log.total_events()
    assert_matches_classic(twins.lazy)


def _pruning_scenario(seed: int) -> int:
    """Returns how many pruned sends were delivered late."""
    rng = random.Random(100 + seed)
    twins = _Twins(4, prune=True, prune_threshold=8)
    state: dict = {}
    members = [0, 1, 2, 3]
    for pid in members:
        twins.checkpoint(pid)
    for _ in range(8):
        _random_traffic(twins, rng, 15, members, state)
        twins.query()
        twins.eliminate_garbage()
    for recorder in (twins.queried, twins.lazy):
        recorder.maybe_prune(force=True)
    assert twins.queried.pruned_events > 0
    # Late deliveries: pending messages, some of whose sends were pruned,
    # arrive after the compaction as knowledge-merging placeholders.
    late = list(state["pending"])
    rng.shuffle(late)
    placeholders = -_internal_events(twins.lazy)
    for message_id in late:
        twins.both("record_receive", message_id)
        twins.checkpoint(rng.choice(members))
    placeholders += _internal_events(twins.lazy)
    twins.assert_agree()
    return placeholders


def _internal_events(recorder: TraceRecorder) -> int:
    return sum(1 for event in recorder.log.events() if event.kind is EventKind.INTERNAL)


def test_chunked_catch_up_equals_one_shot_under_pruning():
    late_placeholders = [_pruning_scenario(seed) for seed in range(8)]
    # The corpus does exercise the placeholder knowledge merge.
    assert sum(late_placeholders) > 0


class _Mirror:
    """A trace sink that re-records every occurrence into a second recorder."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    def on_send(self, sender, receiver, message_id, time):
        self.recorder.record_send(sender, receiver, message_id, time)

    def on_receive(self, message_id, time):
        self.recorder.record_receive(message_id, time)

    def on_duplicate_receive(self, message_id, time):
        self.recorder.record_duplicate_receive(message_id, time)

    def on_checkpoint(self, pid, index, dependency_vector, *, forced, time):
        self.recorder.record_checkpoint(
            pid, index, dependency_vector, forced=forced, time=time
        )

    def on_internal(self, pid, time):
        self.recorder.record_internal(pid, time)

    def on_recovery(self, plan):
        self.recorder.apply_recovery(plan)

    def on_join(self, pid, time):
        self.recorder.record_join(pid, time)

    def on_leave(self, pid, time):
        self.recorder.record_leave(pid, time)


@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("seed", range(3))
def test_simulated_churn_catch_up_equals_one_shot(seed, prune):
    """Crashes (recovery truncation), a join and a leave, optionally pruned.

    The runner's recorder is queried at every crash, audit and sampling
    instant.  Its mirror is one process narrower, so the join grows it
    beyond its capacity, and it is read once, at the end.
    """
    config = SimulationConfig(
        num_processes=5,
        duration=120.0,
        workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
        failures=FailureSchedule.of([(45.0, seed % 4), (90.0, (seed + 2) % 4)]),
        membership=MembershipSchedule.of(joins=[(20.0, 4)], leaves=[(70.0, 1)]),
        seed=seed,
        audit="full",
        prune_trace=prune,
    )
    runner = SimulationRunner(config)
    mirror = TraceRecorder(
        4, prune=prune, initial_members=config.membership.initial_members(5)
    )
    runner.trace.attach_sink(_Mirror(mirror))
    if prune:
        forward = runner.trace.record_elimination

        def record_elimination(pid, index):
            forward(pid, index)
            mirror.record_elimination(pid, index)

        runner.trace.record_elimination = record_elimination
    for instant in range(10, 120, 10):
        runner.engine.schedule_at(float(instant), lambda: _answers(runner.trace))
    result = runner.run()
    assert len(result.recoveries) == 2
    assert mirror.num_processes == 5
    assert (runner.trace.pruned_events > 0) == prune
    assert mirror.knowledge_events_applied <= runner.trace.knowledge_events_applied
    assert _answers(runner.trace) == _answers(mirror)
    if not prune:
        assert_matches_classic(mirror)
