"""Differential reference for the recorder's checkpoint-knowledge substrate.

Every :class:`~repro.simulation.trace.TraceRecorder` snapshot serves the
Theorem-1/2 retained sets and Lemma-1 recovery lines from its lazily caught
up :class:`~repro.ccp.incremental.CheckpointKnowledgeTracker`.  The classic
full recompute over checkpoint-level causal precedence is the reference for
those answers.  This module rebuilds a provider-less CCP from the same log,
recorded dependency vectors and departed set, and compares the two.

The comparison is meaningful only while the log is unpruned: pruning drops
event-graph edges (receives of pruned sends survive as INTERNAL
placeholders), so on a pruned log the tracker is the only ground truth.
"""

from __future__ import annotations

from repro.ccp.pattern import CCP
from repro.core.optimality import GcAudit
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceRecorder


def classic_ccp(recorder: TraceRecorder) -> CCP:
    """A CCP of the recorded execution answered by the classic oracles only."""
    assert not any(recorder.log.checkpoint_bases), (
        "the classic recompute is not a reference on a pruned log"
    )
    return CCP(
        recorder.log,
        recorded_dvs=recorder.recorded_checkpoint_dvs(),
        departed=recorder.departed,
    )


def assert_matches_classic(recorder: TraceRecorder) -> None:
    """The tracker's answers equal the classic full recompute's.

    Checks the Theorem-1 and Theorem-2 retained sets and the recovery line
    of every valid single-fault set (a member process with a stable
    checkpoint).
    """
    served = recorder.ccp()
    assert served.analysis_provider is not None
    reference = classic_ccp(recorder)
    assert reference.analysis_provider is None
    assert served.analyses.theorem1_retained == reference.analyses.theorem1_retained
    assert served.analyses.theorem2_retained == reference.analyses.theorem2_retained
    for pid in reference.active_processes:
        if reference.last_stable(pid) < 0:
            continue
        faulty = frozenset((pid,))
        assert served.analyses.recovery_line(faulty) == (
            reference.analyses.recovery_line(faulty)
        ), f"recovery line of F={{{pid}}}"


class DifferentialRunner(SimulationRunner):
    """A simulation runner that checks the substrate at every audit instant.

    ``checks`` counts the instants compared, so a test can assert the check
    actually ran.
    """

    def __init__(self, config: SimulationConfig) -> None:
        super().__init__(config)
        self.checks = 0

    def _run_audit(self, label: str) -> GcAudit:
        assert_matches_classic(self.trace)
        self.checks += 1
        return super()._run_audit(label)
