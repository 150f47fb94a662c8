"""Grid differential: checkpoint-knowledge answers vs the classic recompute.

Every RDT protocol x every registered collector x {0, 2} crashes x {static,
join+leave} membership, one seed each.  At every audit instant the
recorder's tracker-served Theorem-1/2 retained sets and single-fault
recovery lines must equal the classic full recompute over the same log
(``tests/differential.py``).
"""

import pytest
from differential import DifferentialRunner

from repro.gc.registry import available_collectors
from repro.membership import MembershipSchedule
from repro.protocols.registry import available_protocols
from repro.simulation.failures import FailureSchedule
from repro.simulation.runner import SimulationConfig
from repro.simulation.workloads import UniformRandomWorkload

PROTOCOLS = available_protocols(rdt_only=True)
COLLECTORS = available_collectors()
DURATION = 60.0


def test_grid_covers_three_protocols_and_five_collectors():
    assert len(PROTOCOLS) == 3
    assert len(COLLECTORS) == 5


@pytest.mark.parametrize("membership", ["static", "join+leave"])
@pytest.mark.parametrize("crashes", [0, 2])
@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tracker_matches_classic_at_every_audit(
    protocol, collector, crashes, membership
):
    schedule = (
        MembershipSchedule.of(joins=[(DURATION / 6.0, 4)], leaves=[(DURATION / 2.0, 1)])
        if membership == "join+leave"
        else MembershipSchedule.static()
    )
    failures = (
        FailureSchedule.of([(DURATION / 3.0, 0), (DURATION * 2.0 / 3.0, 2)])
        if crashes
        else FailureSchedule.none()
    )
    config = SimulationConfig(
        num_processes=5,
        duration=DURATION,
        workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
        protocol=protocol,
        collector=collector,
        failures=failures,
        membership=schedule,
        seed=1,
        audit="full",
    )
    runner = DifferentialRunner(config)
    result = runner.run()
    assert len(result.recoveries) == crashes
    # One audit after each recovery plus the final one, all compared.
    assert runner.checks == len(result.audits) == crashes + 1


@pytest.mark.parametrize(
    "seed, collector", [(9, "wang-coordinated"), (10, "rdt-lgc"), (11, "none")]
)
def test_tracker_matches_classic_without_rdt(seed, collector):
    """Without RDT a Lemma-1 line can be inconsistent: a kept receive whose
    send is cut away turns INTERNAL in the truncated log, and the tracker
    must drop the knowledge that receive had already merged.  These seeds
    produce such orphans."""
    config = SimulationConfig(
        num_processes=4,
        duration=DURATION,
        workload=UniformRandomWorkload(mean_message_gap=1.0, mean_checkpoint_gap=5.0),
        protocol="uncoordinated",
        collector=collector,
        failures=FailureSchedule.of([(DURATION / 3.0, 0), (DURATION * 2.0 / 3.0, 2)]),
        seed=seed,
        audit="safety",
    )
    runner = DifferentialRunner(config)
    result = runner.run()
    assert runner.checks == len(result.audits) == 3
