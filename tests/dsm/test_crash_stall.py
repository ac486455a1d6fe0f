"""A crash that strands a waiting survivor ends the run with a report.

A reliable call to a node declared dead takes its receiver's crash fate.
The default fate, abandon, drops the call; that is right for a grant
ack nobody waits on, but a survivor blocked on the call (or a fan-out
collector counting on its answer) would then wait forever while the
recovery heartbeats keep the clock running.  The recovery sweep instead
ends the run with a :class:`StallError` that names the call and the
dead node.

SelfInvalidate's write-back, PipelinedWrite's delta, Counter's acquire
and Migratory's request are such calls on the ring workload.  Each run
here is bounded (``until``), so a hang fails the test instead of
stalling the suite.
"""

from __future__ import annotations

import re

import pytest

from repro.cli.chaos import crash_cell
from repro.dsm import FaultPlan, StallError
from repro.dsm.faults import RetryKit
from repro.facade import run_spmd
from repro.harness.recovery_workload import ring_program
from repro.sim import Simulator

N_PROCS = 4
#: far past every crash-free ring run here (all end within 10,000 cycles)
BOUND = 5_000_000


@pytest.fixture
def bounded(monkeypatch):
    run = Simulator.run
    monkeypatch.setattr(Simulator, "run", lambda self, until=None: run(self, BOUND if until is None else until))


def crash_run(protocol: str):
    victim, at = crash_cell(0, N_PROCS)
    result = run_spmd(
        ring_program(protocol),
        n_procs=N_PROCS,
        fault_plan=FaultPlan.crash(victim, at, seed=0),
        on_crash="recover",
    )
    return victim, result


@pytest.mark.parametrize(
    "protocol, message",
    [("SelfInvalidate", "wb"), ("PipelinedWrite", "delta"), ("Counter", "acquire"), ("Migratory", "req")],
)
def test_abandoned_call_with_a_waiter_ends_the_run(bounded, protocol, message):
    with pytest.raises(StallError) as err:
        crash_run(protocol)
    report = err.value.report
    victim, _at = crash_cell(0, N_PROCS)
    m = re.fullmatch(
        rf"proto\.{protocol}\.{message} for region (\d+) from node (\d+) to node (\d+) "
        rf"abandoned: node (\d+) died while node (\d+) waits on it",
        report.reason,
    )
    assert m, report.reason
    region, src, dst, dead, waiter = map(int, m.groups())
    assert dst == dead == victim and src == waiter != victim
    assert report.suspects[0] == victim
    assert report.now < BOUND
    call = [c for c in report.in_flight if c["category"] == f"proto.{protocol}.{message}" and c["src"] == src]
    assert call and call[0]["region"] == region and call[0]["dst"] == victim


def test_abandoned_call_nobody_waits_on_stays_silent(bounded, monkeypatch):
    """SC's crash run abandons calls from live callers that nobody waits
    on, and still finishes."""
    awaited = RetryKit.awaited
    verdicts = []

    def spy(kit, pend):
        verdicts.append(awaited(kit, pend))
        return verdicts[-1]

    monkeypatch.setattr(RetryKit, "awaited", spy)
    victim, result = crash_run("SC")
    assert verdicts and not any(verdicts)
    assert result.stats.get("recovery.abandoned") >= len(verdicts)
    assert [nid for nid, r in enumerate(result.results) if r is not None and nid != victim] == [
        nid for nid in range(N_PROCS) if nid != victim
    ]


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: ring_program synchronizes with ctx.barrier(), "
    "not its space's barrier, so BufferedUpdate's and RaceDetect's barrier-hook work never "
    "runs on the ring and node 1's crash at cycle 1,500 goes unseen (4,411 / 4,911 cycles, "
    "the crash-free runs)",
)
@pytest.mark.parametrize("protocol", ["BufferedUpdate", "RaceDetect"])
def test_a_crash_in_a_barrier_hook_table_is_observed(bounded, protocol):
    """Node 1 dies mid-ring: the run declares its death or stalls naming it."""
    try:
        result = run_spmd(
            ring_program(protocol),
            n_procs=N_PROCS,
            fault_plan=FaultPlan.crash(1, 1500, seed=1),
            on_crash="recover",
        )
    except StallError as err:
        assert err.report.suspects[0] == 1
    else:
        assert result.stats.get("recovery.epochs") >= 1
