"""Crash recovery: a crash-stop is a handled event, not a stall.

DESIGN.md §15's contract, tested end to end on the shared ring
workload (``repro.harness.recovery_workload``):

* **recover** — the victim's task retires with a ``Crashed`` marker,
  its regions re-home to the rank-order successor, and every survivor
  finishes with results bit-identical to the crash-free run;
* **abort** — the run raises a prompt StallError at failure-detector
  declaration, naming the crashed node first in ``report.suspects``;
* **no false positives** — a lossy-but-crash-free fabric under an
  armed recovery manager never declares anyone dead;
* **zero cost when off** — without ``on_crash`` no recovery machinery
  is even constructed;
* the receipt table the fabric leans on is **bounded** (watermark+age
  GC) rather than growing for the whole run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsm import Crashed, FaultPlan, FaultTransport, StallError
from repro.dsm.faults import LinkFaults, _GC_EVERY, _GC_LAG
from repro.dsm.recovery import DETECT_WITHIN, HB_INTERVAL
from repro.facade import run_spmd
from repro.harness.experiments import run_app
from repro.harness.recovery_workload import (
    expected_result,
    locked_counter_program,
    ring_program,
)
from repro.machine import Machine, MachineConfig
from repro.obs import TraceBuffer
from repro.sim import Future, Simulator
from repro.sim.errors import DeadlockError

N_PROCS = 4
ROUNDS = 4
SIZE = 8
PROTOCOLS = ("SC", "Owned", "DynamicUpdate")


def run_ring(protocol, plan=None, on_crash=None, **kwargs):
    return run_spmd(
        ring_program(protocol, rounds=ROUNDS, size=SIZE),
        n_procs=N_PROCS,
        fault_plan=plan,
        on_crash=on_crash,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# recover: survivors finish bit-identical to the crash-free baseline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_recover_smoke(protocol):
    victim = 1
    plan = FaultPlan.crash(victim, at=1500, seed=3)
    res = run_ring(protocol, plan, on_crash="recover")
    for nid in range(N_PROCS):
        if nid == victim:
            assert isinstance(res.results[nid], Crashed)
            assert res.results[nid].nid == victim
        else:
            np.testing.assert_array_equal(
                res.results[nid], expected_result(nid, ROUNDS, SIZE)
            )
    summary = res.backend.transport.recovery.summary()
    assert summary["mode"] == "recover"
    assert summary["epoch"] == 1
    assert summary["dead"] == [victim]
    assert summary["live"] == [0, 2, 3]
    (event,) = summary["events"]
    assert event["crash_at"] == 1500
    assert event["rehomed_regions"] == 1  # the region homed at the victim


def test_crash_during_owned_forward_still_reroutes(monkeypatch):
    """An Owned ``fwd_read`` in flight to a crashed owner is swept by the
    protocol's own handler, which the manager reaches through
    ``pend.handler.__self__`` — a handler the fabric cannot resolve to
    its owner (a bare closure) would strand the forwarded reader."""
    from repro.protocols.owned import OwnedProtocol

    swept = []
    inner = OwnedProtocol._recover_fwd_read

    def spy(self, manager, pend, dead):
        swept.append((pend.src, pend.dst, pend.call_args[1]))
        inner(self, manager, pend, dead)

    monkeypatch.setattr(OwnedProtocol, "_recover_fwd_read", spy)
    victim = 0
    res = run_ring("Owned", FaultPlan.crash(victim, at=1150, seed=3), on_crash="recover")
    # Home 1 had forwarded node 3's read to owner 0, which is dead: the
    # read is re-admitted at the home and served from home data.
    assert (1, victim, 3) in swept
    assert res.stats.get("recovery.retargeted") >= 1
    for nid in range(1, N_PROCS):
        np.testing.assert_array_equal(res.results[nid], expected_result(nid, ROUNDS, SIZE))
    assert isinstance(res.results[victim], Crashed)


@pytest.mark.parametrize(
    "victim, at, seed, rates",
    [
        # The rebuild clears the dead home's grant window to owner 2 and
        # the successor forwards node 1's queued read to 2; 2's late
        # grant_ack for its write must not close the reader's forward.
        (3, 1859, 534, (0.02, 0.02, 0.05)),
        # A forward to owner 2 whose supply landed long ago is still in
        # the retry table (its ack was lost) when 2 dies; the sweep must
        # leave the window now open alone, not re-admit the served read.
        (2, 2978, 41065, (0.011883279259160396, 0.010940481228869476, 0.07136766352088231)),
    ],
    ids=("late-grant-ack", "stale-forward"),
)
def test_owned_recovery_ignores_the_leftovers_of_closed_windows(victim, at, seed, rates):
    drop, dup, delay = rates
    faults = LinkFaults(drop=drop, dup=dup, delay=delay, delay_cycles=400)
    rounds = 3
    res = run_spmd(
        ring_program("Owned", rounds=rounds, size=SIZE),
        n_procs=N_PROCS,
        fault_plan=FaultPlan.crash(victim, at=at, seed=seed, faults=faults),
        on_crash="recover",
    )
    for nid in range(N_PROCS):
        if nid == victim:
            assert isinstance(res.results[nid], Crashed)
        else:
            np.testing.assert_array_equal(res.results[nid], expected_result(nid, rounds, SIZE))


def _read_begun_at(start):
    """Node 2 homes a region and crash-stops at 1500; node 1 begins its
    first read of the region at cycle ``start``."""
    box = {}

    def run(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 2:
            box["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier()
        h = yield from ctx.map(box["rid"])
        yield from ctx.barrier()
        if ctx.nid != 1:
            return (yield from ctx.compute(20_000))
        yield from ctx.compute(start - ctx.machine.sim.now)
        return list((yield from ctx.read_region(h)))

    return run_spmd(run, n_procs=N_PROCS, fault_plan=FaultPlan.crash(2, 1500), on_crash="recover")


def _declared_at():
    (event,) = _read_begun_at(30_000).backend.transport.recovery.summary()["events"]
    return event["declared_at"]


def test_miss_begun_just_before_the_declaration_reads_the_new_home():
    """The home of a miss is read after its ``start_miss`` charge while
    recovery is armed: a declaration inside the charge re-homes the
    region, and a destination read before it would be the dead node —
    fenced forever, never swept (the call is not tracked yet).  That is
    why the charge rides the send as a ``lead`` only on fabrics that
    cannot re-home (DESIGN.md §6)."""
    declared_at = _declared_at()
    # dispatch + start_hit = 28 cycles, then start_miss = 45: every
    # access that is inside its start_miss at the declaration
    for start in range(declared_at - 72, declared_at - 27, 11):
        assert _read_begun_at(start).results[1] == [0.0] * 4, start


def test_call_retargeted_inside_its_send_charge_keeps_one_retry_deadline():
    """After ``start_miss`` comes am_send_overhead = 60, and the call is
    tracked by then: a declaration inside the send charge retargets it
    (one arming) and the resuming ``kit.rpc`` arms it again.  Two timers
    on one call once left the first running past the answer — a
    StallError twelve timeouts after node 3 had replied at 10,212."""
    declared_at = _declared_at()
    for start in range(declared_at - 130, declared_at - 79, 10):
        res = _read_begun_at(start)
        assert (res.results[1], res.time) == ([0.0] * 4, 20625), start
        assert res.stats.get("recovery.retargeted") == 1 and not res.stats.get("rel.retry")


def test_successor_missing_on_its_new_region_holds_a_copy_until_recalled():
    """The successor's read begun just before the declaration crosses the
    wire to itself and is served remote-style (its row installs
    ``shared``); a remote write's recall then returns the copy to the
    home alias, and every survivor reads that write."""
    declared_at = _declared_at()
    box = {}

    def run(ctx, start):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 2:
            box["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier()
        h = yield from ctx.map(box["rid"])
        yield from ctx.barrier()
        if ctx.nid == 2:
            return (yield from ctx.compute(20_000))
        if ctx.nid == 3:  # node 2's successor
            yield from ctx.compute(start - ctx.machine.sim.now)
            yield from ctx.read_region(h)
            box["state"] = h.state
        yield from ctx.barrier()
        if ctx.nid == 1:
            yield from ctx.write_region(h, [1.0, 2.0, 3.0, 4.0])
        yield from ctx.barrier()
        return list((yield from ctx.read_region(h)))

    # dispatch + start_hit = 28 cycles read the copy's state before the
    # declaration; the declaration falls inside start_miss
    for start in range(declared_at - 72, declared_at - 28, 11):
        res = run_spmd(
            lambda ctx: run(ctx, start),
            n_procs=N_PROCS,
            fault_plan=FaultPlan.crash(2, 1500),
            on_crash="recover",
        )
        assert box["state"] == "shared", start
        assert [res.results[n] for n in (0, 1, 3)] == [[1.0, 2.0, 3.0, 4.0]] * 3, start
        engine = res.backend.runtime.sc_engine
        copy = engine.copy_of(3, box["rid"])
        assert copy.state == "home" and copy.data is copy.region.home_data, start


def test_recover_is_deterministic():
    plan = FaultPlan.crash(2, at=2200, seed=7)
    a = run_ring("SC", plan, on_crash="recover")
    b = run_ring("SC", plan, on_crash="recover")
    assert a.time == b.time
    for ra, rb in zip(a.results, b.results):
        if isinstance(ra, Crashed):
            assert ra == rb
        else:
            np.testing.assert_array_equal(ra, rb)


def test_recover_emits_trace_events():
    buf = TraceBuffer()
    plan = FaultPlan.crash(1, at=1500, seed=3)
    run_ring("SC", plan, on_crash="recover", tracer=buf)
    kinds = {ev.kind for ev in buf.events() if ev.kind.startswith("recovery.")}
    assert {"recovery.dead", "recovery.epoch", "recovery.rehome", "recovery.complete"} <= kinds
    dead = [ev for ev in buf.events() if ev.kind == "recovery.dead"]
    assert dead[0].node == 1
    assert dead[0].data["epoch"] == 1


# ---------------------------------------------------------------------------
# abort: prompt, suspect-attributed failure
# ---------------------------------------------------------------------------


def test_abort_names_the_crashed_node():
    victim = 2
    plan = FaultPlan.crash(victim, at=1500, seed=3)
    with pytest.raises(StallError) as exc:
        run_ring("SC", plan, on_crash="abort")
    report = exc.value.report
    assert report.suspects[0] == victim
    assert "failure detector" in report.reason
    # Prompt: declared one detection window after the crash, an order
    # of magnitude before retry exhaustion (~10^5-cycle watchdog trips).
    assert "crash-stop at cycle 1500" in report.reason


# ---------------------------------------------------------------------------
# lock recovery: a dead holder's lock is broken, not leaked
# ---------------------------------------------------------------------------


def test_dead_lock_holder_is_broken():
    victim, increments = 1, 3
    plan = FaultPlan.crash(victim, at=900, seed=5)
    res = run_spmd(
        locked_counter_program(increments),
        n_procs=N_PROCS,
        fault_plan=plan,
        on_crash="recover",
    )
    survivors = [res.results[n] for n in range(N_PROCS) if n != victim]
    assert isinstance(res.results[victim], Crashed)
    # Every survivor completes all its increments and agrees on the sum.
    assert len(set(survivors)) == 1
    assert survivors[0] >= increments * (N_PROCS - 1)
    summary = res.backend.transport.recovery.summary()
    (event,) = summary["events"]
    assert event["broken_locks"] >= 1


# ---------------------------------------------------------------------------
# no false positives / zero cost when off
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_armed_recovery_has_no_false_positives(protocol):
    plan = FaultPlan.canonical(0)  # lossy fabric, nobody crashes
    res = run_ring(protocol, plan, on_crash="recover")
    rec = res.backend.transport.recovery
    assert rec.epoch == 0
    assert not rec.dead
    for nid in range(N_PROCS):
        np.testing.assert_array_equal(
            res.results[nid], expected_result(nid, ROUNDS, SIZE)
        )


@pytest.mark.parametrize("app", ("Barnes-Hut", "EM3D", "Water"))
def test_armed_recovery_has_no_false_positives_on_app_sized_runs(app):
    """The ring above lasts about one suspicion window; these last tens of
    them, with most leases renewed by the app's own traffic."""
    from repro.cli.chaos import APPROX_APPS, equal
    from repro.verify.golden import _heavy

    base = run_app(app, "SC", n_procs=8)
    for seed in range(3):
        for plan in (FaultPlan.canonical(seed), _heavy(seed)):
            res = run_app(app, "SC", n_procs=8, fault_plan=plan, on_crash="recover")
            assert res.backend.transport.recovery.epoch == 0, (seed, plan.describe())
            assert equal(base.results, res.results, app in APPROX_APPS), (seed, plan.describe())


def test_no_recovery_machinery_without_on_crash():
    res = run_ring("SC")
    assert res.backend.transport.recovery is None
    res = run_ring("SC", FaultPlan.canonical(1))
    assert res.backend.transport.recovery is None


def test_on_crash_requires_a_fault_plan():
    with pytest.raises(ValueError):
        run_ring("SC", on_crash="recover")


# ---------------------------------------------------------------------------
# the lease rule (DESIGN.md §15): traffic renews, silence heartbeats
# ---------------------------------------------------------------------------

SPAN = 40_000  # cycles of chatter / silence: several suspicion windows


def _chatter(crash=None):
    """Nodes 0-2 ping-pong a region homed at node 1 for SPAN cycles while
    node 3 computes silently for as long."""
    box = {}

    def run(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 1:
            box["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier()
        h = yield from ctx.map(box["rid"])
        if ctx.nid == 3:
            return (yield from ctx.compute(SPAN))
        end = ctx.machine.sim.now + SPAN
        while ctx.machine.sim.now < end:
            yield from ctx.write_region(h, np.full(4, float(ctx.nid)))
            yield from ctx.compute(100)

    plan = FaultPlan() if crash is None else FaultPlan.crash(*crash)
    return run_spmd(run, n_procs=N_PROCS, fault_plan=plan, on_crash="recover")


def test_a_talking_node_sends_no_heartbeat_and_a_silent_one_sends_every_tick():
    res = _chatter()
    assert res.backend.transport.recovery.epoch == 0
    ticks = SPAN // HB_INTERVAL
    sent = res.stats.get("recovery.heartbeats")
    assert sent >= (N_PROCS - 1) * ticks  # node 3's own rounds, one per tick
    assert 2 * sent < N_PROCS * (N_PROCS - 1) * ticks  # all-to-all would be 12 a tick


@pytest.mark.parametrize("victim", (3, 0), ids=("silent", "chatty"))
def test_a_crash_is_declared_inside_the_latency_bound(victim):
    crash_at = SPAN // 2 + 137
    transport = _chatter(crash=(victim, crash_at)).backend.transport
    (event,) = transport.recovery.events
    assert (event["nid"], event["crash_at"]) == (victim, crash_at)
    assert event["last_heard"] < crash_at
    assert 0 < event["declared_at"] - crash_at <= DETECT_WITHIN
    if victim == 0:
        # The chatty victim goes on sending after its crash cycle (a grant
        # ack, retried); what the fabric discards must not renew it.
        assert [e for e in transport.log
                if e[1] == "crash" and e[3] == victim and e[2] != "recovery.hb"]


def _stuck(ctx):
    """Node 0 waits on a future nobody resolves; the others wait at a barrier for it."""
    if ctx.nid == 0:
        yield Future(name="never")
    yield from ctx.barrier()


@pytest.mark.parametrize("kwargs", [{}, {"tracer": TraceBuffer()}], ids=("plain", "traced"))
def test_a_quiescent_armed_run_ends_in_the_kernels_deadlock(monkeypatch, kwargs):
    # Once only heartbeats could happen the detector stops ticking: the
    # armed run ends as the plain run does, naming the same waits.  The
    # bound is in simulated cycles: a detector ticking forever stops at
    # it and returns instead of raising.
    with pytest.raises(DeadlockError) as plain:
        run_spmd(_stuck, n_procs=2)
    run, ends = Simulator.run, []

    def bounded(self, until=None):
        try:
            return run(self, 20 * HB_INTERVAL)
        finally:
            ends.append(self.now)

    monkeypatch.setattr(Simulator, "run", bounded)
    with pytest.raises(DeadlockError) as armed:
        run_spmd(_stuck, n_procs=2, fault_plan=FaultPlan(), on_crash="recover", **kwargs)
    assert armed.value.wait_reasons == plain.value.wait_reasons
    (end,) = ends
    assert HB_INTERVAL < end < 2 * HB_INTERVAL  # the first tick's round, landed


def test_a_crash_still_ahead_keeps_the_detector_watching():
    # Node 0's crash, declared, shrinks the barrier the others wait at.
    res = run_spmd(_stuck, n_procs=3, fault_plan=FaultPlan.crash(0, 5 * HB_INTERVAL), on_crash="recover")
    assert isinstance(res.results[0], Crashed) and res.results[1:] == [None, None]


# ---------------------------------------------------------------------------
# dedup tables stay bounded (watermark + age GC)
# ---------------------------------------------------------------------------


class _Receiver:
    """One call, one notify and one fan-out receiver, each region-first."""

    def __init__(self, port):
        self.port = port
        self.runs = 0  # handler executions: a duplicate must not add one

    def _on_call(self, node, src, fut, rid):
        self.runs += 1
        self.port.reply(fut, rid, payload_words=1, category="test.answer")

    def _on_note(self, node, src, rid):
        self.runs += 1

    def _on_leg(self, node, src, ack, rid):
        self.runs += 1
        ack(rid)


def _drive_receipts_to_a_plateau(binders):
    """Drive settled messages through ``binders`` (names of ``Port``
    binders, taken in turn) and check the one ``(src, seq)`` receipt
    table behind them: it is purged behind the retry kit's watermark and
    age, so it plateaus, and each binder's recent duplicate still gets
    its recorded answer without re-running its handler."""
    sim = Simulator()
    transport = FaultTransport(Machine(sim, MachineConfig(n_procs=2)), FaultPlan())
    sent = []
    transport.reply = lambda fut, value=None, payload_words=0, category="": sent.append((category, value))
    port = transport.port("test")
    svc = _Receiver(port)
    bind = {
        "serves": (lambda: port.serves(svc._on_call), "test.answer", True),
        "hears": (lambda: port.hears(svc._on_note, "test.note_ack"), "test.note_ack", False),
        "answers": (lambda: port.answers(svc._on_leg, "test.leg_ack"), "test.leg_ack", True),
    }
    shims = [bind[b][0]() for b in binders]
    kit, rows = transport.kit, port._receipts.rows
    step = 200  # cycles between settled messages

    def deliver(seq):
        shims[seq % len(shims)](None, 0, object(), seq, seq)

    def drive(n):
        for _ in range(n):
            seq = kit._seq
            deliver(seq)
            kit._seq = seq + 1  # settled: nothing pending below _seq
            sim.now += step

    warm = _GC_LAG // step + _GC_EVERY  # rows young enough to keep + GC slack
    drive(4 * warm)
    size_a = len(rows)
    drive(4 * warm)
    assert size_a <= warm + 1
    assert len(rows) <= warm + 1  # plateau: doubling the run does not grow it
    assert not port.open_calls  # every admitted call was answered
    # Correctness survives GC: each binder's recent duplicate replays the
    # answer it recorded, and no handler runs again.
    runs = svc.runs
    for seq in range(kit._seq - len(shims), kit._seq):
        _, category, echoes = bind[binders[seq % len(shims)]]
        del sent[:]
        deliver(seq)
        assert sent == [(category, seq if echoes else None)]
    assert svc.runs == runs == 8 * warm
    return transport


def test_dedup_table_plateaus():
    """A served call's receipt ages out; its recent duplicate replays."""
    transport = _drive_receipts_to_a_plateau(["serves"])
    assert transport.stats.get("test.replayed_reply") == 1


def test_seen_once_plateaus():
    """A heard or fanned-out message's receipt (its ack) ages out the same
    way in the same table; only a call's replay is counted."""
    transport = _drive_receipts_to_a_plateau(["hears", "answers"])
    assert transport.stats.get("test.replayed_reply") == 0
