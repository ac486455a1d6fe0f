"""Fault-injection fabric: determinism, recovery, and stall reporting.

The chaos contract (DESIGN.md §9) has three legs, each tested here:

* **Determinism** — a :class:`~repro.dsm.faults.FaultPlan` is a seeded
  value object: the same plan over the same program yields the same
  cycles and the same fault counts, so every chaos failure replays
  from its artifact alone.
* **Recovery** — under drop/duplicate/delay the retry + dedup
  machinery keeps the at-least-once fabric semantically exactly-once:
  final results equal the fault-free run.
* **Liveness** — faults the protocol cannot mask (a dead link) raise a
  structured :class:`~repro.dsm.faults.StallError` naming the stuck
  region and home node instead of hanging the simulation.

Plus the zero-cost boundary: with no fault plan, no fault machinery is
even constructed and the reliable fast paths stay installed.
"""

from __future__ import annotations

import json

import pytest

import re
from pathlib import Path

from repro.dsm import FaultPlan, FaultTransport, OneShot, RetryPolicy, StallError, as_transport
from repro.dsm.transport import Acks, Port
from repro.dsm.faults import LinkFaults, RetryKit, RetryPort
from repro.facade import run_spmd
from repro.harness.experiments import FIG7_WORKLOADS, run_app
from repro.machine import Machine, MachineConfig
from repro.obs import TraceBuffer
from repro.sim import Delay, Future, Simulator
from repro.sim.errors import DeadlockError

N_PROCS = 3
ROUNDS = 4


def make_counter_prog():
    """Lock-protected increments on one shared region, soft barriers.

    Every fault category gets exercised: mapping, read/write grants,
    invalidations, lock traffic, and dissemination-barrier notifies all
    cross the (possibly lossy) data network.  The ``shared`` dict is a
    host-side closure all nodes see (the repo's rid-sharing idiom).
    """
    shared = {}

    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            shared["rid"] = yield from ctx.gmalloc(sid, 1 + ctx.n_procs)
        yield from ctx.barrier()
        rid = shared["rid"]
        h = yield from ctx.map(rid)
        for _ in range(ROUNDS):
            yield from ctx.lock(rid)
            yield from ctx.start_write(h)
            h.data[0] += 1
            h.data[1 + ctx.nid] += ctx.nid
            yield from ctx.end_write(h)
            yield from ctx.unlock(rid)
            yield Delay(50)
        yield from ctx.barrier()
        data = yield from ctx.read_region(h)
        return list(data)

    return prog


def run_counter(plan=None, n_procs: int = N_PROCS, **kwargs):
    return run_spmd(
        make_counter_prog(),
        n_procs=n_procs,
        fault_plan=plan,
        barrier_algorithm="dissemination",
        **kwargs,
    )


EXPECTED = [float(N_PROCS * ROUNDS)] + [float(n * ROUNDS) for n in range(N_PROCS)]


# ---------------------------------------------------------------------------
# plan as a value object
# ---------------------------------------------------------------------------


def test_plan_constructors_and_describe():
    plan = FaultPlan.canonical(7)
    assert plan.seed == 7
    assert plan.default.any
    assert not FaultPlan.none().default.any
    assert "drop" in plan.describe()
    dead = FaultPlan.dead_link(1, 0)
    assert dead.link_down == {(1, 0): 0}


def test_plan_json_round_trips_link_keys():
    plan = FaultPlan.drop_retry(3)
    plan.per_link[(2, 0)] = LinkFaults(drop=0.5)
    plan.link_down[(1, 0)] = 100
    plan.one_shots.append(OneShot("delay", category="ace.sc.read_req", nth=2))
    blob = json.loads(plan.to_json())
    assert blob["seed"] == 3
    assert "2->0" in blob["per_link"]
    assert "1->0" in blob["link_down"]
    assert blob["one_shots"][0]["action"] == "delay"


def test_one_shot_validates_action():
    with pytest.raises(ValueError):
        OneShot("explode")


@pytest.mark.parametrize(
    "field, value",
    [
        ("default", LinkFaults(drop=0.1)),
        ("default", LinkFaults(dup=0.1)),
        ("default", LinkFaults(delay=0.1)),
        ("per_category", {"ace.sc.read_req": LinkFaults(drop=0.1)}),
        ("per_link", {(0, 1): LinkFaults(delay=0.1)}),
        ("crashes", {2: 0}),
        ("stalls", {1: (0, 100, 50)}),
        ("link_down", {(1, 0): 0}),
        ("one_shots", [OneShot("drop")]),
    ],
)
def test_any_fault_alone_makes_a_plan_not_quiet(field, value):
    assert not FaultPlan(**{field: value}).quiet
    plan = FaultPlan.none()
    setattr(plan, field, value)
    assert not plan.quiet  # mutated after construction, before the run: still seen


def test_a_plan_that_cannot_fire_is_quiet():
    assert FaultPlan().quiet and FaultPlan.none(seed=9).quiet  # a seed injects nothing
    # rates that are all zero are no rates
    assert FaultPlan(per_category={"x": LinkFaults()}, per_link={(0, 1): LinkFaults()}).quiet
    for stock in (FaultPlan.canonical(0), FaultPlan.drop_retry(0), FaultPlan.dead_link(1, 0),
                  FaultPlan.crash(1, 100)):
        assert not stock.quiet


def test_retry_policy_backoff_caps():
    pol = RetryPolicy(timeout=100, max_timeout=400, max_attempts=5)
    assert [pol.timeout_for(a) for a in range(1, 6)] == [100, 200, 400, 400, 400]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_plan_same_run():
    a = run_counter(FaultPlan.canonical(5))
    b = run_counter(FaultPlan.canonical(5))
    assert a.time == b.time
    assert a.backend.transport.fault_counts() == b.backend.transport.fault_counts()
    assert a.results == b.results == [EXPECTED] * N_PROCS


def test_different_seeds_inject_differently():
    runs = [run_counter(FaultPlan.canonical(s)) for s in range(4)]
    assert all(r.results == [EXPECTED] * N_PROCS for r in runs)
    # Schedules should not all collapse onto one timeline.
    assert len({r.time for r in runs}) > 1


# ---------------------------------------------------------------------------
# recovery: at-least-once fabric, exactly-once semantics
# ---------------------------------------------------------------------------


def test_canonical_plan_recovers_exactly_once():
    res = run_counter(FaultPlan.canonical(0))
    stats = res.stats
    assert res.results == [EXPECTED] * N_PROCS
    # The plan must actually have injected something for this to prove.
    assert stats.get("fault.drop") > 0
    assert stats.get("fault.dup") > 0
    assert stats.get("fault.delay") > 0
    assert stats.get("rel.retry") > 0


def test_drop_heavy_plan_recovers():
    res = run_counter(FaultPlan.drop_retry(1, drop=0.10))
    assert res.results == [EXPECTED] * N_PROCS
    assert res.stats.get("fault.drop") > 0


def test_one_shot_drop_triggers_exactly_one_retry():
    plan = FaultPlan.none()
    plan.one_shots.append(OneShot("drop", category="ace.sc.write_req"))
    res = run_counter(plan)
    assert res.results == [EXPECTED] * N_PROCS
    assert res.stats.get("fault.drop") == 1
    # At least the dropped call retries; a request merely queued past
    # its timeout behind lock contention may add benign extra retries
    # (at-least-once is safe — dedup makes delivery exactly-once).
    assert res.stats.get("rel.retry") >= 1


def _retry_cycles(buf):
    return [(ev.ts, ev.data["category"], ev.data["attempt"])
            for ev in buf.events() if ev.kind == "rel.retry"]


#: Recorded on the per-call-timer kit (PR 19): the deadline queue must
#: re-send at exactly these cycles.
_SHORT = RetryPolicy(timeout=500, max_timeout=4000, max_attempts=5)
_DEAD_LINK_RETRIES = {
    None: ([6550, 18550, 42550, 90550, 186550, 282550, 378550, 474550, 570550, 666550, 762550],
           858550),
    _SHORT: ([1050, 2050, 4050, 8050], 12050),
}
_ONE_SHOT_RETRIES = {
    None: (20660, [(7071, "ace.lock.req", 2), (7560, "ace.sc.write_req", 2)]),
    _SHORT: (15160, [
        (1571, "ace.lock.req", 2), (2060, "ace.sc.write_req", 2), (2571, "ace.lock.req", 3),
        (3590, "ace.sc.write_req", 2), (3598, "ace.lock.req", 2), (4598, "ace.lock.req", 3),
        (5028, "ace.lock.req", 2), (6576, "ace.sc.write_req", 2), (6584, "ace.lock.req", 2),
        (7584, "ace.lock.req", 3), (8014, "ace.lock.req", 2), (9562, "ace.sc.write_req", 2),
        (9570, "ace.lock.req", 2), (10570, "ace.lock.req", 3), (11000, "ace.lock.req", 2),
        (12548, "ace.sc.write_req", 2), (14636, "ace.sc.read_req", 2),
    ]),
}


@pytest.mark.parametrize("policy", [None, _SHORT], ids=["default", "short"])
def test_retries_fire_at_the_pinned_cycles(policy):
    cycles, stalled_at = _DEAD_LINK_RETRIES[policy]
    buf = TraceBuffer()
    with pytest.raises(StallError) as exc:
        run_spmd(make_counter_prog(), n_procs=N_PROCS, fault_plan=FaultPlan.dead_link(1, 0),
                 retry_policy=policy, tracer=buf)
    assert exc.value.report.now == stalled_at
    assert _retry_cycles(buf) == [
        (cycle, "ace.lock.req", attempt) for attempt, cycle in enumerate(cycles, 2)
    ]

    time, retries = _ONE_SHOT_RETRIES[policy]
    plan = FaultPlan.none()
    plan.one_shots.append(OneShot("drop", category="ace.sc.write_req"))
    buf = TraceBuffer()
    res = run_counter(plan, retry_policy=policy, tracer=buf)
    assert res.results == [EXPECTED] * N_PROCS
    assert (res.time, _retry_cycles(buf)) == (time, retries)


def test_faults_observable_in_trace():
    buf = TraceBuffer()
    res = run_counter(FaultPlan.canonical(0), tracer=buf)
    assert res.results == [EXPECTED] * N_PROCS
    kinds = {ev.kind for ev in buf.events() if ev.layer == "faults"}
    assert "fault.drop" in kinds
    assert "rel.retry" in kinds


@pytest.mark.parametrize("plan, on_crash", [
    (FaultPlan(), None),
    (FaultPlan(), "recover"),
    (FaultPlan(seed=1, default=LinkFaults(delay=1.0, delay_cycles=300)), None),
], ids=["quiet", "recover", "delay_all"])
def test_traced_sends_keep_their_causal_parent_under_a_fault_plan(plan, on_crash):
    # A post's injection, and a delayed copy's delivery, are events of
    # their own; the dispatch that sent the message must still be its
    # msg.send's parent.  Only a recovery heartbeat, sent from a timer
    # tick, has none.
    buf = TraceBuffer()
    run_spmd(make_counter_prog(), n_procs=N_PROCS, fault_plan=plan, on_crash=on_crash, tracer=buf)
    sends = [ev for ev in buf.events() if ev.kind == "msg.send"]
    assert any(ev.data["category"] == "ace.sc.inval" for ev in sends)
    orphans = {ev.data["category"] for ev in sends if ev.parent == -1}
    assert orphans == (set() if on_crash is None else {"recovery.hb"})


@pytest.mark.parametrize("variant", ["SC", "custom"])
@pytest.mark.parametrize("app", sorted(FIG7_WORKLOADS))
def test_an_armed_trace_traces_every_counted_message(app, variant, monkeypatch):
    """Every copy the fault fabric keeps crosses the traced wire: each
    counted message is one ``msg.send`` and one ``msg.recv``, and each
    reply's receive is what its future was stamped with when resolved —
    unless a copy already had (a retried call's replayed reply).  The
    events are emits, not kernel events: cycles do not move."""
    armed = run_app(app, variant, n_procs=4, fault_plan=FaultPlan())
    stamps, resolve = set(), Future.resolve

    def stamped(fut, value=None):
        stamps.add(fut._obs_eid)
        resolve(fut, value)

    monkeypatch.setattr(Future, "resolve", stamped)
    buf = TraceBuffer(1 << 20)
    traced = run_app(app, variant, n_procs=4, fault_plan=FaultPlan(), tracer=buf)
    events = buf.events()
    sends = sum(ev.kind == "msg.send" for ev in events)
    recvs = [ev for ev in events if ev.kind == "msg.recv"]
    assert sends == len(recvs) == traced.stats.get("msg.total") > 0
    reply_recvs = {ev.eid for ev in recvs if "future" in ev.data}
    assert len(reply_recvs - stamps) == traced.stats.get("fault.dup_reply_suppressed") < len(reply_recvs)
    assert (traced.time, traced.machine.sim.events) == (armed.time, armed.machine.sim.events)


# ---------------------------------------------------------------------------
# liveness: silent stalls become structured reports
# ---------------------------------------------------------------------------


def test_dead_link_raises_stall_report():
    # Default (hw) barrier: the control network is fault-exempt, so
    # what the dead 1->0 link strands is region traffic — the report
    # must name the stuck region and its home node.
    with pytest.raises(StallError) as exc:
        run_spmd(make_counter_prog(), n_procs=N_PROCS, fault_plan=FaultPlan.dead_link(1, 0))
    report = exc.value.report
    assert isinstance(exc.value, DeadlockError)
    assert "unacknowledged" in report.reason
    calls = [c for c in report.in_flight if c["src"] == 1 and c["dst"] == 0]
    assert calls, f"no 1->0 call in report: {report.in_flight}"
    assert any(c["region"] is not None for c in calls)
    # The directory dump lists non-idle entries only; a stranded lock
    # request can leave every home entry idle, so just check the shape.
    assert isinstance(report.directory, list)
    # The report serializes: CI uploads it as an artifact.
    blob = json.loads(report.to_json())
    assert blob["reason"] == report.reason
    # And the human summary names the stuck home.
    assert "home" in report.summary()
    # ...and when each stuck call would next have been re-sent: the one
    # that tripped was due this very cycle.
    assert report.now in [c["deadline"] for c in calls]
    assert f"next retry due at cycle {report.now}" in report.summary()


def test_owned_stall_reports_its_forwarding_entry():
    """Owned's home registers with the watchdog: a read forwarded to the
    owner over a link that died after the owner's write stalls with its
    calls naming the region and the home's entry listed as a forward
    window, by its reader."""
    shared = {}

    def prog(ctx):
        sid = yield from ctx.new_space("Owned")
        if ctx.nid == 0:
            shared["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier()
        h = yield from ctx.map(shared["rid"])
        if ctx.nid == 1:  # node 1 owns the region dirty ...
            yield from ctx.start_write(h)
            h.data[:] = 1.0
            yield from ctx.end_write(h)
        yield from ctx.barrier()
        if ctx.nid == 2:  # ... when home 0 forwards node 2's read to it
            yield Delay(100_000)
            yield from ctx.start_read(h)
            yield from ctx.end_read(h)
        yield from ctx.barrier()

    plan = FaultPlan.none()
    plan.link_down[(0, 1)] = 50_000
    with pytest.raises(StallError) as exc:
        run_spmd(prog, n_procs=3, fault_plan=plan)
    report = exc.value.report
    rid = shared["rid"]
    assert {(c["category"], c["region"]) for c in report.in_flight} == {
        ("proto.Owned.read_req", rid),
        ("proto.Owned.fwd_read", rid),
    }
    [ent] = report.directory
    assert (ent["prefix"], ent["rid"], ent["home"], ent["busy"], ent["owner"]) == (
        "proto.Owned", rid, 0, True, 1
    )
    assert ent["pending"] == {"kind": "fwd", "src": 2, "remote": False}
    assert f"directory[proto.Owned]: region {rid} home 0" in report.summary()
    assert json.loads(report.to_json())["directory"][0]["pending"]["src"] == 2


def test_crashed_node_stalls_survivors_with_report():
    plan = FaultPlan.none()
    plan.crashes[2] = 0  # node 2 never sends or receives a message
    with pytest.raises(StallError):
        run_counter(plan)


# ---------------------------------------------------------------------------
# zero-cost boundary
# ---------------------------------------------------------------------------


def test_no_plan_constructs_no_fault_machinery():
    res = run_counter()
    transport = res.backend.transport
    assert transport.reliable
    assert type(transport).__name__ != "FaultTransport"
    engine = res.backend.runtime.sc_engine
    assert type(engine.directory.port) is Port  # the plain port: transport's own methods
    assert transport is res.machine  # an untraced machine is its own transport
    assert engine.hooks._rpc == transport.rpc
    assert not hasattr(engine.cache, "_inval_done")


def test_none_plan_matches_fault_free_results():
    base = run_counter()
    wrapped = run_counter(FaultPlan.none())
    assert wrapped.results == base.results
    assert wrapped.backend.transport.fault_counts() == {}


def test_idle_fault_plan_costs_zero_cycles():
    from repro.apps import barnes_hut, em3d, water

    programs = [
        em3d.em3d_program(
            em3d.EM3DWorkload(n_e=16, n_h=16, degree=3, pct_remote=0.25, n_iters=2, seed=10),
            em3d.SC_PLAN,
        ),
        water.water_program(water.WaterWorkload(n_molecules=8, n_steps=1, seed=12), water.SC_PLAN),
        barnes_hut.bh_program(barnes_hut.BHWorkload(n_bodies=24, n_steps=1, seed=8), barnes_hut.SC_PLAN),
    ]
    tails = []
    for program in programs:
        off = run_spmd(program, n_procs=8).time
        for armed in ({}, {"on_crash": "recover"}):
            tails.append(run_spmd(program, n_procs=8, fault_plan=FaultPlan(), **armed).time - off)
    assert tails == [0] * 6


def test_idle_run_keeps_one_retry_timer_and_a_short_heap(monkeypatch):
    """One retry clock: however many reliable calls are in flight, the
    kernel's calendar holds one live kit timer (plus the recovery
    heartbeat), so an armed run's queue stays about as short as an
    unarmed one's.  Sampled: the entries due after the current cycle (the
    one being drained also holds entries that already ran)."""
    from repro.apps import em3d
    from repro.dsm.recovery import RecoveryManager
    from repro.sim.kernel import Timer

    program = em3d.em3d_program(
        em3d.EM3DWorkload(n_e=48, n_h=48, degree=3, pct_remote=0.25, n_iters=4, seed=10),
        em3d.SC_PLAN,
    )
    lengths, timers = [], []
    deliver = Machine._deliver

    def sampling_deliver(self, *args, **kwargs):  # once per message, armed or not
        now = self.sim.now
        later = [e for t, bucket in self.sim._cal.items() if t > now for e in bucket]
        lengths.append(len(later))
        timers.append(sorted(e.fn.__func__.__qualname__ for e in later
                             if e.__class__ is Timer and e.fn is not None))
        deliver(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "_deliver", sampling_deliver)

    def sample(**armed):
        lengths.clear()
        timers.clear()
        res = run_spmd(program, n_procs=8, **armed)
        return res, max(lengths), {tuple(t) for t in timers}

    sweep, tick = RetryKit._sweep.__qualname__, RecoveryManager._tick.__qualname__
    unarmed, unarmed_max, live = sample()
    assert live == {()}
    res, armed_max, live = sample(fault_plan=FaultPlan())
    assert res.stats.get("rel.calls") > 500 and res.time > 10 * RetryPolicy().timeout
    assert live <= {(), (sweep,)}
    assert armed_max <= 2 * unarmed_max
    # (a heartbeat round is a burst of n * (n - 1) posts, so no length bound here)
    res, _, live = sample(fault_plan=FaultPlan(), on_crash="recover")
    assert live <= {(), (tick,), tuple(sorted((tick, sweep)))}
    # ... but a node that is talking sends none: leases ride the traffic
    assert 4 * res.stats.get("msg.recovery.hb") <= res.stats.get("msg.total")
    assert res.time == unarmed.time


# ---------------------------------------------------------------------------
# the Port contract (DESIGN.md §9): one seam, two fabrics
# ---------------------------------------------------------------------------


class _Svc:
    """A service with one call, one notify and one fan-out handler."""

    def __init__(self, port):
        self.port = port
        self.served: list = []
        self.heard: list = []
        self.polled: list = []
        self.held: list = []  # acks of polls it deferred
        self.answers: list = []  # what its collector heard: (target, value)

    def _on_poll(self, node, src, ack, x):
        self.polled.append((node.nid, x))
        if x < 0:
            self.held.append(ack)  # answered later, like a deferred invalidation
        else:
            ack(x * 10, payload_words=3)

    def poll(self, src, targets, x):
        acks = Acks(lambda target, value: self.answers.append((target, value)), Future(name="polled"))
        self.port.fan_out(src, targets, self.h_poll, x, acks=acks, payload_words=2, category="svc.poll")
        return acks

    def _on_ask(self, node, src, fut, x):
        self.served.append(x)
        self.port.reply(fut, x * 2, payload_words=1, category="svc.answer")

    def _on_tell(self, node, src, x):
        self.heard.append(x)

    def _on_slow_ask(self, node, src, fut, x):
        yield Delay(100)
        self._on_ask(node, src, fut, x)


def test_plain_port_is_the_transports_own_methods():
    transport = as_transport(Machine(Simulator(), MachineConfig(n_procs=2)))
    port = transport.port("svc")
    assert type(port) is Port
    assert port.call == transport.rpc
    assert port.reply == transport.reply
    assert port.send == transport.request
    assert port.post == transport.post
    svc = _Svc(port)
    handler = svc._on_ask
    assert port.serves(handler) is handler
    assert port.idempotent(handler) is handler
    assert port.hears(handler, "svc.ack") is handler
    assert port.answers(handler, "svc.ack") is handler


def test_plain_port_binds_a_blocking_receiver_as_is():
    sim = Simulator()
    svc = _Svc(as_transport(Machine(sim, MachineConfig(n_procs=2))).port("svc"))
    handler = svc._on_slow_ask
    assert svc.port.serves(handler) is handler
    answers = []

    def client():
        answers.append((yield from svc.port.call(0, 1, handler, 21, category="svc.ask")))

    sim.run_all([client()])
    assert answers == [42] and svc.served == [21]


@pytest.mark.parametrize("bind", [
    lambda port, h: port.serves(h),
    lambda port, h: port.idempotent(h),
    lambda port, h: port.hears(h, "svc.ack"),
    lambda port, h: port.answers(h, "svc.ack"),
    lambda port, h: port.answers(h, "svc.ack", "_on_slow_ack"),
], ids=["serves", "idempotent", "hears", "answers", "answers_named"])
def test_retry_port_refuses_a_blocking_receiver(bind):
    # A shim calls its handler and drops the result: a generator
    # function's body would never run.
    _, _, svc = _dup_everything()
    with pytest.raises(TypeError, match="_Svc._on_slow_ask"):
        bind(svc.port, svc._on_slow_ask)


def _dup_everything():
    sim = Simulator()
    plan = FaultPlan(seed=1, default=LinkFaults(dup=1.0))
    transport = FaultTransport(Machine(sim, MachineConfig(n_procs=2)), plan)
    port = transport.port("svc")
    assert type(port) is RetryPort
    return sim, transport, _Svc(port)


def test_retry_port_serves_once_and_replays_the_recorded_reply():
    sim, transport, svc = _dup_everything()
    h_ask = svc.port.serves(svc._on_ask)
    # The shim reports under the historical twin's name and keeps the
    # owner resolvable (recovery's custom sweep, the stall report).
    assert h_ask.__name__ == "_on_ask_r" and h_ask.__self__ is svc
    answers = []

    def client():
        answers.append((yield from svc.port.call(0, 1, h_ask, 21, category="svc.ask")))

    sim.run_all([client()])
    assert answers == [42]
    assert svc.served == [21]  # the duplicate delivery did not re-run the handler
    stats = transport.stats
    assert stats.get("handler._on_ask_r") == 2  # ...but it did arrive
    # The duplicate either found the call in flight (dropped) or answered
    # (recorded reply re-sent); dup=1.0 with a positive extra delay means
    # the original was answered first.
    assert stats.get("svc.replayed_reply") + stats.get("svc.dup_request") == 1
    assert stats.get("fault.dup_reply_suppressed") >= 1


def test_retry_port_hears_once_and_reacks_every_duplicate():
    sim, transport, svc = _dup_everything()
    h_tell = svc.port.hears(svc._on_tell, "svc.tell_ack")
    assert h_tell.__name__ == "_on_tell_r" and h_tell.__self__ is svc

    def client():
        yield from svc.port.send(0, 1, h_tell, 7, category="svc.tell")  # blocks until acked

    sim.run_all([client()])
    assert svc.heard == [7]
    assert transport.stats.get("handler._on_tell_r") == 2
    # Both deliveries were acknowledged; each ack was itself duplicated.
    assert transport.stats.get("msg.svc.tell_ack") == 4
    assert not transport.kit.pending


def test_retry_port_idempotent_receivers_re_execute():
    sim, transport, svc = _dup_everything()
    h_ask = svc.port.idempotent(svc._on_ask)

    def client():
        yield from svc.port.call(0, 1, h_ask, 5, category="svc.ask")

    sim.run_all([client()])
    assert svc.served == [5, 5]  # by declaration, harmless
    assert transport.stats.get("svc.dup_request") == transport.stats.get("svc.replayed_reply") == 0


@pytest.mark.parametrize("ack_name", ["_on_poll_ack", None])
def test_plain_port_fans_out_and_collects_one_answer_per_target(ack_name):
    sim = Simulator()
    transport = as_transport(Machine(sim, MachineConfig(n_procs=3)))
    svc = _Svc(transport.port("svc"))
    svc.h_poll = svc.port.answers(svc._on_poll, "svc.poll_ack", ack_name)
    acks = svc.poll(0, [1, 2], 4)
    assert acks.waiting == [1, 2] and not acks.done.resolved
    sim.run()
    assert sorted(svc.polled) == [(1, 4), (2, 4)]
    assert sorted(svc.answers) == [(1, 40), (2, 40)]  # once per target
    assert acks.waiting == [] and acks.done.resolved
    stats = transport.stats
    assert stats.get("handler._on_poll") == 2
    # The ack is a counted message under the service's category: a post to
    # the named collector, or (no name) the reply to the future the post carried.
    assert stats.get("msg.svc.poll") == 2 and stats.get("msg.svc.poll_ack") == 2
    assert stats.get("msg.words") == 2 * 2 + 2 * 3
    assert stats.get("handler._on_poll_ack") == (2 if ack_name else 0)


def _spy_on_acks(transport):
    """Record every raw reply the fabric is asked to send (before the port binds it)."""
    sent, inner = [], transport.reply

    def reply(fut, value=None, payload_words=0, category="am.reply"):
        sent.append((category, value, payload_words))
        inner(fut, value, payload_words=payload_words, category=category)

    transport.reply = reply
    return sent


def test_retry_port_answers_once_and_replays_the_recorded_ack():
    sim, transport, svc = _dup_everything()
    sent = _spy_on_acks(transport)
    svc.port = transport.port("svc")
    svc.h_poll = svc.port.answers(svc._on_poll, "svc.poll_ack", "_on_poll_ack")
    assert svc.h_poll.__name__ == "_on_poll_r" and svc.h_poll.__self__ is svc
    acks = svc.poll(0, [1], 4)
    sim.run()
    assert svc.polled == [(1, 4)]  # the duplicate delivery did not re-run the handler
    assert svc.answers == [(1, 40)] and acks.done.resolved  # ...nor answer the collector twice
    assert transport.stats.get("handler._on_poll_r") == 2
    # The duplicate found the request completed: same value, same payload, again.
    assert sent == [("svc.poll_ack", 40, 3)] * 2
    assert not transport.kit.pending
    assert sim.now < transport.retry_policy.timeout  # answered: its retry timer was called off


def test_retry_port_drops_duplicates_of_a_deferred_request():
    sim, transport, svc = _dup_everything()
    sent = _spy_on_acks(transport)
    svc.port = transport.port("svc")
    svc.h_poll = svc.port.answers(svc._on_poll, "svc.poll_ack", "_on_poll_ack")
    acks = svc.poll(0, [1], -1)
    sim.run(until=3000)  # both copies delivered; the handler is sitting on the ack
    assert transport.stats.get("handler._on_poll_r") == 2
    assert svc.polled == [(1, -1)] and sent == [] and svc.answers == []
    svc.held.pop()(7, payload_words=2)  # the open access ended
    sim.run()
    assert sent == [("svc.poll_ack", 7, 2)]
    assert svc.answers == [(1, 7)] and acks.done.resolved and not transport.kit.pending


def test_sweep_answers_for_a_dead_target_and_the_collector_completes():
    sim = Simulator()
    machine = Machine(sim, MachineConfig(n_procs=3))
    transport = FaultTransport(machine, FaultPlan.crash(2, at=0), on_crash="recover")
    manager = transport.recovery
    manager.register_push_categories(("svc.poll",))
    svc = _Svc(transport.port("svc"))
    svc.h_poll = svc.port.answers(svc._on_poll, "svc.poll_ack", "_on_poll_ack")
    acks = svc.poll(0, [1, 2], 4)
    sim.run(until=2000)  # node 1 answered; node 2 crash-stopped at cycle 0
    assert svc.answers == [(1, 40)] and acks.waiting == [2]
    manager._finalize_death(2, 0, sim.now)
    assert svc.answers == [(1, 40), (2, None)] and acks.done.resolved
    assert transport.stats.get("recovery.fake_acks") == 1
    assert not transport.kit.pending
    assert sim.run() == 2000  # nothing left to retry: no timer holds the clock


def _armings(kit, pend):
    """Queued deadlines of ``pend``: (the live ones, all of them)."""
    queued = [d for fifo in kit._fifos for d, p in fifo if p is pend]
    return [d for d in queued if d == pend.deadline], queued


def test_a_call_has_one_live_arming_and_stale_deadlines_are_skipped():
    """A ``_check`` retransmit and a ``retarget`` each re-arm the call:
    the new deadline is its only live one, and the sweeper passes the
    orphaned entries without re-sending anything for them."""
    sim = Simulator()
    policy = RetryPolicy(timeout=500, max_timeout=4000, max_attempts=4)
    transport = FaultTransport(Machine(sim, MachineConfig(n_procs=3)), FaultPlan.dead_link(0, 1),
                               retry_policy=policy, on_crash="recover")
    kit, svc = transport.kit, _Svc(transport.port("svc"))
    h_ask = svc.port.serves(svc._on_ask)
    answers = {}

    def client(name, x):
        answers[name] = yield from svc.port.call(0, 1, h_ask, x, category="svc.ask")

    sim.spawn(client("a", 21), name="a")
    sim.spawn(client("b", 4), name="b")
    sim.run(until=100)  # both sent at 60 into the dead link, armed for 560
    a, b = sorted(kit.pending.values(), key=lambda p: p.seq)
    assert _armings(kit, a) == ([560], [560]) and kit._sweep_at == 560

    sim.run(until=700)  # the sweep at 560 re-sent both: attempt 2, due 1000 later
    assert transport.stats.get("rel.retry") == 2
    assert (a.attempts, _armings(kit, a)) == (2, ([1560], [1560]))

    transport.recovery.retarget(a, 2)  # attempt 1 again, at a node that answers
    assert (a.attempts, _armings(kit, a)) == (1, ([1200], [1560, 1200]))
    assert kit._sweep_at == 1200  # the sweeper moved up to the new earliest deadline

    sim.run(until=1150)  # answered; its two entries wait for the sweeper, both stale
    assert answers == {"a": 42} and a.deadline is None and list(kit.pending) == [b.seq]
    assert _armings(kit, a) == ([], [1560, 1200])

    sim.run(until=1300)  # the sweep at 1200 dropped them and re-sent nothing
    assert transport.stats.get("rel.retry") == 2
    assert _armings(kit, a) == ([], []) and kit._sweep_at == 1560

    sim.run(until=1600)  # b alone is re-sent at 1560
    assert transport.stats.get("rel.retry") == 3
    assert _armings(kit, b) == ([3560], [3560])

    with pytest.raises(StallError) as exc:  # b: attempt 4 at 3560, exhausted at 7560
        sim.run()
    assert exc.value.report.now == 7560
    assert [c["seq"] for c in exc.value.report.in_flight] == [b.seq]
    assert svc.served == [21]


def test_the_plan_is_read_at_construction():
    """A quiet plan's verdict is the fence alone; a plan given its faults
    before the transport exists is honoured like any other."""
    def fabric(plan):
        sim = Simulator()
        transport = FaultTransport(Machine(sim, MachineConfig(n_procs=3)), plan)
        heard = []
        for dst in (1, 2):
            transport.post(0, dst, lambda node, src: heard.append(node.nid))
        return sim, transport, heard

    sim, transport, heard = fabric(FaultPlan())
    transport.dead.add(2)  # declared dead: a quiet fabric still fences it
    sim.run()
    assert heard == [1]
    assert transport.stats.get("recovery.fenced") == 1 and transport.fault_counts() == {}

    plan = FaultPlan.none()
    plan.link_down[(0, 2)] = 0  # mutated before the run, as the chaos properties do
    sim, transport, heard = fabric(plan)
    sim.run()
    assert heard == [1] and transport.fault_counts() == {"link_down": 1}


def test_protocol_ports_keep_the_handlers_own_stat_name():
    _, transport, svc = _dup_everything()
    port = transport.port("proto.X")
    assert port.serves(svc._on_ask).__name__ == "_on_ask"


def test_only_the_port_names_the_retry_machinery():
    """One owner for "how a message becomes exactly-once": outside
    dsm/faults.py (+ recovery's sweep) nothing names the retry kit or
    the dedup tables."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    allowed = {src / "dsm" / "faults.py", src / "dsm" / "recovery.py"}
    pattern = re.compile(r"\b(DedupTable|SeenOnce|RetryKit)\b|transport\.kit\b|\b_kit\.")
    offenders = [
        f"{path.relative_to(src)}:{n}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path not in allowed
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "\n".join(offenders)
    # The fan-out is the port's too: no service installs a lossy twin, reads
    # the fabric's delivery contract, or takes the wire's sequence number.
    plain = allowed - {src / "dsm" / "recovery.py"} | {src / "dsm" / "transport.py"}
    twins = re.compile(r"def _install_reliable|\.reliable\b|\bseq=None\b")
    leaks = [
        f"{path.relative_to(src)}:{n}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path not in plain
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if twins.search(line)
    ]
    assert not leaks, "\n".join(leaks)
    # And one door to the wire: a shipped protocol sends, replies and fans
    # out through the port it takes at construction (``transport.port(``),
    # never on the raw fabric — those sends would skip the retries.
    doors = re.compile(r"transport\.(post|request|rpc|reply|after|defer_post)\b|as_transport\(|AckCollector")
    side_doors = [
        f"{path.relative_to(src)}:{n}: {line.strip()}"
        for path in sorted((src / "protocols").glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if doors.search(line)
    ]
    assert not side_doors, "\n".join(side_doors)
