"""The access-charge rule (DESIGN.md §6, "One charge per access").

A layer that owes a fixed bookkeeping charge and is about to call down
hands the cycles to its callee as ``lead``; the callee's first fixed
charge absorbs them into one ``Delay``.  Four properties keep that
honest:

* the coalesced charge is always shorter than the shortest one-way
  message, so no arrival at the charging node can fall inside it (the
  argument that the task/handler order is the pre-coalescing one);
* a hit is exactly one kernel event per primitive — and a null hook
  under direct dispatch is none, and builds no generator;
* every shipped protocol's ``lead`` handling is cycle- and
  counter-identical to the general form (charge the lead as its own
  ``Delay``, then drive a lead-less hook), fault-free and on a lossy
  fabric;
* the sanitizer and the stale-handle check still see an access before
  any cycle of it is charged.

The rule's wire and compiler forms ("One event per hop") get the same
four: a miss's ``start_miss`` rides its send and AceC's pending cycles
ride the access only inside a bound shorter than the shortest message;
a remote miss and an AceC hit have event budgets; the folding plain
fabric equals the unfolded traced and fault fabrics cell by cell; and a
checked run folds nothing.
"""

from __future__ import annotations

import pytest

from repro.compiler import OPT_BASE, compile_source, run_compiled
from repro.compiler.interp import Interp
from repro.core import AceConfig
from repro.core.runtime import _LED_HOOKS, DEAREST_LED_CHARGE
from repro.dsm import ACE_SC_COSTS, CRL_COSTS, FaultPlan
from repro.facade import run_spmd
from repro.facade.context import AceBackend, NodeContext
from repro.harness.experiments import FIG7_WORKLOADS, run_app
from repro.machine import Machine, MachineConfig
from repro.obs import TraceBuffer
from repro.protocols import ProtocolRegistry, default_registry
from repro.protocols.base import ProtocolMisuse
from repro.protocols.hw_assisted import HW_SC_COSTS
from repro.sanitize.dynamic import DynamicChecker
from repro.sim import Simulator
from repro.sim.kernel import _DELAY_POOL

ACCESS_EVENTS = ("start_read", "end_read", "start_write", "end_write")


# ------------------------------------------------- (i) shorter than a message
def _absorbing_charges():
    """``(owner, charge, cycles)`` for every fixed charge a lead can join.

    Table hooks are over-approximated as entry cost plus the dearest
    row (only a lone unguarded wildcard row actually joins the entry
    charge), so the bound cannot lag a bolder specialisation.
    """
    out = []
    for owner, costs in (("ACE_SC_COSTS", ACE_SC_COSTS), ("HW_SC_COSTS", HW_SC_COSTS),
                         ("CRL_COSTS", CRL_COSTS)):
        for field in ("map_hit", "map_cold", "unmap", "start_hit", "end_op"):
            out.append((owner, field, getattr(costs, field)))
    for name in default_registry.names():
        cls, table = default_registry.get(name), default_registry.table_of(name)
        for event in ACCESS_EVENTS:
            dearest = max((t.cost for t in table.rows("node", event)), default=0)
            out.append((name, event, table.entry_costs.get(event, 0) + dearest))
        for attr in ("MAP_HIT_COST", "MAP_COLD_COST", "MAP_COST", "UNMAP_COST", "RELEASE_COST"):
            if hasattr(cls, attr):
                out.append((name, attr, getattr(cls, attr)))
    return out


def test_coalesced_charge_is_shorter_than_the_shortest_message():
    lead = AceConfig().dispatch_cost
    cfg = MachineConfig()
    shortest = cfg.network_latency + cfg.am_receive_overhead
    charges = _absorbing_charges()
    assert len(charges) > 5 * len(default_registry.names())
    owner, charge, cycles = max(charges, key=lambda c: c[2])
    assert lead + cycles < shortest, (
        f"dispatch_cost {lead} + {owner}.{charge} {cycles} = {lead + cycles} cycles is not "
        f"below the shortest one-way message (network_latency {cfg.network_latency} + "
        f"am_receive_overhead {cfg.am_receive_overhead} = {shortest}): an arrival scheduled "
        "after the access began could land inside the coalesced charge"
    )


def test_a_miss_charge_and_a_full_lead_are_shorter_than_the_shortest_message():
    cfg, dispatch = MachineConfig(), AceConfig().dispatch_cost
    shortest = cfg.network_latency + cfg.am_receive_overhead
    # a remote miss: start_miss rides the request's send overhead
    for owner, costs in (("ACE_SC_COSTS", ACE_SC_COSTS), ("HW_SC_COSTS", HW_SC_COSTS),
                         ("CRL_COSTS", CRL_COSTS)):
        assert costs.start_miss + cfg.am_send_overhead < shortest, (
            f"{owner}.start_miss {costs.start_miss} + am_send_overhead {cfg.am_send_overhead} "
            f"is not below the shortest one-way message ({shortest} cycles)"
        )
    # an AceC access: the pending cycles ride the dispatch and the charge
    # it joins.  CRL's tables never see a lead (its runtime passes none).
    owner, charge, cycles = max(
        (c for c in _absorbing_charges() if c[0] != "CRL_COSTS"), key=lambda c: c[2]
    )
    assert cycles <= DEAREST_LED_CHARGE, (
        f"{owner}.{charge} = {cycles} cycles is dearer than core.runtime.DEAREST_LED_CHARGE "
        f"({DEAREST_LED_CHARGE}), which AceRuntime.lead_room is derived from"
    )
    room = AceBackend(Machine(Simulator(), cfg)).runtime.lead_room
    assert room == 69 and room + dispatch + DEAREST_LED_CHARGE < shortest, (
        f"lead_room {room} + dispatch_cost {dispatch} + dearest led charge {DEAREST_LED_CHARGE} "
        f"= {room + dispatch + DEAREST_LED_CHARGE} is not below the shortest message ({shortest})"
    )
    # nothing folds on a machine whose messages are that short, or under a checker
    fast = MachineConfig(network_latency=20, am_receive_overhead=10)
    assert AceBackend(Machine(Simulator(), fast)).runtime.lead_room <= 0
    assert AceBackend(Machine(Simulator(), cfg), check=True).runtime.lead_room == 0


# ------------------------------------------------------- (ii) event budgets
K = 5
STEPS = ("map", "start_read", "end_read", "start_write", "end_write", "unmap")


def _events_after(protocol: str, n_steps: int, direct: bool) -> int:
    """Kernel events of a one-node run that maps a region it homes and
    then issues ``K`` of each of the first ``n_steps`` primitives."""

    def program(ctx):
        sid = yield from ctx.new_space(protocol)
        rid = yield from ctx.gmalloc(sid, 4)
        h = yield from ctx.map(rid)
        for step in STEPS[:n_steps]:
            for _ in range(K):
                if step == "map":
                    yield from ctx.map(rid, direct=direct)
                else:
                    yield from getattr(ctx, step)(h, direct=direct)

    return run_spmd(program, backend="ace", n_procs=1).machine.sim.events


def _budgets(protocol: str, direct: bool) -> dict:
    counts = [_events_after(protocol, n, direct) for n in range(len(STEPS) + 1)]
    spent = {step: after - before for step, before, after in zip(STEPS, counts, counts[1:])}
    assert all(n % K == 0 for n in spent.values()), spent
    return {step: n // K for step, n in spent.items()}


@pytest.mark.parametrize("direct", [False, True], ids=["dispatched", "direct"])
@pytest.mark.parametrize("protocol", ["SC", "HwSC"])
def test_sc_hit_is_one_event_per_primitive(protocol, direct):
    assert _budgets(protocol, direct) == dict.fromkeys(STEPS, 1)


def test_null_hook_is_one_event_dispatched_and_nothing_direct():
    one = dict.fromkeys(STEPS, 1)
    # start_write keeps its guard row (remote writes are misuse), so it
    # still pays its lead when dispatched; map/unmap charge their own cost
    assert _budgets("Null", direct=False) == one
    assert _budgets("Null", direct=True) == {**one, **dict.fromkeys(ACCESS_EVENTS, 0)}
    made = {}

    def program(ctx):
        sid = yield from ctx.new_space("Null")
        h = yield from ctx.map((yield from ctx.gmalloc(sid, 4)))
        made["direct"] = ctx.start_read(h, direct=True)
        made["dispatched"] = ctx.start_read(h)
        yield from made["dispatched"]

    run_spmd(program, backend="ace", n_procs=1)
    # dispatched, the null hook is its lead alone: one pooled Delay in a
    # tuple, which ``yield from`` hands the kernel without a generator
    lead = _DELAY_POOL[AceConfig().dispatch_cost]
    assert made["direct"] == ()
    assert type(made["dispatched"]) is tuple and len(made["dispatched"]) == 1
    assert made["dispatched"][0] is lead


@pytest.mark.parametrize("backend", ["ace", "crl"])
@pytest.mark.parametrize("access", ["read", "write"])
def test_uncontended_remote_miss_is_six_events(backend, access):
    """lead+start_hit | request arrives | reply arrives | task wakes |
    grant ack arrives | end_*.  ``start_miss`` and the send overhead ride
    the request, which leaves at the call."""
    box = {}

    def program(miss):
        def run(ctx):
            sid = yield from ctx.new_space("SC")
            if ctx.nid == 0:
                box["rid"] = yield from ctx.gmalloc(sid, 4)
            yield from ctx.barrier()
            if ctx.nid == 1:
                h = yield from ctx.map(box["rid"])
                if miss:
                    yield from getattr(ctx, "start_" + access)(h)
                    yield from getattr(ctx, "end_" + access)(h)
            yield from ctx.barrier()

        return run

    with_miss, without = (run_spmd(program(miss), backend=backend, n_procs=2) for miss in (True, False))
    assert with_miss.stats.get(f"{'ace.sc' if backend == 'ace' else 'crl'}.{access}_miss") == 1
    assert with_miss.machine.sim.events - without.machine.sim.events == 6


_ACEC_READS = """
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    p = ace_gmalloc(s, 4);
    mapped double *h;
    h = ace_map(p);
    %s
}
"""


def _acec_run(body: str, backend: str = "closures", **kw):
    prog = compile_source(_ACEC_READS % body, opt=OPT_BASE, backend=backend, **kw)
    return run_compiled(prog, n_procs=1)


@pytest.mark.parametrize("backend", ["closures", "interp"])
def test_acec_pending_cycles_ride_the_access(backend):
    """A hit whose pending compute fits ``lead_room`` is one event; past
    it (``work(500)``) the flush stays an event of its own."""
    def events_per_pair(before):
        pair = before + " ace_start_read(h); ace_end_read(h);"
        few, many = (_acec_run(pair * n, backend).run_result.machine.sim.events for n in (2, 2 + K))
        assert (many - few) % K == 0
        return (many - few) // K

    assert events_per_pair("") == 2          # start_read 1 + end_read 1
    assert events_per_pair("work(60);") == 2  # 60 + the ops' own cycles <= 69
    assert events_per_pair("work(500);") == 3  # flush 1 + start_read 1 + end_read 1


# ------------------------------------------- (iii) lead == the general form
def _without_lead(cls):
    """``cls`` with every led hook re-declared as plain ``(nid, arg)``, so
    the runtime must charge its dispatch through the general wrapper."""

    class Plain(cls):
        def __init__(self, runtime, space):
            super().__init__(runtime, space)
            for name in _LED_HOOKS:
                setattr(self, name, lambda nid, arg, _hook=getattr(self, name): _hook(nid, arg))

    return Plain


@pytest.fixture(scope="module")
def plain_registry():
    registry = ProtocolRegistry()
    for name in default_registry.names():
        registry.register(_without_lead(default_registry.get(name)))
    return registry


def _round_trip(protocol: str):
    """The conformance round trip (P → partner → P, one region, one
    writer) with three write/read rounds and a map-hit/unmap pair per
    round in front of it: every led primitive, hit and miss."""
    writer = 0 if default_registry.spec(protocol).home_writer else 1
    partner = "SC" if protocol != "SC" else "StaticUpdate"
    boxes: dict = {}

    def program(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier()
        rid = boxes["rid"]
        h = yield from ctx.map(rid)
        seen = []
        for rnd in range(3):
            if ctx.nid == writer:
                yield from ctx.write_region(h, [rnd + 1.0] * 4)
            yield from ctx.barrier(sid)
            seen.append(list((yield from ctx.read_region(h))))
            yield from ctx.unmap((yield from ctx.map(rid)))
            yield from ctx.barrier(sid)
        for target in (partner, protocol):
            yield from ctx.change_protocol(sid, target)
            h = yield from ctx.map(rid)
            seen.append(list((yield from ctx.read_region(h))))
            yield from ctx.barrier(sid)
        return seen

    return program


@pytest.mark.parametrize("plan", [None, 1], ids=["fault-free", "drop_retry1"])
@pytest.mark.parametrize("protocol", default_registry.names())
def test_lead_matches_the_general_wrapper(protocol, plan, plain_registry):
    def outcome(**kw):
        fault_plan = None if plan is None else FaultPlan.drop_retry(plan)
        res = run_spmd(_round_trip(protocol), n_procs=4, fault_plan=fault_plan, **kw)
        return (res.results, res.time, res.stats.snapshot()), res.machine.sim.events

    led, led_events = outcome()
    plain, plain_events = outcome(registry=plain_registry)
    assert led == plain
    if plan is None:
        assert led[0][0][:3] == [[v] * 4 for v in (1.0, 2.0, 3.0)]
        # the oracle really took the other path: its dispatch charges are events
        if not default_registry.spec(protocol).hardware:
            assert led_events < plain_events


def test_general_wrapper_charges_the_whole_lead(plain_registry):
    """A lead is not always ``dispatch_cost``: an AceC kernel hands its
    pending cycles down too, and a lead-less protocol must be charged
    all of them — the time of an interpreter that flushes first (a
    checked run: ``lead_room`` 0)."""
    body = "work(40); ace_start_write(h); h[0] = 1; ace_end_write(h); ace_unmap(h); h = ace_map(p);" * 3
    led, plain = _acec_run(body), _acec_run(body, registry=plain_registry)
    ir = compile_source(_ACEC_READS % body, opt=OPT_BASE).ir
    flushed = run_spmd(lambda ctx: Interp(ir, ctx, {}, [], None).run(), n_procs=1, check=True)
    assert flushed.machine.sim.events > led.run_result.machine.sim.events  # it really flushed
    assert plain.time == flushed.time == led.time


# ------------------------------------ (iv) folded fabric == unfolded fabrics
#: cells whose armed-but-idle ``time`` differs from the plain run's,
#: results equal, by ``on_crash``: a lossy port's task-context notify
#: blocks until acknowledged (lock release, the SC and Owned flush on
#: ``change_protocol``), recovery fences the barrier.  CRL's locks pay
#: the same (BSC +3,168, TSP +158 cycles at 4 procs).
_LOCKED = {"BSC/SC", "BSC/custom", "BSC/crl", "TSP/SC", "TSP/crl", "ring/HwSC", "ring/SC"}
#: cells that matched on the parent only because their protocol sent
#: outside the port — it ignored the armed fabric and hung on its first
#: loss.  Through the port the same rule costs them (results equal, only
#: ``time`` moves; armed - plain, ``None`` / ``recover``): TSP/custom
#: +3,604 (66,690 -> 70,294: Counter's commit), Water/custom +32,480
#: (82,078 -> 114,558: PipelinedWrite's pipeline serialises on delta
#: acks), ring/Counter +1,080 / +1,252, ring/Migratory +10,
#: ring/PipelinedWrite +30.  ROADMAP item 3(b) — an ack of receipt apart
#: from the grant — is where they leave this set again.
_NOTIFIES = {"TSP/custom", "Water/custom", "ring/Counter", "ring/Migratory", "ring/PipelinedWrite"}
_ARMED_DIFFERS = {None: _LOCKED | _NOTIFIES | {"ring/Owned"}, "recover": _LOCKED | _NOTIFIES}


def _cells():
    for app in FIG7_WORKLOADS:
        for variant in ("SC", "custom"):
            yield f"{app}/{variant}", lambda app=app, variant=variant, **kw: run_app(
                app, variant, n_procs=4, **kw)
        # fig7a's other half; CRL has no sanitizer, so its armed stack runs unchecked
        yield f"{app}/crl", lambda app=app, check=False, **kw: run_app(
            app, "SC", "crl", n_procs=4, **kw)
    for protocol in default_registry.names():
        yield f"ring/{protocol}", lambda protocol=protocol, **kw: run_spmd(
            _round_trip(protocol), n_procs=4, **kw)


def _off_the_wire(stats):
    """A run's counters without the traced wire's own ``node<i>.msg.*``."""
    return {k: v for k, v in stats.snapshot().items() if not (k.startswith("node") and ".msg." in k)}


@pytest.mark.parametrize("cell,run", [pytest.param(name, run, id=name) for name, run in _cells()])
def test_plain_fabric_matches_the_traced_and_the_armed_idle_fabric(cell, run):
    """The fold's differential oracle.  The plain fabric folds (one heap
    entry per post, ``start_miss`` on the send); the traced wire, the
    fault fabric and the two composed with the sanitizer (the
    ``armed_idle`` stack) do not.  Each must give the plain run's
    results and clock, and tracing must not move a counter."""
    plain, traced = run(), run(tracer=TraceBuffer(1 << 18))
    assert repr(traced.results) == repr(plain.results) and traced.time == plain.time
    assert _off_the_wire(traced.stats) == plain.stats.snapshot()
    # the oracle did not fold (equal only where a cell posts nothing and never misses remotely)
    assert traced.machine.sim.events >= plain.machine.sim.events + (cell != "BSC/custom")
    for crash, differs in _ARMED_DIFFERS.items():
        if cell not in differs:
            armed = run(fault_plan=FaultPlan(), on_crash=crash)
            assert repr(armed.results) == repr(plain.results) and armed.time == plain.time, crash
            stack = run(fault_plan=FaultPlan(), on_crash=crash, tracer=TraceBuffer(1 << 18), check=True)
            assert repr(stack.results) == repr(plain.results) and stack.time == plain.time, crash
            assert _off_the_wire(stack.stats) == armed.stats.snapshot(), crash


# ------------------------------------------- (v) checks come before charges
def test_checked_apps_report_what_they_always_did():
    #: app -> (races, accesses checked): the findings of the unfused runtime
    findings = {"BSC": (0, 172), "Barnes-Hut": (0, 768), "EM3D": (0, 7296),
                "TSP": (18, 99), "Water": (268, 1458)}
    for app, expected in findings.items():
        base, checked = run_app(app, n_procs=4), run_app(app, n_procs=4, check=True)
        ck = checked.checker
        assert (len(ck.races), ck.accesses_checked) == expected, app
        assert not ck.violations and checked.time == base.time, app


def test_checked_acec_run_folds_nothing():
    """Under a checker ``lead_room`` is 0: every access is heard at its
    own cycle, after the flush, and charged exactly dispatch + hit."""
    heard, delays = [], {}

    class Spy(DynamicChecker):
        def access(self, nid, rid, write):
            heard.append(sim.now)
            super().access(nid, rid, write)

    def log(now, line):
        if " delay " in line:
            delays[now] = int(line.rsplit(" ", 1)[1])

    body = "work(40); ace_start_read(h); ace_end_read(h);" * 3
    ir = compile_source(_ACEC_READS % body, opt=OPT_BASE).ir
    sim = Simulator(trace=log)
    backend = AceBackend(Machine(sim, MachineConfig(n_procs=1)), check=True, checker=Spy(1))
    assert backend.runtime.lead_room == 0
    sim.run_all([Interp(ir, NodeContext(backend, 0), {}, [], None).run()])
    hit = AceConfig().dispatch_cost + ACE_SC_COSTS.start_hit
    assert len(heard) == 3 and [delays[t] for t in heard] == [hit] * 3


def test_checker_and_stale_check_run_before_any_charge():
    seen = []

    class Spy(DynamicChecker):
        def access(self, nid, rid, write):
            seen.append((sim.now, write))
            super().access(nid, rid, write)

    def program(ctx):
        sid = yield from ctx.new_space("SC")
        h = yield from ctx.map((yield from ctx.gmalloc(sid, 1)))
        asked = [sim.now]
        yield from ctx.start_read(h)
        yield from ctx.end_read(h)
        asked.append(sim.now)
        yield from ctx.start_write(h)
        yield from ctx.end_write(h)
        yield from ctx.change_protocol(sid, "Null")
        before = sim.now
        with pytest.raises(ProtocolMisuse, match="stale handle"):
            yield from ctx.start_read(h)
        return asked, before, sim.now

    sim = Simulator()
    backend = AceBackend(Machine(sim, MachineConfig(n_procs=1)), check=True, checker=Spy(1))
    (asked, before, after), = sim.run_all([program(NodeContext(backend, 0))])
    # the sanitizer heard of each access at the cycle it was asked for
    # (the stale one included), and the refused access cost nothing
    assert seen == [(asked[0], False), (asked[1], True), (before, False)]
    assert before == after
