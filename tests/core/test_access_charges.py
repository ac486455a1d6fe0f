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
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import AceConfig
from repro.core.runtime import _LED_HOOKS
from repro.dsm import ACE_SC_COSTS, CRL_COSTS, FaultPlan
from repro.facade import run_spmd
from repro.facade.context import AceBackend, NodeContext
from repro.harness.experiments import run_app
from repro.machine import Machine, MachineConfig
from repro.protocols import ProtocolRegistry, default_registry
from repro.protocols.base import ProtocolMisuse
from repro.protocols.hw_assisted import HW_SC_COSTS
from repro.sanitize.dynamic import DynamicChecker
from repro.sim import DeadlockError, Simulator

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
    assert made["direct"] == () and inspect.isgenerator(made["dispatched"])


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
        try:
            res = run_spmd(_round_trip(protocol), n_procs=4, fault_plan=fault_plan, **kw)
        except DeadlockError as stall:
            # Five protocols send unretried messages and wedge on a lossy
            # fabric: then the two forms must wedge on the same futures.
            assert plan is not None, stall
            return str(stall), None
        return (res.results, res.time, res.stats.snapshot()), res.machine.sim.events

    led, led_events = outcome()
    plain, plain_events = outcome(registry=plain_registry)
    assert led == plain
    if plan is None:
        assert led[0][0][:3] == [[v] * 4 for v in (1.0, 2.0, 3.0)]
        # the oracle really took the other path: its dispatch charges are events
        if not default_registry.spec(protocol).hardware:
            assert led_events < plain_events


# ------------------------------------------ (iv) checks come before charges
def test_checked_apps_report_what_they_always_did():
    #: app -> (races, accesses checked): the findings of the unfused runtime
    findings = {"BSC": (0, 172), "Barnes-Hut": (192, 768), "EM3D": (0, 7296),
                "TSP": (18, 99), "Water": (268, 1458)}
    for app, expected in findings.items():
        base, checked = run_app(app, n_procs=4), run_app(app, n_procs=4, check=True)
        ck = checked.checker
        assert (len(ck.races), ck.accesses_checked) == expected, app
        assert not ck.violations and checked.time == base.time, app


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
    backend = AceBackend(Machine(sim, MachineConfig(n_procs=1)), checker=Spy(1))
    (asked, before, after), = sim.run_all([program(NodeContext(backend, 0))])
    # the sanitizer heard of each access at the cycle it was asked for
    # (the stale one included), and the refused access cost nothing
    assert seen == [(asked[0], False), (asked[1], True), (before, False)]
    assert before == after
