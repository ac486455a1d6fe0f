"""Nothing a simulation runs leaves cyclic garbage that grows with its events.

``Simulator.run`` keeps CPython's cyclic collector off for the length
of a run (DESIGN.md §6 "Released on finish"), so whatever a handler,
protocol, fabric or task leaves in a reference cycle is held until
``run()`` returns.  That is safe only while no per-event code makes
cycles.  These tests hold every shipped fabric and protocol to it: each
configuration runs at two lengths, and the cyclic garbage its runs leave
(counted by :class:`RunProbe` right after each ``Simulator.run``) must
not grow with the longer run's events.
"""

import gc

import pytest

from repro.apps import acec_sources as K
from repro.apps import barnes_hut, bsc, em3d, tsp, water
from repro.compiler import OPT_BASE, compile_source, run_compiled
from repro.dsm.faults import FaultPlan
from repro.facade import run_spmd
from repro.harness.recovery_workload import ring_program
from repro.machine import Machine, MachineConfig
from repro.obs import TraceBuffer
from repro.serve import AdaptiveController, ServeWorkload, run_serve
from repro.sim import Simulator
from repro.verify import golden


class RunProbe:
    """Wraps ``Simulator.run``: empties the collector before each run and
    counts what it finds right after — the cyclic garbage that run left —
    together with the events and the runs it saw."""

    def __init__(self, monkeypatch):
        self.garbage = self.events = self.runs = 0
        run = Simulator.run

        def probed(sim, until=None):
            gc.collect()
            before = sim.events
            try:
                return run(sim, until)
            finally:
                self.garbage += gc.collect()
                self.events += sim.events - before
                self.runs += 1

        monkeypatch.setattr(Simulator, "run", probed)

    def measure(self, thunk) -> "RunProbe":
        """Run ``thunk()`` with the collector off throughout (so nothing
        between two runs collects behind the probe's back)."""
        self.garbage = self.events = self.runs = 0
        gc.disable()
        try:
            thunk()
        finally:
            gc.enable()
        return self


@pytest.fixture
def probe(monkeypatch):
    return RunProbe(monkeypatch)


def assert_flat(probe, make, short, long):
    """``make(length)`` is a thunk; its runs at ``long`` must leave no more
    cyclic garbage than at ``short``, over at least twice the events."""
    small = probe.measure(make(short))
    garbage, events = small.garbage, small.events
    big = probe.measure(make(long))
    assert big.events >= 2 * events, "the long run is not long enough to show growth"
    assert big.garbage <= garbage, (
        f"cyclic garbage grows with events: {garbage} objects after {events} events, "
        f"{big.garbage} after {big.events}"
    )


# ------------------------------------------------------------------ apps
#: app -> (program, SC plan, custom plan, workload at length k)
_APPS = {
    "Barnes-Hut": (barnes_hut.bh_program, barnes_hut.SC_PLAN, barnes_hut.CUSTOM_PLAN,
                   lambda k: barnes_hut.BHWorkload(n_bodies=16, n_steps=k, seed=6)),
    "BSC": (bsc.bsc_program, bsc.SC_PLAN, bsc.CUSTOM_PLAN,
            lambda k: bsc.BSCWorkload(n_block_cols=4 * k, block=4, band=2, seed=13)),
    "EM3D": (em3d.em3d_program, em3d.SC_PLAN, em3d.STATIC_PLAN,
             lambda k: em3d.EM3DWorkload(n_e=24, n_h=24, degree=3, pct_remote=0.25, n_iters=2 * k, seed=3)),
    "TSP": (tsp.tsp_program, tsp.SC_PLAN, tsp.CUSTOM_PLAN,
            lambda k: tsp.TSPWorkload(n_cities=5 + k, prefix_depth=2, seed=11)),
    "Water": (water.water_program, water.SC_PLAN, water.CUSTOM_PLAN,
              lambda k: water.WaterWorkload(n_molecules=8, n_steps=k, seed=4)),
}


def _app(name, plan="SC", backend="ace", run_kw=dict):
    """``make(k)`` for one app cell; ``run_kw()`` arms each run afresh."""
    program, sc, custom, workload = _APPS[name]

    def make(k):
        spmd = program(workload(k), sc if plan == "SC" else custom)
        return lambda: run_spmd(spmd, backend=backend, n_procs=4, **run_kw())

    return make


# CRL runs one fixed protocol, so a custom plan is an Ace-only cell.
@pytest.mark.parametrize("plan, backend", [("SC", "ace"), ("SC", "crl"), ("custom", "ace")])
@pytest.mark.parametrize("app", sorted(_APPS))
def test_app_runs_leave_no_growing_cyclic_garbage(probe, app, plan, backend):
    assert_flat(probe, _app(app, plan, backend), 1, 4)


def _armed():
    """Every optional feature armed and idle, as perf's ``armed_idle``."""
    return dict(tracer=TraceBuffer(capacity=1 << 14), fault_plan=FaultPlan(), check=True, on_crash="recover")


@pytest.mark.parametrize("app", ["Barnes-Hut", "EM3D", "Water"])
def test_armed_idle_stack_leaves_no_growing_cyclic_garbage(probe, app):
    assert_flat(probe, _app(app, run_kw=_armed), 1, 4)


@pytest.mark.parametrize("app", ["EM3D", "Water"])
def test_lossy_fabric_leaves_no_growing_cyclic_garbage(probe, app):
    assert_flat(probe, _app(app, run_kw=lambda: dict(fault_plan=FaultPlan.canonical(0))), 1, 4)


def test_crash_recovery_leaves_no_growing_cyclic_garbage(probe):
    def make(rounds):
        plan = FaultPlan.crash(1, 1500, seed=1)
        return lambda: run_spmd(ring_program("SC", rounds), n_procs=4, fault_plan=plan, on_crash="recover")

    assert_flat(probe, make, 4, 24)


def test_adaptive_serve_leaves_no_growing_cyclic_garbage(probe):
    def make(n_requests):
        wl = ServeWorkload(
            n_keys=16, n_shards=2, n_requests=n_requests, batch=16, rate=60.0,
            read_frac=0.95, shift_at=0.5, shift_read_frac=0.05, think_cycles=5, seed=13,
        )
        controller = AdaptiveController({s: "DynamicUpdate" for s in range(wl.n_shards)}, write_protocol="Owned")
        return lambda: run_serve(wl, controller=controller, n_procs=3)

    assert_flat(probe, make, 128, 512)


@pytest.mark.parametrize("backend", ["closures", "interp"])
def test_compiled_tsp_leaves_no_growing_cyclic_garbage(probe, backend):
    """Table 4's TSP kernel, unoptimized (the optimized levels fold most
    of its events into access charges).  Binding a closures program
    leaves a fixed cycle per node (its function table), so this pins the
    count flat rather than at zero."""

    def make(n_cities):
        wl = K.TSPKernelWL(n_cities=n_cities)
        program, host = compile_source(K.tsp_source(wl), opt=OPT_BASE, backend=backend), K.tsp_host_data(wl)
        return lambda: run_compiled(program, n_procs=4, host_data=host)

    assert_flat(probe, make, 5, 7)


# ------------------------------------------------------- the probe itself
def test_a_cycle_left_per_message_fails_the_check(probe):
    """A handler that leaves a self-referencing closure per message is
    exactly what the pause cannot afford; the check must catch it."""

    def leaky(node, src, i):
        def again():
            return again

    def make(n_messages):
        def thunk():
            sim = Simulator()
            machine = Machine(sim, MachineConfig(n_procs=2))
            for i in range(n_messages):
                machine.post(0, 1, leaky, i)
            sim.run()

        return thunk

    with pytest.raises(AssertionError, match="cyclic garbage grows with events"):
        assert_flat(probe, make, 10, 100)


# ------------------------------------------------------------- the goldens
#: Cases whose runs bind compiled AceC closures: the per-node cycle of
#: test_compiled_tsp_leaves_no_growing_cyclic_garbage, a fixed count per
#: run (108-140 objects on 4 nodes).  Every other case leaves none.
_BIND_CYCLES_PER_RUN = {"table4_tsp": 256}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_golden_case_runs_leave_no_cyclic_garbage(probe, name):
    seen = probe.measure(golden.CASES[name])
    assert seen.runs and seen.garbage <= _BIND_CYCLES_PER_RUN.get(name, 0) * seen.runs
