"""The checked runtime: one wrapper, one happens-before edge, one probe."""

import re
from pathlib import Path

import repro
from repro.dsm import FaultPlan
from repro.facade.context import run_spmd
from repro.harness.recovery_workload import ring_program

SRC = Path(repro.__file__).parent


def test_nothing_under_core_or_dsm_names_the_checker():
    """Checking is ``repro.sanitize.checked.CheckedRuntime``: the layers it
    wraps take no checker and swap in no checked methods."""
    for layer in ("core", "dsm"):
        for path in sorted((SRC / layer).glob("*.py")):
            text = path.read_text()
            assert not re.search(r"\bchecker\b", text), f"{path.name} names a checker"
            assert not re.search(r"def _install_", text), f"{path.name} installs methods"


def test_a_barrier_a_dead_node_never_reaches_still_orders_the_survivors():
    """A barrier is a release on the way in and an acquire on the way out,
    so a crash under ``on_crash="recover"`` adds no false race across the
    rounds the survivors keep synchronizing."""

    def checker(plan=None):
        recover = {"fault_plan": plan, "on_crash": "recover"} if plan is not None else {}
        return run_spmd(ring_program("SC"), n_procs=4, check=True, **recover).checker

    clean, crashed = checker(), checker(FaultPlan.crash(1, at=1500, seed=3))
    assert crashed.races == clean.races
    assert crashed.sync_rounds == clean.sync_rounds == 6


def test_an_sc_copy_with_no_maps_left_is_a_use_after_unmap():
    """The cache-level probe: the runtime's count says mapped, the SC
    engine's copy says otherwise."""

    def program(ctx):
        sid = yield from ctx.new_space("SC")
        h = yield from ctx.map((yield from ctx.gmalloc(sid, 4)))
        h.maps = 0
        yield from ctx.start_read(h)
        yield from ctx.end_read(h)

    (violation,) = run_spmd(program, n_procs=1, check=True).checker.violations
    assert violation.kind == "use-after-unmap"
    assert "coherence start_read" in violation.detail
