"""Barnes-Hut integration tests."""

import numpy as np
import pytest

from repro.apps import barnes_hut as bh
from repro.facade import AceBackend, NodeContext, run_spmd
from repro.machine import Machine, MachineConfig
from repro.sim import Simulator

SMALL = bh.BHWorkload(n_bodies=24, n_steps=2, seed=17)


def run_bh(workload, plan, backend="ace", n_procs=4, check=False):
    res = run_spmd(bh.bh_program(workload, plan), backend=backend, n_procs=n_procs, check=check)
    return res, bh.collect_results(res, workload)


@pytest.mark.parametrize(
    "backend,plan",
    [("crl", bh.SC_PLAN), ("ace", bh.SC_PLAN), ("ace", bh.CUSTOM_PLAN)],
)
def test_matches_reference(backend, plan):
    res, state = run_bh(SMALL, plan, backend=backend)
    ref = bh.reference(SMALL)
    np.testing.assert_allclose(state, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "backend,plan",
    [("crl", bh.SC_PLAN), ("ace", bh.SC_PLAN), ("ace", bh.CUSTOM_PLAN)],
)
def test_matches_reference_on_eight_nodes(backend, plan):
    """The race-exposing shape, 8 nodes x 2 bodies: checked on ace, race-free."""
    wl = bh.BHWorkload(n_bodies=16, n_steps=2, seed=17)
    res, state = run_bh(wl, plan, backend=backend, n_procs=8, check=backend == "ace")
    np.testing.assert_allclose(state, bh.reference(wl), rtol=1e-10, atol=1e-12)
    assert res.checker is None or res.checker.races == []


def test_theta_zero_equals_direct_sum():
    """With theta=0 the tree walk degenerates to exact pairwise forces."""
    wl = bh.BHWorkload(n_bodies=10, n_steps=1, theta=0.0, seed=3)
    bodies = bh.init_bodies(wl)
    pos = bodies[:, bh.POS].copy()
    mass = bodies[:, bh.MASS].copy()
    root = bh.build_tree(pos, mass)
    for i in range(wl.n_bodies):
        force, _ = bh.compute_force(root, i, pos, wl.theta, wl.eps)
        direct = np.zeros(3)
        for j in range(wl.n_bodies):
            if j == i:
                continue
            d = pos[j] - pos[i]
            r2 = d @ d + wl.eps**2
            direct += mass[j] * d / (r2 * np.sqrt(r2))
        np.testing.assert_allclose(force, direct, rtol=1e-9)


def test_tree_mass_conservation():
    wl = bh.BHWorkload(n_bodies=50, seed=2)
    bodies = bh.init_bodies(wl)
    root = bh.build_tree(bodies[:, bh.POS], bodies[:, bh.MASS])
    assert root.mass == pytest.approx(bodies[:, bh.MASS].sum())


def test_dynamic_update_plan_is_faster():
    """Figure 7b's Barnes-Hut row: dynamic update beats SC."""
    wl = bh.BHWorkload(n_bodies=32, n_steps=2, seed=6)
    t_sc = run_bh(wl, bh.SC_PLAN, n_procs=4)[0].time
    t_custom = run_bh(wl, bh.CUSTOM_PLAN, n_procs=4)[0].time
    assert t_custom < t_sc


def test_dynamic_update_removes_read_misses():
    wl = bh.BHWorkload(n_bodies=32, n_steps=2, seed=6)
    res_sc, _ = run_bh(wl, bh.SC_PLAN, n_procs=4)
    res_custom, _ = run_bh(wl, bh.CUSTOM_PLAN, n_procs=4)
    assert res_sc.stats.get("ace.sc.read_miss") > 0
    assert res_custom.stats.get("ace.sc.read_miss") == 0


def test_single_proc_matches_reference():
    res, state = run_bh(SMALL, bh.SC_PLAN, n_procs=1)
    np.testing.assert_allclose(state, bh.reference(SMALL), rtol=1e-10, atol=1e-12)


def test_paper_workload_parameters():
    wl = bh.BHWorkload.paper()
    assert (wl.n_bodies, wl.n_steps, wl.theta, wl.eps) == (16384, 4, 1.0, 0.5)


@pytest.mark.parametrize("seed", [6, 17, 3])
def test_eight_nodes_two_bodies_each_match_reference(seed):
    wl = bh.BHWorkload(n_bodies=16, n_steps=2, seed=seed)
    _, state = run_bh(wl, bh.SC_PLAN, backend="crl", n_procs=8)
    np.testing.assert_allclose(state, bh.reference(wl), rtol=1e-10, atol=1e-12)


class _NoSweepBarrier(NodeContext):
    """The seeded mutation: every step's post-sweep barrier is dropped —
    ``bh_program``'s space barriers run init, then (sweep, step end) per
    step, so the even-numbered ones go."""

    def __init__(self, backend, nid):
        super().__init__(backend, nid)
        self.space_barriers = 0

    def barrier(self, sid=None):
        if sid is not None:
            self.space_barriers += 1
            if self.space_barriers % 2 == 0:
                return
        yield from super().barrier(sid)


@pytest.mark.parametrize("plan", [bh.SC_PLAN, bh.CUSTOM_PLAN], ids=["SC", "custom"])
def test_checker_reports_the_sweep_race_only_without_the_barrier(plan):
    """The checker is the race's regression test: 8 nodes x 2 bodies each,
    where the missing barrier once gave wrong answers."""
    wl = bh.BHWorkload(n_bodies=16, n_steps=2, seed=6)

    def races(context):
        sim = Simulator()
        backend = AceBackend(Machine(sim, MachineConfig(n_procs=8)), check=True)
        program = bh.bh_program(wl, plan)
        sim.run_all([program(context(backend, i)) for i in range(8)])
        (body_space,) = backend.runtime.spaces
        return backend.runtime.checker.races, set(body_space.regions)

    found, bodies = races(_NoSweepBarrier)
    assert any(r.kind == "rw" for r in found)
    assert {r.rid for r in found} == bodies
    assert races(NodeContext)[0] == []
