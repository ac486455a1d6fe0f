"""Water integration tests."""

import numpy as np
import pytest

from repro.apps import water
from repro.facade import run_spmd

SMALL = water.WaterWorkload(n_molecules=12, n_steps=2, seed=8)


def run_water(workload, plan, backend="ace", n_procs=4, check=False):
    res = run_spmd(water.water_program(workload, plan), backend=backend, n_procs=n_procs, check=check)
    return res, water.collect_results(res, workload)


@pytest.mark.parametrize(
    "backend,plan",
    [("crl", water.SC_PLAN), ("ace", water.SC_PLAN), ("ace", water.CUSTOM_PLAN)],
)
def test_matches_reference(backend, plan):
    res, state = run_water(SMALL, plan, backend=backend)
    ref = water.reference(SMALL)
    np.testing.assert_allclose(state, ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "backend,plan",
    [("crl", water.SC_PLAN), ("ace", water.SC_PLAN), ("ace", water.CUSTOM_PLAN)],
)
def test_matches_reference_on_eight_nodes(backend, plan):
    """The race-exposing shape, 8 nodes x 2 molecules, checked on ace
    (whose intended force-accumulation races the checker reports)."""
    wl = water.WaterWorkload(n_molecules=16, n_steps=2, seed=8)
    _, state = run_water(wl, plan, backend=backend, n_procs=8, check=backend == "ace")
    np.testing.assert_allclose(state, water.reference(wl), rtol=1e-9, atol=1e-12)


def test_phase_switching_plan_is_faster():
    """§2.2: null (intra) + pipelined update (inter) ≈ 2x over SC."""
    wl = water.WaterWorkload(n_molecules=16, n_steps=2, seed=4)
    t_sc = run_water(wl, water.SC_PLAN, n_procs=4)[0].time
    t_custom = run_water(wl, water.CUSTOM_PLAN, n_procs=4)[0].time
    assert t_custom < t_sc


def test_forces_actually_accumulate_across_owners():
    """Sanity: remote force contributions reach the owner's molecule."""
    wl = water.WaterWorkload(n_molecules=8, n_steps=1, cutoff=10.0, seed=1)
    _, state = run_water(wl, water.CUSTOM_PLAN, n_procs=4)
    ref = water.reference(wl)
    # with a huge cutoff every pair interacts; forces must be nonzero
    assert np.abs(ref[:, water.FRC]).max() > 0
    np.testing.assert_allclose(state, ref, rtol=1e-9, atol=1e-12)


def test_single_proc_matches_reference():
    _, state = run_water(SMALL, water.SC_PLAN, n_procs=1)
    np.testing.assert_allclose(state, water.reference(SMALL), rtol=1e-9, atol=1e-12)


def test_paper_workload_parameters():
    wl = water.WaterWorkload.paper()
    assert (wl.n_molecules, wl.n_steps) == (512, 3)
