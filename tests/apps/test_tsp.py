"""TSP integration tests."""

import math

import pytest

from repro.apps import tsp
from repro.facade import run_spmd

SMALL = tsp.TSPWorkload(n_cities=7, prefix_depth=2, seed=5)


def run_tsp(workload, plan, backend="ace", n_procs=4, check=False):
    return run_spmd(tsp.tsp_program(workload, plan), backend=backend, n_procs=n_procs, check=check)


@pytest.mark.parametrize(
    "backend,plan",
    [("crl", tsp.SC_PLAN), ("ace", tsp.SC_PLAN), ("ace", tsp.CUSTOM_PLAN)],
)
def test_finds_optimal_tour(backend, plan):
    res = run_tsp(SMALL, plan, backend=backend)
    expected = tsp.reference(SMALL)
    for best, _jobs in res.results:
        assert best == pytest.approx(expected)


@pytest.mark.parametrize(
    "backend,plan",
    [("crl", tsp.SC_PLAN), ("ace", tsp.SC_PLAN), ("ace", tsp.CUSTOM_PLAN)],
)
def test_finds_optimal_tour_on_eight_nodes(backend, plan):
    """The race-exposing shape, 8 nodes x ~2 jobs, checked on ace (whose
    racy bound reads are intended: the checker reports them)."""
    wl = tsp.TSPWorkload(n_cities=6, prefix_depth=2, seed=5)
    assert wl.n_jobs == 20
    res = run_tsp(wl, plan, backend=backend, n_procs=8, check=backend == "ace")
    expected = tsp.reference(wl)
    assert [best for best, _ in res.results] == [pytest.approx(expected)] * 8
    assert sum(jobs for _, jobs in res.results) == wl.n_jobs


def test_all_jobs_processed_exactly_once():
    res = run_tsp(SMALL, tsp.CUSTOM_PLAN)
    total_jobs = sum(j for _, j in res.results)
    assert total_jobs == SMALL.n_jobs


def test_job_decode_is_a_bijection():
    wl = tsp.TSPWorkload(n_cities=6, prefix_depth=2)
    seen = {tuple(tsp.decode_job(wl, j)) for j in range(wl.n_jobs)}
    assert len(seen) == wl.n_jobs == math.perm(5, 2)
    for prefix in seen:
        assert len(set(prefix)) == len(prefix)
        assert all(1 <= c < wl.n_cities for c in prefix)


def test_custom_counter_protocol_is_faster():
    """Figure 7b's TSP row: the counter protocol wins."""
    wl = tsp.TSPWorkload(n_cities=7, prefix_depth=2, seed=11)
    t_sc = run_tsp(wl, tsp.SC_PLAN, n_procs=8).time
    t_custom = run_tsp(wl, tsp.CUSTOM_PLAN, n_procs=8).time
    assert t_custom < t_sc


def test_counter_protocol_reduces_messages():
    wl = tsp.TSPWorkload(n_cities=7, prefix_depth=2, seed=11)
    res_sc = run_tsp(wl, tsp.SC_PLAN, n_procs=8)
    res_custom = run_tsp(wl, tsp.CUSTOM_PLAN, n_procs=8)
    assert res_custom.stats.get("msg.total") < res_sc.stats.get("msg.total")


def test_single_proc_runs():
    res = run_tsp(SMALL, tsp.SC_PLAN, n_procs=1)
    assert res.results[0][0] == pytest.approx(tsp.reference(SMALL))


def test_paper_workload_parameters():
    wl = tsp.TSPWorkload.paper()
    assert wl.n_cities == 12
    assert wl.n_jobs == math.perm(11, 3)
