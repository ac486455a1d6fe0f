"""Barnes-Hut integration tests."""

import numpy as np
import pytest

from repro.apps import acec_sources as K
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


def _scalar_walk(pos, mass, bodies, theta, eps):
    root = bh.build_tree(pos, mass)
    rows = [bh.compute_force(root, i, pos, theta, eps) for i in bodies]
    return np.array([f for f, _ in rows]).reshape(-1, 3), [c for _, c in rows]


def _batch_walk(pos, mass, bodies, theta, eps):
    return bh.batch_forces(bh.FlatTree(pos, mass), pos, bodies, theta, eps)


WALKS = pytest.mark.parametrize("walk", [_scalar_walk, _batch_walk], ids=["scalar", "batch"])


def _direct_sum(pos, mass, eps):
    n = len(pos)
    forces = np.zeros((n, 3))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            d = pos[j] - pos[i]
            r2 = d @ d + eps**2
            forces[i] += mass[j] * d / (r2 * np.sqrt(r2))
    return forces


@WALKS
def test_theta_zero_equals_direct_sum(walk):
    """With theta=0 the tree walk degenerates to exact pairwise forces."""
    wl = bh.BHWorkload(n_bodies=10, n_steps=1, theta=0.0, seed=3)
    bodies = bh.init_bodies(wl)
    pos = bodies[:, bh.POS].copy()
    mass = bodies[:, bh.MASS].copy()
    forces, _ = walk(pos, mass, range(wl.n_bodies), wl.theta, wl.eps)
    np.testing.assert_allclose(forces, _direct_sum(pos, mass, wl.eps), rtol=1e-9)


def _assert_walks_agree(pos, mass, bodies, theta, eps=0.5):
    """The batch walk against the scalar oracle: every count, every byte."""
    want_forces, want_counts = _scalar_walk(pos, mass, bodies, theta, eps)
    got_forces, got_counts = _batch_walk(pos, mass, bodies, theta, eps)
    assert got_counts == want_counts
    assert got_forces.shape == want_forces.shape
    assert got_forces.tobytes() == want_forces.tobytes()


def _inputs(n, seed, zero_mass):
    bodies = bh.init_bodies(bh.BHWorkload(n_bodies=n, seed=seed))
    pos = bodies[:, bh.POS].copy()
    mass = bodies[:, bh.MASS].copy()
    if zero_mass:
        mass[seed % 3::3] = 0.0
    return pos, mass


@pytest.mark.parametrize("theta", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("zero_mass", [False, True], ids=["massive", "zero-mass"])
@pytest.mark.parametrize("n,seed", [(1, 5), (2, 1), (24, 17), (64, 6), (128, 99)])
def test_batch_walk_equals_the_scalar_walk(n, seed, zero_mass, theta):
    pos, mass = _inputs(n, seed, zero_mass)
    _assert_walks_agree(pos, mass, range(n), theta)


def test_batch_walk_runs_a_node_with_no_own_bodies():
    """Eight processors, four bodies: half the nodes own nothing."""
    pos, mass = _inputs(4, 3, False)
    forces, counts = _batch_walk(pos, mass, [], 1.0, 0.5)
    assert forces.shape == (0, 3) and counts == []
    _assert_walks_agree(pos, mass, [3], 1.0)
    wl = bh.BHWorkload(n_bodies=4, n_steps=2, seed=3)
    _, state = run_bh(wl, bh.SC_PLAN, n_procs=8)
    np.testing.assert_allclose(state, bh.reference(wl), rtol=1e-10, atol=1e-12)


def test_batch_walk_follows_each_nodes_own_body_subset():
    pos, mass = _inputs(64, 2, False)
    for bodies in ([5, 13, 21], [63, 0, 31], list(range(1, 64, 8))):
        _assert_walks_agree(pos, mass, bodies, 1.0)


@pytest.mark.slow
@pytest.mark.parametrize("n", [24, 64, 128, 300])
def test_batch_walk_equals_the_scalar_walk_sweep(n):
    for seed in range(40):
        pos, mass = _inputs(n, seed, zero_mass=seed % 4 == 0)
        _assert_walks_agree(pos, mass, range(n), 1.0)


def test_batched_r2_is_the_scalar_dot_product():
    """The batch walk's opening test hangs off this identity: the batched
    matmul dot must round like ``d @ d`` (BLAS may contract with FMA,
    so an einsum or a plain sum of squares does not)."""
    rng = np.random.default_rng(2026)
    d = rng.normal(size=(20000, 3)) * rng.uniform(1e-3, 1e3, size=(20000, 1))
    batched = (d[:, None, :] @ d[:, :, None]).ravel()
    scalar = np.array([float(v @ v) for v in d])
    assert batched.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("copies", [2, 11], ids=["pair", "more-than-eight"])
def test_coincident_bodies_build_and_agree(copies):
    """Bodies at one position used to split one octree slot forever."""
    pos, mass = _inputs(12, 8, False)
    pos[1:copies] = pos[0]
    pos = np.vstack([pos, [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]])
    mass = np.append(mass, [1.0, 1.0])
    assert bh.build_tree(pos, mass).mass == pytest.approx(mass.sum())
    for theta in (1.0, 0.0):
        _assert_walks_agree(pos, mass, range(len(pos)), theta)
    forces, _ = _batch_walk(pos, mass, range(len(pos)), 0.0, 0.5)
    np.testing.assert_allclose(forces, _direct_sum(pos, mass, 0.5), rtol=1e-9, atol=1e-15)


def _scalar_host_data(wl):
    """``bh_host_data`` rebuilt from the scalar octree walk."""
    bodies = bh.init_bodies(bh.BHWorkload(n_bodies=wl.n, theta=wl.theta, eps=wl.eps, seed=wl.seed))
    pos = bodies[:, bh.POS].copy()
    root = bh.build_tree(pos, bodies[:, bh.MASS].copy())
    flat, offsets, pseudo = [], [0], []
    for i in range(wl.n):
        stack = [root]
        while stack:
            cell = stack.pop()
            if cell.mass == 0.0 or cell.body == i:
                continue
            d = cell.com - pos[i]
            r2 = float(d @ d) + wl.eps * wl.eps
            if cell.body is not None:
                flat.append(cell.body)
            elif (2.0 * cell.half) ** 2 < wl.theta * wl.theta * r2:
                flat.append(wl.n + len(pseudo))
                pseudo.append((*cell.com, cell.mass))
            else:
                stack.extend(c for c in cell.children if c is not None)
        offsets.append(len(flat))
    q = np.array(pseudo, dtype=float).reshape(-1, 4) if pseudo else np.zeros((1, 4))
    columns = {name: q[:, k] for k, name in enumerate(("qx", "qy", "qz", "qm"))}
    return {
        "x0": bodies[:, 0], "y0": bodies[:, 1], "z0": bodies[:, 2], "m0": bodies[:, bh.MASS],
        "ilist": np.array(flat, dtype=float), "ioff": np.array(offsets, dtype=float), **columns,
    }


@pytest.mark.parametrize("n,theta", [(1, 1.0), (16, 1.0), (24, 0.5), (40, 1.0), (12, 0.0)])
def test_kernel_host_data_is_the_scalar_walks(n, theta):
    wl = K.BHKernelWL(n=n, theta=theta)
    got, want = K.bh_host_data(wl), _scalar_host_data(wl)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


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


def _count_tree_builds(monkeypatch):
    """Record each tree the program builds and each input it walks."""
    built, walked = [], []
    batch_forces = bh.batch_forces

    class CountingFlatTree(bh.FlatTree):
        def __init__(self, pos, mass):
            super().__init__(pos, mass)
            built.append((pos.tobytes(), mass.tobytes(), self))

    def recording_batch_forces(tree, pos, bodies, theta, eps):
        walked.append((pos.tobytes(), tree, list(bodies)))
        return batch_forces(tree, pos, bodies, theta, eps)

    monkeypatch.setattr(bh, "FlatTree", CountingFlatTree)
    monkeypatch.setattr(bh, "batch_forces", recording_batch_forces)
    return built, walked


def test_one_tree_per_distinct_input_and_per_program_call(monkeypatch):
    built, walked = _count_tree_builds(monkeypatch)
    run_bh(SMALL, bh.SC_PLAN, n_procs=4)
    assert len(built) == SMALL.n_steps  # not one per node
    assert len(walked) == SMALL.n_steps * 4
    run_bh(SMALL, bh.SC_PLAN, n_procs=4)  # a second run does not reuse them
    assert len(built) == 2 * SMALL.n_steps


class _SlowReaderNoSweepBarrier(_NoSweepBarrier):
    """Node 0 reads slowly and nobody waits for it: the owners' writes
    overtake its sweep, so it reads positions no other node read."""

    def __init__(self, backend, nid):
        super().__init__(backend, nid)
        if nid == 0:
            start_read = self.start_read

            def slow_start_read(handle):
                yield from self.compute(2000)
                yield from start_read(handle)

            self.start_read = slow_start_read


def test_a_node_that_read_other_values_gets_its_own_tree(monkeypatch):
    built, walked = _count_tree_builds(monkeypatch)
    wl = bh.BHWorkload(n_bodies=16, n_steps=2, seed=6)
    sim = Simulator()
    backend = AceBackend(Machine(sim, MachineConfig(n_procs=8)))
    program = bh.bh_program(wl, bh.SC_PLAN)
    sim.run_all([program(_SlowReaderNoSweepBarrier(backend, i)) for i in range(8)])
    trees = {pos: tree for pos, _, tree in built}
    assert len(built) == len(trees) == 2 * wl.n_steps
    assert all(trees[pos] is tree for pos, tree, _ in walked)
    assert sum(bodies == [0, 8] for _, _, bodies in walked) == wl.n_steps
    own = {pos for pos, _, bodies in walked if bodies == [0, 8]}
    assert not own & {pos for pos, _, bodies in walked if bodies != [0, 8]}
