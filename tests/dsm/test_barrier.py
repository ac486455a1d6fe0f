"""Unit tests for barrier algorithms and the hardware barrier's membership."""

import pytest

from repro.dsm import BarrierService
from repro.machine import Machine, MachineConfig
from repro.sim import Delay, Simulator
from repro.sim.errors import DeadlockError

COST = Machine.HW_BARRIER_COST


def run_barriers(algorithm, n_procs, iterations=3, stagger=7):
    sim = Simulator()
    machine = Machine(sim, MachineConfig(n_procs=n_procs))
    svc = BarrierService(machine, algorithm=algorithm)
    log = []

    def proc(nid):
        for it in range(iterations):
            yield Delay(1 + (nid * stagger) % 23)
            yield from svc.wait(nid)
            log.append((it, nid, sim.now))

    sim.run_all((proc(i) for i in range(n_procs)), prefix="p")
    return log, machine


@pytest.mark.parametrize("algorithm", ["hw", "dissemination"])
@pytest.mark.parametrize("n_procs", [1, 2, 3, 8])
def test_no_node_passes_barrier_early(algorithm, n_procs):
    log, _ = run_barriers(algorithm, n_procs)
    # Every node's iteration-k release must be >= every node's iteration-k
    # arrival; equivalently, iteration k release times >= max arrival.
    for it in range(3):
        releases = sorted(t for i, n, t in log if i == it)
        # all of iteration k releases happen before any iteration k+1 release
        next_releases = [t for i, n, t in log if i == it + 1]
        if next_releases:
            assert max(releases) <= min(next_releases)


def test_hw_barrier_single_release_time():
    log, _ = run_barriers("hw", 5)
    for it in range(3):
        times = {t for i, n, t in log if i == it}
        assert len(times) == 1


def test_hw_barrier_releases_all_at_once():
    sim = Simulator()
    svc = BarrierService(Machine(sim, MachineConfig(n_procs=4)))
    release_times = []

    def proc(nid):
        yield Delay(nid * 10)  # staggered arrival
        yield from svc.wait(nid)
        release_times.append(sim.now)

    sim.run_all((proc(i) for i in range(4)), prefix="p")
    assert release_times == [30 + COST] * 4  # the last arrival + the cost


def test_hw_barrier_repeated_generations():
    sim = Simulator()
    svc = BarrierService(Machine(sim, MachineConfig(n_procs=3)))
    log = []

    def proc(nid):
        for it in range(3):
            yield Delay(1 + nid)
            yield from svc.wait(nid)
            log.append((it, nid, sim.now))

    sim.run_all((proc(i) for i in range(3)), prefix="p")
    # each generation releases at once, the cost after its last arrival
    assert [{t for i, _, t in log if i == it} for it in range(3)] == [
        {3 + COST}, {6 + 2 * COST}, {9 + 3 * COST}
    ]
    assert svc._gen == 3


def run_membership(n_procs, arrive_at, leave_at, generations=1):
    """Node ``nid`` waits at the barrier ``generations`` times, each time
    ``arrive_at[nid]`` cycles after its previous release (``None``: it never
    runs); ``leave_at`` maps a node to the cycle it leaves.  Returns the
    release cycle of each arrival (``(generation, nid) -> cycle``) and the
    service."""
    sim = Simulator()
    machine = Machine(sim, MachineConfig(n_procs=n_procs))
    svc = BarrierService(machine)
    released = {}

    def proc(nid):
        for gen in range(generations):
            yield Delay(arrive_at[nid])
            yield from svc.wait(nid)
            released[gen, nid] = sim.now

    for nid in range(n_procs):
        if arrive_at[nid] is not None:
            sim.spawn(proc(nid), name=f"p{nid}")
    for nid, at in leave_at.items():
        sim.schedule(at, lambda nid=nid: svc.leave(nid))
    sim.run()
    return released, svc


def test_an_arrival_stops_counting_when_its_node_leaves():
    # node 1 arrives at 5 and leaves at 10: the barrier still waits for node 2
    released, svc = run_membership(3, [0, 5, 40], {1: 10})
    assert released == {(0, 0): 40 + COST, (0, 1): 40 + COST, (0, 2): 40 + COST}
    assert svc._live == {0, 2}
    assert svc.machine.stats.get("barrier.hw_arrive") == 3


def test_a_node_that_leaves_before_arriving_is_not_waited_for():
    released, svc = run_membership(3, [10, 20, None], {2: 0}, generations=2)
    assert released == {
        (0, 0): 20 + COST, (0, 1): 20 + COST,
        (1, 0): 40 + 2 * COST, (1, 1): 40 + 2 * COST,
    }
    assert svc._gen == 2


def test_a_leave_completes_the_barrier_and_the_release_follows_it():
    released, svc = run_membership(3, [0, 10, None], {2: 50})
    assert released == {(0, 0): 50 + COST, (0, 1): 50 + COST}
    assert svc._gen == 1


def test_a_leave_with_no_arrival_releases_nothing():
    released, svc = run_membership(3, [60, 70, None], {2: 50})
    assert released == {(0, 0): 70 + COST, (0, 1): 70 + COST}
    assert svc._gen == 1  # one release, at the last live arrival


def test_a_departed_node_that_arrives_parks_uncounted():
    sim = Simulator()
    machine = Machine(sim, MachineConfig(n_procs=2))
    svc = BarrierService(machine)
    svc.leave(1)
    released = []

    def proc(nid, at):
        yield Delay(at)
        yield from svc.wait(nid)
        released.append(nid)

    sim.spawn(proc(1, 10), name="p1")
    sim.spawn(proc(0, 20), name="p0")
    with pytest.raises(DeadlockError) as err:
        sim.run()
    assert released == [0] and sim.now == 20 + COST
    assert err.value.wait_reasons == {"p1": "barrier:left@1"}
    assert machine.stats.get("barrier.arrive") == 2
    assert machine.stats.get("barrier.hw_arrive") == 1


def test_dissemination_uses_messages_not_control_network():
    _, machine = run_barriers("dissemination", 8, iterations=2)
    assert machine.stats.get("msg.barrier.notify") > 0
    assert machine.stats.get("barrier.hw_arrive") == 0


def test_dissemination_message_count_is_n_log_n():
    _, machine = run_barriers("dissemination", 8, iterations=1, stagger=0)
    # 8 nodes, ceil(log2(8)) = 3 rounds -> 24 notifies per episode
    assert machine.stats.get("msg.barrier.notify") == 24


def test_unknown_algorithm_rejected():
    sim = Simulator()
    machine = Machine(sim, MachineConfig(n_procs=2))
    with pytest.raises(ValueError, match="unknown barrier"):
        BarrierService(machine, algorithm="tree-of-lies")
