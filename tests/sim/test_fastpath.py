"""Regression tests for the kernel fast path (DESIGN.md §6).

The calendar's per-cycle buckets, the inline trampoline and pooled
delays are all pure optimizations: every test here
pins an ordering or naming property that must hold with them exactly
as it did with the plain single-heap kernel.
"""

import pytest

from repro.sim import Delay, Future, SimulationError, Simulator


# ---------------------------------------------------------------- ordering
def test_delay0_tasks_interleave_fifo():
    """Two tasks trading Delay(0)/Delay(1) steps interleave in spawn
    order at every cycle — the trampoline may not let one task run
    ahead while the other has an event pending at the same time."""
    sim = Simulator()
    order = []

    def task(name):
        order.append((sim.now, name, 0))
        yield Delay(0)
        order.append((sim.now, name, 1))
        yield Delay(1)
        order.append((sim.now, name, 2))
        yield Delay(0)
        order.append((sim.now, name, 3))

    sim.spawn(task("a"), name="a")
    sim.spawn(task("b"), name="b")
    sim.run()
    assert order == [
        (0, "a", 0), (0, "b", 0),
        (0, "a", 1), (0, "b", 1),
        (1, "a", 2), (1, "b", 2),
        (1, "a", 3), (1, "b", 3),
    ]


def test_positive_and_zero_delays_share_one_bucket_in_schedule_order():
    """Events that reach one cycle by different delays (a positive one
    set earlier, a delay-0 one appended while that cycle is being
    drained) fire in schedule order: the cycle's bucket is its FIFO."""
    sim = Simulator()
    order = []

    def driver():
        yield Delay(5)  # now == 5
        sim.schedule(1, lambda: order.append("early-first"))  # t=6, set at 5
        yield Delay(1)  # now == 6; resume queued after early-first
        order.append("task")
        sim.schedule(0, lambda: order.append("same-cycle-last"))  # t=6, set at 6

    sim.spawn(driver(), name="d")
    sim.run()
    assert order == ["early-first", "task", "same-cycle-last"]


def test_resolved_future_does_not_jump_the_queue():
    sim = Simulator()
    order = []
    fut = Future(name="pre")
    fut.resolve("v")

    def waiter():
        sim.schedule(0, lambda: order.append("queued"))
        got = yield fut
        order.append(("woke", got))

    sim.spawn(waiter(), name="w")
    sim.run()
    assert order == ["queued", ("woke", "v")]


def test_trampoline_bounded_delay0_loop_still_terminates():
    sim = Simulator()

    def spinner():
        for _ in range(10_000):  # far beyond the trampoline bound
            yield Delay(0)
        return sim.now

    t = sim.spawn(spinner(), name="s")
    sim.run()
    assert t.done.result() == 0  # delay-0 never advances time


# ---------------------------------------------------------------- events
def test_events_counter_counts_logical_events():
    sim = Simulator()

    def task():
        yield Delay(1)
        yield Delay(0)
        yield Delay(2)

    sim.spawn(task(), name="t")
    sim.run()
    # spawn event + three delay resumes, whether or not any of them
    # were inlined by the trampoline.
    assert sim.events == 4


# ---------------------------------------------------------------- naming
def test_spawn_duplicate_names_get_unique_suffixes():
    sim = Simulator()

    def idle():
        yield Delay(1)

    tasks = [sim.spawn(idle(), name="worker") for _ in range(3)]
    assert [t.name for t in tasks] == ["worker", "worker~1", "worker~2"]
    assert len({t.done.name for t in tasks}) == 3
    sim.run()


def test_spawn_default_names_are_distinct():
    sim = Simulator()

    def idle():
        yield Delay(1)

    a = sim.spawn(idle())
    b = sim.spawn(idle())
    assert a.name != b.name
    sim.run()


def test_spawn_suffix_does_not_collide_with_explicit_name():
    sim = Simulator()

    def idle():
        yield Delay(1)

    sim.spawn(idle(), name="w~1")
    names = [sim.spawn(idle(), name="w").name for _ in range(3)]
    assert len(set(names) | {"w~1"}) == 4
    sim.run()


# ---------------------------------------------------------------- pooling
def test_delay_pool_preserves_value_semantics():
    assert Delay(3) is Delay(3)  # pooled singleton
    assert Delay(3) == Delay(3)
    assert Delay(3) != Delay(4)
    assert hash(Delay(7)) == hash(Delay(7))
    assert repr(Delay(5)) == "Delay(cycles=5)"
    big = Delay(100_000)  # beyond the pool: still a valid Delay
    assert big.cycles == 100_000
    with pytest.raises(AttributeError):
        Delay(3).cycles = 9
    with pytest.raises(SimulationError):
        Delay(-2)


# ---------------------------------------------------------------- run(until)
def test_run_until_pause_sets_now_even_between_events():
    sim = Simulator()
    fired = []

    def task():
        yield Delay(10)
        fired.append(sim.now)
        yield Delay(10)
        fired.append(sim.now)

    sim.spawn(task(), name="t")
    assert sim.run(until=15) == 15
    assert sim.now == 15 and fired == [10]


def test_run_until_resume_preserves_ordering():
    """Pausing and resuming must replay the identical event order as an
    uninterrupted run, including delay-0 entries."""

    def program(sim, log):
        def task(name, delays):
            for d in delays:
                yield Delay(d)
                log.append((sim.now, name))

        sim.spawn(task("a", [5, 0, 5]), name="a")
        sim.spawn(task("b", [5, 5, 0]), name="b")

    straight_log: list = []
    straight = Simulator()
    program(straight, straight_log)
    straight.run()

    paused_log: list = []
    paused = Simulator()
    program(paused, paused_log)
    for stop in (3, 5, 7, 10):
        assert paused.run(until=stop) == stop
    paused.run()

    assert paused_log == straight_log
    assert paused.now == straight.now


# ---------------------------------------------------------------- jitter
def test_same_jitter_seed_is_deterministic():
    """Two fresh simulators with the same seed produce identical traces
    and final times (the fast path is disabled under jitter and must
    not perturb the seeded RNG stream)."""

    def run_once(seed):
        trace: list = []
        sim = Simulator(trace=lambda t, msg: trace.append((t, msg)), jitter_seed=seed)

        def task(name, step):
            for _ in range(4):
                yield Delay(step)

        for i in range(4):
            sim.spawn(task(f"t{i}", 2 + (i % 2)), name=f"t{i}")
        sim.run()
        return sim.now, trace

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)  # different seed, different schedule


def test_jitter_fires_all_events_exactly_once():
    sim = Simulator(jitter_seed=3)
    seen = []

    def task(name):
        yield Delay(1)
        seen.append(name)
        yield Delay(1)
        seen.append(name)

    for i in range(3):
        sim.spawn(task(i), name=f"t{i}")
    sim.run()
    assert sorted(seen) == [0, 0, 1, 1, 2, 2]
