"""Kernel micro-benchmarks (pytest-benchmark; not part of tier-1).

Isolates the primitives the fast path optimizes — task spawn/resume
throughput, delay-0 scheduling through the same-cycle ring vs the heap
(jitter disables the ring), future resolution wake-ups, spawn-and-join
churn — so a kernel regression shows up here before it shows up as
minutes in the paper experiments.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_micro.py
"""

from repro.sim import Delay, Future, Simulator

N_TASKS = 200
N_STEPS = 50


def _run_delays(step: int, jitter_seed=None) -> int:
    sim = Simulator(jitter_seed=jitter_seed)

    def task():
        for _ in range(N_STEPS):
            yield Delay(step)

    for i in range(N_TASKS):
        sim.spawn(task(), name=f"t{i}")
    sim.run()
    return sim.events


def test_spawn_resume_throughput(benchmark):
    """Nonzero delays: every resume goes through the heap."""
    events = benchmark(_run_delays, 3)
    assert events == N_TASKS * (N_STEPS + 1)


def test_delay0_ring(benchmark):
    """Delay-0 storm on the canonical schedule: ring + trampoline path."""
    events = benchmark(_run_delays, 0)
    assert events == N_TASKS * (N_STEPS + 1)


def test_delay0_heap_under_jitter(benchmark):
    """Same storm with schedule fuzzing: ring/trampoline disabled, so
    this is the old all-heap cost — the gap to test_delay0_ring is the
    fast path's win."""
    events = benchmark(_run_delays, 0, jitter_seed=1)
    assert events == N_TASKS * (N_STEPS + 1)


def test_future_wakeup_chain(benchmark):
    """Ping-pong through futures: resolution + a waker made per block."""

    def run() -> int:
        sim = Simulator()
        rounds = 500

        # Resolve-before-wait exercises the resolved-future resume path;
        # pairing tasks through fresh futures exercises the blocked one.
        def solo():
            for _ in range(rounds):
                fut = Future()
                fut.resolve(42)
                got = yield fut
                assert got == 42
                yield Delay(1)

        # Blocked waits: consumer parks on each future (its waker,
        # task._on_resolved, goes on the callback list) and is woken
        # by producer's resolve.
        chain = [Future() for _ in range(rounds)]

        def producer():
            for fut in chain:
                yield Delay(1)
                fut.resolve(None)

        def consumer():
            for fut in chain:
                yield fut

        sim.spawn(solo(), name="solo")
        sim.spawn(producer(), name="producer")
        sim.spawn(consumer(), name="consumer")
        sim.run()
        return sim.events

    assert benchmark(run) > 0


def test_spawn_and_join_churn(benchmark):
    """Short-lived tasks spawned and joined in waves: spawn cost plus
    what a finished task costs to release (it must leave the live-task
    table and be freed by reference counting, or the collector pays)."""
    waves, fanout = 40, 100

    def run() -> int:
        sim = Simulator()

        def child(d):
            yield Delay(d)

        def spawner():
            for w in range(waves):
                kids = [sim.spawn(child(1 + i % 7), name=f"k{w}.{i}") for i in range(fanout)]
                for kid in kids:
                    yield kid.done

        sim.spawn(spawner(), name="spawner")
        sim.run()
        assert not sim.blocked_tasks()
        return sim.events

    # per child: its start, its one delay, the spawner's join on it
    assert benchmark(run) == 1 + 3 * waves * fanout
