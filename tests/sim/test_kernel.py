"""Unit tests for the discrete-event kernel."""

import gc
from pathlib import Path

import pytest

from repro.sim import DeadlockError, Delay, Future, SimulationError, Simulator, Task


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0


def test_single_task_advances_time():
    sim = Simulator()

    def task():
        yield Delay(10)
        yield Delay(5)
        return "done"

    t = sim.spawn(task(), name="t")
    assert sim.run() == 15
    assert t.done.result() == "done"


def test_zero_delay_is_legal():
    sim = Simulator()

    def task():
        yield Delay(0)
        return sim.now

    t = sim.spawn(task())
    sim.run()
    assert t.done.result() == 0


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Delay(-1)


def test_tasks_interleave_by_time():
    sim = Simulator()
    order = []

    def task(name, step):
        for _ in range(3):
            yield Delay(step)
            order.append((sim.now, name))

    sim.spawn(task("a", 10), name="a")
    sim.spawn(task("b", 15), name="b")
    sim.run()
    # Tie at t=30 goes to the event scheduled first (b's, queued at t=15).
    assert order == [
        (10, "a"),
        (15, "b"),
        (20, "a"),
        (30, "b"),
        (30, "a"),
        (45, "b"),
    ]


def test_future_blocks_until_resolved():
    sim = Simulator()
    fut = Future(name="f")
    log = []

    def waiter():
        value = yield fut
        log.append((sim.now, value))

    def resolver():
        yield Delay(42)
        fut.resolve("hello")

    sim.spawn(waiter(), name="w")
    sim.spawn(resolver(), name="r")
    sim.run()
    assert log == [(42, "hello")]


def test_already_resolved_future_resumes_immediately():
    sim = Simulator()
    fut = Future()
    fut.resolve(7)

    def task():
        v = yield fut
        return (sim.now, v)

    t = sim.spawn(task())
    sim.run()
    assert t.done.result() == (0, 7)


def test_failed_future_raises_inside_task():
    sim = Simulator()
    fut = Future()

    def task():
        try:
            yield fut
        except ValueError as e:
            return f"caught {e}"

    def failer():
        yield Delay(1)
        fut.fail(ValueError("boom"))

    t = sim.spawn(task())
    sim.spawn(failer())
    sim.run()
    assert t.done.result() == "caught boom"


def test_task_exception_propagates_from_run():
    sim = Simulator()

    def task():
        yield Delay(1)
        raise RuntimeError("crash")

    sim.spawn(task())
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_deadlock_detected():
    sim = Simulator()
    fut = Future(name="never")

    def task():
        yield fut

    sim.spawn(task(), name="stuck")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "stuck" in str(exc.value)


def test_join_on_task_done():
    sim = Simulator()

    def child():
        yield Delay(30)
        return 99

    def parent():
        t = sim.spawn(child(), name="child")
        v = yield t.done
        return (sim.now, v)

    p = sim.spawn(parent(), name="parent")
    sim.run()
    assert p.done.result() == (30, 99)


def test_mixed_ring_and_heap_ordering():
    """The nonzero-delay fast path must never jump ahead of queued work.

    Task a mixes zero-delay and nonzero-delay yields while task b holds
    events queued at the same timestamps; the trampoline is only legal
    when the current cycle's bucket is drained and the next queued
    cycle is later, so the observed interleaving must match the plain
    queue discipline exactly (ties go to the event scheduled first,
    same-cycle work drains before later cycles).
    """
    sim = Simulator()
    order = []

    def stepper(name, delays):
        for d in delays:
            yield Delay(d)
            order.append((sim.now, name))

    sim.spawn(stepper("a", [5, 0, 0, 5]), name="a")
    sim.spawn(stepper("b", [5, 5, 0]), name="b")
    assert sim.run() == 10
    assert order == [
        (5, "a"),
        (5, "b"),
        (5, "a"),
        (5, "a"),
        (10, "b"),
        (10, "a"),
        (10, "b"),
    ]


def test_bad_yield_type_is_an_error():
    sim = Simulator()

    def task():
        yield 42

    sim.spawn(task())
    with pytest.raises(SimulationError, match="yielded 42"):
        sim.run()


def test_run_until_pauses_cleanly():
    sim = Simulator()
    hits = []

    def task():
        for _ in range(10):
            yield Delay(10)
            hits.append(sim.now)

    sim.spawn(task())
    sim.run(until=35)
    assert sim.now == 35
    assert hits == [10, 20, 30]
    sim.run()
    assert hits[-1] == 100


def test_run_all_collects_results():
    sim = Simulator()

    def worker(i):
        yield Delay(i)
        return i * i

    results = sim.run_all(worker(i) for i in range(5))
    assert results == [0, 1, 4, 9, 16]


def test_future_double_resolve_rejected():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(SimulationError):
        fut.resolve(2)
    with pytest.raises(SimulationError):
        fut.fail(ValueError())


def test_future_result_before_resolve_rejected():
    fut = Future()
    with pytest.raises(SimulationError):
        fut.result()


def test_schedule_in_past_rejected():
    sim = Simulator()

    def task():
        yield Delay(10)
        sim.at(5, lambda: None)

    sim.spawn(task())
    with pytest.raises(SimulationError, match="past"):
        sim.run()


def test_trace_hook_records_events():
    events = []
    sim = Simulator(trace=lambda t, msg: events.append((t, msg)))

    def task():
        yield Delay(3)

    sim.spawn(task(), name="traced")
    sim.run()
    assert any("traced" in msg and "delay" in msg for _, msg in events)
    assert any("finished" in msg for _, msg in events)


# ------------------------------------------------- task release (no cycles)
def _spawn_and_join(sim, n):
    def child(i):
        yield Delay(1 + i % 5)
        return i

    def parent():
        total = 0
        for wave in range(n // 50):
            kids = [sim.spawn(child(i), name=f"k{wave}.{i}") for i in range(50)]
            for kid in kids:
                total += yield kid.done
        return total

    return sim.spawn(parent(), name="parent")


def test_finished_tasks_leave_the_live_table():
    sim = Simulator()
    root = _spawn_and_join(sim, 1000)
    sim.run()
    assert root.done.result() == 20 * sum(range(50))
    assert sim.blocked_tasks() == []
    assert len(sim._tasks) == 0


def test_finished_task_is_freed_by_refcounting_alone():
    """The deterministic proxy for "no GC work over finished tasks":
    with the cyclic collector off and the caller's handles dropped, no
    Task survives a spawn-and-join run."""

    def live_tasks():
        return [o for o in gc.get_objects() if type(o) is Task]

    gc.collect()
    before = len(live_tasks())
    gc.disable()
    try:
        sim = Simulator()
        root = _spawn_and_join(sim, 1000)
        sim.run()
        del root
        assert len(live_tasks()) == before
    finally:
        gc.enable()


def test_future_without_waiters_never_allocates_callbacks():
    sim = Simulator()
    early, unused = Future(name="early"), Future(name="unused")

    def task():
        early.resolve(1)
        yield early  # resolved before the wait: resumed without a waker
        yield Delay(1)

    t = sim.spawn(task(), name="t")
    sim.run()
    assert early._callbacks is None and unused._callbacks is None
    assert t.done._callbacks is None  # finished unjoined


def test_deadlock_lists_blocked_tasks_in_spawn_order():
    sim = Simulator()
    gates = [Future(name=f"gate{i}") for i in range(3)]

    def waiter(i):
        yield Delay(3 - i)  # blocks in reverse spawn order
        yield gates[i]

    def bystander():
        yield Delay(10)

    sim.spawn(waiter(0), name="w0")
    sim.spawn(bystander(), name="done-by-then")
    sim.spawn(waiter(1), name="w1")
    sim.spawn(waiter(2), name="w2")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert [t.name for t in exc.value.blocked_tasks] == ["w0", "w1", "w2"]
    assert exc.value.wait_reasons == {"w0": "gate0", "w1": "gate1", "w2": "gate2"}
    assert [t.name for t in sim.blocked_tasks()] == ["w0", "w1", "w2"]


def test_retire_finished_is_noop_and_blocked_removes_waker():
    sim = Simulator()
    gate = Future(name="gate")

    def quick():
        yield Delay(1)
        return "mine"

    def stuck():
        yield gate

    done, blocked = sim.spawn(quick(), name="quick"), sim.spawn(stuck(), name="stuck")
    sim.schedule(9, lambda: None)  # keeps the bounded run from running dry
    sim.run(until=5)
    sim.retire(done, "overwritten?")
    assert done.done.result() == "mine"
    assert gate._callbacks == [blocked]  # the task is its own waiter
    sim.retire(blocked, "gone")
    assert gate._callbacks == []
    assert blocked.done.result() == "gone" and blocked.blocked_on is None
    events = sim.events
    gate.resolve(None)  # wakes nobody
    assert sim.run() == 9 and sim.events == events + 1
    assert sim.blocked_tasks() == [] and len(sim._tasks) == 0


# -- a blocked task is its own waiter ----------------------------------------


def _mixed_waiters(jitter_seed, wake):
    """Tasks ``a`` and ``b`` block on one gate with a plain callback
    registered between them; ``wake(sim, gate)`` fires it at cycle 10,
    amid other events due then.  Returns what the run observed, with
    the tail of cycle 10's bucket (in schedule order) as the wake left it."""
    sim = Simulator(jitter_seed=jitter_seed)
    gate, log, queued = Future(name="gate"), [], []

    def note(tag):
        return lambda *_: log.append((tag, sim.now))

    def waiter(tag):
        try:
            value = yield gate
            log.append((tag, sim.now, value))
        except KeyError as err:
            log.append((tag, sim.now, err.args))

    def waker():
        yield Delay(10)
        wake(sim, gate)
        sim.schedule(0, note("after"))
        # Fuzzed or not, the wake appended to the bucket: its tail is
        # what the wake and the "after" schedule put there, in order.
        queued.extend(e.name if e.__class__ is Task else "fn" for e in sim._cal[sim.now][-4:])

    sim.schedule(100, note("end"))  # keeps the bounded runs from running dry
    a = sim.spawn(waiter("a"), name="a")
    sim.run(until=0)  # a blocks first ...
    gate.add_callback(lambda _fut: sim.schedule(0, note("cb")))  # ... the callback next ...
    b = sim.spawn(waiter("b"), name="b")  # ... then b
    sim.spawn(waker(), name="waker")
    for tag in "pq":
        sim.schedule(10, note(tag))
    sim.run(until=5)
    assert gate._callbacks[0] is a and gate._callbacks[2] is b
    sim.run()
    return log, queued, sim.events


def _three_schedule_0_calls(value=None, exc=None):
    """The reference wake: what resolve/fail must do, spelled as
    ``schedule(0, ...)`` per waiter in registration order."""
    def wake(sim, gate):
        waiters, gate._callbacks = gate._callbacks, None
        if exc is None:
            gate._value = value
        else:
            gate._exc = exc
        for w in waiters:
            if w.__class__ is Task:
                w._wait_fut = gate
                sim.schedule(0, w)
            else:
                w(gate)
    return wake


@pytest.mark.parametrize("jitter_seed", [None, 3, 11])
def test_task_and_callback_waiters_wake_like_three_schedule_0_calls(jitter_seed):
    resolved = _mixed_waiters(jitter_seed, lambda sim, gate: gate.resolve("v"))
    assert resolved == _mixed_waiters(jitter_seed, _three_schedule_0_calls("v"))
    failed = _mixed_waiters(jitter_seed, lambda sim, gate: gate.fail(KeyError("k")))
    assert failed == _mixed_waiters(jitter_seed, _three_schedule_0_calls(exc=KeyError("k")))
    log, queued, _ = resolved
    # The order lives in the bucket, fuzzed or not: three waiters, one "after".
    assert queued == ["a", "fn", "b", "fn"]
    if jitter_seed is None:  # registration order, then schedule order
        assert [e[0] for e in log] == ["p", "q", "a", "cb", "b", "after", "end"]
        assert log[2] == ("a", 10, "v") and failed[0][4] == ("b", 10, ("k",))


def test_retire_removes_only_its_own_task_from_mixed_waiters():
    sim = Simulator()
    gate, woke = Future(name="gate"), []

    def waiter(tag):
        woke.append((tag, (yield gate)))

    def cb(fut):
        woke.append(("cb", fut.result()))

    sim.schedule(9, lambda: gate.resolve("v"))
    a = sim.spawn(waiter("a"), name="a")
    sim.run(until=0)
    gate.add_callback(cb)
    b = sim.spawn(waiter("b"), name="b")
    c = sim.spawn(waiter("c"), name="c")
    sim.run(until=5)
    assert gate._callbacks == [a, cb, b, c]
    sim.retire(b, "gone")
    assert gate._callbacks == [a, cb, c]
    assert sim.run() == 9
    assert woke == [("cb", "v"), ("a", "v"), ("c", "v")]  # a callback runs in resolve()
    assert b.done.result() == "gone" and not sim._tasks


def test_task_waiters_leave_no_cyclic_garbage():
    """With the collector off, tasks that blocked on futures (resolved,
    failed, or retired while blocked) are freed by refcounting alone."""

    def live_tasks():
        return [o for o in gc.get_objects() if type(o) is Task]

    gc.collect()
    before = len(live_tasks())
    gc.disable()
    try:
        sim = Simulator()
        sim.schedule(100, lambda: None)  # keeps the bounded run from running dry
        gates = [Future(name=f"g{i}") for i in range(30)]

        def waiter(gate):
            try:
                yield gate
            except KeyError:
                pass

        stuck = [sim.spawn(waiter(g), name=f"w{i}") for i, g in enumerate(gates)]
        sim.run(until=0)
        for i, gate in enumerate(gates):
            if i % 3 == 0:
                sim.schedule(i + 1, lambda gate=gate: gate.resolve(None))
            elif i % 3 == 1:
                sim.schedule(i + 1, lambda gate=gate: gate.fail(KeyError(i)))
            else:
                sim.retire(stuck[i])
        sim.run()
        del stuck, gates, gate
        assert len(live_tasks()) == before
    finally:
        gc.enable()


def _collector_probe(ending: str):
    """A simulator whose run ends by ``ending``, and the list its task
    and its callback append ``gc.isenabled()`` to while they run."""
    sim = Simulator()
    seen = []

    def task():
        seen.append(gc.isenabled())
        yield Delay(10)
        seen.append(gc.isenabled())
        if ending == "crash":
            raise KeyError("crash")
        if ending == "deadlock":
            yield Future(name="never")

    sim.spawn(task(), name="probe")
    sim.schedule(5, lambda: seen.append(gc.isenabled()))
    return sim, seen


_ENDINGS = {
    "return": lambda sim: sim.run(),
    "until": lambda sim: sim.run(until=7),
    "deadlock": lambda sim: pytest.raises(DeadlockError, sim.run),
    "crash": lambda sim: pytest.raises(KeyError, sim.run),
}


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("ending", sorted(_ENDINGS))
def test_run_pauses_the_collector_and_restores_the_callers_setting(ending, caller_enabled):
    sim, seen = _collector_probe(ending)
    if not caller_enabled:
        gc.disable()
    try:
        _ENDINGS[ending](sim)
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable()
    assert seen and not any(seen)  # every task step and callback ran with it off
    assert not sim._running


def test_no_waker_method_is_left_in_src():
    src = Path(__file__).resolve().parents[2] / "src"
    hits = [p for p in src.rglob("*.py") if "_on_resolved" in p.read_text()]
    assert hits == []


def test_default_names_do_not_repeat_after_tasks_finish():
    sim = Simulator()

    def idle():
        yield Delay(1)

    first = [sim.spawn(idle()).name for _ in range(3)]
    sim.run()
    later = [sim.spawn(idle()).name for _ in range(3)]
    sim.run()
    assert first == ["task#0", "task#1", "task#2"]
    assert later == ["task#3", "task#4", "task#5"]


# -- cancellable timers ------------------------------------------------------


def test_cancelled_timer_never_runs_and_is_not_an_event():
    sim = Simulator()
    rang = []
    live = sim.timer(5, lambda: rang.append(("live", sim.now)))
    dead = sim.timer(3, lambda: rang.append(("dead", sim.now)))
    dead.cancel()
    assert sim.run() == 5
    assert rang == [("live", 5)] and sim.events == 1
    live.cancel()  # after it fired: a no-op
    assert sim.run() == 5 and sim.events == 1


def test_tail_of_cancelled_timers_does_not_move_the_clock():
    sim = Simulator()

    def task():
        guard = sim.timer(6000, lambda: None)
        yield Delay(40)
        guard.cancel()

    sim.spawn(task(), name="t")
    assert sim.run() == 40 and sim.now == 40


def test_run_until_neither_stops_at_nor_is_advanced_by_a_cancelled_timer():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.timer(20, lambda: None).cancel()
    assert sim.run(until=15) == 10  # ran dry at 10: the dead timer at 20 is not "later work"
    sim.timer(5, lambda: None).cancel()
    sim.schedule(30, lambda: None)  # due at cycle 40
    assert sim.run(until=20) == 20  # a live event is
    assert sim.run() == 40 and sim.events == 2


def test_blocked_tasks_behind_cancelled_timers_still_deadlock():
    sim = Simulator()
    gate = Future(name="gate")

    def stuck():
        sim.timer(100, lambda: None).cancel()
        yield gate

    sim.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError):
        sim.run()
    assert sim.now == 0


@pytest.mark.parametrize("jitter_seed", [None, 3])
def test_live_timer_is_schedule_with_a_handle(jitter_seed):
    def order(arm):
        sim = Simulator(jitter_seed=jitter_seed)
        log = []
        for tag in "abcd":
            (arm(sim) if tag == "c" else sim.schedule)(7, lambda tag=tag: log.append((tag, sim.now)))
        sim.run()
        # The generator's state after the run: the same draws were made.
        return log, sim.events, jitter_seed and sim._jitter.getstate()

    assert order(lambda sim: sim.timer) == order(lambda sim: sim.schedule)
    with pytest.raises(SimulationError):
        Simulator().timer(0, lambda: None)


# -- one calendar ------------------------------------------------------------


def _calendar_shapes(jitter_seed):
    """Run a post, a wake and a timer, asserting at each pause that every
    bucket is a list of bare callables, Tasks, Timers or message entries
    ``(call, a, b, args)``, keyed by its int cycle, and that ``_times``
    heaps exactly the cycles not being drained."""
    from repro.machine import Machine, MachineConfig
    from repro.sim.kernel import Timer

    sim = Simulator(jitter_seed=jitter_seed)
    machine = Machine(sim, MachineConfig(n_procs=2))
    gate = Future(name="gate")
    seen = []

    def note(node, src, tag):
        seen.append((tag, sim.now))

    def worker():
        yield Delay(3)
        machine.post(0, 1, note, "post")
        sim.schedule(0, gate.resolve)
        yield gate
        sim.timer(9, lambda: None)

    def waiter():
        yield gate

    def shape():
        assert all(type(t) is int for t in sim._times)
        for cycle, bucket in sim._cal.items():
            assert type(cycle) is int and type(bucket) is list and bucket
            for e in bucket:
                if type(e) is tuple:  # a message
                    assert len(e) == 4 and callable(e[0]) and type(e[3]) is tuple
                else:
                    assert e.__class__ in (Task, Timer) or callable(e)
        return sorted(sim._times), sorted(sim._cal)

    sim.spawn(worker(), name="w")
    sim.spawn(waiter(), name="x")
    sim.schedule(5, lambda: None)
    assert shape() == ([0, 5], [0, 5])
    sim.run(until=3)
    arrival = 3 + machine._reply_base  # post: send overhead + wire + receive
    assert shape() == ([5, 3 + 9, arrival], [5, 3 + 9, arrival])
    assert sim.run() == arrival and seen == [("post", arrival)]
    assert shape() == ([], []) and sim.events == 9


def test_canonical_calendar_holds_bare_entries():
    _calendar_shapes(None)


def test_fuzzed_calendar_holds_bare_entries():
    """Fuzzing draws at the pop: its calendar is the canonical one."""
    _calendar_shapes(3)


def test_no_ring_or_tuple_heap_is_left_in_src():
    """One queue: the same-cycle ring, the (time, seq, fn) heap and the
    draining flag are gone from the kernel, and nothing reaches for them."""
    import re

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    kernel_names = re.compile(r"\b_ring\b|_ring_time|\b_queue\b|\bdraining\s*=")
    on_a_sim = re.compile(r"sim\._(?:ring|ring_time|queue)\b")
    hits = [p.name for p in (src / "sim").rglob("*.py") if kernel_names.search(p.read_text())]
    hits += [str(p) for p in src.rglob("*.py") if on_a_sim.search(p.read_text())]
    assert hits == []


def test_only_the_kernel_knows_fuzzing_exists():
    """Nothing in ``src/repro`` but the kernel reads a simulator's
    ``_jitter`` or calls its ``_push``: every other scheduling site is
    the plain append, fuzzed or not.  (A ``self._push`` elsewhere is a
    method of its own class.)"""
    import re

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    reach = re.compile(r"\._jitter\b|(?<!self)\._push\b")
    hits = [str(p.relative_to(src)) for p in src.rglob("*.py") if reach.search(p.read_text())]
    assert hits == ["sim/kernel.py"]
