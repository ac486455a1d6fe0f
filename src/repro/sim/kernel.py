"""The discrete-event scheduler and generator-task trampoline.

Simulated "processors" are plain Python generators.  They communicate
with the kernel by yielding:

``Delay(cycles)``
    advance this task's local view of time by ``cycles``;
``Future``
    suspend until the future is resolved; the resolved value is sent
    back into the generator (a failed future re-raises inside it).

Nested blocking operations compose with ordinary ``yield from``; the
kernel only ever sees the two primitive yield types above.

Time is an integer cycle count.  Events at equal times fire in the
order they were scheduled (or, fuzzed, in an order drawn from the
seed), so a run is a pure function of its inputs — the property the
hypothesis determinism tests pin down.

Fast path
---------
Per-event overhead bounds every experiment in the repository, so the
hot path is engineered to allocate nothing beyond what the event model
requires (see DESIGN.md §6 for the full story):

* **The run loop is the scheduler.**  Queue entries carry the
  :class:`Task` itself where a resume is due; :meth:`Simulator.run`
  recognises it (``fn.__class__ is Task``) and advances the generator
  in place — wait-value unpacking, ``send``/``throw``, the
  ``Delay``/``Future`` dispatch, re-scheduling — so a task event costs
  no Python frame beyond the generator's own.  A message is the tuple
  ``(call, a, b, args)``, an Active Message: its arrival is
  ``call(a, b, *args)``, one tuple where a ``functools.partial`` would
  be three allocations.  Anything else in an entry is a plain callable
  and is called.  Whether the run is fuzzed
  (``jitter_seed``), traced (``tracer=`` / ``trace=``) or bounded
  (``until=``) is decided once per ``run()`` and held in locals; there
  is one loop and one copy of the step for every mode.
* **Calendar.**  The queue is ``_cal``, a dict from cycle to that
  cycle's *bucket* — a list of its events in schedule order — plus
  ``_times``, a heap of the plain-int cycles that have one (a calendar
  queue, after R. Brown, CACM 31(10), 1988).  Scheduling appends to
  the bucket; the run loop pops ``_times`` once per cycle and drains
  the bucket by index, leaving it in ``_cal`` meanwhile, so a delay-0
  event appends to the bucket being drained and runs later in the same
  cycle.  Appending in call order *is* the global ``(time, seq)``
  order, so a canonical schedule draws no sequence number and builds no
  tuple, and event order is bit-identical to a single heap
  (``tests/sim/test_kernel_oracle.py`` holds the kernel to exactly that
  reference).  An exception that escapes mid-cycle leaves the unrun
  rest of the bucket queued for the next ``run()``.
* **Inline trampoline.**  When a task yields ``Delay(0)`` or an
  already-resolved :class:`Future` and *no other event is pending at
  the current cycle* (the bucket is drained), its continuation would be
  the very next event — so the loop steps the generator again
  immediately (bounded by ``_TRAMPOLINE_MAX``), skipping the queue
  round-trip.  The same applies to a nonzero ``Delay`` when every other
  bucket is strictly later than the task's resume time: the loop
  advances ``now`` in place, re-keys the drained bucket to it, and keeps
  stepping (disabled under ``run(until=...)`` and structured tracing,
  where the transition enforces the pause boundary / the pinned
  ``task.step`` stream).  The pending checks make this unobservable:
  ordering, cycle counts, and event counts are exactly what the queue
  would have produced.
* **Cancellable timers.**  :meth:`Simulator.timer` entries carry a
  :class:`Timer`; the loop drops a cancelled one before it is counted,
  and a cycle whose bucket ran no live event gives its clock move back,
  so a cancelled timer never moves time.
* **Released on finish.**  ``Simulator._tasks`` is the table of *live*
  tasks, in spawn order; a task leaves it when it finishes, crashes or
  is retired.  A task holds no bound method of itself, and no waker
  object exists: a blocked task is itself the entry in the future's
  waiter list, dropped when the future fires (``retire`` removes the
  task).  So a finished task is freed by reference counting alone —
  spawn-and-join churn leaves nothing for the cyclic collector.
* **Fail-fast flag.**  ``Future.fail`` on a task's ``done`` future
  records the first failure on the simulator directly and raises it
  through the event that caused it; nothing is scanned per event.
* **Pooled delays.**  ``Delay(n)`` for small ``n`` returns a shared
  immutable singleton, so the dominant yield type costs no allocation.

Schedule fuzzing (``jitter_seed``) disables the trampoline and changes
nothing else about the calendar: a fuzzed bucket is the same list of
bare entries.  The order is drawn when an entry is taken, not when it
is scheduled — the run loop's cycle-transition branch draws one index
uniformly among the cycle's pending entries (cancelled timers
included) and takes that entry out.  Same seed, same schedule.  The
canonical per-event path never tests for jitter, and no module outside
this one knows fuzzing exists.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Generator, Iterable

from repro.sim import future as _future
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.future import _UNSET, Future

_heappush = heapq.heappush


class Delay:
    """Yield ``Delay(n)`` from a task to advance simulated time by ``n`` cycles.

    Instances are immutable and compare/hash by ``cycles``.  Small
    non-negative integer delays return pooled singletons, so the hot
    path (``yield Delay(cost)``) performs no allocation.
    """

    __slots__ = ("cycles",)

    def __new__(cls, cycles: int = 0):
        if cls is Delay and type(cycles) is int and 0 <= cycles < _DELAY_POOL_SIZE:
            return _DELAY_POOL[cycles]
        if cycles < 0:
            raise SimulationError(f"negative delay: {cycles}")
        self = object.__new__(cls)
        object.__setattr__(self, "cycles", cycles)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Delay is immutable; cannot set {name!r}")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and other.cycles == self.cycles

    def __hash__(self):
        return hash((self.cycles,))

    def __repr__(self) -> str:
        return f"Delay(cycles={self.cycles})"


def _build_delay_pool(size: int) -> tuple:
    pool = []
    for n in range(size):
        d = object.__new__(Delay)
        object.__setattr__(d, "cycles", n)
        pool.append(d)
    return tuple(pool)


_DELAY_POOL_SIZE = 512
_DELAY_POOL = _build_delay_pool(_DELAY_POOL_SIZE)

#: Max generator steps taken inline before falling back to the queue.
#: Purely a safety valve — inlining is only attempted when the queue
#: has nothing else at the current cycle, so any bound preserves order.
_TRAMPOLINE_MAX = 64


def _retired_step(_value=None):
    """Stand-in ``gen.send`` for a retired task (see :meth:`Simulator.retire`).

    Returns a fresh, never-resolved future: a stray queued resume
    parks the task on it forever instead of advancing a closed
    generator."""
    return Future(name="retired")


def _retired_throw(*_args):
    """Stand-in ``gen.throw`` for a retired task."""
    return Future(name="retired")


class Timer:
    """A scheduled callback that can be called off (:meth:`Simulator.timer`).

    A live timer is an ordinary event.  A cancelled one is dropped when
    its cycle is drained: it is never run, never counted in
    ``Simulator.events`` and never moves the clock — a run whose tail is
    only cancelled timers ends at its last live event.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None] | None):
        self.fn = fn

    def cancel(self) -> None:
        """Call the timer off (a no-op once it has fired)."""
        self.fn = None


class Task:
    """A generator being driven by the simulator.

    ``task.done`` is a :class:`Future` resolved with the generator's
    return value (or failed with its exception), so tasks can join on
    one another by yielding it.

    A task is data: :meth:`Simulator.run` steps it.  Events that resume
    a task carry the task object itself, and so does the waiter list of
    the future it blocks on (:meth:`Future.resolve` schedules it).
    """

    __slots__ = ("name", "gen", "done", "blocked_on", "_sim", "_wait_fut", "_send", "_throw")

    def __init__(self, gen: Generator, name: str, sim: "Simulator"):
        self.gen = gen
        self.name = name
        self.done = Future(name=f"done:{name}")
        self.blocked_on: Future | None = None
        # One-way: the simulator refers back only through its live-task
        # table, which a finished task has left — no reference cycle.
        self._sim = sim
        self._wait_fut: Future | None = None
        self._send = gen.send
        self._throw = gen.throw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name}>"


_future._Task = Task  # a blocked task is its own waiter (Future.resolve)


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.spawn(my_task(), name="proc0")
        sim.run()
        print(sim.now)   # total simulated cycles
    """

    __slots__ = (
        "now",
        "events",
        "_cal",
        "_times",
        "_tasks",
        "_names",
        "_trace",
        "_running",
        "_failure",
        "_jitter",
        "_obs",
        "_obs_buf",
    )

    def __init__(
        self,
        trace: Callable[[int, str], None] | None = None,
        jitter_seed: int | None = None,
        tracer=None,
    ):
        """``jitter_seed`` enables *schedule fuzzing*: same-time events
        fire in a seed-determined shuffled order instead of insertion
        order.  Each seed is still fully deterministic — the
        :mod:`repro.verify` fuzzer sweeps seeds to hunt protocol races
        that one canonical schedule would never exhibit.

        ``tracer`` is an optional :class:`repro.obs.TraceBuffer`;
        when given, the kernel emits structured ``task.*`` events
        (spawn/step/finish/crash) into it.  Tracing is pure
        observation: event order and simulated cycles are bit-identical
        with and without it."""
        self.now: int = 0
        self.events: int = 0  # events executed (queue entries + inline steps)
        # The calendar: cycle -> bucket of that cycle's entries, each a
        # Task to step, a Timer, a message (call, a, b, args) to call as
        # call(a, b, *args), or a callable to call, in schedule order
        # (fuzzed or not).  _times heaps the cycles that have a bucket,
        # except the one run() is draining.
        self._cal: dict[int, list] = {}
        self._times: list[int] = []
        # Live tasks by (unique) name, in spawn order.  _names outlives
        # them: one key per spawn ever made.
        self._tasks: dict[str, Task] = {}
        self._names: dict[str, int] = {}
        self._trace = trace
        self._running = False
        self._failure: BaseException | None = None
        self._jitter = random.Random(jitter_seed) if jitter_seed is not None else None
        # Per-layer tracer handle, or None: resolved once here so the
        # disabled path never probes or formats anything.  The buffer
        # itself is kept too: task steps publish the dispatch context
        # (TraceBuffer.ctx_eid) traced sends use as causal parent.
        self._obs = tracer.tracer("kernel") if tracer is not None else None
        self._obs_buf = tracer

    # -- low-level event interface -------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` cycles (0 means "later this cycle");
        a message entry ``(call, a, b, args)`` runs as ``call(a, b, *args)``."""
        if delay < 0:
            raise SimulationError(f"negative schedule delay: {delay}")
        self._push(self.now + delay, fn)

    def _push(self, when: int, fn) -> None:
        """Queue ``fn`` at cycle ``when`` (not in the past): the one
        schedule body, which hot sites outside the class inline."""
        bucket = self._cal.get(when)
        if bucket is None:
            self._cal[when] = [fn]
            _heappush(self._times, when)
        else:
            bucket.append(fn)

    def at(self, time: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self.schedule(time - self.now, fn)

    def timer(self, delay: int, fn: Callable[[], None]) -> Timer:
        """``schedule(delay, fn)`` with a handle whose ``cancel()`` calls it off.

        Same place in its cycle as :meth:`schedule`, and, fuzzed, one
        entry among the cycle's draw whether or not it was cancelled.
        The delay must be positive: a timer is set for later, never for
        the cycle being drained.
        """
        if delay <= 0:
            raise SimulationError(f"a timer needs a positive delay, got {delay}")
        timer = Timer(fn)
        self._push(self.now + delay, timer)
        return timer

    # -- task interface -------------------------------------------------
    def spawn(self, gen: Generator, name: str = "task") -> Task:
        """Register a generator as a task and start it at the current time.

        Duplicate names get a ``~<n>`` suffix so every task (and its
        ``done:`` future) stays distinguishable in traces and deadlock
        reports — spawning ``name="worker"`` three times yields
        ``worker``, ``worker~1``, ``worker~2``.
        """
        if name == "task":
            name = f"task#{len(self._names)}"  # spawns so far, finished or not
        n = self._names.get(name, 0)
        if n:
            base = name
            name = f"{base}~{n}"
            while name in self._names:
                n += 1
                name = f"{base}~{n}"
            self._names[base] = n + 1
            self._names[name] = 1
        else:
            self._names[name] = 1
        task = Task(gen, name=name, sim=self)
        task.done._fail_hook = self._note_failure
        self._tasks[name] = task
        if self._obs is not None:
            self._obs.emit(self.now, "task.spawn", -1, -1, name)
        self._push(self.now, task)
        return task

    def blocked_tasks(self) -> list[Task]:
        """Live tasks suspended on an unresolved future, in spawn order."""
        return [t for t in self._tasks.values() if t.blocked_on is not None]

    def retire(self, task: Task, result=None) -> None:
        """Force-terminate ``task`` from outside, resolving ``done`` with ``result``.

        Used by the crash-recovery layer (:mod:`repro.dsm.recovery`)
        when a node is declared dead: its task cannot finish on its own
        (the fabric drops everything it sends), so the recovery manager
        retires it in place of a normal ``StopIteration``.  Retiring a
        task that already finished is a no-op.

        A blocked task is taken off the waiter list of the future it
        waits on.
        The task may also have resume events already queued (a
        pre-crash reply "in the wire", a delay it yielded before
        dying).  Those entries hold the task itself and cannot be
        unscheduled, so instead the generator entry points are swapped
        for a stub that parks the task on a fresh, never-resolved
        future — a stray resume becomes a harmless no-op.  The task
        leaves the live table, so that parked state never reads as a
        stall.
        """
        if task.done._value is not _UNSET or task.done._exc is not None:
            return  # already finished on its own
        fut = task.blocked_on
        if fut is not None:
            waiters = fut._callbacks  # None once cancelled or fired
            if waiters and task in waiters:
                waiters.remove(task)
            task.blocked_on = None
        task._wait_fut = None
        task._send = _retired_step
        task._throw = _retired_throw
        self._tasks.pop(task.name, None)
        task.gen.close()
        if self._obs is not None:
            self._obs.emit(self.now, "task.retire", -1, -1, task.name)
        if self._trace:
            self._trace(self.now, f"{task.name} retired")
        task.done.resolve(result)

    def _note_failure(self, exc: BaseException) -> None:
        # Fail fast: the first task crash aborts the run by raising
        # straight through the event that caused it, so the run loop
        # pays no per-event "did anything crash?" check.  Events the
        # crash had already scheduled (e.g. waking joiners) simply
        # never execute — exactly as before, when the loop stopped
        # before reaching them.
        if self._failure is None:
            self._failure = exc
            raise exc

    # -- execution --------------------------------------------------------
    def run(self, until: int | None = None) -> int:
        """Drain the event queue; return the final simulated time.

        With ``until``, stop before the first event later than that
        cycle, leave it queued, and return ``until``; a later ``run``
        resumes exactly there.

        Raises
        ------
        DeadlockError
            If the queue empties while spawned tasks are still blocked.
        SimulationError
            Re-raised from any task that crashed (first crash wins).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        cal = self._cal
        times = self._times
        heappop = heapq.heappop
        timer_cls = Timer
        tasks = self._tasks
        jitter = self._jitter
        trace = self._trace
        obs = self._obs
        buf = self._obs_buf
        # The two trampolines, decided once.  ``inline`` steps a task
        # again at the same cycle; ``leap`` also lets it cross a
        # positive delay, which must not jump a pause boundary nor
        # merge two of the traced stream's ``task.step`` events.
        inline = jitter is None and self._failure is None
        leap = inline and until is None and obs is None
        now = self.now  # local mirror: only this loop moves time
        fired = 0  # events this run; folded into self.events on exit
        # The bucket being drained (it stays cal[now] meanwhile), or
        # None between cycles.  Canonical runs index it: ``cur`` is the
        # last bucket entered and ``pos`` its next entry.  Fuzzed runs
        # keep ``cur`` empty, so every event takes the transition branch,
        # which draws it from the bucket.  ``prev``/``mark``: the clock
        # before this cycle and ``fired`` on entering it, to give back a
        # cycle that ran nothing live.
        bucket = None
        cur = ()
        pos = mark = 0
        prev = now
        try:
            while True:
                if pos < len(cur):
                    fn = cur[pos]
                    pos += 1
                elif jitter is not None and bucket:
                    # Fuzzed: one uniform draw among the pending entries;
                    # the last one fills the hole.
                    i = jitter.randrange(len(bucket))
                    fn = bucket[i]
                    bucket[i] = bucket[-1]
                    bucket.pop()
                else:
                    # -- the cycle is drained: retire its bucket ...
                    if bucket is not None:
                        del cal[now]
                        if fired == mark:  # only cancelled timers: time did not move
                            self.now = now = prev
                        bucket = None
                    if not times:
                        break
                    # ... and enter the next, unless it lies past ``until``
                    # and holds a live event (a dead one is dropped).
                    when = times[0]
                    if until is not None and when > until:
                        if any(e.__class__ is not timer_cls or e.fn is not None for e in cal[when]):
                            self.now = until
                            return until
                        heappop(times)
                        del cal[when]
                        continue
                    heappop(times)
                    bucket = cal[when]
                    prev = now
                    self.now = now = when
                    mark = fired
                    if jitter is not None:
                        continue  # the fuzzed branch above draws from it
                    cur = bucket
                    fn = bucket[0]
                    pos = 1
                cls = fn.__class__
                if cls is not Task:
                    if cls is tuple:  # a message: its arrival is the handler call
                        fired += 1
                        call, a, b, args = fn
                        call(a, b, *args)
                        continue
                    if cls is timer_cls:
                        fn = fn.fn  # its callback: a plain callable
                        if fn is None:  # cancelled: as if never scheduled
                            continue
                    fired += 1
                    fn()
                    continue
                fired += 1

                # -- step a task: the entry held the Task this event resumes
                task = fn
                fut = task._wait_fut
                if fut is None:
                    value = exc = None
                else:
                    task._wait_fut = None
                    task.blocked_on = None
                    exc = fut._exc
                    value = None if exc is not None else fut._value
                if obs is not None:
                    # The wake parent is the event that resolved the
                    # awaited future (reply receive, barrier release,
                    # lock grant — set by the resolver via
                    # Future._obs_eid), or -1 for plain delays and
                    # locally-resolved futures.  Attribution pairs this
                    # step with the task's preceding ``task.block``;
                    # critical-path extraction follows the parent edge.
                    # The step becomes the buffer's dispatch context, so
                    # sends issued while this task runs parent back to it.
                    buf.ctx_eid = obs.emit(
                        now, "task.step", -1, -1 if fut is None else fut._obs_eid, task.name
                    )
                    buf.ctx_ts = now
                send = task._send
                steps = _TRAMPOLINE_MAX
                while True:
                    try:
                        item = send(value) if exc is None else task._throw(exc)
                    except StopIteration as stop:
                        if trace:
                            trace(now, f"{task.name} finished")
                        if obs is not None:
                            obs.emit(now, "task.finish", -1, -1, task.name)
                        del tasks[task.name]
                        task.done.resolve(stop.value)
                        break
                    except BaseException as err:  # task crashed: propagate via its future
                        if trace:
                            trace(now, f"{task.name} raised {err!r}")
                        if obs is not None:
                            obs.emit(now, "task.crash", -1, -1, f"{task.name}: {err!r}")
                        del tasks[task.name]
                        task.done.fail(err)
                        break
                    # Delay first, then Future; a subclass of either, or
                    # an illegal yield, is the rare case behind both.
                    cls = item.__class__
                    if cls is Delay or (cls is not Future and isinstance(item, Delay)):
                        cycles = item.cycles
                        when = now + cycles
                        if trace:
                            trace(now, f"{task.name} delay {cycles}")
                        if (
                            steps > 0
                            and inline
                            and pos == len(cur)
                            and (cycles == 0 or leap and (not times or times[0] > when))
                        ):
                            # This continuation would be the sole next
                            # event — the bucket is drained and every other
                            # one strictly later than ``when`` — so run it
                            # now.  Event count and (time, seq) order are
                            # exactly what the queue round-trip would have
                            # produced.  A positive delay moves time here,
                            # and the drained bucket with it: it stays the
                            # one same-cycle schedules append to.
                            steps -= 1
                            fired += 1
                            if cycles:
                                cal[when] = cal.pop(now)
                                self.now = now = when
                            value = exc = None
                            continue
                    elif cls is not Future and not isinstance(item, Future):
                        del tasks[task.name]
                        task.done.fail(
                            SimulationError(
                                f"task {task.name} yielded {item!r}; only Delay or Future "
                                "may reach the kernel (use 'yield from' for sub-operations)"
                            )
                        )
                        break
                    elif item._value is not _UNSET or item._exc is not None:
                        if steps > 0 and inline and pos == len(cur):
                            steps -= 1
                            fired += 1
                            exc = item._exc
                            value = None if exc is not None else item._value
                            continue
                        # Resume this cycle but *after* already-queued
                        # events, so a resolved future never lets a task
                        # jump the queue.
                        task._wait_fut = item
                        cycles = 0
                        when = now
                    else:
                        task.blocked_on = item
                        if trace:
                            trace(now, f"{task.name} waits on {item.name}")
                        if obs is not None:
                            # Pure observation: the span from this event to
                            # the task's next ``task.step`` is exactly the
                            # cycles spent blocked on ``item`` — the raw
                            # material for cycle attribution
                            # (repro.obs.attrib classifies the future's
                            # name into wait buckets).
                            obs.emit(now, "task.block", -1, -1, task.name, item.name)
                        if item._callbacks is None:
                            item._callbacks = [task]
                        else:
                            item._callbacks.append(task)
                        break
                    # schedule(cycles, task), inlined.  Delay guarantees
                    # cycles >= 0, so the negative check is moot.
                    nxt = cal.get(when)
                    if nxt is None:
                        cal[when] = [task]
                        _heappush(times, when)
                    else:
                        nxt.append(task)
                    break
        finally:
            self.events += fired
            self._running = False
            if bucket is not None:
                # An exception escaped mid-cycle: the unrun rest of the
                # bucket stays queued for the next run().
                del bucket[:pos]
                if bucket:
                    _heappush(times, now)
                else:
                    del cal[now]
        if self._failure is not None:
            raise self._failure
        blocked = self.blocked_tasks()
        if blocked:
            raise DeadlockError(blocked)
        return self.now

    # -- helpers ----------------------------------------------------------
    def run_all(self, gens: Iterable[Generator], prefix: str = "proc") -> list:
        """Spawn one task per generator, run to completion, return results."""
        tasks = [self.spawn(g, name=f"{prefix}{i}") for i, g in enumerate(gens)]
        self.run()
        return [t.done.result() for t in tasks]
