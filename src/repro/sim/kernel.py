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
order they were scheduled (a monotone sequence number breaks ties), so
a run is a pure function of its inputs — the property the hypothesis
determinism tests pin down.

Fast path
---------
Per-event overhead bounds every experiment in the repository, so the
hot path is engineered to allocate nothing beyond what the event model
requires (see DESIGN.md §6 for the full story):

* **Same-cycle ring.**  ``schedule(0, fn)`` — by far the most common
  call — appends ``(seq, fn)`` to a FIFO deque instead of paying a
  ``heapq`` push/pop of a 4-tuple.  Ring and heap entries are merged
  by the global ``(time, seq)`` order at pop time, so event order is
  bit-identical to the single-heap implementation.
* **Pre-bound resume thunks.**  Each :class:`Task` carries its resume
  callables (and its generator's ``send``/``throw`` methods), built
  once at spawn; the kernel never allocates a closure or bound method
  per yield, and the whole step — wait-value unpacking, generator
  advance, re-schedule — is one Python call per event.
* **Lean heap entries.**  Canonical (non-fuzzed) runs store 3-tuples
  ``(time, seq, fn)``; only fuzzed runs pay for the 4-tuple with the
  random tie-breaker.  Ordering is ``(time, seq)`` either way.
* **Inline trampoline.**  When a task yields ``Delay(0)`` or an
  already-resolved :class:`Future` and *no other event is pending at
  the current cycle*, its continuation would be the very next event —
  so the kernel steps the generator again immediately (bounded by
  ``_TRAMPOLINE_MAX``), skipping the queue round-trip.  The same
  applies to a nonzero ``Delay`` when every queued event is strictly
  later than the task's resume time: the kernel advances ``now``
  in place and keeps stepping (disabled under ``run(until=...)``
  and structured tracing, where the heap path enforces the pause
  boundary / the pinned ``task.step`` stream).  The pending checks
  make this unobservable: ordering, cycle counts, and event counts
  are exactly what the queue would have produced.
* **Batched ring drain.**  When the heap holds nothing at the ring's
  cycle, the run loop drains the whole same-cycle ring — including
  events appended mid-drain — through one dispatch loop instead of
  re-entering the scheduler per event.
* **Fail-fast flag.**  A task crash used to be detected by scanning
  every task after every event; now ``Future.fail`` on a task's
  ``done`` future records the first failure on the simulator directly.
* **Pooled delays.**  ``Delay(n)`` for small ``n`` returns a shared
  immutable singleton, so the dominant yield type costs no allocation.

Schedule fuzzing (``jitter_seed``) disables the ring and the
trampoline: fuzzed runs draw one random tie-breaker per ``schedule``
call, and both shortcuts would perturb that stream.  Fuzzed schedules
therefore replay exactly as they always have.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Generator, Iterable

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


class Task:
    """A generator being driven by the simulator.

    ``task.done`` is a :class:`Future` resolved with the generator's
    return value (or failed with its exception), so tasks can join on
    one another by yielding it.
    """

    __slots__ = (
        "name",
        "gen",
        "done",
        "blocked_on",
        "_sim",
        "_wait_fut",
        "_resume",
        "_wake",
        "_send",
        "_throw",
        "_queue",
        "_ring",
        "_jitter",
        "_obs",
        "_obs_buf",
    )

    def __init__(self, gen: Generator, name: str, sim: "Simulator"):
        self.gen = gen
        self.name = name
        self.done = Future(name=f"done:{name}")
        self.blocked_on: Future | None = None
        self._sim = sim
        self._wait_fut: Future | None = None
        # Resume thunks and generator entry points pre-bound once per
        # task: the scheduler stores these directly in events instead
        # of allocating a fresh closure (or bound method) every yield.
        self._resume = self._step
        self._wake = self._on_resolved
        self._send = gen.send
        self._throw = gen.throw
        # The simulator's event structures never get reassigned, so
        # each task keeps direct references and skips three attribute
        # loads per step.
        self._queue = sim._queue
        self._ring = sim._ring
        self._jitter = sim._jitter
        # Structured tracing handle, resolved once at spawn: None when
        # observability is off, so the per-step cost of the disabled
        # path is one slot load and branch (see repro.obs.trace).
        self._obs = sim._obs
        self._obs_buf = sim._obs_buf

    def _step(self) -> None:
        """Advance the generator one yield (plus inline trampolining).

        This is the entire per-event hot path — wait-value unpacking,
        ``gen.send``, and re-scheduling are merged into one call so an
        event costs a single Python frame beyond the generator itself.
        """
        fut = self._wait_fut
        if fut is None:
            value = exc = None
        else:
            self._wait_fut = None
            exc = fut._exc
            value = None if exc is not None else fut._value
        sim = self._sim
        send = self._send
        resume = self._resume
        trace = sim._trace
        queue = self._queue
        ring = self._ring
        jitter = self._jitter
        now = sim.now  # time cannot advance while a task is stepping
        obs = self._obs
        if obs is not None:
            # The wake parent is the event that resolved the awaited
            # future (reply receive, barrier release, lock grant — set
            # by the resolver via Future._obs_eid), or -1 for plain
            # delays and locally-resolved futures.  Attribution pairs
            # this step with the task's preceding ``task.block``;
            # critical-path extraction follows the parent edge.  The
            # step becomes the buffer's dispatch context, so sends
            # issued while this task runs parent back to it.
            buf = self._obs_buf
            buf.ctx_eid = obs.emit(
                now, "task.step", -1, -1 if fut is None else fut._obs_eid, self.name
            )
            buf.ctx_ts = now
        self.blocked_on = None
        steps = _TRAMPOLINE_MAX
        while True:
            try:
                item = send(value) if exc is None else self._throw(exc)
            except StopIteration as stop:
                if trace:
                    trace(now, f"{self.name} finished")
                if obs is not None:
                    obs.emit(now, "task.finish", -1, -1, self.name)
                self.done.resolve(stop.value)
                return
            except BaseException as err:  # task crashed: propagate via its future
                if trace:
                    trace(now, f"{self.name} raised {err!r}")
                if obs is not None:
                    obs.emit(now, "task.crash", -1, -1, f"{self.name}: {err!r}")
                self.done.fail(err)
                return
            cls = item.__class__
            if cls is not Delay and cls is not Future:
                # Rare: a Delay/Future subclass, or an illegal yield.
                if isinstance(item, Delay):
                    cls = Delay
                elif isinstance(item, Future):
                    cls = Future
                else:
                    self.done.fail(
                        SimulationError(
                            f"task {self.name} yielded {item!r}; only Delay or Future "
                            "may reach the kernel (use 'yield from' for sub-operations)"
                        )
                    )
                    return
            if cls is Delay:
                cycles = item.cycles
                if trace:
                    trace(now, f"{self.name} delay {cycles}")
                if (
                    cycles == 0
                    and steps > 0
                    and not ring
                    and jitter is None
                    and sim._failure is None
                    and (not queue or queue[0][0] > now)
                ):
                    # This continuation would be the sole next event;
                    # run it now and skip the queue round-trip.
                    steps -= 1
                    sim.events += 1
                    value = exc = None
                    continue
                if (
                    steps > 0
                    and not ring
                    and jitter is None
                    and sim._failure is None
                    and sim._until is None
                    and obs is None
                    and (not queue or queue[0][0] > now + cycles)
                ):
                    # Nonzero-delay inlining: the continuation is still
                    # the sole next event (every queued event is
                    # strictly later than now + cycles), so advance
                    # simulated time here and keep stepping.  Event
                    # count and (time, seq) order are exactly what the
                    # heap round-trip would have produced.  Disabled
                    # under run(until=...) — the heap path enforces the
                    # pause boundary — and with structured tracing on,
                    # so the pinned obs event stream (one ``task.step``
                    # per kernel dispatch) is unchanged.
                    steps -= 1
                    sim.events += 1
                    sim.now = now = now + cycles
                    value = exc = None
                    continue
                # schedule(cycles, resume), inlined — one call per
                # yield is a measurable share of the event loop.  Delay
                # guarantees cycles >= 0, so the negative check is moot.
                seq = sim._seq
                sim._seq = seq + 1
                if jitter is not None:
                    _heappush(queue, (now + cycles, jitter.random(), seq, resume))
                elif cycles == 0 and (not ring or sim._ring_time == now):
                    sim._ring_time = now
                    ring.append((seq, resume))
                else:
                    _heappush(queue, (now + cycles, seq, resume))
                return
            if item._value is not _UNSET or item._exc is not None:
                if (
                    steps > 0
                    and not ring
                    and jitter is None
                    and sim._failure is None
                    and (not queue or queue[0][0] > now)
                ):
                    steps -= 1
                    sim.events += 1
                    exc = item._exc
                    value = None if exc is not None else item._value
                    continue
                # Resume this cycle but *after* already-queued
                # events, so a resolved future never lets a task
                # jump the queue (schedule(0, ...), inlined).
                self._wait_fut = item
                seq = sim._seq
                sim._seq = seq + 1
                if jitter is not None:
                    _heappush(queue, (now, jitter.random(), seq, resume))
                elif not ring or sim._ring_time == now:
                    sim._ring_time = now
                    ring.append((seq, resume))
                else:
                    _heappush(queue, (now, seq, resume))
                return
            self.blocked_on = item
            if trace:
                trace(now, f"{self.name} waits on {item.name}")
            if obs is not None:
                # Pure observation: the span from this event to the
                # task's next ``task.step`` is exactly the cycles spent
                # blocked on ``item`` — the raw material for cycle
                # attribution (repro.obs.attrib classifies the future's
                # name into wait buckets).
                obs.emit(now, "task.block", -1, -1, self.name, item.name)
            item._callbacks.append(self._wake)
            return

    def _on_resolved(self, fut: Future) -> None:
        # Equivalent to sim.schedule(0, self._resume), inlined: future
        # resolution is one of the two hottest kernel entry points.
        self._wait_fut = fut
        sim = self._sim
        now = sim.now
        seq = sim._seq
        sim._seq = seq + 1
        jitter = self._jitter
        ring = self._ring
        if jitter is not None:
            _heappush(self._queue, (now, jitter.random(), seq, self._resume))
        elif not ring or sim._ring_time == now:
            sim._ring_time = now
            ring.append((seq, self._resume))
        else:
            _heappush(self._queue, (now, seq, self._resume))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name}>"


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
        "_queue",
        "_ring",
        "_ring_time",
        "_seq",
        "_tasks",
        "_names",
        "_trace",
        "_running",
        "_failure",
        "_jitter",
        "_obs",
        "_obs_buf",
        "_until",
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
        self.events: int = 0  # events executed (queue pops + inline steps)
        # Heap of (time, seq, fn) — canonical runs — or
        # (time, jitter, seq, fn) under schedule fuzzing.  Both orders
        # reduce to (time, seq); fn is always entry[-1].
        self._queue: list = []
        self._ring: deque = deque()  # FIFO of (seq, fn) at time _ring_time
        self._ring_time: int = 0
        self._seq = 0
        self._tasks: list[Task] = []
        self._names: dict[str, int] = {}
        self._trace = trace
        self._running = False
        self._failure: BaseException | None = None
        # Bound of the current run(until=...) call, or None.  The
        # nonzero-delay trampoline consults it: inlined time advances
        # must not cross a pause boundary, so bounded runs always take
        # the heap path for positive delays.
        self._until: int | None = None
        self._jitter = random.Random(jitter_seed) if jitter_seed is not None else None
        # Per-layer tracer handle, or None: resolved once here so the
        # disabled path never probes or formats anything.  The buffer
        # itself is kept too: task steps publish the dispatch context
        # (TraceBuffer.ctx_eid) traced sends use as causal parent.
        self._obs = tracer.tracer("kernel") if tracer is not None else None
        self._obs_buf = tracer

    # -- low-level event interface -------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` cycles (0 means "later this cycle")."""
        if delay < 0:
            raise SimulationError(f"negative schedule delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        if self._jitter is not None:
            # Fuzzing draws one tie-breaker per schedule call; keep the
            # stream (and thus every fuzzed schedule) exactly as before
            # the same-cycle ring existed.
            heapq.heappush(self._queue, (self.now + delay, self._jitter.random(), seq, fn))
        elif delay == 0 and (not self._ring or self._ring_time == self.now):
            self._ring_time = self.now
            self._ring.append((seq, fn))
        else:
            heapq.heappush(self._queue, (self.now + delay, seq, fn))

    def at(self, time: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self.schedule(time - self.now, fn)

    # -- task interface -------------------------------------------------
    def spawn(self, gen: Generator, name: str = "task") -> Task:
        """Register a generator as a task and start it at the current time.

        Duplicate names get a ``~<n>`` suffix so every task (and its
        ``done:`` future) stays distinguishable in traces and deadlock
        reports — spawning ``name="worker"`` three times yields
        ``worker``, ``worker~1``, ``worker~2``.
        """
        if name == "task":
            name = f"task#{len(self._tasks)}"
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
        self._tasks.append(task)
        if self._obs is not None:
            self._obs.emit(self.now, "task.spawn", -1, -1, name)
        self.schedule(0, task._resume)
        return task

    def retire(self, task: Task, result=None) -> None:
        """Force-terminate ``task`` from outside, resolving ``done`` with ``result``.

        Used by the crash-recovery layer (:mod:`repro.dsm.recovery`)
        when a node is declared dead: its task cannot finish on its own
        (the fabric drops everything it sends), so the recovery manager
        retires it in place of a normal ``StopIteration``.

        The task may have resume events already queued (a pre-crash
        reply "in the wire", a delay it yielded before dying).  Those
        events reference the task's pre-bound ``_resume`` thunk and
        cannot be unscheduled, so instead the generator entry points are
        swapped for a stub that parks the task on a fresh, never-
        resolved future — a stray wake becomes a harmless no-op.  The
        task is removed from the deadlock scan so that parked state
        never reads as a stall.
        """
        if task.done._value is not _UNSET or task.done._exc is not None:
            return  # already finished on its own
        fut = task.blocked_on
        if fut is not None:
            try:
                fut._callbacks.remove(task._wake)
            except ValueError:
                pass
            task.blocked_on = None
        task._wait_fut = None
        task._send = _retired_step
        task._throw = _retired_throw
        try:
            self._tasks.remove(task)
        except ValueError:
            pass
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
        self._until = until
        queue = self._queue
        ring = self._ring
        heappop = heapq.heappop
        fired = 0  # queue pops this run; folded into self.events on exit
        try:
            if until is None:
                # Hot loop: no pause check per event.  Next event =
                # global (time, seq) minimum across both structures;
                # ring entries all share time _ring_time.
                while queue or ring:
                    # A non-empty ring implies a canonical run, so the
                    # heap holds 3-tuples and seq sits at index 1.
                    if ring:
                        if not queue or queue[0][0] > self._ring_time:
                            # Batched delivery: every queued event is
                            # strictly later than the ring, and nothing
                            # executed at this cycle can change that —
                            # delay-0 schedules land on the ring (it is
                            # non-empty, so ``_ring_time == now`` holds)
                            # and positive delays land strictly in the
                            # future.  Drain the whole ring, including
                            # events appended mid-drain, in one dispatch
                            # loop: same pops, same (time, seq) order,
                            # same event count as the per-event path.
                            self.now = self._ring_time
                            popleft = ring.popleft
                            while ring:
                                fired += 1
                                popleft()[1]()
                            continue
                        if queue[0][0] == self._ring_time and queue[0][1] > ring[0][0]:
                            # Mixed same-cycle case (an earlier-seq heap
                            # entry may interleave): single-step it.
                            self.now = self._ring_time
                            fn = ring.popleft()[1]
                            fired += 1
                            fn()
                            continue
                    entry = heappop(queue)
                    self.now = entry[0]
                    fired += 1
                    entry[-1]()
            else:
                while queue or ring:
                    if ring:
                        time = self._ring_time
                        use_ring = not queue or (
                            queue[0][0] > time
                            or (queue[0][0] == time and queue[0][1] > ring[0][0])
                        )
                        if not use_ring:
                            time = queue[0][0]
                    else:
                        use_ring = False
                        time = queue[0][0]
                    if time > until:
                        self.now = until
                        return self.now
                    if use_ring:
                        fn = ring.popleft()[1]
                    else:
                        fn = heappop(queue)[-1]
                    self.now = time
                    fired += 1
                    fn()
        finally:
            self.events += fired
            self._running = False
            self._until = None
        if self._failure is not None:
            raise self._failure
        blocked = [t for t in self._tasks if t.blocked_on is not None]
        if blocked:
            raise DeadlockError(blocked)
        return self.now

    # -- helpers ----------------------------------------------------------
    def run_all(self, gens: Iterable[Generator], prefix: str = "proc") -> list:
        """Spawn one task per generator, run to completion, return results."""
        tasks = [self.spawn(g, name=f"{prefix}{i}") for i, g in enumerate(gens)]
        self.run()
        return [t.done.result() for t in tasks]
