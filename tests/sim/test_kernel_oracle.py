"""Differential oracle for the event kernel.

``RefSim`` is the scheduler the kernel's fast paths claim to be
indistinguishable from: one list of entries per cycle, in schedule
order, the earliest cycle's taken one entry per pop — no trampoline,
no in-loop task stepping, no calendar index.  Generated programs — delays (zero, pooled and
beyond the pool), futures resolved or failed before and after the
wait, mid-run spawns and joins, plain scheduled callables, message
entries ``(call, a, b, args)`` pushed the way ``Machine._deliver``
pushes them, timers set and cancelled, ``retire`` of blocked / queued /
finished tasks, a crashing task (and a second ``run()`` after it),
deadlocks, and ``run(until=b)`` split at random bounds — run on both, and the real
kernel must match on step order, ``now``, ``events`` and every task's
result.  A canonical pop takes the cycle's first entry.  Under a
``jitter_seed`` each pop is one uniform draw among the cycle's pending
entries, and the last entry fills the hole, so fuzzed schedules are
held to it too.  A cancelled timer stays in its list: it counts in
every draw, and when drawn it is dropped, neither run, counted nor
moving the clock.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DeadlockError, Delay, Future, Simulator

N_FUTURES = 4
N_TOPS = 3
N_TIMERS = 3


class Boom(Exception):
    pass


# ---------------------------------------------------------------- reference
class RefTask:
    def __init__(self, gen, name):
        self.gen, self.name = gen, name
        self.done = Future(name=f"done:{name}")
        self.blocked_on = None
        self.retired = False


class RefTimer:
    def __init__(self, fn):
        self.fn = fn

    def cancel(self):
        self.fn = None


class RefSim:
    """Per-cycle list reference scheduler (see the module docstring)."""

    def __init__(self, jitter_seed=None):
        self.now = self.events = 0
        self._cal = {}  # cycle -> its pending entries, in schedule order
        self._live = []
        self._rnd = random.Random(jitter_seed) if jitter_seed is not None else None
        self._failure = None

    def schedule(self, delay, fn):
        self._cal.setdefault(self.now + delay, []).append(fn)

    def timer(self, delay, fn):
        timer = RefTimer(fn)
        self.schedule(delay, timer)
        return timer

    def spawn(self, gen, name):
        task = RefTask(gen, name)
        self._live.append(task)
        self.schedule(0, lambda: self._step(task, None))
        return task

    def retire(self, task, result=None):
        if task.done.resolved:
            return
        task.retired, task.blocked_on = True, None
        self._live.remove(task)
        task.gen.close()
        task.done.resolve(result)

    def _step(self, task, fut):
        if task.retired:
            return  # a resume that was already queued: fires, does nothing
        task.blocked_on = None
        try:
            if fut is not None and fut._exc is not None:
                item = task.gen.throw(fut._exc)
            else:
                item = task.gen.send(None if fut is None else fut._value)
        except StopIteration as stop:
            self._live.remove(task)
            task.done.resolve(stop.value)
        except BaseException as err:
            self._live.remove(task)
            task.done.fail(err)
            self._failure = err
            raise
        else:
            if isinstance(item, Delay):
                self.schedule(item.cycles, lambda: self._step(task, None))
            elif item.resolved:
                self.schedule(0, lambda: self._step(task, item))
            else:
                task.blocked_on = item
                item.add_callback(
                    lambda f: task.retired or self.schedule(0, lambda: self._step(task, f))
                )

    def run(self, until=None):
        while self._cal:
            when = min(self._cal)
            pending = self._cal[when]
            if not pending:
                del self._cal[when]
                continue
            if until is not None and when > until:
                if any(not isinstance(e, RefTimer) or e.fn is not None for e in pending):
                    self.now = until
                    return until
                del self._cal[when]
                continue
            if self._rnd is None:
                fn = pending.pop(0)
            else:
                i = self._rnd.randrange(len(pending))
                fn = pending[i]
                pending[i] = pending[-1]
                pending.pop()
            if isinstance(fn, RefTimer):
                fn = fn.fn
                if fn is None:
                    continue
            self.now = when
            self.events += 1
            fn()
        if self._failure is not None:
            raise self._failure
        blocked = [t for t in self._live if t.blocked_on is not None]
        if blocked:
            raise DeadlockError(blocked)
        return self.now


# ----------------------------------------------------------------- programs
def push_message(sim, delay, entry):
    """Queue the message ``entry`` = ``(call, a, b, args)`` ``delay``
    cycles from now, appended to its bucket exactly as
    ``Machine._deliver`` does, fuzzed or not.  To the reference it is
    one scheduled call of ``call(a, b, *args)``."""
    if isinstance(sim, RefSim):
        call, a, b, args = entry
        sim.schedule(delay, lambda: call(a, b, *args))
        return
    when = sim.now + delay
    bucket = sim._cal.get(when)
    if bucket is None:
        sim._cal[when] = [entry]
        heapq.heappush(sim._times, when)
    else:
        bucket.append(entry)


def interpret(sim, env, name, script):
    """One task: run ``script`` against ``sim`` (real or reference),
    logging every op with the cycle it executed at."""
    log, futs = env["log"], env["futs"]
    kids, spawned = [], 0

    def arrive(sender, mid, *args):
        log.append(("message", mid, sender, args, sim.now))

    for i, op in enumerate(script):
        log.append((name, i, op[0], sim.now))
        kind = op[0]
        if kind == "delay":
            yield Delay(op[1])
        elif kind == "wait":
            try:
                got = yield futs[op[1]]
            except Boom as err:
                got = f"caught {err}"
            log.append((name, i, "woke", got, sim.now))
        elif kind == "resolve":
            if not futs[op[1]].resolved:
                futs[op[1]].resolve((name, i))
        elif kind == "fail":
            if not futs[op[1]].resolved:
                futs[op[1]].fail(Boom(f"{name}.{i}"))
        elif kind == "spawn":
            kid_name = f"{name}.{spawned}"
            spawned += 1
            kid = sim.spawn(interpret(sim, env, kid_name, op[1]), name=kid_name)
            kids.append(kid)
            env["tasks"].append(kid)
        elif kind == "join":
            if kids:
                got = yield kids.pop(0).done
                log.append((name, i, "joined", got, sim.now))
        elif kind == "call":
            cid = env["calls"] = env["calls"] + 1
            sim.schedule(op[1], lambda cid=cid: log.append(("callable", cid, sim.now)))
        elif kind == "message":
            mid = env["messages"] = env["messages"] + 1
            push_message(sim, op[1], (arrive, name, mid, tuple(range(op[2]))))
        elif kind == "timer":
            tid = env["timers_set"] = env["timers_set"] + 1
            env["timers"][op[2]] = sim.timer(op[1], lambda tid=tid: log.append(("timer", tid, sim.now)))
        elif kind == "cancel":
            if env["timers"][op[1]] is not None:
                env["timers"][op[1]].cancel()  # live, fired or already cancelled
        elif kind == "retire":
            target = env["tasks"][op[1]]
            if target.name != name:  # a running generator cannot be closed
                sim.retire(target, "retired")
        elif kind == "crash":
            raise Boom(f"crash {name}.{i}")
    return (name, "finished")


def execute(make_sim, program):
    """Run ``program`` = (top-level scripts, until-bounds) on a fresh
    simulator; return everything observable."""
    scripts, bounds = program
    sim = make_sim()
    futs = [Future(name=f"f{i}") for i in range(N_FUTURES)]
    env = {
        "log": [], "futs": futs, "calls": 0, "messages": 0, "tasks": [],
        "timers": [None] * N_TIMERS, "timers_set": 0,
    }
    for i, script in enumerate(scripts):
        env["tasks"].append(sim.spawn(interpret(sim, env, f"t{i}", script), name=f"t{i}"))
    segments = []
    try:
        for bound in [*bounds, None]:
            sim.run(until=bound)
            segments.append((sim.now, sim.events))
    except DeadlockError as err:
        segments.append(("deadlock", [(t.name, t.blocked_on.name) for t in err.blocked_tasks]))
    except Boom as err:
        segments.append(("crash", str(err)))
    rerun = None
    if segments[-1][0] == "crash":
        # What the crash left queued — the rest of its cycle included —
        # runs on a second run(), which then re-raises the first crash.
        try:
            sim.run()
        except Boom as err:
            rerun = (str(err), sim.now, sim.events)
    results = []
    for task in env["tasks"]:
        done = task.done
        state = repr(done._exc) if done._exc is not None else done._value if done.resolved else "-"
        results.append((task.name, state))
    return {
        "log": env["log"],
        "segments": segments,
        "rerun": rerun,
        "now": sim.now,
        "events": sim.events,
        "results": results,
        "calls": env["calls"],
        "messages": env["messages"],
    }


def check(program, jitter_seed=None):
    want = execute(lambda: RefSim(jitter_seed), program)
    got = execute(lambda: Simulator(jitter_seed=jitter_seed), program)
    assert got == want
    # every scheduled callable fired exactly once (a crash cuts the run
    # short: then none fired twice, and both sides agree on which did)
    fired = [entry[1] for entry in got["log"] if entry[0] == "callable"]
    assert len(fired) == len(set(fired))
    arrived = [entry[1] for entry in got["log"] if entry[0] == "message"]
    assert len(arrived) == len(set(arrived))
    rang = [entry[1] for entry in got["log"] if entry[0] == "timer"]
    assert len(rang) == len(set(rang))  # a timer fires at most once
    if got["segments"][-1][0] != "crash":
        assert sorted(fired) == list(range(1, got["calls"] + 1))
        assert sorted(arrived) == list(range(1, got["messages"] + 1))
    if jitter_seed is not None:
        assert execute(lambda: Simulator(jitter_seed=jitter_seed), program) == got
    return got


DELAYS = st.sampled_from([0, 0, 0, 1, 2, 3, 7, 511, 512, 900])
FUTS = st.integers(0, N_FUTURES - 1)
LEAF_OPS = st.one_of(
    st.tuples(st.just("delay"), DELAYS),
    st.tuples(st.just("wait"), FUTS),
    st.tuples(st.just("resolve"), FUTS),
    st.tuples(st.just("resolve"), FUTS),
    st.tuples(st.just("fail"), FUTS),
    st.tuples(st.just("call"), st.sampled_from([0, 0, 1, 5])),
    st.tuples(st.just("message"), st.sampled_from([0, 0, 1, 5]), st.integers(0, 2)),
    st.tuples(st.just("timer"), st.sampled_from([1, 1, 2, 5, 600]), st.integers(0, N_TIMERS - 1)),
    st.tuples(st.just("cancel"), st.integers(0, N_TIMERS - 1)),
)
OPS = st.one_of(
    LEAF_OPS,
    LEAF_OPS,
    st.tuples(st.just("spawn"), st.lists(LEAF_OPS, max_size=4)),
    st.tuples(st.just("join")),
    st.tuples(st.just("retire"), st.integers(0, N_TOPS - 1)),
)
SCRIPTS = st.lists(st.lists(OPS, max_size=10), min_size=N_TOPS, max_size=N_TOPS)
BOUNDS = st.lists(st.integers(0, 1500), max_size=3).map(sorted)
CRASH = st.tuples(st.integers(0, N_TOPS - 1), st.integers(0, 10))


def with_crash(scripts, crash):
    """Plant a ``crash`` op (rarely: most programs should run to the end)."""
    if crash is None:
        return scripts
    who, where = crash
    script = scripts[who]
    return [*scripts[:who], [*script[:where], ("crash",), *script[where:]], *scripts[who + 1 :]]


PROGRAMS = st.builds(
    lambda scripts, crash, bounds: (with_crash(scripts, crash), bounds),
    SCRIPTS,
    st.one_of(st.none(), st.none(), st.none(), CRASH),
    BOUNDS,
)

# ------------------------------------------------------------- fixed cases
FIXED = {
    # one task alone: every yield is inlined until the trampoline bound
    "trampoline_bound": ([[("delay", 0)] * 70 + [("delay", 3)] * 70, [], []], []),
    # a heap event due at exactly the resume time goes first: no inlining
    "equal_time_is_not_later": (
        [
            [("delay", 1), ("delay", 0), ("call", 0), ("delay", 2), ("call", 0)],
            [("delay", 1), ("delay", 0), ("call", 0)],
            [("delay", 3), ("call", 0)],
        ],
        [],
    ),
    # ring and heap entries interleave at one cycle
    "ring_heap_same_cycle": (
        [
            [("call", 1), ("delay", 1), ("call", 0), ("delay", 0), ("resolve", 0)],
            [("delay", 1), ("wait", 0), ("call", 0)],
            [("call", 1), ("wait", 0), ("delay", 0)],
        ],
        [],
    ),
    # resolved before the wait, failed after it, and a join on a finished kid
    "future_orders": (
        [
            [("resolve", 0), ("wait", 0), ("wait", 1), ("spawn", [("delay", 2)]), ("delay", 9), ("join",)],
            [("delay", 4), ("fail", 1), ("wait", 1)],
            [("wait", 2)],
        ],
        [],
    ),
    # retire: a blocked task, one with a resume queued, a finished one
    "retire_each_state": (
        [
            [("wait", 3), ("call", 0)],
            [("delay", 5), ("call", 0)],
            [("delay", 1), ("retire", 0), ("retire", 1), ("resolve", 3), ("delay", 9), ("retire", 1)],
        ],
        [],
    ),
    "crash_mid_run": ([[("delay", 2), ("crash",)], [("delay", 1), ("delay", 5)], [("wait", 0)]], []),
    # the crash is the first event of a busy cycle: the rest of it (and
    # what that schedules at the same cycle) runs on the second run()
    "crash_mid_cycle_then_run_again": (
        [
            [("delay", 2), ("crash",)],
            [("delay", 2), ("call", 0), ("delay", 0), ("resolve", 0), ("delay", 3)],
            [("delay", 2), ("wait", 0), ("delay", 1)],
        ],
        [],
    ),
    "deadlock_spawn_order": ([[("wait", 1)], [("delay", 3)], [("spawn", [("wait", 2)]), ("wait", 0)]], []),
    "until_split": (
        [
            [("delay", 3), ("delay", 0), ("call", 5), ("delay", 600)],
            [("delay", 7), ("resolve", 0)],
            [("wait", 0), ("delay", 0), ("delay", 2)],
        ],
        [0, 3, 7, 8, 700],
    ),
    # a live timer ties with a callable and a task resume; cancelled ones sit
    # under the head, at the head of a split, and alone in the tail
    "timers_live_and_dead": (
        [
            [("timer", 2, 0), ("call", 1), ("timer", 1, 1), ("delay", 1), ("cancel", 0), ("delay", 3)],
            [("timer", 5, 2), ("delay", 2), ("call", 0), ("timer", 600, 0), ("delay", 1), ("cancel", 0)],
            [("delay", 4), ("cancel", 2), ("cancel", 1), ("timer", 1, 1)],
        ],
        [2, 4, 300],
    ),
    # messages tie with callables and task resumes at one cycle, before
    # and after a pause, and one arrives alone in the tail
    "messages_interleave": (
        [
            [("message", 0, 2), ("call", 0), ("delay", 0), ("message", 1, 0), ("delay", 1)],
            [("message", 1, 1), ("delay", 1), ("message", 0, 0), ("call", 0)],
            [("delay", 1), ("call", 0), ("message", 5, 2), ("message", 0, 1)],
        ],
        [1],
    ),
    # blocked tasks and nothing but cancelled timers left: still a deadlock
    "deadlock_behind_dead_timer": (
        [[("timer", 600, 0), ("wait", 0)], [("delay", 2), ("cancel", 0)], []],
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(FIXED))
@pytest.mark.parametrize("jitter_seed", [None, 11])
def test_fixed_programs_match_reference(case, jitter_seed):
    check(FIXED[case], jitter_seed)


def test_fixed_programs_reach_what_they_name():
    """The fixed cases must actually end the way their names say."""
    assert check(FIXED["crash_mid_run"])["segments"][-1] == ("crash", "crash t0.1")
    again = check(FIXED["crash_mid_cycle_then_run_again"])
    assert again["segments"] == [("crash", "crash t0.1")]
    assert again["rerun"] == ("crash t0.1", 5, 11)  # ran on to cycle 5, then re-raised
    assert ("t1", 1, "call", 2) in again["log"]  # cycle 2's rest, after the crash
    assert check(FIXED["deadlock_spawn_order"])["segments"][-1] == (
        "deadlock",
        [("t0", "f1"), ("t2", "f0"), ("t2.0", "f2")],
    )
    assert dict(check(FIXED["retire_each_state"])["results"])["t0"] == "retired"
    assert check(FIXED["trampoline_bound"])["events"] == 3 + 140
    timers = check(FIXED["timers_live_and_dead"])
    assert [e[1:] for e in timers["log"] if e[0] == "timer"] == [(2, 1), (5, 5)]
    assert timers["now"] == 5  # not 603: the cancelled tail never moved the clock
    msgs = check(FIXED["messages_interleave"])
    assert [e[1:] for e in msgs["log"] if e[0] == "message"] == [
        (1, "t0", (0, 1), 0), (2, "t1", (0,), 1), (3, "t0", (), 1),
        (4, "t1", (), 1), (6, "t2", (0,), 1), (5, "t2", (0, 1), 6),
    ]
    dead = check(FIXED["deadlock_behind_dead_timer"])
    assert dead["segments"][-1] == ("deadlock", [("t0", "f0")]) and dead["now"] == 2


@settings(max_examples=60, deadline=None)
@given(PROGRAMS)
def test_random_programs_match_reference(program):
    check(program)


@settings(max_examples=30, deadline=None)
@given(PROGRAMS, st.integers(0, 2**16))
def test_random_programs_match_reference_fuzzed(program, jitter_seed):
    check(program, jitter_seed)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(PROGRAMS, st.one_of(st.none(), st.integers(0, 2**16)))
def test_random_programs_match_reference_sweep(program, jitter_seed):
    check(program, jitter_seed)
