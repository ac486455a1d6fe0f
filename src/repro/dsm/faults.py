"""Deterministic fault injection and reliable delivery for the coherence core.

The paper's runtime assumes a perfectly reliable Active-Messages
fabric (CM-5 CMAML), so every protocol in the library silently depends
on exactly-once, in-order delivery.  This module cashes in the
transport layer's promise that "a recording/fault-injecting shim slots
in by providing the same operations":

:class:`FaultPlan`
    A seeded, fully deterministic description of what goes wrong:
    per-category and per-link drop/duplicate/delay rates, node
    crash-stop and stall windows, permanently dead links, and targeted
    one-shot faults.  Same plan + same message stream → same faults,
    always — a chaos failure replays from its plan alone.
:class:`FaultTransport`
    A :class:`~repro.dsm.transport.Transport` wrapping the simulated
    machine (or its traced wire) that applies a fault plan at the
    injection point.  It sets ``reliable = False`` and hands every
    service a :class:`RetryPort`.
:class:`RetryPort`
    The lossy-fabric form of :class:`~repro.dsm.transport.Port`, and
    the one place that knows how a message becomes exactly-once: the
    only user of :class:`RetryKit` (sequence-numbered sends with
    timeout/retry/exponential backoff) and of the ``(src, seq)``
    :class:`ReceiptTable`.  Each receive binder states one message's
    whole contract: what a duplicate does, whether it names a region
    (its handler's first payload parameter is ``rid``) and its crash
    fate (``on_dead``).  With faults off none of it exists and the
    plain port *is* the transport's bound methods.
:class:`LivenessWatchdog` / :class:`StallReport` / :class:`StallError`
    Retry exhaustion converts a silent stall into a structured report:
    blocked tasks with their wait reasons, every in-flight reliable
    call (category, link, region, attempts), and the non-quiescent
    directory state.  :class:`StallError` extends
    :class:`~repro.sim.errors.DeadlockError`, so harnesses that catch
    deadlocks catch stalls too.

Modeling notes
--------------
* **Crash-stop** is modeled at the fabric: from the crash cycle on,
  every message from or to the crashed node is dropped.  The node's
  task keeps running locally (the kernel cannot kill a generator
  mid-yield), but it can no longer be heard — the usual fail-stop
  abstraction for a machine whose network interface died.
* **The control network stays reliable.**  The hardware barrier
  (:class:`~repro.dsm.barrier.BarrierService`) models the CM-5's
  dedicated barrier network, which had its own flow control and sends
  nothing through this fabric; faults apply to the data network only.
* **Replies** carry no explicit source/destination (the future is the
  address), so only category-default fault rates apply to them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from heapq import heappush as _heappush
from inspect import isgeneratorfunction
from random import Random

from repro.dsm.transport import Port, Transport, as_transport
from repro.machine.stats import intern_key
from repro.sim.errors import DeadlockError
from repro.sim.future import _UNSET, Future
from repro.sim.kernel import Delay

_NEVER = float("inf")
_NO_FAULT = (0,)  # shared verdict: one delivery, no extra delay

#: Cap on the in-memory fault log (counters keep exact totals beyond it).
_LOG_CAP = 65536


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFaults:
    """Fault rates for one link/category: probabilities per message."""

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    delay_cycles: int = 1500  # max extra cycles a delayed message waits

    @property
    def any(self) -> bool:
        return bool(self.drop or self.dup or self.delay)


@dataclass(frozen=True)
class OneShot:
    """A targeted fault: fires on the nth message matching the filter.

    ``None`` filter fields match anything; ``action`` is ``"drop"``,
    ``"dup"``, or ``"delay"`` (``delay_cycles`` extra).
    """

    action: str
    category: str | None = None
    src: int | None = None
    dst: int | None = None
    nth: int = 1
    delay_cycles: int = 1000

    def __post_init__(self):
        if self.action not in ("drop", "dup", "delay"):
            raise ValueError(f"unknown one-shot action {self.action!r}")
        if self.nth < 1:
            raise ValueError(f"one-shot nth must be >= 1, got {self.nth}")


@dataclass
class FaultPlan:
    """Everything that will go wrong, decided by ``seed`` alone.

    The plan's RNG is consumed in message-send order; the simulation
    itself is deterministic, so the whole faulted run is a pure
    function of (program, plan).
    """

    seed: int = 0
    default: LinkFaults = field(default_factory=LinkFaults)
    per_category: dict = field(default_factory=dict)  # category -> LinkFaults
    per_link: dict = field(default_factory=dict)  # (src, dst) -> LinkFaults
    crashes: dict = field(default_factory=dict)  # node -> crash-stop cycle
    stalls: dict = field(default_factory=dict)  # node -> (start, end, extra_delay)
    link_down: dict = field(default_factory=dict)  # (src, dst) -> dead-from cycle
    one_shots: list = field(default_factory=list)  # [OneShot, ...]

    @property
    def quiet(self) -> bool:
        """True when nothing here can ever fire: no rate, one-shot, crash,
        stall or dead link anywhere (a ``seed`` alone injects nothing)."""
        rates = (self.default, *self.per_category.values(), *self.per_link.values())
        return not (any(lf.any for lf in rates) or self.crashes or self.stalls
                    or self.link_down or self.one_shots)

    # -- stock plans ----------------------------------------------------
    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A plan that injects nothing (useful as a sweep baseline)."""
        return cls(seed=seed)

    @classmethod
    def canonical(cls, seed: int) -> "FaultPlan":
        """The chaos harness's standard drop/duplicate/reorder mix."""
        return cls(seed=seed, default=LinkFaults(drop=0.02, dup=0.02, delay=0.05))

    @classmethod
    def drop_retry(cls, seed: int, drop: float = 0.05) -> "FaultPlan":
        """Drops only: the smallest plan that exercises every retry path."""
        return cls(seed=seed, default=LinkFaults(drop=drop))

    @classmethod
    def dead_link(cls, src: int, dst: int, at: int = 0, seed: int = 0) -> "FaultPlan":
        """A permanently silent link from cycle ``at`` on (stall test)."""
        return cls(seed=seed, link_down={(src, dst): at})

    @classmethod
    def crash(cls, node: int, at: int, seed: int = 0,
              faults: LinkFaults | None = None) -> "FaultPlan":
        """Crash-stop ``node`` at cycle ``at`` (recovery scenarios).

        ``faults`` optionally layers lossy-link behavior on top, so one
        plan can exercise retry/dedup *and* crash recovery together.
        """
        return cls(seed=seed, default=faults or LinkFaults(), crashes={node: at})

    # -- serialization (run reports) ------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "default": asdict(self.default),
            "per_category": {cat: asdict(lf) for cat, lf in self.per_category.items()},
            "per_link": {f"{s}->{d}": asdict(lf) for (s, d), lf in self.per_link.items()},
            "crashes": {str(n): c for n, c in self.crashes.items()},
            "stalls": {str(n): list(w) for n, w in self.stalls.items()},
            "link_down": {f"{s}->{d}": c for (s, d), c in self.link_down.items()},
            "one_shots": [asdict(s) for s in self.one_shots],
        }

    def describe(self) -> str:
        d = self.default
        bits = [f"seed={self.seed}", f"drop={d.drop}", f"dup={d.dup}", f"delay={d.delay}"]
        for name in ("per_category", "per_link", "crashes", "stalls", "link_down", "one_shots"):
            val = getattr(self, name)
            if val:
                bits.append(f"{name}={len(val)}")
        return "FaultPlan(" + ", ".join(bits) + ")"


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff schedule for reliable calls.

    The timeout doubles per attempt up to ``max_timeout``; after
    ``max_attempts`` unacknowledged sends the watchdog trips and the
    run terminates with a :class:`StallError`.  The defaults give a
    total patience of several hundred thousand cycles — far beyond any
    legitimate wait in the benched apps — so a trip means a genuinely
    dead peer or link, not a slow one.
    """

    timeout: int = 6000
    max_timeout: int = 96000
    max_attempts: int = 12

    def timeout_for(self, attempt: int) -> int:
        t = self.timeout << (attempt - 1)
        return t if t < self.max_timeout else self.max_timeout


# ---------------------------------------------------------------------------
# stall reporting
# ---------------------------------------------------------------------------
@dataclass
class StallReport:
    """Structured picture of a stalled run (what a hang looks like inside).

    ``blocked_tasks`` holds the kernel's :class:`~repro.sim.kernel.Task`
    objects; ``tasks``/``in_flight``/``directory`` are plain dicts, so
    :meth:`to_dict` is plain JSON for a run report.
    """

    now: int
    reason: str
    blocked_tasks: list
    tasks: list  # [{"task": name, "waiting_on": future name}, ...]
    in_flight: list  # [{"category", "src", "dst", "region", "attempts", "deadline", ...}, ...]
    directory: list  # non-quiescent DirEntry dumps
    #: Nodes most likely responsible for the stall: destinations of
    #: repeatedly-retried in-flight calls (the silent ends of the stuck
    #: links), the tripping call's destination — or the failure
    #: detector's declared-dead node — first.
    suspects: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"stall at cycle {self.now}: {self.reason}"]
        if self.suspects:
            lines.append("suspects: " + ", ".join(f"node {n}" for n in self.suspects))
        if self.tasks:
            lines.append(
                "blocked: "
                + "; ".join(f"{t['task']} waiting on {t['waiting_on']}" for t in self.tasks)
            )
        for call in self.in_flight:
            region = "" if call.get("region") is None else f" region {call['region']}"
            due = call.get("deadline")
            lines.append(
                f"in flight: {call['category']} node {call['src']} -> "
                f"home {call['dst']}{region}, {call['attempts']} attempts "
                f"over {call['age']} cycles"
                + ("" if due is None else f", next retry due at cycle {due}")
            )
        for ent in self.directory:
            lines.append(
                f"directory[{ent['prefix']}]: region {ent['rid']} home {ent['home']} "
                f"busy={ent['busy']} owner={ent['owner']} sharers={ent['sharers']} "
                f"queued={ent['queued']} pending={ent['pending']}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "now": self.now,
            "reason": self.reason,
            "suspects": self.suspects,
            "tasks": self.tasks,
            "in_flight": self.in_flight,
            "directory": self.directory,
        }


class StallError(DeadlockError):
    """A reliable call exhausted its retries: the run is stuck.

    Extends :class:`DeadlockError` so existing harnesses that catch
    deadlocks catch stalls; carries the full :class:`StallReport`.
    """

    def __init__(self, report: StallReport):
        super().__init__(report.blocked_tasks)
        self.report = report
        self.args = (report.summary(),)


class LivenessWatchdog:
    """Turns retry exhaustion into a :class:`StallReport`.

    A call in flight names its region when its receiver does (the port
    reads that when it binds the receiver), and services register the
    directories whose busy entries a report dumps through their port's
    ``watch``, so the report can say *which region at which home* is
    stuck rather than just which task.
    """

    def __init__(self, transport: "FaultTransport"):
        self._transport = transport
        self._sim = transport.sim
        self.kit: RetryKit | None = None
        self._directories: list = []

    def watch(self, directory) -> None:
        """Dump ``directory``'s non-quiescent entries in every report."""
        self._directories.append(directory)

    def report(self, reason: str) -> StallReport:
        sim = self._sim
        blocked = sim.blocked_tasks()
        tasks = [
            {"task": t.name, "waiting_on": getattr(t.blocked_on, "name", "") or "<unnamed>"}
            for t in blocked
        ]
        in_flight = []
        suspects: list = []
        if self.kit is not None:
            for pend in sorted(self.kit.pending.values(), key=lambda p: p.seq):
                in_flight.append(self._describe(pend))
                # A destination that has eaten retries without acking is
                # the silent end of a stuck link: a prime suspect.
                if pend.attempts >= 2 and pend.dst not in suspects:
                    suspects.append(pend.dst)
        suspects.sort()
        directory = []
        for d in self._directories:
            directory.extend(d.dump_state())
        return StallReport(
            now=sim.now,
            reason=reason,
            blocked_tasks=blocked,
            tasks=tasks,
            in_flight=in_flight,
            directory=directory,
            suspects=suspects,
        )

    def _describe(self, pend: "_PendingCall") -> dict:
        args = pend.call_args
        return {
            "seq": pend.seq,
            "category": pend.category,
            "src": pend.src,
            "dst": pend.dst,
            "region": args[0] if pend.handler.names_region else None,
            "args": [_short(a) for a in args],
            "attempts": pend.attempts,
            "age": self._sim.now - pend.born,
            "deadline": pend.deadline,  # cycle the next retry is due (None: not sent yet)
        }

    def trip(self, pend: "_PendingCall", dead: int | None = None) -> None:
        """Raise a :class:`StallError` for an exhausted call, or for one
        abandoned at node ``dead``'s death while a live caller waits on it.

        Called from the retry sweeper's event or the recovery sweep, so
        the raise propagates out of :meth:`Simulator.run` — the run
        terminates with a report instead of spinning or hanging.
        """
        desc = self._describe(pend)
        region = "" if desc["region"] is None else f" for region {desc['region']}"
        why = (
            f"unacknowledged after {pend.attempts} attempts" if dead is None
            else f"abandoned: node {dead} died while node {pend.src} waits on it"
        )
        reason = f"{desc['category']}{region} from node {desc['src']} to node {desc['dst']} {why}"
        self.stall(reason, pend.dst)  # the tripping call's destination leads the suspects

    def stall(self, reason: str, suspect: int) -> None:
        """Raise a :class:`StallError` whose report names ``suspect`` first."""
        report = self.report(reason)
        report.suspects = [suspect] + [s for s in report.suspects if s != suspect]
        raise StallError(report)


def _short(value):
    """Plain-JSON rendering of one message argument (a subclass of a
    scalar, such as a numpy float, is rendered by its ``repr``)."""
    if value is None or type(value) in (int, float, str, bool):
        return value
    shape = getattr(value, "shape", None)
    if shape is not None:
        return f"<array{tuple(shape)}>"
    return repr(value)


# ---------------------------------------------------------------------------
# receive-side receipts
# ---------------------------------------------------------------------------
#: Receipt GC: a row may be purged once its seq is below the retry kit's
#: low watermark (no in-flight call could still produce a duplicate of it
#: at the sender) AND it has aged past the longest delay any in-the-wire
#: duplicate could still carry.  Both conditions are required — a
#: watermark alone misses a fault-delayed duplicate of an already-settled
#: call, which must get the recorded answer, not re-execute the handler.
_GC_LAG = 250_000
#: Amortization: scan for purgeable rows every this many admissions.
_GC_EVERY = 1024


class ReceiptTable:
    """Exactly-once admission for one port's reliable messages.

    A message keyed ``(src, seq)`` is admitted once, and its row records
    the answer it was given: a call's reply, a notify's ack, a fan-out
    leg's ack, each as ``(value, payload_words, category)``.  The binders
    of :class:`RetryPort` replay that answer to a duplicate of an
    answered message and drop a duplicate of an unanswered one (the
    original's answer will come).  Only wire deliveries reach it; a
    node's call to itself runs the plain handler.

    A row is stamped at admission and again at its answer, and rows are
    garbage-collected (see ``_GC_LAG``), so the table plateaus instead of
    growing for the whole run.
    """

    __slots__ = ("rows", "open_calls", "_reply", "_sim", "_kit", "_since_gc")

    def __init__(self, transport: "FaultTransport"):
        self.rows: dict = {}  # (src, seq) -> (cycle, answer or None)
        #: admitted, unanswered calls (fut -> (src, seq)), popped at reply
        self.open_calls: dict = {}
        self._reply = transport.reply
        self._sim = transport.sim
        self._kit = transport.kit
        self._since_gc = 0

    def admit(self, key, answer=None):
        """None the first time ``key`` arrives (its row is recorded, with
        ``answer`` if it is known already); else its ``(cycle, answer)``
        row, ``answer`` None while unanswered."""
        rows = self.rows
        row = rows.get(key)
        if row is None:
            rows[key] = (self._sim.now, answer)
            self._since_gc += 1
            if self._since_gc >= _GC_EVERY:
                self._gc()
        return row

    def answer(self, key, answer) -> None:
        self.rows[key] = (self._sim.now, answer)

    def reply(self, fut, value=None, payload_words: int = 0, category: str = "am.reply"):
        """The port's ``reply``: an admitted call's answer is recorded."""
        key = self.open_calls.pop(fut, None)
        if key is not None:
            self.rows[key] = (self._sim.now, (value, payload_words, category))
        self._reply(fut, value, payload_words=payload_words, category=category)

    def _gc(self) -> None:
        self._since_gc = 0
        kit = self._kit
        watermark = min(kit.pending) if kit.pending else kit._seq  # lowest seq still re-sendable
        horizon = self._sim.now - _GC_LAG
        rows = self.rows
        for key in [k for k, (stamp, _) in rows.items() if k[1] < watermark and stamp < horizon]:
            del rows[key]


# ---------------------------------------------------------------------------
# the fault transport
# ---------------------------------------------------------------------------
class FaultTransport(Transport):
    """A transport that injects a :class:`FaultPlan` into the fabric it wraps.

    Every send funnels through :meth:`_send`, which asks the plan for a
    verdict — deliver normally, drop, duplicate, or delay — and hands
    each surviving copy to the wrapped fabric's wire (``inject`` /
    ``inject_reply``), so counters, traces and latency math stay that
    fabric's: on a traced machine every copy is a traced message.  The
    one tracing fact carried here is a send's causal parent, read at the
    logical send, because a post's injection and a delayed copy fire
    from bare scheduled calls.  Replies go through a resolve-once gate,
    since a duplicated or replayed reply must not resolve a future twice.

    The plan is read at construction — a :attr:`FaultPlan.quiet` one can
    never fire, so its verdict is the epoch fence alone — and must not be
    mutated during the run.
    """

    reliable = False
    #: Cluster generation: bumped by the recovery manager at each death
    #: declaration.  Reliable calls are stamped with the epoch they were
    #: issued in (:attr:`_PendingCall.epoch`).
    epoch = 0

    def __init__(
        self,
        fabric,
        plan: FaultPlan,
        retry_policy: RetryPolicy | None = None,
        on_crash: str | None = None,
    ):
        base = as_transport(fabric)
        machine = base.machine
        if machine is None:
            raise TypeError("FaultTransport needs a machine-backed transport to wrap")
        self.base = base
        self.plan = plan
        self.machine = machine
        self.sim = base.sim
        self.stats = base.stats
        self.tracer = base.tracer
        self.nodes = base.nodes
        self.n_procs = base.n_procs
        self.after = base.after
        self._inject = base.inject
        self._inject_reply = base.inject_reply
        self._cause = base.cause
        self._send_overhead = machine.config.am_send_overhead
        self._d_send = Delay(self._send_overhead)
        self._rng = Random(plan.seed)
        self._shot_hits = [0] * len(plan.one_shots)
        self._quiet = plan.quiet
        self._counts = base.stats.counter_ref()
        self._k = {
            v: intern_key("fault", v)
            for v in ("drop", "dup", "delay", "crash", "link_down", "stall")
        }
        self._k_dup_reply = intern_key("fault", "dup_reply_suppressed")
        #: The epoch fence: nodes the recovery manager has declared dead.
        #: Traffic from or to one is discarded at the injection point.
        self.dead: set[int] = set()
        self._k_fenced = intern_key("recovery", "fenced")
        self._obs = base.tracer.tracer("faults") if base.tracer is not None else None
        #: bounded in-memory fault log: (cycle, verdict, category, src, dst)
        self.log: list = []
        self.watchdog = LivenessWatchdog(self)
        self.retry_policy = retry_policy or RetryPolicy()
        self.kit = RetryKit(self, self.retry_policy, self.watchdog)
        if on_crash is not None:
            # Constructed last, over a fully-initialized transport.  Services
            # built on top of this transport find it as ``self.recovery`` and
            # register themselves — with on_crash unset this attribute
            # stays the Transport class default (None) and no recovery
            # code exists anywhere in the run.
            from repro.dsm.recovery import RecoveryManager

            self.recovery = RecoveryManager(self, on_crash)

    def port(self, prefix: str) -> "RetryPort":
        return RetryPort(self, prefix)

    # -- Transport operations (task-context sends are the port's) ---------
    def post(self, src, dst, handler, *args, payload_words: int = 0, category: str = "am.post"):
        self._post(src, dst, handler, args, payload_words, category)

    def _post(self, src, dst, handler, args, payload_words, category) -> None:
        # The injection instant stays an event of its own (the plan reads
        # ``now`` there), pushed the way Machine._deliver pushes an arrival.
        fn = (self._send, src, dst, (handler, args, payload_words, category, self._cause()))
        sim = self.sim
        when = sim.now + self._send_overhead
        bucket = sim._cal.get(when)
        if bucket is None:
            sim._cal[when] = [fn]
            _heappush(sim._times, when)
        else:
            bucket.append(fn)

    def reply(self, fut, value=None, payload_words: int = 0, category: str = "am.reply"):
        self._reply(None, fut, value, payload_words, category)

    def _reply(self, parent, fut, value, payload_words, category) -> None:
        # ``parent`` None: the reply is the child of the dispatch at hand.
        deliveries = _NO_FAULT if self._quiet and not self.dead else self._verdict(None, None, category)
        if deliveries is None:
            return
        resolve_once = self._resolve_once
        for extra in deliveries:  # a delayed copy is held on the wire: one event
            self._inject_reply(resolve_once, fut, value, payload_words, category, extra, parent)

    def _resolve_once(self, fut, value) -> None:
        # Duplicated replies, replayed recorded replies, and late
        # replies to an already-retried call all land here; only the
        # first resolves the future.
        if fut._value is _UNSET and fut._exc is None:
            fut.resolve(value)
        else:
            self._counts[self._k_dup_reply] += 1

    # -- injection point -------------------------------------------------
    def _send(self, src, dst, handler, args, payload_words, category, parent=None) -> None:
        deliveries = _NO_FAULT if self._quiet and not self.dead else self._verdict(src, dst, category)
        if deliveries is None:
            return
        if self.recovery is not None:
            # An accepted message renews its sender's lease (DESIGN.md §15),
            # dated at the send: a delayed copy landing after a crash proves
            # nothing.  The one writer of ``_last_heard`` during a run.
            self.recovery._last_heard[src] = self.sim.now
        inject = self._inject
        for extra in deliveries:
            if extra:
                if parent is None:  # a task-context send: read before the copy waits
                    parent = self._cause()
                self.sim.schedule(extra, (inject, src, dst, (handler, args, payload_words, category, parent)))
            else:
                inject(src, dst, handler, args, payload_words, category, parent)

    def _verdict(self, src, dst, category):
        """Decide this message's fate: ``None`` (drop) or extra-delay list."""
        dead = self.dead
        if dead and (src in dead or dst in dead):
            self._counts[self._k_fenced] += 1
            return None
        if self._quiet:  # nothing in the plan can fire: the fence was the whole verdict
            return _NO_FAULT
        plan = self.plan
        now = self.sim.now
        # Structural faults first (no randomness): crashed endpoints,
        # dead links, stall windows.
        crashes = plan.crashes
        if crashes and (
            crashes.get(src, _NEVER) <= now or crashes.get(dst, _NEVER) <= now
        ):
            self._note("crash", category, src, dst)
            return None
        if plan.link_down:
            down_at = plan.link_down.get((src, dst))
            if down_at is not None and now >= down_at:
                self._note("link_down", category, src, dst)
                return None
        base_extra = 0
        if plan.stalls:
            for nid in (src, dst):
                win = plan.stalls.get(nid)
                if win is not None and win[0] <= now < win[1]:
                    base_extra += win[2]
            if base_extra:
                self._note("stall", category, src, dst)
        # Targeted one-shots.
        for i, shot in enumerate(plan.one_shots):
            if (
                (shot.category is None or shot.category == category)
                and (shot.src is None or shot.src == src)
                and (shot.dst is None or shot.dst == dst)
            ):
                self._shot_hits[i] += 1
                if self._shot_hits[i] == shot.nth:
                    self._note(shot.action, category, src, dst)
                    if shot.action == "drop":
                        return None
                    if shot.action == "dup":
                        return (base_extra, base_extra + shot.delay_cycles)
                    return (base_extra + shot.delay_cycles,)
        # Seeded rates.
        lf = None
        if plan.per_link:
            lf = plan.per_link.get((src, dst))
        if lf is None and plan.per_category:
            lf = plan.per_category.get(category)
        if lf is None:
            lf = plan.default
        if lf.any:
            rng = self._rng
            if lf.drop and rng.random() < lf.drop:
                self._note("drop", category, src, dst)
                return None
            extra = base_extra
            if lf.delay and rng.random() < lf.delay:
                extra += 1 + rng.randrange(lf.delay_cycles)
                self._note("delay", category, src, dst)
            if lf.dup and rng.random() < lf.dup:
                self._note("dup", category, src, dst)
                return (extra, base_extra + 1 + rng.randrange(lf.delay_cycles))
            if extra:
                return (extra,)
            return _NO_FAULT
        if base_extra:
            return (base_extra,)
        return _NO_FAULT

    def _note(self, verdict, category, src, dst) -> None:
        key = self._k[verdict]  # "fault.<verdict>": the stat key is the event kind
        self._counts[key] += 1
        if len(self.log) < _LOG_CAP:
            self.log.append((self.sim.now, verdict, category, src, dst))
        if self._obs is not None:
            self._obs.emit(
                self.sim.now, key, src if isinstance(src, int) else -1, -1, category, src, dst
            )

    # -- introspection ---------------------------------------------------
    def fault_counts(self) -> dict:
        """Fault counters (drop/dup/delay/... -> count) for reports."""
        counts = self.stats.counter_ref()
        out = {v: counts[k] for v, k in self._k.items() if counts[k]}
        if counts[self._k_dup_reply]:
            out["dup_reply_suppressed"] = counts[self._k_dup_reply]
        return out


# ---------------------------------------------------------------------------
# reliable delivery
# ---------------------------------------------------------------------------
class _PendingCall:
    __slots__ = (
        "seq",
        "fut",
        "src",
        "dst",
        "handler",
        "args",
        "call_args",
        "payload_words",
        "category",
        "attempts",
        "born",
        "epoch",
        "deadline",
    )

    def __init__(self, seq, fut, src, dst, handler, args, call_args, payload_words, category, born, epoch):
        self.seq = seq
        self.fut = fut
        self.src = src
        self.dst = dst
        self.handler = handler
        self.args = args  # full resend tuple: (fut, *call_args, seq)
        self.call_args = call_args
        self.payload_words = payload_words
        self.category = category
        self.attempts = 0
        self.born = born
        self.epoch = epoch  # cluster generation the call was issued in
        self.deadline = None  # the one live arming: cycle the next retry is due, if any


class RetryKit:
    """Sequence-numbered reliable calls over an unreliable transport.

    ``kit.rpc`` matches ``transport.rpc``'s signature (it is a
    :class:`RetryPort`'s ``call``/``send``); what arrives is the usual
    ``(node, src, fut, *args)`` plus a trailing ``seq``, which the
    port's receive shims strip before the handler runs.  ``kit.post``
    is the ack'd one-way send for handler context: it retries until the
    receiver's reply resolves the future it returns.

    Retries re-send the *same* future object — messages carry Python
    object references, so the original and every retransmission race to
    resolve one cell and the transport's resolve-once gate picks the
    winner.  One shared sequence counter gives every logical call a
    globally unique ``seq``; receivers dedup on ``(src, seq)``.

    **One retry clock** (DESIGN.md §9).  Arming a call stamps
    ``pend.deadline`` — its one live arming — and queues ``(deadline,
    pend)`` on the FIFO of its timeout, whose deadlines are therefore in
    order.  One kernel timer, the sweeper, waits for the earliest head,
    checks the due entries whose deadline is still their call's, and is
    called off when :attr:`pending` empties.
    """

    def __init__(self, transport: FaultTransport, policy: RetryPolicy, watchdog: LivenessWatchdog):
        self._transport = transport
        self._sim = transport.sim
        self._policy = policy
        self._watchdog = watchdog
        watchdog.kit = self
        self._seq = 0
        self.pending: dict[int, _PendingCall] = {}
        self._counts = transport.stats.counter_ref()
        self._k_retry = intern_key("rel", "retry")
        self._k_calls = intern_key("rel", "calls")
        self._obs = transport._obs
        self._d_send = transport._d_send
        # One FIFO per distinct timeout, longest first: of two entries due
        # at one cycle, the one armed earlier is checked first.
        timeouts = [policy.timeout_for(max(a, 1)) for a in range(policy.max_attempts + 1)]
        fifos = {t: deque() for t in sorted(set(timeouts), reverse=True)}
        self._fifos = list(fifos.values())
        self._levels = [(t, fifos[t]) for t in timeouts]  # by attempt number
        self._sweeper = None  # the kernel Timer, live while _sweep_at is a cycle
        self._sweep_at = _NEVER

    def _track(self, fut, src, dst, handler, call_args, payload_words, category) -> _PendingCall:
        seq = self._seq
        self._seq = seq + 1
        pend = _PendingCall(
            seq,
            fut,
            src,
            dst,
            handler,
            (fut, *call_args, seq),
            call_args,
            payload_words,
            category,
            self._sim.now,
            self._transport.epoch,
        )
        self.pending[seq] = pend
        self._counts[self._k_calls] += 1
        return pend

    def rpc(self, src, dst, handler, *args, payload_words: int = 0, category: str = "rel.rpc", lead: int = 0):
        """Generator: reliable request/reply round trip (drop-in for rpc)."""
        if lead:  # never folded here: the plan reads ``now`` at the injection instant
            yield Delay(lead)
        fut = Future(name="rel:" + category)
        pend = self._track(fut, src, dst, handler, args, payload_words, category)
        yield self._d_send
        pend.attempts = 1
        # pend.dst, not dst: a death declared inside the send charge re-homed the call
        self._transport._send(src, pend.dst, handler, pend.args, payload_words, category)
        self._arm(pend)
        value = yield fut
        self.settle(pend)
        return value

    def post(
        self,
        src,
        dst,
        handler,
        *args,
        payload_words: int = 0,
        category: str = "rel.post",
    ) -> Future:
        """Ack'd one-way send from handler context; returns the ack future."""
        fut = Future(name="rel:" + category)
        pend = self._track(fut, src, dst, handler, args, payload_words, category)
        fut.add_callback(partial(self.settle, pend))
        pend.attempts = 1
        self.transmit(pend)
        return fut

    def transmit(self, pend: _PendingCall) -> None:
        """(Re)send from handler context — the first attempt pays the
        sender overhead like ``transport.post`` — and (re)arm the timeout."""
        self._transport._post(
            pend.src, pend.dst, pend.handler, pend.args, pend.payload_words, pend.category
        )
        self._arm(pend)

    def _arm(self, pend: _PendingCall) -> None:
        timeout, fifo = self._levels[pend.attempts]
        pend.deadline = deadline = self._sim.now + timeout  # orphans any older entry
        fifo.append((deadline, pend))
        if deadline < self._sweep_at:
            self._wake(deadline)

    def _wake(self, deadline: int) -> None:
        if self._sweep_at != _NEVER:
            self._sweeper.cancel()
        self._sweep_at = deadline
        self._sweeper = self._sim.timer(deadline - self._sim.now, self._sweep)

    def settle(self, pend: _PendingCall, _fut=None) -> None:
        """The call is answered or given up (also its ack future's
        callback): out of the table, timeout off."""
        self.pending.pop(pend.seq, None)
        pend.deadline = None
        if not self.pending and self._sweep_at != _NEVER:
            # Every queued entry is stale now, and a live sweeper would
            # hold the clock past the run's last real event.
            self._sweeper.cancel()
            self._sweep_at = _NEVER
            for fifo in self._fifos:
                fifo.clear()

    def awaited(self, pend: _PendingCall) -> bool:
        """Whether anything but :meth:`settle` waits for the call's answer
        (a task blocked on it, a fan-out's collector)."""
        settle = self.settle
        return any(
            not (type(fn) is partial and fn.func == settle) for fn in pend.fut._callbacks or ()
        )

    def _sweep(self) -> None:
        now = self._sweep_at = self._sim.now  # a retransmit below must not re-wake
        for fifo in self._fifos:
            while fifo and (fifo[0][0] <= now or fifo[0][1].deadline != fifo[0][0]):
                deadline, pend = fifo.popleft()
                if pend.deadline == deadline:  # else settled or re-armed since: stale
                    self._check(pend)
        self._sweep_at = _NEVER  # fired: nothing to call off
        heads = [fifo[0][0] for fifo in self._fifos if fifo]  # live and later than now
        if heads:
            self._wake(min(heads))

    def _check(self, pend: _PendingCall) -> None:
        # Reached only for a call still unanswered at its own deadline.
        if pend.attempts >= self._policy.max_attempts:
            self._watchdog.trip(pend)
            return  # pragma: no cover - trip always raises
        pend.attempts += 1
        self._counts[self._k_retry] += 1
        if self._obs is not None:
            self._obs.emit(
                self._sim.now, "rel.retry", pend.src, -1,
                pend.category, pend.dst, pend.attempts,
            )
        self.transmit(pend)


# ---------------------------------------------------------------------------
# the reliability seam: what services talk to
# ---------------------------------------------------------------------------
class RetryPort(Port):
    """The port of an at-least-once fabric (``FaultTransport.port``).

    ``call``/``send`` are :meth:`RetryKit.rpc` (a task-context notify
    blocks until acknowledged — a lost lock release or barrier notify
    would wedge its receiver), ``post`` and each leg of ``fan_out`` are
    :meth:`RetryKit.post` (the reply to the retried post is the ack),
    ``reply`` records what it sends.  Each receive binder admits through
    the port's one :class:`ReceiptTable` and returns a shim that strips
    the trailing wire ``seq``.  The shim carries the message's contract
    for the layers that sweep or report on calls in flight: ``on_dead``,
    its crash fate; ``names_region``, whether the handler's first payload
    parameter is ``rid``; and the handler's ``__self__``, the owner they
    resolve.  The machine counts it as ``handler.<name>_r`` — except under
    a ``proto.*`` prefix, where it keeps the handler's own name.  An
    ``answers`` shim is ``<name>_r`` wherever the exactly-once ack is a
    message (so the two exchanges count apart), and ``<name>_rt`` for a
    core service once crash recovery is armed.  All of these spellings
    are stat keys that reports and the lossy golden traces already use.
    """

    lossy = True

    def __init__(self, transport: FaultTransport, prefix: str):
        kit = transport.kit
        self.call = self.send = kit.rpc
        self.post = kit.post
        receipts = self._receipts = ReceiptTable(transport)
        self.reply = receipts.reply
        #: admitted, not-yet-answered wire calls (fut -> (src, seq)): how a
        #: home tells a request that crossed the fabric from a local one
        self.open_calls = receipts.open_calls
        self._counts = transport.stats.counter_ref()
        self._k_dup = intern_key(prefix, "dup_request")
        self._k_replay = intern_key(prefix, "replayed_reply")
        self._ack = transport.reply
        self._after = transport.after
        self._reply_from = transport._reply
        self._cause = transport._cause
        self._suffix = "" if prefix.startswith("proto.") else "_r"
        self._recovering = transport.recovery is not None
        self.watch = transport.watchdog.watch  # stall-report metadata

    def _shim(self, shim, handler, lead: int, on_dead, suffix=None):
        if isgeneratorfunction(handler):  # the shim would drop the generator it returns
            raise TypeError(f"{handler.__qualname__}: a RetryPort receiver may not block")
        code = handler.__code__  # after self and the ``lead`` wire arguments:
        shim.names_region = code.co_argcount > lead + 1 and code.co_varnames[lead + 1] == "rid"
        if not (callable(on_dead) or on_dead in ("abandon", "answer")
                or on_dead == "retarget" and shim.names_region):
            raise ValueError(f"{handler.__qualname__}: no crash fate {on_dead!r} "
                             "(retarget needs a handler whose first payload is rid)")
        shim.on_dead = on_dead
        shim.__name__ = handler.__name__ + (self._suffix if suffix is None else suffix)
        shim.__self__ = handler.__self__
        return shim

    def serves(self, handler, on_dead="abandon"):
        admit, open_calls, replay = self._receipts.admit, self.open_calls, self._ack
        counts, k_dup, k_replay = self._counts, self._k_dup, self._k_replay

        def shim(node, src, fut, *args):
            key = (src, args[-1])
            row = admit(key)
            if row is None:
                open_calls[fut] = key
                handler(node, src, fut, *args[:-1])
            elif row[1] is None:  # still being served: its reply will come
                counts[k_dup] += 1
            else:
                counts[k_replay] += 1
                replay(fut, *row[1])

        return self._shim(shim, handler, 3, on_dead)

    def idempotent(self, handler, on_dead="abandon"):
        return self._shim(lambda node, src, *args: handler(node, src, *args[:-1]), handler, 3, on_dead)

    def hears(self, handler, ack_category: str, on_dead="abandon"):
        admit, ack = self._receipts.admit, self._ack
        heard = (None, 1, ack_category)  # the answer, known at admission

        def shim(node, src, fut, *args):
            # Re-running could undo later state (release a re-granted
            # lock, clear a newer busy window); a duplicate's original
            # ack may be what was lost, so the recorded ack is replayed.
            if admit((src, args[-1]), heard) is None:
                handler(node, src, *args[:-1])
            ack(fut, *heard)

        return self._shim(shim, handler, 2, on_dead)

    def fan_out(self, src, targets, handler, *args, acks=None, payload_words=0, category="rel.post"):
        post = self.post
        for target in targets:
            fut = post(src, target, handler, *args, payload_words=payload_words, category=category)
            if acks is not None:
                acks.waiting.append(target)
                fut.add_callback(partial(acks.heard, target))

    def answers(self, handler, ack_category: str, ack_name: str | None = None, on_dead="abandon"):
        admit, record = self._receipts.admit, self._receipts.answer
        reply, after = self._ack, self._after
        reply_from, cause = self._reply_from, self._cause

        def ack(key, fut, value=None, payload_words=1, delay=0):
            answer = (value, payload_words, ack_category)
            record(key, answer)
            if delay:  # the ack is sent now, in this context, and leaves later
                after(delay, (reply_from, cause(), fut, answer))
            else:
                reply(fut, value, payload_words=payload_words, category=ack_category)

        def shim(node, src, fut, *args):
            key = (src, args[-1])
            row = admit(key)
            if row is None:
                handler(node, src, partial(ack, key, fut), *args[:-1])
            elif row[1] is not None:
                reply(fut, *row[1])
            # else unapplied or deferred: the original will answer

        suffix = "" if ack_name is None else "_rt" if self._suffix and self._recovering else "_r"
        return self._shim(shim, handler, 3, on_dead, suffix)
