"""Structured, causal tracing of simulated events.

Counters (:mod:`repro.machine.stats`) answer *how many*; this module
answers *which, when, and because of what*.  A :class:`TraceBuffer` is
a bounded ring of event records — task lifecycle, message
send/receive, RPC round trips, region state transitions, lock and
barrier epochs, application phases — each stamped with the simulated
cycle, the node it happened on, and a **causal parent id** linking
effects to the event that produced them (a receive points at its send,
an RPC return at its call).  Exporters (:mod:`repro.obs.export`) turn
the ring into JSONL or a Chrome/Perfetto ``trace_event`` file.

Storage model
-------------
The ring is one flat deque of scalars, nine consecutive slots per
event::

    ts, layer, shape, node, parent, a, b, c, d

where ``a..d`` are the event's payload values, positional against the
field names :data:`FIELDS` declares for ``shape``, and the event id is
implicit in the record's position.  No per-event object exists: the
slots hold ints, strings and ``None`` (a payload list travels as a
tuple of ints), none of which the cyclic collector tracks, so a full
ring costs the collector nothing.  :meth:`TraceBuffer.events`
materialises :class:`TraceEvent` objects, dict payloads included, when
the ring is *read*.  DESIGN.md §7 has the reasoning and the numbers.

Zero cost when off
------------------
Tracing follows the same construction-time-resolution discipline as
:func:`~repro.machine.stats.intern_key`: every layer decides **once,
at engine/kernel construction**, whether it is traced.  Hot paths hold
a pre-bound :class:`Tracer` handle (or ``None``) in a slot, so the
disabled path costs a single local load and branch — no string
formatting, no dict probe, no call.  The hottest site, the message
fabric, goes further: a traced machine is wrapped once in a
:class:`~repro.obs.wire.TracedTransport`, and an untraced one is its
own transport, so with tracing off no message path so much as tests
for a tracer.
``repro bench --baseline`` and the golden-trace tests enforce that
simulated cycles are bit-identical with tracing off *and* on — the
trace is pure observation and never perturbs scheduling.

Latency metrics ride on the same buffer: :meth:`TraceBuffer.hist`
returns power-of-two-bucketed :class:`Histogram` objects that the
machine (RPC round trips) and lock service (hold times) feed while
traced.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.machine.stats import Counts
from repro.obs.metrics import TRACKED_KINDS

#: ring slots per event: ts, layer, shape, node, parent + four payload values
_WIDTH = 9

_FAULT = ("category", "src", "dst")

#: The payload schema: event shape -> the names of its payload fields,
#: in emit-argument order.  A shape is the event kind, plus a
#: ``/variant`` suffix where one kind is emitted with two layouts (an
#: RPC reply has no ``dst``; its receive names a future, not a
#: handler).  A tuple of names materialises as a dict payload; a bare
#: string says the single payload value *is* the payload (the kernel's
#: task names).  An event whose shape is not declared here is refused
#: at its emit site.
FIELDS: dict[str, tuple | str] = {
    # kernel
    "task.spawn": "task",
    "task.step": "task",
    "task.block": ("task", "on"),
    "task.finish": "task",
    "task.crash": "task: error",
    "task.retire": "task",
    # machine
    "msg.send": ("dst", "category", "words"),
    "msg.send/reply": ("category", "words"),
    "msg.recv": ("src", "handler"),
    "msg.recv/reply": ("category", "future"),
    "rpc.call": ("dst", "category"),
    "rpc.return": ("category", "lat"),
    # dsm
    "barrier.arrive": ("epoch",),  # hw and dissemination alike
    "barrier.release": ("epoch",),
    "region.state": ("rid", "state"),
    "dsm.miss": ("rid", "op"),
    "lock.request": ("rid",),
    "lock.grant": ("rid",),
    "lock.release": ("rid", "held"),
    "lock.broken": ("rid",),
    "rel.retry": ("category", "dst", "attempt"),
    "fault.drop": _FAULT,
    "fault.dup": _FAULT,
    "fault.delay": _FAULT,
    "fault.crash": _FAULT,
    "fault.link_down": _FAULT,
    "fault.stall": _FAULT,
    "recovery.suspect": ("silent_for",),
    "recovery.dead": ("epoch", "crash_at"),
    "recovery.epoch": ("epoch", "live"),
    "recovery.rehome": ("rid", "from"),
    "recovery.complete": ("epoch", "rehomed"),
    # runtime, sanitizer, facade
    "space.new": ("sid", "protocol"),
    "space.protocol": ("sid", "protocol"),
    "region.alloc": ("rid", "sid", "size", "proto"),
    "sanitize.race": ("kind", "rid", "nodes"),
    "sanitize.violation": ("kind", "rid"),
    "phase.begin": "phase",
    "phase.end": "phase",
}


class _Shapes(dict):
    """shape -> (kind, fields); a miss is an undeclared event."""

    def __missing__(self, shape):
        raise ValueError(
            f"undeclared trace event {shape!r}: declare its payload fields in repro.obs.trace.FIELDS"
        )


_SHAPES = _Shapes((shape, (shape.partition("/")[0], fields)) for shape, fields in FIELDS.items())


def _payload(fields, values):
    """The payload a record's values stand for (see :data:`FIELDS`)."""
    if fields.__class__ is str:
        return values[0]
    return {f: list(v) if v.__class__ is tuple else v for f, v in zip(fields, values)}


class TraceEvent(NamedTuple):
    """One simulated event, as :meth:`TraceBuffer.events` returns it.

    ``parent`` is the id of the event that caused this one (``-1`` for
    roots): a ``msg.recv`` parents to its ``msg.send``, a ``msg.send``
    issued inside an RPC parents to the ``rpc.call``, an ``rpc.return``
    parents to its ``rpc.call``.  ``node`` is ``-1`` when the event is
    not tied to one node (kernel bookkeeping, global barrier release).
    ``data`` is a small dict or a string, as :data:`FIELDS` declares.
    """

    eid: int
    ts: int
    layer: str
    kind: str
    node: int
    parent: int
    data: object


class Histogram:
    """Power-of-two bucketed histogram of non-negative integers.

    Buckets are ``value.bit_length()`` (bucket *b* spans
    ``[2^(b-1), 2^b - 1]``; bucket 0 holds exact zeros), so a cycle
    latency needs one integer op to classify and percentiles come back
    as bucket upper bounds — approximate, but monotone and stable,
    which is what regression-hunting needs.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max = 0
        self.buckets = Counts()

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[value.bit_length()] += 1

    @classmethod
    def of(cls, values: list) -> "Histogram":
        """The histogram of ``values``, built in one pass: equal, buckets'
        order included, to :meth:`add`-ing them one by one."""
        h = cls()
        if values:
            h.count, h.total, h.min, h.max = len(values), sum(values), min(values), max(values)
            buckets = h.buckets
            for value in values:
                buckets[value.bit_length()] += 1
        return h

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns ``self``.

        Bucket counts add, so every percentile of the merged histogram
        equals the percentile of a single histogram fed both streams —
        exactly, because :meth:`add` classifies by value alone.  Used
        by :func:`repro.obs.export.run_summary` to aggregate per-node
        RPC latency histograms cluster-wide.
        """
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for b, n in other.buckets.items():  # add, never dict.update's replace
            buckets[b] += n
        return self

    def copy(self) -> "Histogram":
        """An independent duplicate (merge target that leaves the source intact)."""
        h = Histogram()
        h.count = self.count
        h.total = self.total
        h.min = self.min
        h.max = self.max
        h.buckets = Counts(self.buckets)
        return h

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the ``p``-quantile,
        clamped to the observed maximum."""
        if self.count == 0:
            return 0
        need = p * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= need:
                return min((1 << b) - 1, self.max) if b else 0
        return self.max  # pragma: no cover - need <= count always lands above

    def summary(self) -> dict:
        """JSON-friendly digest (mean exact; percentiles bucketed)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": round(self.total / self.count, 1) if self.count else 0,
            "min": self.min or 0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, total={self.total})"


class Tracer:
    """A per-layer emit handle bound to one :class:`TraceBuffer`.

    Layers hold exactly one of these (or ``None``) and call ``emit``;
    the layer name is curried in so hot traced paths pass only what
    varies per event::

        eid = obs.emit(ts, shape, node, parent, *payload_values)

    ``node`` and ``parent`` default to ``-1``; the payload values (at
    most four) are positional, in the order :data:`FIELDS` declares
    for ``shape``.  Returns the event's id, for use as a later parent.
    ``emit`` is the closure :meth:`TraceBuffer.tracer` built — calling
    it runs exactly one Python frame.
    """

    __slots__ = ("layer", "emit")

    def __init__(self, layer: str, emit):
        self.layer = layer
        self.emit = emit


class TraceBuffer:
    """Bounded ring of trace events plus named latency histograms.

    The ring keeps the most recent ``capacity`` events; ``dropped``
    counts evictions so exporters can say "first N events lost" instead
    of silently truncating.  Event ids keep increasing across drops —
    causal parents of surviving events may therefore reference evicted
    ids, which exporters treat as unknown roots.
    """

    def __init__(self, capacity: int = 1 << 16, metrics=None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        # At the bound, extending by one record evicts exactly the oldest.
        ring = self._ring = deque(maxlen=capacity * _WIDTH)
        self._cleared_at = 0  # events emitted before the last clear()
        self.hists: dict[str, Histogram] = {}
        # Optional windowed-metrics sink (repro.obs.metrics.MetricsWindow).
        # Fed inline at emit time, so it sees every event even after the
        # ring has evicted it — a tiny ring plus metrics is the cheap
        # "leave it on" configuration.
        self.metrics = metrics
        # Current dispatch context: the event id heading the kernel
        # dispatch executing right now (a task.step or a msg.recv) and
        # its timestamp.  The kernel and machine publish it; traced
        # sends read it as their causal parent.  ctx_ts guards against
        # staleness — a context is only valid at its own cycle.
        self.ctx_eid = -1
        self.ctx_ts = -1

        # The emit closures.  Every layer's closure shares the one
        # ``emitted`` cell, which is also the next event id: ids are
        # positions in the emitted stream, so a record need not carry
        # its own, and ``dropped`` falls out of the same count.  The
        # metered body is chosen here, once, so an unmetered buffer
        # never tests for a window.
        emitted = 0
        extend = ring.extend
        shapes = _SHAPES

        def unmetered(layer):
            def emit(ts, shape, node=-1, parent=-1, a=None, b=None, c=None, d=None):
                nonlocal emitted
                shapes[shape]  # refuse an undeclared event here, at its emit site
                eid = emitted
                emitted = eid + 1
                extend((ts, layer, shape, node, parent, a, b, c, d))
                return eid

            return emit

        def metered(layer):
            observe = metrics.observe

            def emit(ts, shape, node=-1, parent=-1, a=None, b=None, c=None, d=None):
                nonlocal emitted
                kind, fields = shapes[shape]
                eid = emitted
                emitted = eid + 1
                extend((ts, layer, shape, node, parent, a, b, c, d))
                if kind in TRACKED_KINDS:
                    observe(ts, kind, _payload(fields, (a, b, c, d)))
                return eid

            return emit

        self._bind = unmetered if metrics is None else metered
        self._emitted = lambda: emitted

    # -- recording ------------------------------------------------------
    def tracer(self, layer: str) -> Tracer:
        """A per-layer emit handle (build once, at layer construction)."""
        return Tracer(layer, self._bind(layer))

    def hist(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = Histogram()
        return h

    # -- reading --------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events the ring has evicted since construction or ``clear()``."""
        return self._emitted() - self._cleared_at - len(self)

    def events(self) -> list[TraceEvent]:
        """The surviving events, oldest first, materialised from the ring."""
        out = []
        eid = self._emitted() - len(self)
        for ts, layer, shape, node, parent, *values in zip(*[iter(self._ring)] * _WIDTH):
            kind, fields = _SHAPES[shape]
            out.append(TraceEvent(eid, ts, layer, kind, node, parent, _payload(fields, values)))
            eid += 1
        return out

    def __len__(self) -> int:
        return len(self._ring) // _WIDTH

    def clear(self) -> None:
        """Drop all events and histograms (ids keep increasing)."""
        self._ring.clear()
        self._cleared_at = self._emitted()
        self.hists.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceBuffer({len(self)}/{self.capacity} events, "
            f"{self.dropped} dropped, {len(self.hists)} hists)"
        )
