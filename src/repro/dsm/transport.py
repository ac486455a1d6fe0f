"""The transport layer: what the coherence core needs from a fabric.

The directory protocol above this layer is pure policy — it decides
*what* messages to send and *when*, but performs every send, RPC,
reply, and deferred callback through the narrow interface defined
here.  Today's only implementation wraps the simulated active-message
:class:`~repro.machine.machine.Machine`; a real-parallel backend (or a
recording/fault-injecting shim) slots in by providing the same eight
operations.

Zero-cost boundary
------------------
:class:`SimTransport` binds the machine's methods directly as instance
attributes: ``transport.rpc`` *is* ``machine.rpc`` (the traced variant
when observability is on, since the machine swaps those in during its
own construction).  A call through the transport therefore executes
the identical code object, with the identical ``(delay, seq)`` draws,
as a call on the machine — the layer boundary costs no simulated
cycles and no host-side indirection.  DESIGN.md §8 documents this
invariant; the golden-trace pins enforce it.
"""

from __future__ import annotations

from typing import Callable

from repro.machine import Machine


class Transport:
    """Abstract message fabric joining ``n_procs`` nodes.

    Implementations provide:

    ``request(src, dst, handler, *args, payload_words=, category=)``
        Generator: one-way send from *task* context (charges the
        caller's send overhead, then returns once injected).
    ``post(src, dst, handler, *args, payload_words=, category=)``
        One-way send from *handler* context (no task to charge).
    ``rpc(src, dst, handler, *args, payload_words=, category=)``
        Generator: request/reply round trip; the handler receives a
        ``Future`` first and must eventually :meth:`reply` to it.
    ``reply(fut, value=None, payload_words=, category=)``
        Resolve an RPC future after the reply latency.
    ``after(delay, fn)``
        Run ``fn()`` after ``delay`` simulated cycles (handler-side
        deferred work, e.g. invalidation-handler cost).
    ``defer_post(delay, src, dst, handler, *args, ...)``
        ``after(delay)`` followed by ``post`` as one operation, so a
        traced fabric can keep the causal chain across the deferral.
    ``hw_barrier(nid)``
        Generator: global rendezvous over all nodes.

    plus the attributes ``nodes``, ``n_procs``, ``sim``, ``stats``,
    ``tracer``, and ``machine`` (the underlying machine, or ``None``
    for fabrics not backed by one).

    ``reliable`` declares the delivery contract: ``True`` promises
    exactly-once delivery, as the CM-5's CMAML does.  Services do not
    branch on it — they take a :meth:`port` at construction, and the
    port implements the contract for its fabric (DESIGN.md §9).
    """

    machine: object | None = None
    reliable: bool = True
    #: Crash-recovery manager (:class:`repro.dsm.recovery.RecoveryManager`),
    #: set only by a :class:`~repro.dsm.faults.FaultTransport` built with
    #: ``on_crash=``; layers that can take part register at construction.
    recovery = None

    def port(self, prefix: str) -> "Port":
        """The send/receive seam one service (stats ``prefix``) talks through."""
        return Port(self)

    def request(self, src: int, dst: int, handler: Callable, *args, **kw):
        raise NotImplementedError

    def post(self, src: int, dst: int, handler: Callable, *args, **kw) -> None:
        raise NotImplementedError

    def rpc(self, src: int, dst: int, handler: Callable, *args, **kw):
        raise NotImplementedError

    def reply(self, fut, value=None, **kw) -> None:
        raise NotImplementedError

    def after(self, delay: int, fn: Callable) -> None:
        raise NotImplementedError

    def defer_post(self, delay: int, src: int, dst: int, handler: Callable, *args, **kw) -> None:
        # Generic composition; machine-backed fabrics bind the
        # machine's own (possibly traced) implementation instead.
        self.after(delay, lambda: self.post(src, dst, handler, *args, **kw))

    def hw_barrier(self, nid: int):
        raise NotImplementedError


class Port:
    """How one service sends and receives, whatever the fabric loses.

    Two idioms cover every exchange in the core (DESIGN.md §9):

    *call* — ``yield from port.call(src, dst, h, *args)`` is a round
    trip; the receiver is bound as ``h = port.serves(handler)`` and
    answers with ``port.reply(fut, value)``.
    *notify* — one-way, ``yield from port.send(...)`` from task context
    or ``port.post(...)`` from handler context; the receiver is bound
    as ``h = port.hears(handler, ack_category)``.

    On an exactly-once fabric (this class, from ``Transport.port``) each
    attribute *is* the transport's own bound method and the receive
    binders return their argument, so the same code objects run with
    the same ``(delay, seq)`` draws as if the seam were not there.  A
    lossy fabric's :class:`~repro.dsm.faults.RetryPort` keeps this
    surface and supplies the retries and the receive-side dedup.
    Handlers never see the wire's sequence number, and a node's request
    to itself binds the plain handler — it never crosses the wire.

    The rule for receivers: one that is safe to re-execute (a pure read,
    a set-add) is bound with ``idempotent`` — a duplicate re-replies and
    the sender's resolve-once gate keeps the first.  Anything else is
    ``serves`` (a duplicate gets the recorded reply, the handler does
    not run again) or ``hears`` (a duplicate is only re-acknowledged).
    ``first`` and ``watch`` exist for the acked fan-outs and the stall
    report; here they do nothing.
    """

    def __init__(self, transport: Transport):
        self.call = transport.rpc
        self.reply = transport.reply
        self.send = transport.request
        self.post = transport.post

    @staticmethod
    def serves(handler):
        return handler

    idempotent = serves

    @staticmethod
    def hears(handler, ack_category: str):
        return handler

    @staticmethod
    def first(src: int, seq) -> bool:
        return True

    @staticmethod
    def watch(rid_categories, directory=None) -> None:
        pass


class SimTransport(Transport):
    """The simulated active-message machine, behind the fabric interface.

    Every operation is the machine's own bound method — see the module
    docstring for why this boundary is free.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.sim = machine.sim
        self.stats = machine.stats
        self.tracer = machine.tracer
        self.nodes = machine.nodes
        self.n_procs = machine.n_procs
        # Direct bindings: the transport call site resolves one instance
        # attribute and lands in machine code, traced or not.
        self.request = machine.am_request
        self.post = machine.post
        self.rpc = machine.rpc
        self.reply = machine.reply
        self.after = machine.sim.schedule
        self.defer_post = machine.defer_post
        self.hw_barrier = machine.hw_barrier


def as_transport(fabric) -> Transport:
    """Coerce a :class:`Machine` or :class:`Transport` to a transport.

    A machine gets one cached :class:`SimTransport` (stored on the
    machine), so every layer wrapping the same machine shares one
    transport object.
    """
    if isinstance(fabric, Transport):
        return fabric
    if isinstance(fabric, Machine):
        transport = getattr(fabric, "_transport", None)
        if transport is None:
            transport = fabric._transport = SimTransport(fabric)
        return transport
    raise TypeError(f"cannot build a transport from {fabric!r}")
