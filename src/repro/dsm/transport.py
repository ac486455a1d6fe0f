"""The transport layer: what the coherence core needs from a fabric.

The directory protocol above this layer is pure policy — it decides
*what* messages to send and *when*, but performs every send, RPC,
reply, and deferred callback through the narrow interface defined
here.  The simulated active-message
:class:`~repro.machine.machine.Machine` implements it directly; a
real-parallel backend (or a recording/fault-injecting shim) slots in by
providing the same operations.

Zero-cost boundary
------------------
An untraced machine *is* its transport: :func:`as_transport` returns
it, so a call through the transport is a call on the machine, with no
layer in between.  A traced machine is wrapped once in a
:class:`~repro.obs.wire.TracedTransport`, which hands each message to
the same machine delivery, and a
:class:`~repro.dsm.faults.FaultTransport` wraps whichever of the two it
is given.  DESIGN.md §8 documents this invariant; the golden-trace pins
enforce it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.machine import Machine
from repro.sim.future import Future


class Transport:
    """Abstract message fabric joining ``n_procs`` nodes.

    Implementations provide:

    ``request(src, dst, handler, *args, payload_words=, category=)``
        Generator: one-way send from *task* context (charges the
        caller's send overhead, then returns once injected).
    ``post(src, dst, handler, *args, payload_words=, category=)``
        One-way send from *handler* context (no task to charge).
    ``rpc(src, dst, handler, *args, payload_words=, category=, lead=0)``
        Generator: request/reply round trip; the handler receives a
        ``Future`` first and must eventually :meth:`reply` to it.
        ``lead``: cycles the caller owes before the send (may join it).
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

    and, for a fabric that wraps this one (the wire it hands messages to):

    ``inject(src, dst, handler, args, payload_words, category, parent=None)``
        Put one message on the wire now, its send overhead already paid.
    ``inject_reply(resolve, fut, value, payload_words, category, extra=0, parent=None)``
        :meth:`reply` landing as ``resolve(fut, value)``, ``extra``
        cycles late (``Future.resolve``, or a resolve-once gate).
    ``cause()``
        The causal parent (trace event id, or -1) of a send made now.  A
        wrapper whose send leaves later reads it at the logical send and
        passes it as ``parent``; ``None`` means "made now".

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
        # Generic composition; the machine and the traced wire have their own.
        self.after(delay, lambda: self.post(src, dst, handler, *args, **kw))

    def hw_barrier(self, nid: int):
        raise NotImplementedError


class Acks:
    """The collecting end of one acked fan-out (the port's third idiom).

    ``waiting`` lists the targets not yet heard from (one entry per
    post, so a target asked twice is listed twice); each answer calls
    ``on_ack(target, value)`` and the last resolves ``done``, if a
    future was given.  Crash recovery may :meth:`answer` on a dead
    target's behalf.
    """

    __slots__ = ("waiting", "done", "on_ack")

    def __init__(self, on_ack=None, done: Future | None = None):
        self.waiting: list[int] = []
        self.done = done
        self.on_ack = on_ack

    def answer(self, target: int, value=None) -> None:
        self.waiting.remove(target)
        if self.on_ack is not None:
            self.on_ack(target, value)
        if not self.waiting and self.done is not None:
            self.done.resolve(None)

    def heard(self, target: int, fut: Future) -> None:
        """Future callback: the ack a post to ``target`` carried came back."""
        self.answer(target, fut._value)


class Port:
    """How one service sends and receives, whatever the fabric loses.

    Three idioms cover every exchange in the core (DESIGN.md §9):

    *call* — ``yield from port.call(src, dst, h, *args)`` is a round
    trip; the receiver is bound as ``h = port.serves(handler)`` and
    answers with ``port.reply(fut, value)``.
    *notify* — one-way, ``yield from port.send(...)`` from task context
    or ``port.post(...)`` from handler context; the receiver is bound
    as ``h = port.hears(handler, ack_category)``.
    *fan-out* — ``port.fan_out(src, targets, h, *args, acks=Acks(...))``
    from handler context posts to every target and collects one answer
    each; the receiver is bound as ``h = port.answers(handler,
    ack_category)`` and is called ``handler(node, src, ack, *args)``,
    where ``ack(value, payload_words, delay)`` may be invoked later (a
    deferred invalidation).

    On an exactly-once fabric (this class, from ``Transport.port``) the
    first two idioms *are* the transport's own bound methods and every
    receive binder returns its argument, so the same code objects run
    making the same schedule calls as if the seam were not there;
    a fan-out post carries its ``ack``, which answers with a reply to a
    future — or, when ``answers`` was given an ``ack_name``, with a
    message counted as ``handler.<ack_name>``.  A lossy fabric's
    :class:`~repro.dsm.faults.RetryPort` keeps this surface and
    supplies the retries and the receive-side dedup.  Handlers never
    see the wire's sequence number, and a node's request to itself
    binds the plain handler — it never crosses the wire.

    The rule for receivers: one that is safe to re-execute (a pure read,
    a set-add) is bound with ``idempotent`` — a duplicate re-replies and
    the sender's resolve-once gate keeps the first.  Anything else is
    ``serves`` (a duplicate gets the recorded reply, the handler does
    not run again), ``hears`` (a duplicate is only re-acknowledged) or
    ``answers`` (a duplicate is dropped until the ack is out, then gets
    it again).  ``lossy`` says whether a reply can be lost; ``watch``
    feeds the stall report and here does nothing.
    """

    lossy = False

    def __init__(self, transport: Transport):
        self.call = transport.rpc
        self.reply = transport.reply
        self.send = transport.request
        self.post = transport.post
        self._after = transport.after
        self._defer_post = transport.defer_post
        #: fan-out handler -> ``make(acks, target, src)``, the ``ack`` a
        #: post of it carries (registered by :meth:`answers`)
        self._ack_makers: dict = {}

    @staticmethod
    def serves(handler):
        return handler

    idempotent = serves

    @staticmethod
    def hears(handler, ack_category: str):
        return handler

    def fan_out(self, src, targets, handler, *args, acks=None, payload_words=0, category="am.post"):
        """Post ``handler(node, src, ack, *args)`` to every target; ``acks``
        (an :class:`Acks`, or None to only have it delivered) collects."""
        post, make_ack = self.post, self._ack_makers[handler]
        for target in targets:
            if acks is not None:
                acks.waiting.append(target)
            post(
                src, target, handler, make_ack(acks, target, src), *args,
                payload_words=payload_words, category=category,
            )

    def answers(self, handler, ack_category: str, ack_name: str | None = None):
        """Bind a fan-out receiver.  Its ``ack`` travels as a reply, or —
        given ``ack_name`` — as a message counted ``handler.<ack_name>``."""
        if ack_name is None:
            reply, after = self.reply, self._after

            def send(fut, value=None, payload_words=1, delay=0):
                if delay:
                    after(delay, (reply, fut, value, (payload_words, ack_category)))
                else:
                    reply(fut, value, payload_words=payload_words, category=ack_category)

            def make_ack(acks, target, src):
                fut = Future(name=ack_category)
                if acks is not None:
                    fut.add_callback(partial(acks.heard, target))
                return partial(send, fut)

        else:
            post, defer_post = self.post, self._defer_post

            def collect(node, src, acks, value):
                if acks is not None:
                    acks.answer(src, value)

            collect.__name__ = ack_name

            def send(acks, target, src, value=None, payload_words=1, delay=0):
                if delay:
                    defer_post(
                        delay, target, src, collect, acks, value,
                        payload_words=payload_words, category=ack_category,
                    )
                else:
                    post(target, src, collect, acks, value, payload_words=payload_words, category=ack_category)

            make_ack = partial(partial, send)  # make_ack(acks, target, src) = partial(send, acks, target, src)

        self._ack_makers[handler] = make_ack
        return handler

    @staticmethod
    def watch(rid_categories, directory=None) -> None:
        pass


def as_transport(fabric) -> Transport:
    """The transport of a :class:`Machine` or :class:`Transport`.

    A transport is its own, and so is an untraced machine.  A traced
    machine gets one :class:`~repro.obs.wire.TracedTransport`, built at
    the first call and stored on the machine, so every layer on the same
    machine shares one traced wire.
    """
    if isinstance(fabric, Machine):
        if fabric.tracer is None:
            return fabric
        transport = getattr(fabric, "_transport", None)
        if transport is None:
            from repro.obs.wire import TracedTransport  # it builds on this module

            transport = fabric._transport = TracedTransport(fabric)
        return transport
    if isinstance(fabric, Transport):
        return fabric
    raise TypeError(f"cannot build a transport from {fabric!r}")
