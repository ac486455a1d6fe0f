"""The traced wire: message tracing as one wrapper around the machine.

:func:`~repro.dsm.transport.as_transport` gives every layer of a traced
machine the same :class:`TracedTransport`, built once per machine; an
untraced machine is its own transport and runs none of this code.  The
wrapper observes the wire without re-implementing it: each send is
handed to the machine's own delivery with no further sender charge, and
what it adds is events, never cycles (DESIGN.md §7).

Event shapes (:data:`repro.obs.trace.FIELDS`), all on the ``machine``
layer:

* ``msg.send`` at the injection instant, the child of the dispatch that
  sent it; a post's injection is an event of its own, one send overhead
  after the post, so the fold the plain machine does is not done here;
* ``msg.recv`` at the arrival, the child of its ``msg.send``; the
  handler then runs with the receive published as
  :attr:`~repro.obs.trace.TraceBuffer.ctx_eid`, so whatever it sends is
  the receive's child;
* ``rpc.call`` / ``rpc.return`` around a round trip, whose latency feeds
  the ``node<src>.rpc.<category>`` histogram;
* ``msg.send/reply`` and ``msg.recv/reply`` for a reply, whose receive
  stamps the future (``Future._obs_eid``) so the task it wakes parents
  to it, and is the dispatch context of the callbacks it runs.

Each handler is wrapped once (cached by the handler object) in a plain
function of the same ``__name__``, so ``handler.<name>`` counts and the
``handler@<nid>`` task a blocking handler spawns are the machine's own.
A wrapping fabric (:class:`~repro.dsm.faults.FaultTransport`) hands its
surviving copies to :meth:`TracedTransport.inject` and
:meth:`TracedTransport.inject_reply`; a copy that leaves later than its
logical send carries the parent :meth:`TracedTransport.cause` gave then.
"""

from __future__ import annotations

from repro.dsm.transport import Transport
from repro.sim import Delay, Future


class TracedTransport(Transport):
    """A traced machine's fabric: the machine's wire, with causal events."""

    def __init__(self, machine):
        self.machine = machine
        self.sim = machine.sim
        self.stats = machine.stats
        self.tracer = machine.tracer
        self.nodes = machine.nodes
        self.n_procs = machine.n_procs
        self.after = machine.sim.schedule
        self._emit = machine.tracer.tracer("machine").emit
        self._deliver = machine._deliver
        self._reply = machine.inject_reply
        self._counts = machine.stats.counter_ref()
        self._send_overhead = machine.config.am_send_overhead
        self._d_send = Delay(self._send_overhead)
        self._node_sent = [machine.stats.node(i).key("msg.sent") for i in range(self.n_procs)]
        self._node_recv = [machine.stats.node(i).key("msg.recv") for i in range(self.n_procs)]
        self._arrivals: dict = {}  # handler -> its traced arrival
        self._rpc_names = machine._rpc_names
        self._rpc_name = machine._rpc_name
        # Per-(src, category) RPC histograms, cached so a round trip never
        # builds a "node<i>.rpc.<cat>" string twice; run_summary merges them.
        self._rpc_hists: dict = {}

    def cause(self) -> int:
        """The causal parent of a send made now: the current dispatch
        context (task step or handler receive), or -1.

        The ts guard rejects stale contexts: a dispatch that set no
        context of its own (a bare scheduled call) inherits one only
        within the same cycle, where the resulting zero-weight edge is
        harmless.
        """
        buf = self.tracer
        return buf.ctx_eid if buf.ctx_ts == self.sim.now else -1

    # -- the wire -------------------------------------------------------
    def inject(self, src, dst, handler, args, payload_words, category, parent=None) -> None:
        """Put one message on the wire now (its send overhead paid), as a
        ``msg.send`` child of ``parent`` (None: of the dispatch at hand)."""
        now = self.sim.now
        if parent is None:
            buf = self.tracer
            parent = buf.ctx_eid if buf.ctx_ts == now else -1
        eid = self._emit(now, "msg.send", src, parent, dst, category, payload_words)
        arrive = self._arrivals.get(handler) or self._arrival(handler)
        self._deliver(src, dst, arrive, (eid, args), payload_words, category)
        counts = self._counts
        counts[self._node_sent[src]] += 1
        counts[self._node_recv[dst]] += 1

    def _arrival(self, handler):
        """``handler``'s traced arrival: ``msg.recv``, then the handler (or
        the task it spawns) with that receive as the dispatch context."""
        call, name = self.machine._handler_call(handler)
        emit, buf, sim = self._emit, self.tracer, self.sim

        def arrive(node, src, send_eid, args):
            now = sim.now
            eid = emit(now, "msg.recv", node.nid, send_eid, src, name)
            prev_eid, prev_ts = buf.ctx_eid, buf.ctx_ts
            buf.ctx_eid = eid
            buf.ctx_ts = now
            try:
                call(node, src, *args)
            finally:
                buf.ctx_eid, buf.ctx_ts = prev_eid, prev_ts

        arrive.__name__ = name
        self._arrivals[handler] = arrive
        return arrive

    def inject_reply(self, resolve, fut, value, payload_words, category, extra=0, parent=None):
        """Send a reply now that lands as ``resolve(fut, value)``, ``extra``
        cycles past the reply latency.

        Replies carry no src/dst (the future is the address), so both
        events sit on the global track; the flow arrow still links send
        to receive, and ``parent`` (None: the dispatch at hand) links the
        reply to what it services.
        """
        now = self.sim.now
        if parent is None:
            buf = self.tracer
            parent = buf.ctx_eid if buf.ctx_ts == now else -1
        eid = self._emit(now, "msg.send/reply", -1, parent, category, payload_words)
        landing = (self, eid, category, resolve, value)
        self._reply(_land, fut, landing, payload_words, category, extra, parent)

    # -- Transport operations -------------------------------------------
    def request(self, src, dst, handler, *args, payload_words=0, category="am.request"):
        yield self._d_send
        self.inject(src, dst, handler, args, payload_words, category)

    def post(self, src, dst, handler, *args, payload_words=0, category="am.post"):
        self._post(self.cause(), src, dst, handler, args, payload_words, category)

    def defer_post(self, delay, src, dst, handler, *args, payload_words=0, category="am.post"):
        # The deferral, then the injection: two events before the arrival,
        # which lands on the plain machine's defer_post cycle.
        self.sim.schedule(
            delay, (self._post, self.cause(), src, (dst, handler, args, payload_words, category))
        )

    def _post(self, parent, src, dst, handler, args, payload_words, category) -> None:
        # Injected after the send overhead; the causal parent was captured
        # at the post, since by then the sending dispatch is gone.
        self.sim.schedule(
            self._send_overhead, (self.inject, src, dst, (handler, args, payload_words, category, parent))
        )

    def rpc(self, src, dst, handler, *args, payload_words=0, category="am.rpc", lead=0):
        if lead:  # the caller's charge as its own event: rpc.call is stamped after it
            yield Delay(lead)
        emit, sim = self._emit, self.sim
        t0 = sim.now
        eid = emit(t0, "rpc.call", src, -1, dst, category)
        fut = Future(self._rpc_names.get(category) or self._rpc_name(category))
        yield self._d_send
        self.inject(src, dst, handler, (fut, *args), payload_words, category, eid)
        value = yield fut
        # The round trip as the caller saw it (send overhead, both wire
        # legs, handler work): the trace-level stall time, per node.
        lat = sim.now - t0
        hist = self._rpc_hists.get((src, category))
        if hist is None:
            hist = self._rpc_hists[(src, category)] = self.tracer.hist(f"node{src}.rpc.{category}")
        hist.add(lat)
        emit(sim.now, "rpc.return", src, eid, category, lat)
        return value

    def reply(self, fut, value=None, payload_words=0, category="am.reply"):
        self.inject_reply(Future.resolve, fut, value, payload_words, category)


def _land(fut, landing) -> None:
    """A traced reply's arrival: ``msg.recv/reply``, then ``resolve(fut, value)``.

    ``landing`` is ``(wire, send_eid, category, resolve, value)``, carried
    in the reply's value slot.  The receive stamps the future (the task.step
    its resolve wakes parents to it, carrying the critical path across the
    wire) and is the dispatch context of the callbacks the resolve runs.  A
    module function: a reply's landing binds no method.
    """
    wire, send_eid, category, resolve, value = landing
    now = wire.sim.now
    eid = fut._obs_eid = wire._emit(now, "msg.recv/reply", -1, send_eid, category, fut.name)
    buf = wire.tracer
    prev_eid, prev_ts = buf.ctx_eid, buf.ctx_ts
    buf.ctx_eid = eid
    buf.ctx_ts = now
    try:
        resolve(fut, value)
    finally:
        buf.ctx_eid, buf.ctx_ts = prev_eid, prev_ts
