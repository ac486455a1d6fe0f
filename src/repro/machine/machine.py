"""The simulated multicomputer: nodes and active messages.

Modeling decisions (documented here because they shape every number the
benchmarks print):

* **Handlers run on a coprocessor.**  On a real CM-5, CMAML handlers
  steal cycles from the destination CPU via polling or interrupts.  We
  instead execute handlers "beside" the destination's compute task:
  a requester observes the full round-trip latency (send overhead +
  wire + per-word + dispatch + handler), but the destination's compute
  task is not slowed.  This keeps the trampoline simple and preserves
  the relative costs the paper's figures depend on (protocol traffic
  and per-access software overhead), at the price of slightly
  flattering communication-heavy runs on *both* systems equally.
* **Handlers are atomic.**  A handler executes at a single simulated
  instant, exactly like an interrupt-level CMAML handler that may not
  block.  Handlers that need multi-step work (e.g. a home node
  forwarding a request to the current owner) send further messages and
  park continuation state in the protocol's tables — the classical
  directory-protocol structure.
* **The control network exists.**  The CM-5 had a dedicated control
  network for barriers; CRL uses it.  It carries no messages, so the
  machine holds only its cost, ``HW_BARRIER_COST`` after the last
  arrival; the rendezvous is :class:`repro.dsm.barrier.BarrierService`.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush as _heappush
from inspect import isgeneratorfunction
from typing import Callable

from repro.machine.config import MachineConfig
from repro.machine.stats import Stats, intern_key
from repro.sim import Delay, Future, SimulationError, Simulator

_resolve = Future.resolve


class Node:
    """One processing node.  Layers stash per-node state in attributes."""

    __slots__ = ("machine", "nid", "state")

    def __init__(self, machine: "Machine", nid: int):
        self.machine = machine
        self.nid = nid
        # Per-layer private state, keyed by layer name ("crl", "ace", ...).
        self.state: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.nid}>"


class Machine:
    """A set of nodes joined by an active-message network.

    Parameters
    ----------
    sim:
        The simulator driving this machine.
    config:
        Cycle-cost model; defaults to the CM-5-flavoured constants.
    tracer:
        Optional :class:`repro.obs.TraceBuffer`.  The machine emits
        nothing itself; its messages are traced by the one
        :class:`~repro.obs.wire.TracedTransport` ``as_transport`` wraps it in.

    An untraced machine is its own :class:`~repro.dsm.transport.Transport`
    (exactly-once, like CMAML).  A message is an Active Message: its queue
    entry is the tuple ``(call, node, src, args)`` and its arrival the call
    ``call(node, src, *args)``; a reply's is ``(resolve, fut, value, ())``.
    A message is counted at injection on the
    :class:`~repro.machine.stats.Route` of its (handler, category) pair,
    built at the first such send and found by its handler.  A handler that
    must block is a generator function; its arrival spawns it as the task
    ``handler@<nid>``.
    """

    HW_BARRIER_COST = 170  # ~5us on a 33MHz node: CM-5 control network barrier
    reliable = True
    recovery = None

    def __init__(self, sim: Simulator, config: MachineConfig | None = None, tracer=None):
        self.sim = sim
        self.config = config or MachineConfig()
        self.nodes = [Node(self, i) for i in range(self.config.n_procs)]
        self.stats = Stats()
        # Hot-path caches: one route per (handler, category) — per category
        # for replies — fronted by each handler's first route, so a send
        # builds no key; one future name per rpc category; the fixed parts
        # of the message-cost formula, hoisted out of the dataclass.
        self._routes: dict = {}
        self._handler_routes: dict = {}
        self._rpc_names: dict = {}
        self._recv_base = self.config.network_latency + self.config.am_receive_overhead
        self._reply_base = self.config.am_send_overhead + self._recv_base
        self._per_word = self.config.per_word_transfer
        self._n_nodes = len(self.nodes)  # the n_procs property is a frame per message
        self._send_overhead = self.config.am_send_overhead
        self._d_send = Delay(self._send_overhead)
        self.after = sim.schedule
        self.tracer = tracer

    @property
    def n_procs(self) -> int:
        return self.config.n_procs

    machine = property(lambda self: self)  # the fabric interface's "backing machine"

    def port(self, prefix: str):
        """The plain :class:`~repro.dsm.transport.Port`: this machine's own methods."""
        from repro.dsm.transport import Port  # the service layer, built on this one

        return Port(self)

    # -- active messages -------------------------------------------------
    def am_request(self, src: int, dst: int, handler: Callable, *args,
                   payload_words: int = 0, category: str = "am.request"):
        """Generator: inject a message from the *calling task* on ``src``.

        The message is counted, and a bad destination refused, at the call;
        it leaves after the send overhead, which is charged to the caller,
        and ``handler(dst_node, src, *args)`` runs after the network latency.
        """
        self._deliver(src, dst, handler, args, payload_words, category, self._send_overhead)
        yield self._d_send

    request = am_request  # the fabric interface's name for it

    def post(self, src: int, dst: int, handler: Callable, *args,
             payload_words: int = 0, category: str = "am.post") -> None:
        """Send a message from *handler context* (no task to charge).

        The sender-side overhead is folded into the delivery latency,
        modeling the coprocessor injecting the message: one queue entry,
        at ``now + am_send_overhead + recv_base + per_word * words``.
        """
        self._deliver(src, dst, handler, args, payload_words, category, self._send_overhead)

    def defer_post(self, delay: int, src: int, dst: int, handler: Callable, *args,
                   payload_words: int = 0, category: str = "am.post") -> None:
        """``after(delay)`` then :meth:`post`, as one fabric operation.

        Handler-side deferred work that ends in a send (e.g. the
        invalidation-handler cost before the ack leaves) goes through
        here: nothing can observe the deferral, so the message is one
        queue entry, ``delay`` cycles after a :meth:`post`'s (a traced
        wire keeps the deferral and the injection as events).
        """
        if delay < 0:
            raise SimulationError(f"negative defer_post delay: {delay}")
        self._deliver(
            src, dst, handler, args, payload_words, category, delay + self._send_overhead
        )

    def _deliver(self, src, dst, handler, args, payload_words, category, sender_cycles=0) -> None:
        if not (0 <= dst < self._n_nodes):
            raise ValueError(f"bad destination node {dst}")
        route = self._handler_routes.get(handler)
        if route is None or route.category is not category:
            route = self._routes.get((handler, category)) or self._route(handler, category)
        route.n += 1
        route.words += payload_words
        delay = sender_cycles + self._recv_base + self._per_word * payload_words
        # The arrival event is the handler call itself: the run loop calls
        # the entry as route.call(node, src, *args), with no frame between.
        fn = (route.call, self.nodes[dst], src, args)
        # Simulator.schedule(delay, fn), inlined — delivery is the hottest
        # scheduling site outside the kernel itself.
        sim = self.sim
        when = sim.now + delay
        bucket = sim._cal.get(when)
        if bucket is None:
            sim._cal[when] = [fn]
            _heappush(sim._times, when)
        else:
            bucket.append(fn)

    def _route(self, handler, category):
        """The route of ``handler``'s messages of ``category`` (``handler``
        None: of replies), built at the first such send."""
        if handler is None:
            route = self._routes[category] = self.stats.route(category)
        else:
            call, name = self._handler_call(handler)
            route = self._routes[(handler, category)] = self.stats.route(category, name, call)
            self._handler_routes.setdefault(handler, route)
        return route

    def _handler_call(self, handler) -> tuple:
        """``(arrival callable, name)`` for ``handler``.  A generator-function
        handler blocks: its arrival spawns it as a task."""
        call = partial(self._spawn_handler, handler) if isgeneratorfunction(handler) else handler
        return call, getattr(handler, "__name__", "anon")

    def _spawn_handler(self, handler, node, src, *args) -> None:
        self.sim.spawn(handler(node, src, *args), name=f"handler@{node.nid}")

    def rpc(
        self,
        src: int,
        dst: int,
        handler: Callable,
        *args,
        payload_words: int = 0,
        category: str = "am.rpc",
        lead: int = 0,
    ):
        """Generator: request/reply round trip; returns the reply value.

        The handler receives a :class:`Future` as its first payload
        argument and must eventually call :meth:`reply` on it (possibly
        from a later handler on another node).  ``lead``: cycles the caller
        owes before the send; they ride the request, pushed at the call with
        its send overhead (§6), so a round trip is three events.
        """
        # The name positionally: cheaper than name=name per round trip.
        fut = Future(self._rpc_names.get(category) or self._rpc_name(category))
        self._deliver(
            src, dst, handler, (fut, *args), payload_words, category, lead + self._send_overhead
        )
        return (yield fut)

    def reply(self, fut: Future, value=None, payload_words: int = 0, category: str = "am.reply") -> None:
        """From handler context: resolve an RPC future after the reply latency."""
        route = self._routes.get(category) or self._route(None, category)
        route.n += 1
        route.words += payload_words
        delay = self._reply_base + self._per_word * payload_words
        fn = (_resolve, fut, value, ())
        # Simulator.schedule(delay, fn), inlined.
        sim = self.sim
        when = sim.now + delay
        bucket = sim._cal.get(when)
        if bucket is None:
            sim._cal[when] = [fn]
            _heappush(sim._times, when)
        else:
            bucket.append(fn)

    def _rpc_name(self, category: str) -> str:
        """The name of ``category``'s rpc futures, built at its first call."""
        return self._rpc_names.setdefault(category, intern_key("rpc:" + category))

    # -- the wire, as a wrapping fabric hands messages to it -------------
    def inject(self, src, dst, handler, args, payload_words, category, parent=None) -> None:
        """Put one message on the wire now, its send overhead already paid
        by the wrapping fabric; ``parent`` is its causal parent (read from
        :meth:`cause` at the logical send), which the plain wire drops."""
        self._deliver(src, dst, handler, args, payload_words, category)

    def inject_reply(self, resolve, fut, value, payload_words, category, extra=0, parent=None):
        """:meth:`reply` landing as ``resolve(fut, value)``, ``extra`` cycles late."""
        route = self._routes.get(category) or self._route(None, category)
        route.n += 1
        route.words += payload_words
        fn = (resolve, fut, value, ())
        sim = self.sim
        when = sim.now + extra + self._reply_base + self._per_word * payload_words
        bucket = sim._cal.get(when)
        if bucket is None:
            sim._cal[when] = [fn]
            _heappush(sim._times, when)
        else:
            bucket.append(fn)

    def cause(self) -> int:  # the causal parent of a send made now: the plain wire keeps none
        return -1
