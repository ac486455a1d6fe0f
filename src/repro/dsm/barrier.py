"""Barrier algorithms for the simulated machine.

The default barrier rides the CM-5 control network
(:meth:`~repro.machine.machine.Machine.hw_barrier`), as CRL's does.  A
message-based dissemination barrier is also provided for machines
without a control network and for the barrier-algorithm ablation
bench.  Ace protocols run their ``barrier`` hooks *around* one of
these rendezvous primitives.

Like the locks, the service is written against the
:class:`~repro.dsm.transport.Transport` interface (machine accepted
and coerced), so the dissemination algorithm is fabric-agnostic and
the hardware path is whatever rendezvous the fabric provides.
"""

from __future__ import annotations

from repro.dsm.transport import as_transport
from repro.sim import Future


class BarrierService:
    """Global barriers: ``hw`` (control network) or ``dissemination`` (messages)."""

    def __init__(self, fabric, algorithm: str = "hw"):
        if algorithm not in ("hw", "dissemination"):
            raise ValueError(f"unknown barrier algorithm {algorithm!r}")
        transport = as_transport(fabric)
        self.transport = transport
        self.machine = transport.machine
        self.algorithm = algorithm
        n = transport.n_procs
        self._n_procs = n
        self._stats = transport.stats
        self._sim = transport.sim
        if transport.recovery is not None and algorithm == "dissemination":
            # Crash recovery shrinks barrier membership through the
            # manager's crash-aware hw rendezvous; the dissemination
            # rounds have no membership to shrink (round structure is a
            # function of n), so the combination cannot survive a death.
            raise ValueError(
                "on_crash recovery requires the 'hw' barrier algorithm "
                "(dissemination rounds cannot shrink membership)"
            )
        # Each dissemination notify is a port notify (DESIGN.md §9): on a
        # lossy fabric a dropped one would park its receiver forever and
        # a duplicate would over-count a round's flag, releasing a
        # *future* barrier early.  The hardware path needs nothing — the
        # control network is reliable by construction.
        port = transport.port("barrier")
        self._send = port.send
        self._h_notify = port.hears(self._on_notify, "barrier.notify_ack")
        self._hw_barrier = transport.hw_barrier
        self._rounds = max(1, (n - 1).bit_length())
        # dissemination state: per round, per node, count of notifies seen
        self._flags = [[0] * n for _ in range(self._rounds)]
        self._waiting: list[list[Future | None]] = [[None] * n for _ in range(self._rounds)]
        # Observability: the hw path's epochs are traced by the machine
        # itself; the dissemination path emits its own arrive/release
        # (per-node epochs, since there is no global release instant).
        tracer = transport.tracer
        self._obs = tracer.tracer("barrier") if tracer is not None else None
        self._epochs = [0] * n

    def wait(self, nid: int):
        """Generator: block until all ``n_procs`` nodes have arrived."""
        self._stats.count("barrier.arrive")
        if self.algorithm == "hw" or self._n_procs == 1:
            yield from self._hw_barrier(nid)
            return
        yield from self._dissemination(nid)

    def _dissemination(self, nid: int):
        obs = self._obs
        if obs is not None:
            epoch = self._epochs[nid]
            self._epochs[nid] = epoch + 1
            obs.emit(self._sim.now, "barrier.arrive", nid, -1, epoch)
        n = self._n_procs
        for r in range(self._rounds):
            peer = (nid + (1 << r)) % n
            yield from self._send(
                nid, peer, self._h_notify, r, payload_words=1, category="barrier.notify"
            )
            if self._flags[r][nid] > 0:
                self._flags[r][nid] -= 1
            else:
                fut = Future(name=f"barrier:r{r}@{nid}")
                self._waiting[r][nid] = fut
                yield fut
                self._waiting[r][nid] = None
        if obs is not None:
            obs.emit(self._sim.now, "barrier.release", nid, -1, epoch)

    def _on_notify(self, node, src, r):
        self._notify(node.nid, r)

    def _notify(self, nid: int, r: int) -> None:
        fut = self._waiting[r][nid]
        if fut is not None:
            self._waiting[r][nid] = None
            fut.resolve(None)
        else:
            self._flags[r][nid] += 1
