"""Barrier algorithms for the simulated machine.

The default barrier rides the CM-5 control network, as CRL's does: a
global rendezvous released ``Machine.HW_BARRIER_COST`` cycles after the
last member arrives.  The control network carries no data messages, so
it is written here once, outside the fabric, and no fault plan reaches
it.  A message-based dissemination barrier is also provided for
machines without a control network and for the barrier-algorithm
ablation bench.  Ace protocols run their ``barrier`` hooks *around*
one of these rendezvous primitives.

The hardware rendezvous counts its live membership: crash recovery
(:mod:`repro.dsm.recovery`) registers the service and calls
:meth:`BarrierService.leave` when it declares a node dead, so the
survivors of a crash inside a barrier epoch are released instead of
stranded.  The dissemination algorithm is written against the
:class:`~repro.dsm.transport.Transport` interface (machine accepted and
coerced) and is fabric-agnostic.
"""

from __future__ import annotations

from repro.dsm.transport import as_transport
from repro.machine import Machine
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
        recovery = transport.recovery
        if recovery is not None:
            if algorithm == "dissemination":
                # The dissemination rounds have no membership to shrink
                # (their structure is a function of n), so the
                # combination cannot survive a death.
                raise ValueError(
                    "on_crash recovery requires the 'hw' barrier algorithm "
                    "(dissemination rounds cannot shrink membership)"
                )
            recovery.register_barrier(self)
        self._hw = algorithm == "hw" or n == 1
        # The control network: the live members, those of them that have
        # arrived in this generation, and the future they wait on.
        self._live = set(range(n))
        self._arrived: set[int] = set()
        self._gen = 0
        self._fut = Future(name="hw_barrier:0")
        self._cost = Machine.HW_BARRIER_COST
        self._last_arrive = -1  # trace id of the generation's last arrival
        # Each dissemination notify is a port notify (DESIGN.md §9): on a
        # lossy fabric a dropped one would park its receiver forever and
        # a duplicate would over-count a round's flag, releasing a
        # *future* barrier early.
        port = transport.port("barrier")
        self._send = port.send
        self._h_notify = port.hears(self._on_notify, "barrier.notify_ack")
        self._rounds = max(1, (n - 1).bit_length())
        # dissemination state: per round, per node, count of notifies seen
        self._flags = [[0] * n for _ in range(self._rounds)]
        self._waiting: list[list[Future | None]] = [[None] * n for _ in range(self._rounds)]
        # Observability: the hardware path's epochs are global (one
        # release, parented to the last arrival); the dissemination
        # path's are per node, since it has no global release instant.
        tracer = transport.tracer
        self._obs = tracer.tracer("barrier") if tracer is not None else None
        self._epochs = [0] * n

    def wait(self, nid: int):
        """Generator: block until every live node has arrived."""
        self._stats.count("barrier.arrive")
        if not self._hw:
            yield from self._dissemination(nid)
            return
        if nid not in self._live:
            # Declared dead, its task still running host-side: not a
            # member any more, so it parks uncounted until retired.
            yield Future(name=f"barrier:left@{nid}")
            return
        self._stats.count("barrier.hw_arrive")
        fut = self._fut
        arrived = self._arrived
        arrived.add(nid)
        obs = self._obs
        if obs is not None:
            self._last_arrive = obs.emit(self._sim.now, "barrier.arrive", nid, -1, self._gen)
        if len(arrived) == len(self._live):
            self._release()
        yield fut

    def leave(self, nid: int) -> None:
        """Crash recovery: ``nid`` is no longer a member.  An arrival it
        made this generation stops counting, and a barrier that waited
        only for it is released."""
        self._live.discard(nid)
        arrived = self._arrived
        arrived.discard(nid)
        if arrived and len(arrived) == len(self._live):
            self._release()

    def _release(self) -> None:
        epoch = self._gen
        self._gen = epoch + 1
        released = self._fut
        self._fut = Future(name=f"hw_barrier:{self._gen}")
        self._arrived = set()
        self._sim.schedule(self._cost, (self._open, released, self._last_arrive, (epoch,)))

    def _open(self, released: Future, arrive_eid: int, epoch: int) -> None:
        # The release is caused by the last arrival, so the edge carries
        # exactly the hardware cost and every woken task.step parents to it.
        obs = self._obs
        if obs is not None:
            released._obs_eid = obs.emit(self._sim.now, "barrier.release", -1, arrive_eid, epoch)
        released.resolve(None)

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
