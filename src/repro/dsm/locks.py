"""Home-based queue locks for regions.

``Ace_Lock(region)`` / ``Ace_UnLock(region)`` (Table 2 of the paper)
need a default implementation that protocols can delegate to.  Each
region's lock lives at its home node: acquirers send a request, the
home grants in FIFO order, and release is a single message.  A node
re-acquiring a lock it already holds is a protocol error (the paper's
model has one user thread per processor, so recursive locking would
always be a bug).

All communication goes through the coherence core's
:class:`~repro.dsm.transport.Transport` (the service accepts a machine
or a transport), so the lock protocol is fabric-agnostic like the rest
of the core.
"""

from __future__ import annotations

from collections import deque

from repro.dsm.transport import as_transport
from repro.machine.stats import intern_key
from repro.memory import RegionDirectory
from repro.sim import Delay, Future
from repro.sim.errors import SimulationError


class LockError(SimulationError):
    """Raised on double-acquire, foreign release, or release-when-free."""


class _LockState:
    __slots__ = ("holder", "waiters")

    def __init__(self):
        self.holder: int | None = None
        self.waiters: deque = deque()


class LockService:
    """FIFO mutual-exclusion locks, one per region, homed with the region."""

    LOCK_HANDLER_COST = 25

    def __init__(self, fabric, regions: RegionDirectory, stats_prefix: str = "lock"):
        transport = as_transport(fabric)
        self.transport = transport
        self.machine = transport.machine
        self.regions = regions
        self.prefix = stats_prefix
        #: rid -> its lock, made at first use
        self._locks: dict[int, _LockState] = {}
        # Interned once; the acquire/release path builds no f-strings.
        self._k_acquire = intern_key(stats_prefix, "acquire")
        self._k_release = intern_key(stats_prefix, "release")
        self._k_contended = intern_key(stats_prefix, "contended")
        self._cat_req = intern_key(stats_prefix, "req")
        self._cat_rel = intern_key(stats_prefix, "rel")
        self._cat_grant = intern_key(stats_prefix, "grant")
        self._stats = transport.stats
        self._counts = transport.stats.counter_ref()
        self._sim = transport.sim
        self._nodes = transport.nodes
        # Acquire is a call, release a notify (DESIGN.md §9): on a lossy
        # fabric the port dedups acquires (a re-executed one would trip
        # the double-acquire error, or queue the holder behind itself)
        # and makes release an ack'd round trip that runs once (a lost
        # release would hold the lock forever; a re-run one would
        # release on the *next* holder's behalf).  Both follow a dead
        # home to the region's new one.
        port = transport.port(stats_prefix)
        self._rpc = port.call
        self._send = port.send
        self._reply = port.reply
        self._d_handler = Delay(self.LOCK_HANDLER_COST)
        self._h_acquire = port.serves(self._on_acquire, on_dead="retarget")
        self._h_release = port.hears(
            self._on_release, intern_key(stats_prefix, "rel_ack"), on_dead="retarget"
        )
        if transport.recovery is not None:
            transport.recovery.register_locks(self)
        # Observability: lock grant/release events plus a hold-time
        # histogram, measured home-side (grant issued → release
        # received) so both endpoints share one clock.  None when off.
        tracer = transport.tracer
        self._obs = tracer.tracer(stats_prefix) if tracer is not None else None
        self._hold_hist = tracer.hist(stats_prefix + ".hold") if tracer is not None else None
        self._grant_at: dict = {}

    def _state(self, rid: int) -> _LockState:
        st = self._locks.get(rid)
        if st is None:
            st = self._locks[rid] = _LockState()
        return st

    def acquire(self, nid: int, rid: int):
        """Generator: block until this node holds the lock on ``rid``."""
        region = self.regions.get(rid)
        yield self._d_handler
        self._counts[self._k_acquire] += 1
        if self._obs is not None:
            self._obs.emit(self._sim.now, "lock.request", nid, -1, rid)
        if nid == region.home:
            # Local fast path still goes through the same grant logic.
            fut = Future(name=f"lock:{rid}@{nid}")
            self._on_acquire(self._nodes[nid], nid, fut, rid)
            yield fut
        else:
            yield from self._rpc(
                nid, region.home, self._h_acquire, rid, payload_words=2, category=self._cat_req
            )

    def release(self, nid: int, rid: int):
        """Generator: release the lock; the next FIFO waiter is granted."""
        region = self.regions.get(rid)
        yield self._d_handler
        self._counts[self._k_release] += 1
        if nid == region.home:
            self._on_release(self._nodes[nid], nid, rid)
        else:
            yield from self._send(
                nid, region.home, self._h_release, rid, payload_words=2, category=self._cat_rel
            )

    # -- home-side handlers -------------------------------------------
    def _on_acquire(self, node, src, fut, rid):
        st = self._state(rid)
        if st.holder is None:
            st.holder = src
            self._grant(src, fut, rid)
        elif st.holder == src:
            fut.fail(LockError(f"node {src} re-acquired lock on region {rid}"))
        else:
            st.waiters.append((src, fut))
            self._stats.count(self._k_contended)

    def _on_release(self, node, src, rid):
        st = self._state(rid)
        if st.holder is None:
            raise LockError(f"release of free lock on region {rid}")
        if st.holder != src:
            raise LockError(f"node {src} released lock on region {rid} held by {st.holder}")
        if self._obs is not None:
            now = self._sim.now
            held = now - self._grant_at.pop((rid, src), now)
            self._hold_hist.add(held)
            self._obs.emit(now, "lock.release", src, -1, rid, held)
        if st.waiters:
            nxt, fut = st.waiters.popleft()
            st.holder = nxt
            self._grant(nxt, fut, rid)
        else:
            st.holder = None

    def break_dead(self, dead: int, manager) -> int:
        """Crash recovery: break locks the dead node holds, prune its waits.

        A lock held by a crashed node would block its FIFO queue forever
        (the release can never arrive) — the manager calls this at each
        death declaration to re-grant to the next *live* waiter.  Dead
        waiters are dropped (their acquire calls were already abandoned
        by the in-flight sweep).  Returns the number of broken holds.
        """
        broken = 0
        for rid in sorted(self._locks):  # rid order: allocation order
            st = self._locks[rid]
            if any(src == dead for src, _ in st.waiters):
                st.waiters = deque(item for item in st.waiters if item[0] != dead)
            if st.holder != dead:
                continue
            broken += 1
            if self._obs is not None:
                self._obs.emit(self._sim.now, "lock.broken", dead, -1, rid)
            if st.waiters:
                nxt, fut = st.waiters.popleft()
                st.holder = nxt
                self._grant(nxt, fut, rid)
            else:
                st.holder = None
        return broken

    def _grant(self, dst: int, fut, rid) -> None:
        if self._obs is not None:
            now = self._sim.now
            self._grant_at[(rid, dst)] = now
            # Stamp the local-grant future so the woken task.step
            # parents to this event (remote grants get their wake
            # parent from the reply receive instead).
            fut._obs_eid = self._obs.emit(now, "lock.grant", dst, -1, rid)
        home = self.regions.get(rid).home
        if dst == home:
            fut.resolve(None)
        else:
            self._reply(fut, None, payload_words=2, category=self._cat_grant)
