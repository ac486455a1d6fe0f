"""The checked runtime: the dynamic sanitizer as one wrapper.

``run_spmd(..., check=True)`` (``AceBackend(check=True)``) builds a
:class:`CheckedRuntime` where an unchecked run builds the plain
:class:`~repro.core.runtime.AceRuntime` — the way ``as_transport`` builds
a ``TracedTransport`` only for a traced machine.  Nothing under
``repro.core`` or ``repro.dsm`` knows the checker exists, so an
unchecked run executes exactly the plain runtime's code.

Each annotation call is heard by the :class:`DynamicChecker`, then
delegated.  The order is what race detection needs: an access (a stale
one included) and a lock or barrier release are heard *before* the
protocol acts — the race exists at the program point of the access, and
the happens-before edge is published at the moment of release — while a
map, a lock grant and a barrier exit are heard *after* (the resource is
only held once the protocol grants it).  Nothing here yields a
:class:`~repro.sim.Delay`: a checked run's clock is the unchecked run's.
"""

from __future__ import annotations

from repro.core.runtime import AceRuntime
from repro.sanitize.dynamic import DynamicChecker


class CheckedRuntime(AceRuntime):
    """An :class:`AceRuntime` whose annotation calls a checker observes.

    ``checker`` supplies a pre-built :class:`DynamicChecker` (a test's
    spy); by default one is built over this runtime's transport, with
    the ``sanitize`` tracer when the machine is traced.
    """

    def __init__(self, fabric, checker: DynamicChecker | None = None, **runtime_kwargs):
        super().__init__(fabric, **runtime_kwargs)
        if checker is None:
            tracer = self.transport.tracer
            obs = tracer.tracer("sanitize") if tracer is not None else None
            checker = DynamicChecker(self.transport.n_procs, obs=obs, sim=self._sim)
        self.checker = checker
        #: nothing folds: the checker hears each access at its own cycle
        self.lead_room = 0
        self._sc_copies = self.sc_engine.cache.tables

    def map(self, nid: int, rid: int, direct: bool = False, lead: int = 0):
        handle = yield from super().map(nid, rid, direct, lead)
        self.checker.map_acquired(nid, handle.region.rid)
        return handle

    def unmap(self, nid: int, handle, direct: bool = False, lead: int = 0):
        yield from super().unmap(nid, handle, direct, lead)
        self.checker.unmapped(nid, handle.region.rid)

    # An access that reaches the SC engine on a copy whose own ``maps`` is
    # 0 (a protocol that caches copies across unmaps handing out a dead
    # one) is a use-after-unmap whatever the runtime's map count says.
    def start_read(self, nid: int, handle, direct: bool = False, lead: int = 0):
        rid = handle.region.rid
        self.checker.access(nid, rid, write=False)
        access = super().start_read(nid, handle, direct, lead)  # refuses a stale handle
        if handle.maps <= 0 and self._sc_copies[nid].get(rid) is handle:
            self.checker.unmapped_use(nid, rid, where="coherence start_read")
        return access

    def start_write(self, nid: int, handle, direct: bool = False, lead: int = 0):
        rid = handle.region.rid
        self.checker.access(nid, rid, write=True)
        access = super().start_write(nid, handle, direct, lead)
        if handle.maps <= 0 and self._sc_copies[nid].get(rid) is handle:
            self.checker.unmapped_use(nid, rid, where="coherence start_write")
        return access

    def rendezvous(self, nid: int):
        self.checker.barrier_release(nid)
        yield from super().rendezvous(nid)
        self.checker.barrier_acquire(nid)

    def lock(self, nid: int, rid: int, direct: bool = False):
        yield from super().lock(nid, rid, direct)
        self.checker.lock_acquired(nid, rid)

    def unlock(self, nid: int, rid: int, direct: bool = False):
        self.checker.lock_released(nid, rid)
        yield from super().unlock(nid, rid, direct)
