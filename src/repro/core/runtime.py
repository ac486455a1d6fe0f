"""The Ace runtime: Table 2 library routines + Figure 3 primitives.

Every data primitive performs the §4.1 dispatch: resolve the region's
space via the region→space hash table, then call through the space's
protocol pointers.  ``direct=True`` on a primitive skips the dispatch
charge — that is exactly what the compiler's direct-dispatch
optimization emits when dataflow analysis proves the protocol unique.
"""

from __future__ import annotations

from repro.core.config import AceConfig
from repro.core.space import Space
from repro.dsm import ACE_SC_COSTS, BarrierService, CoherenceEngine, LockService, as_transport
from repro.memory import RegionDirectory
from repro.protocols.base import ProtocolMisuse
from repro.protocols.registry import ProtocolRegistry, default_registry
from repro.sim import Delay


def _stale_handle(handle, space: Space) -> ProtocolMisuse:
    return ProtocolMisuse(
        f"stale handle for region {handle.region.rid}: space {space.sid} "
        "changed protocol since it was mapped — re-map after Ace_ChangeProtocol"
    )


class AceRuntime:
    """One Ace runtime instance spanning all nodes of a machine.

    Parameters
    ----------
    fabric:
        The simulated multicomputer (or any coherence-core transport).
    registry:
        Protocol registry (defaults to the library's
        :data:`~repro.protocols.registry.default_registry`).
    config:
        Runtime-layer costs.
    barrier_algorithm:
        ``"hw"`` (CM-5 control network) or ``"dissemination"``.
    n_dir_shards:
        Directory shard count for the shared SC coherence engine (see
        :class:`~repro.dsm.directory.DirectoryService`).  The default 1
        is the flat directory every earlier release ran; serving-scale
        workloads (:mod:`repro.serve`) raise it so home-side state is
        split across independent per-shard tables.
    check:
        Enable the dynamic sanitizer: every annotation call is mirrored
        into a :class:`~repro.sanitize.dynamic.DynamicChecker` (races,
        use-after-unmap).  Strictly zero-cost when ``False`` — the
        checked wrappers are installed as instance attributes only when
        requested, so the default construction path is untouched; even
        when ``True`` the wrappers charge no cycles, so the simulated
        clock matches an unchecked run.
    checker:
        Supply a pre-built checker instead (implies ``check=True``).
    """

    def __init__(
        self,
        fabric,
        registry: ProtocolRegistry | None = None,
        config: AceConfig | None = None,
        barrier_algorithm: str = "hw",
        n_dir_shards: int = 1,
        check: bool = False,
        checker=None,
    ):
        transport = as_transport(fabric)
        self.transport = transport
        self.machine = transport.machine
        self.registry = registry or default_registry
        self.config = config or AceConfig()
        self.regions = RegionDirectory()
        self.spaces: list[Space] = []
        self.region_space: dict[int, Space] = {}
        # Observability: protocol lifecycle is rare, so the runtime only
        # emits space creation / protocol swap events — the per-access
        # dispatch fast path below carries no tracing branches at all
        # (message-level detail comes from the machine layer).
        tracer = transport.tracer
        self._obs = tracer.tracer("runtime") if tracer is not None else None
        # Dynamic sanitizer (built before the coherence engine so the
        # cache/hooks layers can report into it).
        if checker is None and check:
            from repro.sanitize.dynamic import DynamicChecker

            checker = DynamicChecker(
                transport.n_procs,
                obs=tracer.tracer("sanitize") if tracer is not None else None,
                sim=transport.sim,
            )
        self.checker = checker
        # Shared services protocols delegate to — all built over the one
        # transport, so every layer sees the same fabric (and the same
        # traced message path when observability is on).
        self.sc_engine = CoherenceEngine(
            transport,
            self.regions,
            ACE_SC_COSTS,
            stats_prefix="ace.sc",
            n_dir_shards=n_dir_shards,
            checker=checker,
        )
        self.locks = LockService(transport, self.regions, stats_prefix="ace.lock")
        self._barrier = BarrierService(transport, algorithm=barrier_algorithm)
        self._space_ctr = [0] * transport.n_procs
        self._stats = transport.stats
        self._sim = transport.sim
        self._counts = transport.stats.counter_ref()  # hot-path counter access
        # Delay singletons for the fixed runtime charges (see sim.kernel:
        # pooled anyway, but a pre-bound attribute also skips __new__).
        self._d_dispatch = Delay(self.config.dispatch_cost)
        self._d_space_create = Delay(self.config.space_create)
        self._d_gmalloc_extra = Delay(self.config.gmalloc_extra)
        self._d_change_protocol = Delay(self.config.change_protocol)
        if checker is not None:
            self._install_checked(checker)

    # ------------------------------------------------------------------
    # dynamic sanitizer wrappers
    # ------------------------------------------------------------------
    def _install_checked(self, checker) -> None:
        """Swap in checker-notifying variants of the annotation primitives.

        Mirrors the instance-attribute pattern used by the DSM layers
        (:meth:`RegionCache._install_checked`): an unchecked runtime
        keeps the plain bound methods, so ``check=False`` is strictly
        zero-cost.  The wrappers observe and delegate — they yield no
        extra :class:`Delay`, so even a checked run's simulated clock is
        bit-identical to an unchecked one.

        Ordering matters for race detection: accesses are recorded
        *before* the protocol acts (the race exists at the program point
        of the access, not after coherence traffic resolves it), while
        map/lock acquisitions are recorded *after* the delegate returns
        (the resource is only held once the protocol grants it) and lock
        releases *before* (the happens-before edge is published at the
        moment of release).
        """
        inner_map = self.map
        inner_unmap = self.unmap
        inner_start_read = self.start_read
        inner_start_write = self.start_write
        inner_rendezvous = self.rendezvous
        inner_lock = self.lock
        inner_unlock = self.unlock

        def cmap(nid, rid, direct=False):
            handle = yield from inner_map(nid, rid, direct)
            checker.map_acquired(nid, handle.region.rid)
            return handle

        def cunmap(nid, handle, direct=False):
            yield from inner_unmap(nid, handle, direct)
            checker.unmapped(nid, handle.region.rid)

        def cstart_read(nid, handle, direct=False):
            checker.access(nid, handle.region.rid, write=False)
            yield from inner_start_read(nid, handle, direct)

        def cstart_write(nid, handle, direct=False):
            checker.access(nid, handle.region.rid, write=True)
            yield from inner_start_write(nid, handle, direct)

        def crendezvous(nid):
            checker.barrier_arrive(nid)
            yield from inner_rendezvous(nid)

        def clock(nid, rid, direct=False):
            yield from inner_lock(nid, rid, direct)
            checker.lock_acquired(nid, rid)

        def cunlock(nid, rid, direct=False):
            checker.lock_released(nid, rid)
            yield from inner_unlock(nid, rid, direct)

        self.map = cmap
        self.unmap = cunmap
        self.start_read = cstart_read
        self.start_write = cstart_write
        self.rendezvous = crendezvous
        self.lock = clock
        self.unlock = cunlock

    # ------------------------------------------------------------------
    # Table 2 library routines
    # ------------------------------------------------------------------
    def new_space(self, nid: int, protocol_name: str):
        """Generator (collective): ``Ace_NewSpace(protocol)`` → space id.

        All nodes execute the same SPMD allocation sequence; the first
        arrival instantiates the space, later arrivals attach to it.
        """
        yield self._d_space_create
        idx = self._space_ctr[nid]
        self._space_ctr[nid] += 1
        if idx == len(self.spaces):
            space = Space(sid=idx)
            space.protocol = self.registry.create(protocol_name, self, space)
            self.spaces.append(space)
            if self._obs is not None:
                self._obs.emit(self._sim.now, "space.new", nid, -1, idx, protocol_name)
        space = self.spaces[idx]
        if space.protocol.name != protocol_name:
            raise ProtocolMisuse(
                f"SPMD divergence: node {nid} created space {idx} with protocol "
                f"{protocol_name!r} but it already runs {space.protocol.name!r}"
            )
        self._stats.count("ace.new_space")
        yield from space.protocol.init_space(nid)
        return space.sid

    def gmalloc(self, nid: int, sid: int, size: int):
        """Generator: ``Ace_GMalloc(space, size)`` → region id (homed at ``nid``)."""
        space = self._space(sid)
        yield self._d_gmalloc_extra
        rid = yield from space.protocol.create(nid, size)
        space.regions.append(rid)
        self.region_space[rid] = space
        self._stats.count("ace.gmalloc")
        if self._obs is not None:
            # Region→space mapping as data: attribution joins this with
            # space.new / space.protocol events to fold per-region wait
            # cycles into per-protocol buckets.
            self._obs.emit(
                self._sim.now, "region.alloc", nid, -1, rid, sid, size, space.protocol.name
            )
        return rid

    def change_protocol(self, nid: int, sid: int, protocol_name: str):
        """Generator (collective): ``Ace_ChangeProtocol(space, protocol)``.

        Semantics per §3.1: the *old* protocol defines the transition —
        each node flushes its cached state to the base state, everyone
        synchronizes, the protocol object is swapped exactly once, and
        the new protocol initializes per node.  All previously mapped
        handles for the space become stale.
        """
        space = self._space(sid)
        if space.protocol.name == protocol_name:
            # No-op change; still a legal (cheap) collective call.
            yield self._d_change_protocol
            return
        yield self._d_change_protocol
        yield from space.protocol.flush_node(nid)
        yield from self.rendezvous(nid)
        if nid == 0:
            space.pdata = {}
            space.protocol = self.registry.create(protocol_name, self, space)
            space.generation += 1
            self._stats.count("ace.change_protocol")
            if self._obs is not None:
                self._obs.emit(self._sim.now, "space.protocol", nid, -1, sid, protocol_name)
        yield from self.rendezvous(nid)
        yield from space.protocol.init_space(nid)

    def barrier(self, nid: int, sid: int):
        """Generator: ``Ace_Barrier(space)`` — the space's protocol barrier."""
        space = self._space(sid)
        yield self._d_dispatch
        self._counts["ace.barrier"] += 1
        yield from space.protocol.barrier(nid)

    def lock(self, nid: int, rid: int, direct: bool = False):
        """Generator: ``Ace_Lock(region)`` via the region's protocol."""
        space = self._space_of_rid(rid)
        if not direct and not space.protocol.spec.hardware:
            yield self._d_dispatch
        self._counts["ace.lock"] += 1
        yield from space.protocol.lock(nid, rid)

    def unlock(self, nid: int, rid: int, direct: bool = False):
        """Generator: ``Ace_UnLock(region)``."""
        space = self._space_of_rid(rid)
        if not direct and not space.protocol.spec.hardware:
            yield self._d_dispatch
        self._counts["ace.unlock"] += 1
        yield from space.protocol.unlock(nid, rid)

    # ------------------------------------------------------------------
    # Figure 3 primitives (what the compiler inserts)
    # ------------------------------------------------------------------
    def map(self, nid: int, rid: int, direct: bool = False):
        """Generator: ``ACE_MAP`` — region id → local handle."""
        space = self._space_of_rid(rid)
        if not direct and not space.protocol.spec.hardware:
            yield self._d_dispatch
        self._counts["ace.map"] += 1
        handle = yield from space.protocol.map(nid, rid)
        meta = handle.meta
        meta["ace_gen"] = space.generation
        # Cache the region→space resolution on the handle: §4.1's hash
        # lookup is paid once per map, not on every start/end access.
        meta["ace_space"] = space
        return handle

    def unmap(self, nid: int, handle, direct: bool = False):
        """Generator: ``ACE_UNMAP``."""
        space = self._space_of_handle(handle)
        if not direct and not space.protocol.spec.hardware:
            yield self._d_dispatch
        self._counts["ace.unmap"] += 1
        yield from space.protocol.unmap(nid, handle)

    # The four access primitives below inline ``_dispatch`` (and fetch
    # ``space.protocol`` once): every shared access in the system funnels
    # through them, so one saved call and attribute probe each is a
    # measurable slice of fig7a/fig7b wall time.
    def start_read(self, nid: int, handle, direct: bool = False):
        """Generator: ``ACE_START_READ``."""
        meta = handle.meta
        space = meta.get("ace_space")
        if space is None:
            space = self._space_of_rid(handle.region.rid)
        if meta.get("ace_gen") != space.generation:
            raise _stale_handle(handle, space)
        self._counts["ace.start_read"] += 1
        proto = space.protocol
        if proto.soft and not direct:
            yield self._d_dispatch
        yield from proto.start_read(nid, handle)

    def end_read(self, nid: int, handle, direct: bool = False):
        """Generator: ``ACE_END_READ``."""
        meta = handle.meta
        space = meta.get("ace_space")
        if space is None:
            space = self._space_of_rid(handle.region.rid)
        if meta.get("ace_gen") != space.generation:
            raise _stale_handle(handle, space)
        self._counts["ace.end_read"] += 1
        proto = space.protocol
        if proto.soft and not direct:
            yield self._d_dispatch
        yield from proto.end_read(nid, handle)

    def start_write(self, nid: int, handle, direct: bool = False):
        """Generator: ``ACE_START_WRITE``."""
        meta = handle.meta
        space = meta.get("ace_space")
        if space is None:
            space = self._space_of_rid(handle.region.rid)
        if meta.get("ace_gen") != space.generation:
            raise _stale_handle(handle, space)
        self._counts["ace.start_write"] += 1
        proto = space.protocol
        if proto.soft and not direct:
            yield self._d_dispatch
        yield from proto.start_write(nid, handle)

    def end_write(self, nid: int, handle, direct: bool = False):
        """Generator: ``ACE_END_WRITE``."""
        meta = handle.meta
        space = meta.get("ace_space")
        if space is None:
            space = self._space_of_rid(handle.region.rid)
        if meta.get("ace_gen") != space.generation:
            raise _stale_handle(handle, space)
        self._counts["ace.end_write"] += 1
        proto = space.protocol
        if proto.soft and not direct:
            yield self._d_dispatch
        yield from proto.end_write(nid, handle)

    # ------------------------------------------------------------------
    # services used by protocols
    # ------------------------------------------------------------------
    def rendezvous(self, nid: int):
        """Generator: the bare global barrier (no protocol actions)."""
        yield from self._barrier.wait(nid)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _space(self, sid: int) -> Space:
        try:
            return self.spaces[sid]
        except IndexError:
            raise ProtocolMisuse(f"unknown space id {sid}") from None

    def _space_of_rid(self, rid: int) -> Space:
        space = self.region_space.get(rid)
        if space is None:
            raise ProtocolMisuse(f"region {rid} was not allocated with Ace_GMalloc")
        return space

    def _space_of_handle(self, handle) -> Space:
        space = handle.meta.get("ace_space")
        if space is not None:
            return space
        return self._space_of_rid(handle.region.rid)

    def space_protocol(self, sid: int) -> str:
        """Name of the protocol currently bound to ``sid`` (for tests/tools)."""
        return self._space(sid).protocol.name
