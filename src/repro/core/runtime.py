"""The Ace runtime: Table 2 library routines + Figure 3 primitives.

Every data primitive performs the §4.1 dispatch: resolve the region's
space via the region→space hash table, then call through the space's
protocol pointers.  ``direct=True`` on a primitive skips the dispatch
charge — that is exactly what the compiler's direct-dispatch
optimization emits when dataflow analysis proves the protocol unique.

``map``, ``unmap`` and the four access primitives are plain functions
that *return the protocol's generator*; the dispatch charge travels down as
the hook's ``lead`` argument and the protocol's first fixed charge
absorbs it (DESIGN.md §6, "One charge per access"): a hit is one
kernel event, not two.  A caller that owes cycles of its own (AceC's
pending compute) adds them as a trailing ``lead``, at most ``lead_room``.
"""

from __future__ import annotations

from repro.core.config import AceConfig
from repro.core.space import Space
from repro.dsm import ACE_SC_COSTS, BarrierService, CoherenceEngine, LockService, as_transport
from repro.memory import RegionDirectory
from repro.protocols.base import ProtocolMisuse
from repro.protocols.registry import ProtocolRegistry, default_registry
from repro.sim import Delay


#: The protocol entry points the runtime hands its dispatch charge to.
_LED_HOOKS = ("map", "unmap", "start_read", "end_read", "start_write", "end_write")

#: The dearest fixed charge a lead can join (a cold SC map): test_access_charges.py
#: holds every cost table and registry ``ProtocolTable`` to it.
DEAREST_LED_CHARGE = 60


def _takes_lead(hook) -> bool:
    """Does ``hook`` (a function or bound method) declare a ``lead`` parameter?"""
    code = getattr(hook, "__code__", None)
    return code is not None and "lead" in code.co_varnames[: code.co_argcount]


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
    """

    def __init__(
        self,
        fabric,
        registry: ProtocolRegistry | None = None,
        config: AceConfig | None = None,
        barrier_algorithm: str = "hw",
        n_dir_shards: int = 1,
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
        # Shared services protocols delegate to — all built over the one
        # transport, so every layer sees the same fabric (and the same
        # traced message path when observability is on).
        self.sc_engine = CoherenceEngine(
            transport,
            self.regions,
            ACE_SC_COSTS,
            stats_prefix="ace.sc",
            n_dir_shards=n_dir_shards,
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
        self._lead = self.config.dispatch_cost  # ... or joins the protocol's first charge
        #: The most cycles a caller may add to a primitive's ``lead``: with
        #: the dispatch and the dearest charge they join, still shorter than
        #: the shortest message (DESIGN.md §6).
        cfg = self.machine.config
        room = cfg.network_latency + cfg.am_receive_overhead - 1 - self._lead - DEAREST_LED_CHARGE
        self.lead_room = max(room, 0)
        self._d_space_create = Delay(self.config.space_create)
        self._d_gmalloc_extra = Delay(self.config.gmalloc_extra)
        self._d_change_protocol = Delay(self.config.change_protocol)

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
            space.protocol = self._create_protocol(protocol_name, space)
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
            space.protocol = self._create_protocol(protocol_name, space)
            space.generation += 1
            self._stats.count("ace.change_protocol")
            if self._obs is not None:
                self._obs.emit(self._sim.now, "space.protocol", nid, -1, sid, protocol_name)
        yield from self.rendezvous(nid)
        yield from space.protocol.init_space(nid)

    def _create_protocol(self, protocol_name: str, space: Space):
        """Instantiate ``protocol_name`` for ``space``.  A hook that
        declares no ``lead`` (a user protocol's plain ``(nid, handle)``
        generators, a table hook bound straight to its one action) is
        wrapped once, here, so the access primitives stay branch-free."""
        proto = self.registry.create(protocol_name, self, space)
        for name in _LED_HOOKS:
            hook = getattr(proto, name)
            if not _takes_lead(hook):
                setattr(proto, name, self._charge_then(hook))
        return proto

    def _charge_then(self, hook):
        """The charge rule in its general form: the lead (this runtime's
        dispatch plus the caller's own) as one ``Delay``, then ``hook`` —
        what a hook that absorbs its lead must equal, cycle for cycle (the
        oracle of ``tests/core/test_access_charges.py``)."""

        def led(nid, arg, lead=0):
            if lead:
                yield Delay(lead)
            return (yield from hook(nid, arg))

        return led

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
    def map(self, nid: int, rid: int, direct: bool = False, lead: int = 0):
        """``ACE_MAP`` (returns the protocol's generator).  Its handle comes
        back stamped with its ``space``: §4.1's lookup is paid once per map."""
        space = self._space_of_rid(rid)
        self._counts["ace.map"] += 1
        proto = space.protocol
        return proto.map(nid, rid, lead + self._lead if proto.soft and not direct else lead)

    # Every shared access in the system funnels through the four access
    # primitives, so they inline the stale check rather than share a helper.
    def unmap(self, nid: int, handle, direct: bool = False, lead: int = 0):
        """``ACE_UNMAP`` (returns the protocol's generator)."""
        space = self._space_of_handle(handle)
        self._counts["ace.unmap"] += 1
        proto = space.protocol
        return proto.unmap(nid, handle, lead + self._lead if proto.soft and not direct else lead)

    def start_read(self, nid: int, handle, direct: bool = False, lead: int = 0):
        """``ACE_START_READ`` (returns the protocol's generator)."""
        space = handle.space  # stamped, with gen, by the protocol's map
        if space is None or handle.gen != space.generation:
            raise self._stale_handle(handle)
        self._counts["ace.start_read"] += 1
        proto = space.protocol
        return proto.start_read(nid, handle, lead + self._lead if proto.soft and not direct else lead)

    def end_read(self, nid: int, handle, direct: bool = False, lead: int = 0):
        """``ACE_END_READ`` (returns the protocol's generator)."""
        space = handle.space
        if space is None or handle.gen != space.generation:
            raise self._stale_handle(handle)
        self._counts["ace.end_read"] += 1
        proto = space.protocol
        return proto.end_read(nid, handle, lead + self._lead if proto.soft and not direct else lead)

    def start_write(self, nid: int, handle, direct: bool = False, lead: int = 0):
        """``ACE_START_WRITE`` (returns the protocol's generator)."""
        space = handle.space
        if space is None or handle.gen != space.generation:
            raise self._stale_handle(handle)
        self._counts["ace.start_write"] += 1
        proto = space.protocol
        return proto.start_write(nid, handle, lead + self._lead if proto.soft and not direct else lead)

    def end_write(self, nid: int, handle, direct: bool = False, lead: int = 0):
        """``ACE_END_WRITE`` (returns the protocol's generator)."""
        space = handle.space
        if space is None or handle.gen != space.generation:
            raise self._stale_handle(handle)
        self._counts["ace.end_write"] += 1
        proto = space.protocol
        return proto.end_write(nid, handle, lead + self._lead if proto.soft and not direct else lead)

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
        return handle.space or self._space_of_rid(handle.region.rid)

    def _stale_handle(self, handle) -> ProtocolMisuse:
        space = self._space_of_handle(handle)  # raises for a region no space owns
        return ProtocolMisuse(
            f"stale handle for region {handle.region.rid}: space {space.sid} "
            "changed protocol since it was mapped — re-map after Ace_ChangeProtocol"
        )

    def space_protocol(self, sid: int) -> str:
        """Name of the protocol currently bound to ``sid`` (for tests/tools)."""
        return self._space(sid).protocol.name
