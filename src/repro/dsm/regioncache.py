"""RegionCache: per-node remote-copy state.

The node side of the MSI protocol: which regions each node holds, in
what state (``invalid``/``shared``/``excl``/``home``), with what open
access counts, and the invalidation handler that runs when the home
recalls a copy.  Invalidations arriving while a copy is in use are
deferred until the matching ``end_read``/``end_write`` — required for
sequential consistency.

The copy tables are exposed as :attr:`RegionCache.tables` (a list of
per-node dicts) so the access fast path in
:class:`~repro.dsm.hooks.ProtocolHooks` can probe them directly — the
layer boundary adds no indirection on the hit path.
"""

from __future__ import annotations

from repro.dsm.costs import DSMCosts
from repro.dsm.errors import ProtocolError
from repro.dsm.msi import MSI_TABLE, engine_view
from repro.dsm.transport import Transport
from repro.machine.stats import intern_key
from repro.memory import Region, RegionCopy, RegionDirectory


class RegionCache:
    """Per-node cached-copy tables and the invalidation receive side."""

    #: (nid, rid) -> data of that node's last applied dirty writeback; a
    #: dict only when crash recovery is armed.  If the ack carrying it dies
    #: with the home, the re-homed rebuild adopts it from here instead of
    #: losing a surviving node's writes.
    _wb_log = None

    def __init__(
        self,
        transport: Transport,
        regions: RegionDirectory,
        costs: DSMCosts,
        prefix: str = "dsm",
        obs=None,
        table=None,
    ):
        self.transport = transport
        self.regions = regions
        self.costs = costs
        self.prefix = prefix
        # The node-side state machine, derived from the protocol table
        # (see repro.dsm.msi): which states are dirty and where each
        # recall mode sends them.  Bound once; the handlers below read
        # these exactly as they used to read string literals.
        view = engine_view(table if table is not None else MSI_TABLE)
        self._home_state = view.home_state
        self._dirty_states = view.dirty_states
        self._inval_next = view.inval_next
        # Observability handle (None when tracing is off): shared with
        # the hooks layer by the composing engine.
        self._obs = obs
        #: per-node cache of copies: node id -> {rid: RegionCopy}
        self.tables: list[dict[int, RegionCopy]] = [dict() for _ in range(transport.n_procs)]
        self._counts = transport.stats.counter_ref()
        self._k_inval_deferred = intern_key(prefix, "inval_deferred")
        self._sim = transport.sim
        if transport.recovery is not None:
            self._wb_log = {}

    # ------------------------------------------------------------------
    # copy management
    # ------------------------------------------------------------------
    def copy_of(self, nid: int, rid: int) -> RegionCopy | None:
        """The node's cached copy of ``rid``, if any (None otherwise)."""
        return self.tables[nid].get(rid)

    def install(self, nid: int, region: Region) -> RegionCopy:
        """Create and table a fresh copy of ``region`` on ``nid``.

        The home's copy aliases canonical storage; remote copies start
        ``invalid`` until the hooks layer fills them.
        """
        copy = RegionCopy(region, nid)
        if region.home == nid:
            copy.data = region.home_data  # the home's copy aliases canonical storage
            copy.state = self._home_state
        self.tables[nid][region.rid] = copy
        return copy

    def _trace_state(self, nid: int, rid: int, state: str) -> None:
        """Emit a region state transition (callers gate on ``self._obs``)."""
        self._obs.emit(self._sim.now, "region.state", nid, -1, rid, state)

    # ------------------------------------------------------------------
    # invalidation receive side (handler context)
    # ------------------------------------------------------------------
    def _on_inval_req(self, node, src_home, ack, rid, mode):
        """A recall from the home; ``ack(data, payload_words, delay)`` answers
        it — at once, or when the open access that defers it ends."""
        copy = self.tables[node.nid].get(rid)
        if copy is None:
            if self._wb_log is None:  # pragma: no cover - directory targets only holders
                raise ProtocolError(f"invalidate for uncached region {rid} at node {node.nid}")
            # Crash recovery can re-issue a recall this node already
            # applied (the re-homed successor cannot know which of the
            # old home's invalidations landed): already satisfied.
            ack(None, self.costs.meta_words, self.costs.inval_handler)
            return
        if copy.reads or copy.writes:
            copy.deferred += ((mode, ack),)
            self._counts[self._k_inval_deferred] += 1
            return
        self._apply_inval(copy, mode, ack)

    def _apply_inval(self, copy: RegionCopy, mode: str, ack) -> None:
        region = copy.region
        st = copy.state
        dirty = st in self._dirty_states
        data = copy.data.copy() if dirty else None
        if dirty and self._wb_log is not None:
            self._wb_log[(copy.node, region.rid)] = data
        # The table's next-state map for this recall mode; states it
        # does not cover (already invalid, home alias) keep their state.
        copy.state = self._inval_next[mode].get(st, st)
        if self._obs is not None:
            self._trace_state(copy.node, region.rid, copy.state)
        # handler work before the ack leaves the node
        ack(data, region.size if dirty else self.costs.meta_words, self.costs.inval_handler)

    def _fire_deferred(self, copy: RegionCopy) -> None:
        deferred, copy.deferred = copy.deferred, ()
        for mode, ack in deferred:
            self._apply_inval(copy, mode, ack)
