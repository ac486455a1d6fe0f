"""The invalidation family's copy side: per-node copies and the recall receive side.

:class:`RecallReceiver` holds each node's cached
:class:`~repro.memory.region.RegionCopy` table and runs, in handler
context, what a node does when its home recalls or forwards a copy —
written once, compiled from a :class:`~repro.spec.table.ProtocolTable`'s
node rows for its message events (``invalidate``, ``downgrade``,
``fwd_read``): the row's next state, its writeback, and its ack or
cache-to-cache supply.  A message that reaches a copy with an open
access (``reads``/``writes``) is deferred until the access ends —
required for sequential consistency.

Like the home side (:mod:`repro.dsm.directory`), it answers through a
*wire*: :class:`RegionCache` is the coherence engine's, the Owned
protocol is its own, and :mod:`repro.verify.modelcheck` has an
abstract one.

The copy tables are exposed as :attr:`RecallReceiver.tables` (a list
of per-node dicts) so the map fast path in
:class:`~repro.dsm.hooks.ProtocolHooks` can probe them directly — the
layer boundary adds no indirection on the map path.
"""

from __future__ import annotations

import numpy as np

from repro.dsm.costs import DSMCosts
from repro.dsm.errors import ProtocolError
from repro.dsm.msi import MSI_TABLE, home_alias
from repro.dsm.transport import Transport
from repro.machine.stats import intern_key
from repro.memory import Region, RegionCopy
from repro.spec.table import HOOK_EVENTS, KEEP


class RecallReceiver:
    """Per-node copy tables and the table-driven recall/forward receive side."""

    #: (nid, rid) -> data of that node's last applied dirty writeback; a
    #: dict only when crash recovery is armed.  If the ack carrying it dies
    #: with the home, the re-homed rebuild adopts it from here instead of
    #: losing a surviving node's writes.
    _wb_log = None
    #: Stat key a deferred message is counted under, if any (with the
    #: live counter mapping in ``_counts``).
    _k_deferred = None

    def __init__(self, table, wire, n_procs: int, obs=None, sim=None):
        self.wire = wire
        self.home_state = home_alias(table)
        # event -> {state: (next or None, writeback, ack, supply)}; a
        # state without a row is "unheld" and answered by the wire.
        self._rows: dict[str, dict] = {}
        dirty = set()
        for event in table.events("node"):
            if event in HOOK_EVENTS:
                continue
            rows = self._rows[event] = {}
            for state in table.node_states:
                match = table.lookup("node", state, event)
                if not match:
                    continue
                t = match[0]
                wb = "writeback" in t.actions
                if wb:
                    dirty.add(state)
                nxt = None if t.next == KEEP else t.next
                rows[state] = (nxt, wb, "ack" in t.actions, "supply" in t.actions)
        #: states whose copies are dirty (write back on recall)
        self.dirty_states = frozenset(dirty)
        #: per-node cache of copies: node id -> {rid: RegionCopy}
        self.tables: list[dict[int, RegionCopy]] = [dict() for _ in range(n_procs)]
        # Observability handle (None when tracing is off).
        self._obs = obs
        self._sim = sim

    # ------------------------------------------------------------------
    # copy management
    # ------------------------------------------------------------------
    def copy_of(self, nid: int, rid: int) -> RegionCopy | None:
        """The node's cached copy of ``rid``, if any (None otherwise)."""
        return self.tables[nid].get(rid)

    def install(self, nid: int, region: Region) -> RegionCopy:
        """Create and table a fresh copy of ``region`` on ``nid``.

        The home's copy aliases canonical storage; remote copies start
        in the base state until a fill.
        """
        copy = RegionCopy(region, nid)
        if region.home == nid:
            copy.data = region.home_data  # the home's copy aliases canonical storage
            copy.state = self.home_state
        self.tables[nid][region.rid] = copy
        return copy

    def _trace_state(self, nid: int, rid: int, state: str) -> None:
        """Emit a region state transition (callers gate on ``self._obs``)."""
        self._obs.emit(self._sim.now, "region.state", nid, -1, rid, state)

    # ------------------------------------------------------------------
    # recall / forward receive side (handler context)
    # ------------------------------------------------------------------
    def receive(self, nid: int, rid: int, event: str, answer, aux=None) -> None:
        """A recall or forward from the home.  ``answer`` is how the wire
        replies to it; ``aux`` is what a forward supplies to."""
        copy = self.tables[nid].get(rid)
        if copy is None:
            self.wire.unheld(nid, rid, None, event, answer, aux)
        elif copy.reads or copy.writes:  # applied once the open access ends
            copy.deferred += ((event, answer, aux),)
            if self._k_deferred is not None:
                self._counts[self._k_deferred] += 1
        else:
            self.apply(copy, event, answer, aux)

    def apply(self, copy: RegionCopy, event: str, answer, aux=None) -> None:
        row = self._rows[event].get(copy.state)
        if row is None:
            self.wire.unheld(copy.node, copy.region.rid, copy, event, answer, aux)
            return
        nxt, wb, ack, supply = row
        wire = self.wire
        data = wire.snapshot(copy.data) if wb or supply else None
        if wb and self._wb_log is not None:
            self._wb_log[(copy.node, copy.region.rid)] = data
        if nxt is not None:
            copy.state = nxt
        if self._obs is not None:
            self._trace_state(copy.node, copy.region.rid, copy.state)
        if ack:
            wire.acked(copy, event, answer, data if wb else None)
        if supply:
            wire.supplied(copy, aux, data)

    def fire_deferred(self, copy: RegionCopy) -> None:
        """The copy's last open access ended: apply what waited on it."""
        deferred, copy.deferred = copy.deferred, ()
        for event, answer, aux in deferred:
            self.apply(copy, event, answer, aux)


class RegionCache(RecallReceiver):
    """The coherence engine's copies, invalidation handler and node-side wire."""

    def __init__(
        self,
        transport: Transport,
        costs: DSMCosts,
        prefix: str = "dsm",
        obs=None,
        table=None,
    ):
        super().__init__(
            table if table is not None else MSI_TABLE, self, transport.n_procs, obs, transport.sim
        )
        self.costs = costs
        self._counts = transport.stats.counter_ref()
        self._k_deferred = intern_key(prefix, "inval_deferred")
        if transport.recovery is not None:
            self._wb_log = {}

    def _on_inval_req(self, node, src_home, ack, rid, mode):
        """A recall from the home; ``ack(data, payload_words, delay)`` answers
        it — at once, or when the open access that defers it ends."""
        self.receive(node.nid, rid, mode, ack)

    # ------------------------------------------------------------------
    # the engine's wire
    # ------------------------------------------------------------------
    snapshot = staticmethod(np.ndarray.copy)

    def acked(self, copy: RegionCopy, event: str, ack, data) -> None:
        region = copy.region
        if copy.node == region.home:
            # Post-recovery only: the re-homed successor's remote-style
            # copy of its own region returns to the home alias.
            copy.data = region.home_data
            copy.state = self.home_state
        # handler work before the ack leaves the node
        size = region.size if data is not None else self.costs.meta_words
        ack(data, size, self.costs.inval_handler)

    def unheld(self, nid: int, rid: int, copy, event: str, ack, aux) -> None:
        if copy is None:
            if self._wb_log is None:  # pragma: no cover - directory targets only holders
                raise ProtocolError(f"invalidate for uncached region {rid} at node {nid}")
            # Crash recovery can re-issue a recall this node already
            # applied (the re-homed successor cannot know which of the
            # old home's invalidations landed): already satisfied.
        elif self._obs is not None:
            self._trace_state(nid, rid, copy.state)  # no row: the state is kept
        ack(None, self.costs.meta_words, self.costs.inval_handler)
