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

from functools import partial

import numpy as np

from repro.dsm.costs import DSMCosts
from repro.dsm.errors import ProtocolError
from repro.dsm.faults import _DEFER
from repro.dsm.msi import MSI_TABLE, engine_view
from repro.dsm.transport import Transport
from repro.machine.stats import intern_key
from repro.memory import Region, RegionCopy, RegionDirectory


class RegionCache:
    """Per-node cached-copy tables and the invalidation receive side."""

    #: writeback log, a dict only on recovery-enabled fabrics (see
    #: _install_reliable) — class default keeps the probe one attr read.
    _wb_log = None

    def __init__(
        self,
        transport: Transport,
        regions: RegionDirectory,
        costs: DSMCosts,
        prefix: str = "dsm",
        obs=None,
        checker=None,
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
        self._cat_inval_ack = intern_key(prefix, "inval_ack")
        self._sim = transport.sim
        self._post = transport.post
        self._after = transport.after
        self._defer_post = transport.defer_post
        # Stable bound handler (see DirectoryService).
        self._h_inval_req = self._on_inval_req
        # Home-side invalidation-ack handler; see wire_directory.
        self._h_inval_ack = None
        if not transport.reliable:
            # Acked fan-out receive (out of the port's idioms, DESIGN.md
            # §9): a recall's ack may be *deferred* past the handler, so
            # this side keeps its own per-seq record.
            self._install_reliable(transport)
        if checker is not None:
            self._install_checked(checker)

    def _install_checked(self, checker) -> None:
        """Swap in sanitizer-notifying variants of install/invalidate.

        Same pattern as :meth:`_install_reliable`: a checker-less cache
        keeps the original methods, so the dynamic sanitizer is strictly
        zero-cost when off.  Notifications change no simulated state and
        charge no cycles, so even a checked run keeps its clock.
        """
        self._checker = checker
        inner_install = self.install
        inner_apply = self._apply_inval

        def install(nid, region):
            copy = inner_install(nid, region)
            checker.cache_installed(nid, region.rid)
            return copy

        def _apply_inval(copy, mode):
            inner_apply(copy, mode)
            if copy.state == "invalid":
                checker.cache_invalidated(copy.node, copy.region.rid)

        self.install = install
        self._apply_inval = _apply_inval

        inner_apply_r = self._apply_inval_r

        def _apply_inval_r(copy, mode, fut, seq):
            inner_apply_r(copy, mode, fut, seq)
            if copy.state == "invalid":
                checker.cache_invalidated(copy.node, copy.region.rid)

        self._apply_inval_r = _apply_inval_r

    def _install_reliable(self, transport) -> None:
        """Swap in the ack'd invalidation receive side (lossy fabric).

        Reliable invalidations arrive as sequence-numbered retried
        posts carrying a future; the ack is a reply on that future
        (data rides along), and ``_inval_done`` keeps each logical
        invalidation exactly-once: duplicates of an unapplied/deferred
        request are dropped (the original will ack), duplicates of a
        completed one get the recorded ack replayed.
        """
        self._inval_done: dict = {}  # seq -> _DEFER | (data, payload_words)
        self._reply = transport.reply
        self._h_inval_req = self._on_inval_req_r
        self._fire_deferred = self._fire_deferred_r
        if transport.recovery is not None:
            # Crash recovery can re-issue a recall this node already
            # applied (the re-homed successor cannot know which of the
            # old home's invalidations landed) — tolerate instead of
            # treating a missing copy as a protocol bug.
            self._h_inval_req = self._on_inval_req_rt
            # (nid, rid) -> data of this node's last applied dirty
            # writeback: if the ack carrying it dies with the home, the
            # re-homed rebuild adopts it from here instead of losing a
            # surviving node's writes.
            self._wb_log: dict = {}

    def wire_directory(self, directory) -> None:
        """Bind the home-side handler invalidation acks are sent to."""
        self._h_inval_ack = directory._h_inval_ack

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
        copy.meta["read_count"] = 0
        copy.meta["write_count"] = 0
        copy.meta["map_count"] = 0
        copy.meta["deferred"] = []
        self.tables[nid][region.rid] = copy
        return copy

    def _trace_state(self, nid: int, rid: int, state: str) -> None:
        """Emit a region state transition (callers gate on ``self._obs``)."""
        self._obs.emit(self._sim.now, "region.state", nid, -1, rid, state)

    # ------------------------------------------------------------------
    # invalidation receive side (handler context)
    # ------------------------------------------------------------------
    def _on_inval_req(self, node, src_home, rid, mode):
        copy = self.tables[node.nid].get(rid)
        if copy is None:  # pragma: no cover - directory targets only holders
            raise ProtocolError(f"invalidate for uncached region {rid} at node {node.nid}")
        if copy.meta["read_count"] or copy.meta["write_count"]:
            copy.meta["deferred"].append(mode)
            self._counts[self._k_inval_deferred] += 1
            return
        self._apply_inval(copy, mode)

    def _apply_inval(self, copy: RegionCopy, mode: str) -> None:
        region = copy.region
        st = copy.state
        dirty = st in self._dirty_states
        data = copy.data.copy() if dirty else None
        # The table's next-state map for this recall mode; states it
        # does not cover (already invalid, home alias) keep their state.
        copy.state = self._inval_next[mode].get(st, st)
        if self._obs is not None:
            self._trace_state(copy.node, region.rid, copy.state)
        payload = region.size if dirty else self.costs.meta_words
        # handler work before the ack leaves the node; defer_post keeps
        # the causal link to the inval request across the deferral
        self._defer_post(
            self.costs.inval_handler,
            copy.node,
            region.home,
            self._h_inval_ack,
            region.rid,
            copy.node,
            mode,
            data,
            payload_words=payload,
            category=self._cat_inval_ack,
        )

    def _fire_deferred(self, copy: RegionCopy) -> None:
        deferred = copy.meta["deferred"]
        while deferred:
            self._apply_inval(copy, deferred.pop(0))

    # ------------------------------------------------------------------
    # reliable variants (installed by _install_reliable)
    # ------------------------------------------------------------------
    def _on_inval_req_r(self, node, src_home, fut, rid, mode, seq):
        done = self._inval_done.get(seq)
        if done is not None:
            if done is not _DEFER:
                data, payload = done
                self._reply(fut, data, payload_words=payload, category=self._cat_inval_ack)
            return
        copy = self.tables[node.nid].get(rid)
        if copy is None:  # pragma: no cover - directory targets only holders
            raise ProtocolError(f"invalidate for uncached region {rid} at node {node.nid}")
        if copy.meta["read_count"] or copy.meta["write_count"]:
            self._inval_done[seq] = _DEFER
            copy.meta["deferred"].append((mode, fut, seq))
            self._counts[self._k_inval_deferred] += 1
            return
        self._apply_inval_r(copy, mode, fut, seq)

    def _apply_inval_r(self, copy: RegionCopy, mode: str, fut, seq) -> None:
        region = copy.region
        st = copy.state
        dirty = st in self._dirty_states
        data = copy.data.copy() if dirty else None
        if dirty and self._wb_log is not None:
            self._wb_log[(copy.node, region.rid)] = data
        copy.state = self._inval_next[mode].get(st, st)
        if self._obs is not None:
            self._trace_state(copy.node, region.rid, copy.state)
        payload = region.size if dirty else self.costs.meta_words
        self._inval_done[seq] = (data, payload)
        self._after(
            self.costs.inval_handler,
            partial(self._reply, fut, data, payload_words=payload, category=self._cat_inval_ack),
        )

    def _fire_deferred_r(self, copy: RegionCopy) -> None:
        deferred = copy.meta["deferred"]
        while deferred:
            mode, fut, seq = deferred.pop(0)
            self._apply_inval_r(copy, mode, fut, seq)

    def _on_inval_req_rt(self, node, src_home, fut, rid, mode, seq):
        """Recovery-tolerant invalidation receive (see _install_reliable):
        an invalidation for a copy this node no longer holds is already
        satisfied — ack it idempotently."""
        if self.tables[node.nid].get(rid) is None and self._inval_done.get(seq) is None:
            payload = self.costs.meta_words
            self._inval_done[seq] = (None, payload)
            self._after(
                self.costs.inval_handler,
                partial(self._reply, fut, None, payload_words=payload, category=self._cat_inval_ack),
            )
            return
        self._on_inval_req_r(node, src_home, fut, rid, mode, seq)
