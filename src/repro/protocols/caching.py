"""Shared machinery for custom protocols that keep per-node cached copies.

Most custom protocols (Null, the update family, HomeWrite,
PipelinedWrite) share a shape: regions are fetched whole from their
home on first map and cached locally; the protocols differ in *when* a
cached copy is refreshed or pushed.  :class:`CachedCopyProtocol`
factors out the copy tables, the map fast path, and the home-side
fetch handler; subclasses hook :meth:`_fetch_extra` (home-side
registration at fetch time — e.g. recording a sharer) and
:meth:`_after_fetch` (requester-side install bookkeeping).
"""

from __future__ import annotations

import numpy as np

from repro.machine.stats import intern_key
from repro.memory import RegionCopy
from repro.protocols.base import _POOL, _POOL_SIZE, Protocol, TableProtocol
from repro.sim import Delay


class CachedCopyProtocol(Protocol):
    """Base for protocols with whole-region caching and home-side truth.

    Class attributes subclasses may tune:

    ``ALIAS_HOME``
        If True (default), the home node's copy aliases the canonical
        array, so home writes hit it directly.  Protocols that compute
        write *deltas* (PipelinedWrite) set this False so the home's
        working copy is distinct from the merge target.
    """

    CREATE_COST = 90
    MAP_HIT_COST = 12
    MAP_COLD_COST = 45
    UNMAP_COST = 6
    ALIAS_HOME = True

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._copies: list[dict[int, RegionCopy]] = [dict() for _ in range(self.transport.n_procs)]
        # The fabric, through the reliability seam (DESIGN.md §9).  The
        # fetch handler is idempotent (metadata read + set-add in
        # _fetch_extra): a retransmitted fetch simply re-replies.
        port = self.port = self.transport.port(f"proto.{self.spec.name}")
        self._rpc = port.call
        self._post = port.post
        self._reply = port.reply
        self._h_fetch = port.idempotent(self._on_fetch)
        port.watch((f"proto.{self.spec.name}.fetch",))
        self._d_create = Delay(self.CREATE_COST)
        self._k_map_hit = intern_key("proto", self.spec.name, "map_hit")
        self._k_map_cold = intern_key("proto", self.spec.name, "map_cold")

    # -- data management ----------------------------------------------
    def create(self, nid: int, size: int):
        yield self._d_create
        region = self.regions.alloc(home=nid, size=size)
        self._install(nid, region)
        self._count("create")
        return region.rid

    def map(self, nid: int, rid: int, lead: int = 0):
        copy = self._copies[nid].get(rid)  # only this node's own task installs copies
        if copy is not None:
            yield _POOL[c] if (c := lead + self.MAP_HIT_COST) < _POOL_SIZE else Delay(c)
            self._counts[self._k_map_hit] += 1
        else:
            yield _POOL[c] if (c := lead + self.MAP_COLD_COST) < _POOL_SIZE else Delay(c)
            region = self.regions.get(rid)
            copy = self._install(nid, region)
            if nid != region.home:
                data, extra = yield from self._rpc(
                    nid,
                    region.home,
                    self._h_fetch,
                    rid,
                    payload_words=2,  # request is metadata-only; the reply carries data
                    category=f"proto.{self.spec.name}.fetch",
                )
                if nid != region.home:
                    if copy.state != "valid":
                        np.copyto(copy.data, data)
                    # else a push overtook a delayed reply: what it installed is newer
                    copy.state = "valid"
                    self._after_fetch(nid, copy, extra)
                # else: the home died mid-fetch and this node is the re-homed
                # successor — on_node_dead already made this copy the home
                # alias; the retargeted reply must not demote it to "valid".
            self._counts[self._k_map_cold] += 1
        copy.mapped = True
        copy.space, copy.gen = self.space, self.space.generation
        return copy

    def unmap(self, nid: int, handle, lead: int = 0):
        yield _POOL[c] if (c := lead + self.UNMAP_COST) < _POOL_SIZE else Delay(c)
        handle.mapped = False

    def _install(self, nid: int, region) -> RegionCopy:
        copy = RegionCopy(region, nid)
        if nid == region.home:
            if self.ALIAS_HOME:
                copy.data = region.home_data
            else:
                np.copyto(copy.data, region.home_data)
            copy.state = "home"
        self._copies[nid][region.rid] = copy
        return copy

    # -- home-side fetch (handler context) ------------------------------
    def _on_fetch(self, node, src, fut, rid):
        region = self.regions.get(rid)
        extra = self._fetch_extra(rid, src)
        self._reply(
            fut,
            (region.home_data.copy(), extra),
            payload_words=region.size,
            category=f"proto.{self.spec.name}.fetch_data",
        )

    def _fetch_extra(self, rid: int, src: int):
        """Home-side hook at fetch time (register sharers, return versions)."""
        return None

    # -- sharer-side push (handler context) -------------------------------
    def _on_push(self, node, src, ack, rid, data):
        """Fan-out receiver of the update protocols (bound with
        ``port.answers``): install a pushed region and answer it.  The
        ``valid`` mark is how :meth:`map` knows a push overtook its reply."""
        copy = self._copies[node.nid].get(rid)
        if copy is not None:
            np.copyto(copy.data, data)
            copy.state = "valid"
        ack()

    def _after_fetch(self, nid: int, copy: RegionCopy, extra) -> None:
        """Requester-side hook after a fetched copy is installed."""

    # -- crash recovery ---------------------------------------------------
    def _register_recovery(self, manager) -> None:
        super()._register_recovery(manager)
        # A fetch whose home died is retargeted to the region's new home
        # (the handler is idempotent, so a duplicate delivery is safe).
        manager.register_home_categories((f"proto.{self.spec.name}.fetch",), self.regions)

    def on_node_dead(self, dead: int, manager, rehomed: dict) -> None:
        """Base shrink for cached-copy protocols: the dead node's copies
        are gone, and the successor's copy of a re-homed region becomes
        the home copy (home data is the surviving authority for this
        protocol family — homes apply state synchronously)."""
        self._copies[dead].clear()
        for rid, region in rehomed.items():
            copy = self._copies[region.home].get(rid)
            if copy is not None and copy.state != "home":
                if self.ALIAS_HOME:
                    copy.data = region.home_data
                else:
                    np.copyto(copy.data, region.home_data)
                copy.state = "home"

    # -- lifecycle -------------------------------------------------------
    def flush_node(self, nid: int):
        """Default flush: drop this node's non-home copies.

        Correct for every protocol whose home data is kept current
        synchronously; protocols with buffered state override and
        drain it first.
        """
        table = self._copies[nid]
        for rid in list(table):
            if self.regions.get(rid).home != nid:
                del table[rid]
        return
        yield  # pragma: no cover - makes this a generator

    # -- introspection (tests) ---------------------------------------------
    def cached_copy(self, nid: int, rid: int) -> RegionCopy | None:
        return self._copies[nid].get(rid)


class CachedTableProtocol(TableProtocol, CachedCopyProtocol):
    """Cached-copy data management with hooks compiled from the table.

    The MRO runs :class:`CachedCopyProtocol`'s constructor (copy
    tables, port) before :class:`TableProtocol` compiles the
    hook entry points, so compiled actions may rely on both.  Most
    table-driven library protocols derive from this.
    """

