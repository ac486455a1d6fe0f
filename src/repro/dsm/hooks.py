"""ProtocolHooks: the requester-side access hooks over directory + cache.

The generators here are the before/after read/write hook dispatch both
backends share: CRL's ``rgn_*`` calls and Ace's default SC protocol
bind these exact generator objects (see :mod:`repro.dsm.coherence`),
so ``repro.crl`` is a cost-table configuration of the same core, not a
parallel implementation.

All public operations are generators to be driven by a node's task
(``yield from hooks.start_read(nid, copy)``); they charge the cost
table's cycles and perform whatever communication the directory state
requires, through the transport.

``map``/``unmap`` and the four access hooks take a ``lead``: cycles
the caller owes for its own bookkeeping (the Ace runtime's dispatch;
CRL passes none).  The hook's first fixed charge absorbs them into one
``Delay``, yielded before the hook reads anything a handler can
change: the caller's charge costs no kernel event (DESIGN.md §6).

Hot-path notes: the collaborator operations this layer needs per
access (copy tables, directory entry lookup, transport rpc/post) are
bound as instance attributes at construction, so the hit path performs
the same attribute probes the monolithic engine did — the layer split
costs neither simulated cycles nor host time.
"""

from __future__ import annotations

import numpy as np

from repro.dsm.costs import DSMCosts
from repro.dsm.directory import DirectoryService
from repro.dsm.errors import ProtocolError
from repro.dsm.msi import MSI_TABLE, engine_view
from repro.dsm.regioncache import RegionCache
from repro.dsm.transport import Transport
from repro.machine.stats import intern_key
from repro.memory import RegionCopy
from repro.sim import Delay, Future
from repro.sim.kernel import _DELAY_POOL as _POOL, _DELAY_POOL_SIZE as _POOL_SIZE


class ProtocolHooks:
    """Requester-side create/map/unmap, access, and flush generators."""

    def __init__(
        self,
        transport: Transport,
        regions,
        costs: DSMCosts,
        directory: DirectoryService,
        cache: RegionCache,
        prefix: str = "dsm",
        obs=None,
        table=None,
    ):
        self.transport = transport
        self.regions = regions
        self.costs = costs
        self.directory = directory
        self.cache = cache
        self.prefix = prefix
        # Requester-side state machine, derived from the protocol table
        # (repro.dsm.msi): the hit states, the home-alias state, the
        # states misses fill into, and what counts as dirty on a flush.
        # Bound once at construction — the per-access fast path reads
        # these attributes exactly as it used to read string literals.
        view = engine_view(table if table is not None else MSI_TABLE)
        self._read_hit = view.read_hit
        self._write_hit = view.write_hit
        self._home_state = view.home_state
        self._fill_read = view.fill_read
        self._fill_write = view.fill_write
        self._base_state = view.base_state
        self._dirty_states = view.dirty_states
        # Observability handle (None when tracing is off): region state
        # transitions are emitted from the miss/invalidate paths only —
        # hits change no state, so the hot hit path stays untouched.
        self._obs = obs
        self._sim = transport.sim
        # Collaborator fast-path references (see module docstring).
        self._copies = cache.tables
        self._entry = directory.entry
        self._fire_deferred = cache.fire_deferred
        self._drain = directory.drain
        # Remote round trips and the grant ack (which closes the home's
        # busy window) go through the directory's port (DESIGN.md §9).
        self._rpc = directory.port.call
        self._post = directory.port.post
        self._nodes = transport.nodes
        # Stat keys and message categories are interned once here so the
        # per-access path never builds an f-string (see machine.stats).
        self._counts = transport.stats.counter_ref()
        self._stat_keys: dict[str, str] = {}
        p = prefix
        self._cat_map_lookup = intern_key(p, "map_lookup")
        self._cat_read_req = intern_key(p, "read_req")
        self._cat_write_req = intern_key(p, "write_req")
        self._cat_grant_ack = intern_key(p, "grant_ack")
        self._cat_flush = intern_key(p, "flush")
        # Counters the per-access fast path bumps directly.
        self._k_read_hit = intern_key(p, "read_hit")
        self._k_read_miss = intern_key(p, "read_miss")
        self._k_write_hit = intern_key(p, "write_hit")
        self._k_write_miss = intern_key(p, "write_miss")
        self._k_map_hit = intern_key(p, "map_hit")
        self._k_unmap = intern_key(p, "unmap")
        # Delay singletons per cost-table entry: the dominant yields of
        # every access allocate and validate nothing.  The charges a
        # lead can join are (validated) cycle counts: lead + cost indexes
        # the kernel's Delay pool.
        self._d_create = Delay(costs.create)
        self._c_map_hit = Delay(costs.map_hit).cycles
        self._c_map_cold = Delay(costs.map_cold).cycles
        self._c_unmap = Delay(costs.unmap).cycles
        self._c_start_hit = Delay(costs.start_hit).cycles
        self._d_start_miss = Delay(costs.start_miss)
        # A remote miss hands start_miss to its rpc as ``lead`` — unless crash
        # recovery can re-home the region meanwhile: then the home is read after.
        self._miss_lead = 0 if transport.recovery is not None else self._d_start_miss.cycles
        self._c_end_op = Delay(costs.end_op).cycles
        self._d_flush = Delay(costs.flush)
        # Home-side handlers, as the directory's stable wire bindings;
        # the home's own misses call the plain handlers in place (a
        # request that never crosses the wire needs no reliability).
        self._h_map_lookup = directory._h_map_lookup
        self._h_read_req = directory._h_read_req
        self._h_write_req = directory._h_write_req
        self._h_grant_ack = directory._h_grant_ack
        self._h_flush = directory._h_flush
        self._local_read_req = directory._on_read_req
        self._local_write_req = directory._on_write_req

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _count(self, event: str, n: int = 1) -> None:
        key = self._stat_keys.get(event)
        if key is None:
            key = self._stat_keys[event] = intern_key(self.prefix, event)
        self._counts[key] += n

    def _trace_state(self, nid: int, rid: int, state: str) -> None:
        """Emit a region state transition (callers gate on ``self._obs``)."""
        self._obs.emit(self._sim.now, "region.state", nid, -1, rid, state)

    # ------------------------------------------------------------------
    # allocation and mapping
    # ------------------------------------------------------------------
    def create(self, nid: int, size: int):
        """Generator: allocate a region homed at ``nid``; returns the rid."""
        yield self._d_create
        region = self.regions.alloc(home=nid, size=size)
        self._entry(region.rid)
        self.cache.install(nid, region)
        self._count("create")
        if self._obs is not None:
            self._trace_state(nid, region.rid, self._home_state)
        return region.rid

    def map(self, nid: int, rid: int, lead: int = 0, space=None):
        """Generator: map ``rid`` on node ``nid``; returns the RegionCopy,
        stamped with the Ace ``space`` it is mapped through (CRL passes none)."""
        copy = self._copies[nid].get(rid)  # only this node's own task installs copies
        if copy is not None:
            yield _POOL[c] if (c := lead + self._c_map_hit) < _POOL_SIZE else Delay(c)
            self._counts[self._k_map_hit] += 1
        else:
            yield _POOL[c] if (c := lead + self._c_map_cold) < _POOL_SIZE else Delay(c)
            region = self.regions.get(rid)
            if region.home != nid and self.costs.map_needs_lookup:
                # CRL-style: learn the region's metadata from its home.
                yield from self._rpc(
                    nid,
                    region.home,
                    self._h_map_lookup,
                    rid,
                    payload_words=self.costs.meta_words,
                    category=self._cat_map_lookup,
                )
            copy = self.cache.install(nid, region)
            self._count("map_cold")
        copy.maps += 1
        copy.mapped = True
        if space is not None:
            copy.space, copy.gen = space, space.generation
        return copy

    def unmap(self, nid: int, copy: RegionCopy, lead: int = 0):
        """Generator: unmap; the copy stays cached (unmapped-region cache)."""
        if copy.maps <= 0:
            raise ProtocolError(f"unmap of unmapped region {copy.rid} on node {nid}")
        if copy.reads or copy.writes:
            raise ProtocolError(f"unmap of region {copy.rid} with open accesses on node {nid}")
        yield _POOL[c] if (c := lead + self._c_unmap) < _POOL_SIZE else Delay(c)
        copy.maps -= 1
        copy.mapped = copy.maps > 0
        self._counts[self._k_unmap] += 1

    # ------------------------------------------------------------------
    # read / write entry points (called from node tasks)
    # ------------------------------------------------------------------
    def start_read(self, nid: int, copy: RegionCopy, lead: int = 0):
        """Generator: acquire a readable copy (blocks on a miss)."""
        yield _POOL[c] if (c := lead + self._c_start_hit) < _POOL_SIZE else Delay(c)
        # The directory entry is cached on the copy itself (it is
        # created once per region and never replaced), so the hit path
        # here (and in the other three access primitives) reads a slot.
        ent = copy.ent
        if ent is None:
            ent = copy.ent = self._entry(copy.region.rid)
        state = copy.state
        if state in self._read_hit or (
            state == self._home_state and ent.owner is None and not ent.busy
        ):
            if state == self._home_state:
                ent.home_readers += 1
            copy.reads += 1
            self._counts[self._k_read_hit] += 1
            return
        region = copy.region
        self._counts[self._k_read_miss] += 1
        if self._obs is not None:
            # Pre-RPC miss marker: attribution reads it as "the next
            # directory wait on this node is for this region".
            self._obs.emit(self._sim.now, "dsm.miss", nid, -1, region.rid, "read")
        lead = self._miss_lead
        if not lead or nid == region.home:
            yield self._d_start_miss
        if nid == region.home:
            fut = Future(name=f"read:{region.rid}@{nid}")
            self._local_read_req(self._nodes[nid], nid, fut, region.rid)
            yield fut
            if copy.state != self._home_state:
                # Post-recovery only: a re-homed node's copy can sit in
                # a remote state.  A home-style grant (home_readers now
                # open) makes it the home view again — end_read closes
                # the access through the home path.
                copy.data = region.home_data
                copy.state = self._home_state
        else:
            data = yield from self._rpc(
                nid,
                region.home,
                self._h_read_req,
                region.rid,
                payload_words=self.costs.meta_words,
                category=self._cat_read_req,
                lead=lead,
            )
            np.copyto(copy.data, data)
            copy.state = self._fill_read
            if self._obs is not None:
                self._trace_state(nid, region.rid, copy.state)
            self._send_grant_ack(nid, region)
        copy.reads += 1

    def end_read(self, nid: int, copy: RegionCopy, lead: int = 0):
        """Generator: release a read; may fire deferred invalidations."""
        if copy.reads <= 0:
            raise ProtocolError(f"end_read without start_read on region {copy.rid} node {nid}")
        yield _POOL[c] if (c := lead + self._c_end_op) < _POOL_SIZE else Delay(c)
        copy.reads -= 1
        if copy.state == self._home_state:
            ent = copy.ent
            if ent is None:
                ent = copy.ent = self._entry(copy.region.rid)
            ent.home_readers -= 1
            if ent.home_readers == 0 and ent.queue:
                self._drain(ent)
        elif copy.deferred and copy.reads == 0:
            self._fire_deferred(copy)

    def start_write(self, nid: int, copy: RegionCopy, lead: int = 0):
        """Generator: acquire an exclusive copy (blocks until granted)."""
        yield _POOL[c] if (c := lead + self._c_start_hit) < _POOL_SIZE else Delay(c)
        ent = copy.ent
        if ent is None:
            ent = copy.ent = self._entry(copy.region.rid)
        state = copy.state
        if state in self._write_hit or (
            state == self._home_state and ent.owner is None and not ent.sharers and not ent.busy
        ):
            if state == self._home_state:
                ent.home_writing = True
            copy.writes += 1
            self._counts[self._k_write_hit] += 1
            return
        region = copy.region
        self._counts[self._k_write_miss] += 1
        if self._obs is not None:
            self._obs.emit(self._sim.now, "dsm.miss", nid, -1, region.rid, "write")
        lead = self._miss_lead
        if not lead or nid == region.home:
            yield self._d_start_miss
        if nid == region.home:
            fut = Future(name=f"write:{region.rid}@{nid}")
            self._local_write_req(self._nodes[nid], nid, fut, region.rid)
            yield fut
            if copy.state != self._home_state:
                # Post-recovery only; see start_read's local branch.
                copy.data = region.home_data
                copy.state = self._home_state
        else:
            data = yield from self._rpc(
                nid,
                region.home,
                self._h_write_req,
                region.rid,
                payload_words=self.costs.meta_words,
                category=self._cat_write_req,
                lead=lead,
            )
            if data is not None:
                np.copyto(copy.data, data)
            copy.state = self._fill_write
            if self._obs is not None:
                self._trace_state(nid, region.rid, copy.state)
            self._send_grant_ack(nid, region)
        copy.writes += 1

    def end_write(self, nid: int, copy: RegionCopy, lead: int = 0):
        """Generator: release a write (copy stays dirty-exclusive; lazy write-back)."""
        if copy.writes <= 0:
            raise ProtocolError(f"end_write without start_write on region {copy.rid} node {nid}")
        yield _POOL[c] if (c := lead + self._c_end_op) < _POOL_SIZE else Delay(c)
        copy.writes -= 1
        if copy.state == self._home_state:
            ent = copy.ent
            if ent is None:
                ent = copy.ent = self._entry(copy.region.rid)
            if copy.writes == 0:
                ent.home_writing = False
                if ent.queue:
                    self._drain(ent)
        elif copy.deferred and copy.writes == 0:
            self._fire_deferred(copy)

    def flush(self, nid: int, rid: int):
        """Generator: push/drop the local copy so home data is current.

        Used when a space changes protocol: "changing from the default
        protocol to any other protocol results in all cached regions
        being flushed back to their home processors" (§3.1).
        """
        copy = self._copies[nid].get(rid)
        region = self.regions.get(rid)
        if copy is None or nid == region.home or copy.state == self._base_state:
            return
        yield self._d_flush
        dirty = copy.state in self._dirty_states
        payload = region.size if dirty else self.costs.meta_words
        data = copy.data.copy() if dirty else None
        if self._obs is not None:
            self._obs.emit(self._sim.now, "dsm.miss", nid, -1, rid, "flush")
        # The copy keeps its state until the home has acked the flush:
        # a recall that crosses the flush on the wire must still find
        # the dirty data here and ship it in its ack, or the home would
        # serve readers stale home_data while the writeback is in
        # flight (the home drops the now-duplicate flush payload — see
        # DirectoryService._on_flush).
        yield from self._rpc(
            nid,
            region.home,
            self._h_flush,
            rid,
            data,
            payload_words=payload,
            category=self._cat_flush,
        )
        copy.state = self._base_state
        if self._obs is not None:
            self._trace_state(nid, rid, copy.state)
        self._count("flush")

    def _send_grant_ack(self, nid: int, region) -> None:
        # On a lossy fabric the port retries it (a lost grant ack would
        # leave the home entry busy forever) and the home re-acks.
        self._post(
            nid,
            region.home,
            self._h_grant_ack,
            region.rid,
            payload_words=1,
            category=self._cat_grant_ack,
        )
