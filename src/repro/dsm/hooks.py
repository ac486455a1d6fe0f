"""ProtocolHooks: the requester side over directory + cache.

``create``/``map``/``unmap``/``flush`` are written here; the four access
hooks are not.  They are :data:`~repro.dsm.msi.MSI_TABLE`'s node rows,
generated at construction by the one emitter
(:func:`~repro.spec.emit.table_hooks`) exactly as a
:class:`~repro.protocols.base.TableProtocol`'s are, with this engine's
:class:`~repro.dsm.costs.DSMCosts` as entry charges (``start_hit``
before a start, ``end_op`` before an end), over the requester actions
below and the home alias's guards and open/close actions, which
:class:`~repro.dsm.directory.HomeMachine` defines for every invalidation
wire.  Per row:

* a hit (``hit_read``/``hit_write``) opens the access locally;
* a cached copy's miss (``fetch_read``/``fetch_write``, the wildcard
  rows, whose ``next`` is the fill state) asks the home over the wire,
  with ``start_miss`` riding the request as its ``lead``;
* the home alias's miss (``fetch_*_home``) calls the home's handler in
  place and keeps the alias state;
* ``release_read``/``release_write`` close the access, refuse an
  unmatched end (:class:`~repro.dsm.errors.ProtocolError`) and fire
  recalls the open access deferred.

CRL's ``rgn_*`` calls and Ace's SC and HwSC protocols bind the generated
functions (see :mod:`repro.dsm.coherence`), so ``repro.crl`` is a
cost-table configuration of the same core, not a parallel
implementation.  Their text is filed under
``<generated>/repro/dsm/hooks.py``: a profile names them ``dsm.hooks``.

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
access (copy tables, transport rpc/post) are bound as instance
attributes at construction, and the home alias caches its directory
entry on the copy (``RegionCopy.ent``).
"""

from __future__ import annotations

from functools import partialmethod

import numpy as np

from repro.dsm.costs import DSMCosts
from repro.dsm.directory import DirectoryService
from repro.dsm.errors import ProtocolError
from repro.dsm.regioncache import RegionCache
from repro.dsm.transport import Transport
from repro.machine.stats import intern_key
from repro.memory import RegionCopy
from repro.sim import Delay, Future
from repro.sim.kernel import _DELAY_POOL as _POOL, _DELAY_POOL_SIZE as _POOL_SIZE
from repro.spec.emit import CodeFile, table_hooks
from repro.spec.table import ProtocolTable

#: every engine's generated access hooks are line ranges of this
#: pseudo-file (a profiler files them under ``dsm.hooks``)
_CODE = CodeFile(
    "<generated>/repro/dsm/hooks.py", {"_POOL": _POOL, "_POOL_SIZE": _POOL_SIZE, "Delay": Delay}
)


class ProtocolHooks:
    """Requester-side create/map/unmap and flush generators, the actions
    of the table's access rows, and the access hooks generated from them."""

    def __init__(
        self,
        transport: Transport,
        regions,
        costs: DSMCosts,
        directory: DirectoryService,
        cache: RegionCache,
        table: ProtocolTable,
        prefix: str = "dsm",
        obs=None,
    ):
        self.transport = transport
        self.regions = regions
        self.costs = costs
        self.directory = directory
        self.cache = cache
        self.prefix = prefix
        # Observability handle (None when tracing is off): region state
        # transitions are emitted from the miss/invalidate paths only —
        # hits change no state, so the hot hit path stays untouched.
        self._obs = obs
        self._sim = transport.sim
        # Collaborator fast-path references (see module docstring).
        self._copies = cache.tables
        self._entry = directory.entry
        self._fire_deferred = cache.fire_deferred
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
        self._cat_req = {kind: intern_key(p, kind + "_req") for kind in ("read", "write")}
        self._cat_grant_ack = intern_key(p, "grant_ack")
        self._cat_flush = intern_key(p, "flush")
        # Counters the per-access fast path bumps directly.
        self._k_read_hit = intern_key(p, "read_hit")
        self._k_write_hit = intern_key(p, "write_hit")
        self._k_miss = {kind: intern_key(p, kind + "_miss") for kind in ("read", "write")}
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
        self._d_start_miss = Delay(costs.start_miss)
        # A remote miss hands start_miss to its rpc as ``lead`` — unless crash
        # recovery can re-home the region meanwhile: then the home is read after.
        self._miss_lead = 0 if transport.recovery is not None else self._d_start_miss.cycles
        self._d_flush = Delay(costs.flush)
        # Home-side handlers, as the directory's stable wire bindings;
        # the home's own misses call the plain handlers in place (a
        # request that never crosses the wire needs no reliability).
        self._h_map_lookup = directory._h_map_lookup
        self._h_req = {"read": directory._h_read_req, "write": directory._h_write_req}
        self._h_grant_ack = directory._h_grant_ack
        self._h_flush = directory._h_flush
        self._local_req = {"read": directory._on_read_req, "write": directory._on_write_req}
        # The table's states: the home alias, a flush's base and dirty
        # states, and the fill each remote miss's trace event names (its
        # row installs it).
        self._home_state = cache.home_state
        self._base_state = base = table.base_state
        self._dirty_states = cache.dirty_states
        self._fill = {kind: table.next_of("node", base, "start_" + kind) for kind in ("read", "write")}
        # The four access hooks: the table's node rows, generated with
        # this engine's entry charges over the actions below and the home
        # alias's guards and open/close actions.
        directory.bind_alias(self)
        hit, end = costs.start_hit, costs.end_op
        charged = {"start_read": hit, "start_write": hit, "end_read": end, "end_write": end}
        for event, hook in table_hooks(table.with_(entry_costs=charged), self, _CODE).items():
            setattr(self, event, hook)

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
    # requester actions (the table's node rows run them; see the module
    # docstring for the row each belongs to)
    # ------------------------------------------------------------------
    def act_hit_read(self, nid: int, copy: RegionCopy) -> None:
        copy.reads += 1
        self._counts[self._k_read_hit] += 1

    def act_hit_write(self, nid: int, copy: RegionCopy) -> None:
        copy.writes += 1
        self._counts[self._k_write_hit] += 1

    def _fetch(self, kind: str, nid: int, copy: RegionCopy):
        """Generator: a cached copy's ``kind`` miss — the grant crosses the
        wire (an upgrade keeps the copy's data); the row installs the fill
        state its trace event names."""
        region = copy.region
        self._counts[self._k_miss[kind]] += 1
        if self._obs is not None:
            # Pre-RPC miss marker: attribution reads it as "the next
            # directory wait on this node is for this region".
            self._obs.emit(self._sim.now, "dsm.miss", nid, -1, region.rid, kind)
        lead = self._miss_lead
        if not lead:
            yield self._d_start_miss
        data = yield from self._rpc(
            nid,
            region.home,
            self._h_req[kind],
            region.rid,
            payload_words=self.costs.meta_words,
            category=self._cat_req[kind],
            lead=lead,
        )
        if data is not None:
            np.copyto(copy.data, data)
        if self._obs is not None:
            self._trace_state(nid, region.rid, self._fill[kind])
        self._send_grant_ack(nid, region)
        if kind == "read":
            copy.reads += 1
        else:
            copy.writes += 1

    def _fetch_home(self, kind: str, nid: int, copy: RegionCopy):
        """Generator: the home alias's ``kind`` access waits its turn, in place."""
        rid = copy.region.rid
        self._counts[self._k_miss[kind]] += 1
        if self._obs is not None:
            self._obs.emit(self._sim.now, "dsm.miss", nid, -1, rid, kind)
        yield self._d_start_miss
        fut = Future(name=f"{kind}:{rid}@{nid}")
        self._local_req[kind](self._nodes[nid], nid, fut, rid)
        yield fut
        if kind == "read":
            copy.reads += 1
        else:
            copy.writes += 1

    act_fetch_read = partialmethod(_fetch, "read")
    act_fetch_write = partialmethod(_fetch, "write")
    act_fetch_read_home = partialmethod(_fetch_home, "read")
    act_fetch_write_home = partialmethod(_fetch_home, "write")

    def act_release_read(self, nid: int, copy: RegionCopy) -> None:
        """Close a read; the copy's last access fires deferred recalls."""
        if copy.reads <= 0:
            raise ProtocolError(f"end_read without start_read on region {copy.rid} node {nid}")
        copy.reads -= 1
        if copy.deferred and not copy.reads:
            self._fire_deferred(copy)

    def act_release_write(self, nid: int, copy: RegionCopy) -> None:
        """Close a write (the copy stays dirty-exclusive: lazy write-back)."""
        if copy.writes <= 0:
            raise ProtocolError(f"end_write without start_write on region {copy.rid} node {nid}")
        copy.writes -= 1
        if copy.deferred and not copy.writes:
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
