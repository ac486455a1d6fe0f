"""Shared machinery for custom protocols that keep per-node cached copies.

Most custom protocols (Null, the update family, HomeWrite,
PipelinedWrite, RaceDetect, SelfInvalidate) share a shape: regions are
fetched whole from their home on first map and cached locally; the
protocols differ in *when* a cached copy is refreshed or pushed.
:class:`CachedCopyProtocol` holds what they would otherwise each
repeat — the §6 "library of protocol building blocks" for this family:

* the copy tables, the map fast path and the home's fetch handler;
  subclasses hook :meth:`~CachedCopyProtocol._fetch_extra` (home-side
  registration at fetch time) and
  :meth:`~CachedCopyProtocol._after_fetch` (requester-side install
  bookkeeping);
* the ``refetch`` action and the home's refetch handler (a copy of
  home data);
* the acked push: one sender, :meth:`~CachedCopyProtocol._send_push`
  (the port's ``fan_out`` with an :class:`~repro.dsm.transport.Acks`
  collector), and its receiver :meth:`~CachedCopyProtocol._on_push`;
* the barrier epoch counter and the home's one-writer-per-epoch check.

:class:`UpdateProtocol` adds the sharer record the three update tables
(StaticUpdate, DynamicUpdate, BufferedUpdate) push to, filled at fetch
and pruned at a death, and their common home update.
"""

from __future__ import annotations

from functools import partial

from repro.dsm.transport import Acks
from repro.machine.stats import intern_key
from repro.memory import RegionCopy
from repro.protocols.base import _POOL, _POOL_SIZE, Protocol, ProtocolMisuse, TableProtocol
from repro.sim import Delay, Future


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
        n = self.transport.n_procs
        self._copies: list[dict[int, RegionCopy]] = [dict() for _ in range(n)]
        #: each node's barrier epoch, and the home's record of who wrote
        #: a region in an epoch: (rid, epoch) -> writer nid
        self._epoch = [0] * n
        self._epoch_writer: dict = {}
        # The fabric, through the reliability seam (DESIGN.md §9).  The
        # fetch handler is idempotent (metadata read + set-add in
        # _fetch_extra): a retransmitted fetch simply re-replies, and a
        # fetch whose home died is retargeted to the region's new home.
        port = self.port = self.transport.port(f"proto.{self.spec.name}")
        self._rpc = port.call
        self._post = port.post
        self._reply = port.reply
        self._h_fetch = port.idempotent(self._on_fetch, on_dead="retarget")
        self._d_create = Delay(self.CREATE_COST)
        self._k_map_hit = intern_key("proto", self.spec.name, "map_hit")
        self._k_map_cold = intern_key("proto", self.spec.name, "map_cold")
        self._cat_fetch, self._cat_fetch_data, self._cat_refetch, self._cat_refetch_data, self._cat_push = map(
            partial(intern_key, "proto", self.spec.name), ("fetch", "fetch_data", "refetch", "refetch_data", "push"))

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
                    category=self._cat_fetch,
                )
                if nid != region.home:
                    if copy.state != "valid":
                        copy.data[...] = data
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
                copy.data[...] = region.home_data
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
            category=self._cat_fetch_data,
        )

    def _fetch_extra(self, rid: int, src: int):
        """Home-side hook at fetch time (register sharers, return versions)."""
        return None

    # -- revalidation: ``refetch`` rows, served through ``self._h_refetch``
    def act_refetch(self, nid: int, handle):
        """Overwrite a copy with its home's data."""
        region = handle.region
        data = yield from self._rpc(
            nid,
            region.home,
            self._h_refetch,
            region.rid,
            payload_words=2,  # request is metadata-only; the reply carries data
            category=self._cat_refetch,
        )
        handle.data[...] = data

    def _on_refetch(self, node, src, fut, rid):
        """The home's answer to a refetch: a copy of home data."""
        region = self.regions.get(rid)
        self._reply(
            fut,
            region.home_data.copy(),
            payload_words=region.size,
            category=self._cat_refetch_data,
        )

    # -- epochs (handler context at the home) -----------------------------
    def act_advance_epoch(self, nid: int):
        self._epoch[nid] += 1

    def _check_epoch_writer(self, rid: int, epoch: int, src: int) -> None:
        """The epoch-writer protocols' assertion, checked at the home."""
        key = (rid, epoch)
        prev = self._epoch_writer.get(key)
        if prev is not None and prev != src:
            raise ProtocolMisuse(
                f"{self.spec.name}: nodes {prev} and {src} both wrote region {rid} "
                f"in epoch {epoch}; this protocol asserts one writer per epoch"
            )
        self._epoch_writer[key] = src

    # -- the acked push ----------------------------------------------------
    def _send_push(self, src: int, targets, region, data, acks: Acks) -> None:
        """Push ``data`` for ``region`` from ``src`` to ``targets`` (every
        caller sorts them) through ``self._h_push``, the subclass's
        ``port.answers`` binding of :meth:`_on_push`; ``acks`` collects
        one answer each."""
        self.port.fan_out(
            src,
            targets,
            self._h_push,
            region.rid,
            data,
            acks=acks,
            payload_words=region.size,
            category=self._cat_push,
        )

    def _on_push(self, node, src, ack, rid, data):
        """Install a pushed region and answer it.  The ``valid`` mark is
        how :meth:`map` knows a push overtook its reply."""
        copy = self._copies[node.nid].get(rid)
        if copy is not None:
            copy.data[...] = data
            copy.state = "valid"
        ack()

    def _after_fetch(self, nid: int, copy: RegionCopy, extra) -> None:
        """Requester-side hook after a fetched copy is installed."""

    # -- crash recovery ---------------------------------------------------
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
                    copy.data[...] = region.home_data
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


class UpdateProtocol(CachedTableProtocol):
    """The update tables' base: the home records who fetched each region
    (its sharers), pushes to them, and forgets a dead one."""

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._sharers: dict[int, set[int]] = {}

    def _fetch_extra(self, rid: int, src: int):
        self._sharers.setdefault(rid, set()).add(src)
        return None

    def _update_home(self, writer: int, rid: int, data, name: str) -> Acks:
        """A write reaching the home: adopt ``data``, push it to every
        sharer but the writer and the home, and return the collector,
        whose ``done`` (a future called ``name``) resolves once all have
        answered — at once if there is nobody to push to."""
        region = self.regions.get(rid)
        region.home_data[...] = data
        acks = Acks(done=Future(name=name))
        targets = sorted(self._sharers.get(rid, set()) - {writer, region.home})
        if targets:
            self._send_push(region.home, targets, region, data, acks)
        else:
            acks.done.resolve(None)
        return acks

    def on_node_dead(self, dead: int, manager, rehomed: dict) -> None:
        super().on_node_dead(dead, manager, rehomed)
        for sharers in self._sharers.values():
            sharers.discard(dead)
