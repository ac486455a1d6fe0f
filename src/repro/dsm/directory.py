"""DirectoryService: home-node directory state and admission control.

The home side of the MSI protocol (see :mod:`repro.dsm.coherence` for
the state model): per-region :class:`DirEntry` records, the atomic
request handlers that run at a region's home, the recall/invalidation
fan-out, and the FIFO queue that guarantees per-region ordering and
no starvation.

Directory state is addressed by ``(shard, region)``: entries live in
``n_shards`` independent tables selected by ``rid % n_shards``.  With
the default single shard this is exactly the old flat directory; the
shard axis is the seam along which the directory can later be split
across nodes (each shard's handlers and tables move together — they
share no state with other shards).

This layer runs entirely in handler context.  It sends data grants and
acks through its :class:`~repro.dsm.transport.Port` and calls into the
node side only through the invalidation handler bound by
:meth:`wire_cache` — it never touches a
:class:`~repro.memory.region.RegionCopy`.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from repro.dsm.costs import DSMCosts
from repro.dsm.errors import ProtocolError
from repro.dsm.msi import MSI_TABLE, engine_view
from repro.dsm.transport import Acks, Transport
from repro.machine.stats import intern_key
from repro.memory import Region, RegionDirectory
from repro.sim import Future


class DirEntry:
    """Home-side directory state for one region."""

    __slots__ = (
        "owner",
        "sharers",
        "home_readers",
        "home_writing",
        "busy",
        "queue",
        "pending",
        "grantee",
    )

    def __init__(self):
        self.owner: int | None = None
        self.sharers: set[int] = set()
        self.home_readers = 0
        self.home_writing = False
        self.busy = False
        self.queue: deque = deque()
        self.pending: dict | None = None
        #: Node a grant is in flight to while ``busy`` (who we are
        #: waiting on for the grant-ack) — lets the recovery manager
        #: clear a window whose grantee died.
        self.grantee: int | None = None


class DirectoryService:
    """Home-side region directory for one (transport, cost table) pair."""

    #: Crash-recovery manager; set by :meth:`enable_recovery`.
    _recovery = None
    #: Requests that crossed the fabric and are not yet answered (the
    #: port's view; bound by :meth:`enable_recovery`).  One whose source
    #: is the region's home must be served remote-style.  Immutable empty
    #: default: without recovery the probes below are constant-false.
    _wire_calls = frozenset()

    def __init__(
        self,
        transport: Transport,
        regions: RegionDirectory,
        costs: DSMCosts,
        prefix: str = "dsm",
        n_shards: int = 1,
        table=None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.transport = transport
        self.regions = regions
        self.costs = costs
        self.prefix = prefix
        self.n_shards = n_shards
        # Recall policy, derived from the protocol table (repro.dsm.msi):
        # which mode each request kind fans out with, and which modes
        # leave the recalled node holding a readable (sharer) copy.
        view = engine_view(table if table is not None else MSI_TABLE)
        self._recall_read = view.recall_mode["read"]
        self._recall_write = view.recall_mode["write"]
        self._sharer_modes = view.sharer_modes
        self._shards: tuple[dict[int, DirEntry], ...] = tuple({} for _ in range(n_shards))
        # Stat keys and message categories are interned once here so the
        # handlers never build an f-string (see machine.stats).
        self._counts = transport.stats.counter_ref()
        self._k_recall = intern_key(prefix, "recall")
        self._cat_map_reply = intern_key(prefix, "map_reply")
        self._cat_read_data = intern_key(prefix, "read_data")
        self._cat_write_data = intern_key(prefix, "write_data")
        self._cat_upgrade_ack = intern_key(prefix, "upgrade_ack")
        self._cat_inval = intern_key(prefix, "inval")
        self._cat_flush_ack = intern_key(prefix, "flush_ack")
        # The fabric, through the reliability seam (DESIGN.md §9): on an
        # exactly-once transport these are its own bound methods and the
        # wire handlers below are the plain bound methods — stable
        # objects, so sends fetch an attribute instead of materializing a
        # bound method per call and the machine's handler-stat cache
        # hits on identity.
        port = self.port = transport.port(prefix)
        self._reply = port.reply
        self._fan_out = port.fan_out
        self._h_map_lookup = port.idempotent(self._on_map_lookup)  # pure metadata read
        self._h_read_req = port.serves(self._on_read_req)
        self._h_write_req = port.serves(self._on_write_req)
        # A retried flush must never re-execute: the home may have granted
        # ownership onward, and the stale writeback would clobber it.
        self._h_flush = port.serves(self._on_flush)
        self._h_grant_ack = port.hears(self._on_grant_ack, intern_key(prefix, "grant_ack_ack"))
        # Node-side invalidation handler; see wire_cache.
        self._h_inval_req = None
        ops = ("read_req", "write_req", "flush", "inval", "map_lookup")
        port.watch(tuple(intern_key(prefix, op) for op in ops), self)

    def enable_recovery(self, manager) -> None:
        """Join crash recovery (called via the composing engine when the
        transport carries a :class:`~repro.dsm.recovery.RecoveryManager`).

        Classifies this directory's message categories for the manager's
        in-flight sweep; with a manager set, the invalidation ack
        collector absorbs acks of recalls the manager canceled or
        orphaned instead of raising.
        """
        p = self.prefix
        manager.register_home_categories(
            tuple(intern_key(p, op) for op in ("map_lookup", "read_req", "write_req", "flush")),
            self.regions,
        )
        manager.register_push_categories((self._cat_inval,))
        manager.register_ack_categories((intern_key(p, "grant_ack"),))
        self._recovery = manager
        # Re-homing can leave a survivor's *remote* miss addressed to
        # itself: its request to the dead home is retargeted (or was
        # queued there and re-admitted) after the survivor became the
        # region's new home.  The requester's continuation is suspended
        # in the remote-miss epilogue, so the serve path must grant
        # remote-style (data reply + busy window) — a home-style grant
        # would open home_readers/home_writing that no continuation ever
        # closes, wedging the entry.  A home's own misses call the plain
        # handlers in place, so "came through the wire shim and is still
        # unanswered" identifies exactly these requests.
        self._wire_calls = self.port.open_calls

    def wire_cache(self, cache) -> None:
        """Bind the node-side invalidation handler recalls fan out to; its
        answer (the writeback, when dirty) comes back as an ``inval_ack``."""
        self._h_inval_req = self.port.answers(
            cache._on_inval_req, intern_key(self.prefix, "inval_ack"), "_on_inval_ack"
        )

    # ------------------------------------------------------------------
    # entry addressing: (shard, region)
    # ------------------------------------------------------------------
    def shard_of(self, rid: int) -> int:
        """Which shard holds ``rid``'s entry."""
        return rid % self.n_shards

    def entry(self, rid: int) -> DirEntry:
        """Get-or-create the directory entry for ``rid``."""
        shard = self._shards[rid % self.n_shards]  # shard_of, inlined
        ent = shard.get(rid)
        if ent is None:
            ent = shard[rid] = DirEntry()
        return ent

    def entry_at(self, shard: int, rid: int) -> DirEntry | None:
        """Introspection: the entry for ``rid`` in ``shard``, if present."""
        return self._shards[shard].get(rid)

    # ------------------------------------------------------------------
    # map metadata lookup (CRL-style cold map)
    # ------------------------------------------------------------------
    def _on_map_lookup(self, node, src, fut, rid):
        region = self.regions.get(rid)
        self._reply(
            fut, region.size, payload_words=self.costs.meta_words, category=self._cat_map_reply
        )

    # ------------------------------------------------------------------
    # home-side admission (atomic handler context)
    # ------------------------------------------------------------------
    def _on_read_req(self, node, src, fut, rid):
        region = self.regions.get(rid)
        ent = self.entry(rid)
        if not self._admit("read", src, fut, region, ent):
            ent.queue.append(("read", src, fut))

    def _on_write_req(self, node, src, fut, rid):
        region = self.regions.get(rid)
        ent = self.entry(rid)
        if not self._admit("write", src, fut, region, ent):
            ent.queue.append(("write", src, fut))

    def _admit(self, kind: str, src: int, fut: Future, region: Region, ent: DirEntry) -> bool:
        """Try to serve a request; False means 'leave it on the queue'."""
        home = region.home
        if ent.busy:
            return False
        if kind == "read":
            if ent.home_writing and src != home:
                return False
            if ent.owner is not None and ent.owner != src:
                self._begin_recall(region, ent, kind, src, fut, [ent.owner], self._recall_read)
                return True
            self._serve_read(region, ent, src, fut)
            return True
        # write
        if (ent.home_writing or ent.home_readers > 0) and src != home:
            return False
        targets = []
        if ent.owner is not None and ent.owner != src:
            targets.append(ent.owner)
        if ent.sharers:
            targets.extend(s for s in sorted(ent.sharers) if s != src)
        if targets:
            self._begin_recall(region, ent, kind, src, fut, targets, self._recall_write)
            return True
        self._serve_write(region, ent, src, fut)
        return True

    def _serve_read(self, region: Region, ent: DirEntry, src: int, fut: Future) -> None:
        if src == region.home and fut not in self._wire_calls:
            ent.home_readers += 1
            fut.resolve(None)
            return
        ent.sharers.add(src)
        # The entry stays busy until the grantee acknowledges install:
        # otherwise a queued write's invalidation could overtake the
        # grant data in the network (grant-in-flight race).
        ent.busy = True
        ent.grantee = src
        self._reply(
            fut,
            region.home_data.copy(),
            payload_words=region.size,
            category=self._cat_read_data,
        )

    def _serve_write(self, region: Region, ent: DirEntry, src: int, fut: Future) -> None:
        if src == region.home and fut not in self._wire_calls:
            ent.home_writing = True
            # A re-homed node can hold a sharer-state copy of its own
            # region; the local grant epilogue reverts it to the home
            # alias (see hooks), so it stops being a sharer here.
            ent.sharers.discard(src)
            fut.resolve(None)
            return
        had_copy = src in ent.sharers
        ent.sharers.discard(src)
        ent.owner = src
        ent.busy = True  # until grant-ack; see _serve_read
        ent.grantee = src
        if had_copy:  # upgrade: requester's shared data is current
            self._reply(fut, None, payload_words=1, category=self._cat_upgrade_ack)
        else:
            self._reply(
                fut,
                region.home_data.copy(),
                payload_words=region.size,
                category=self._cat_write_data,
            )

    def _on_grant_ack(self, node, src, rid):
        ent = self.entry(rid)
        ent.busy = False
        ent.grantee = None
        if ent.queue:
            self._drain(self.regions.get(rid), ent)

    # ------------------------------------------------------------------
    # recall / invalidation fan-out
    # ------------------------------------------------------------------
    def _begin_recall(self, region, ent, kind, src, fut, targets, mode) -> None:
        ent.busy = True
        acks = Acks(partial(self._apply_inval_ack, region.rid, mode))
        ent.pending = {"kind": kind, "src": src, "fut": fut, "acks": acks}
        self._counts[self._k_recall] += 1
        self._fan_out(
            region.home,
            targets,
            self._h_inval_req,
            region.rid,
            mode,
            acks=acks,
            payload_words=self.costs.meta_words,
            category=self._cat_inval,
        )

    def _apply_inval_ack(self, rid, mode, target, data):
        region = self.regions.get(rid)
        ent = self.entry(rid)
        pending = ent.pending
        if pending is None:
            # Only after a death: the manager canceled the recall when its
            # home died, so every surviving ack is structurally stray.
            if self._recovery is None:  # pragma: no cover - acks only while pending
                raise ProtocolError(f"stray invalidation ack for region {rid}")
            self._recovery.count_stray_ack()
            return
        if data is not None:
            np.copyto(region.home_data, data)
        if ent.owner == target:
            ent.owner = None
        ent.sharers.discard(target)
        if mode in self._sharer_modes and target != region.home:
            # The home itself is a recall target only after re-homing (a
            # survivor granted remote-style).  Its recalled copy reverts
            # to the home alias at its next local grant (the epilogue in
            # ProtocolHooks.start_read/start_write), not to a sharer copy
            # — the hr/hw admission gate is the home's coherence
            # mechanism, so it must not be re-listed as a sharer.
            ent.sharers.add(target)
        if pending["acks"].waiting:
            return
        ent.busy = False
        ent.pending = None
        if not pending.get("orphan"):  # recovery marks a dead requester's recall
            if pending["kind"] == "read":
                self._serve_read(region, ent, pending["src"], pending["fut"])
            else:
                self._serve_write(region, ent, pending["src"], pending["fut"])
        if ent.queue:
            self._drain(region, ent)

    # ------------------------------------------------------------------
    # flush (change-protocol path)
    # ------------------------------------------------------------------
    def _on_flush(self, node, src, fut, rid, data):
        region = self.regions.get(rid)
        ent = self.entry(rid)
        if data is not None and (ent.owner == src or src in ent.sharers):
            # Apply the writeback only while the directory still lists
            # the flusher: a recall that crossed this flush already
            # delivered the same snapshot in its ack (and may have
            # granted onward since), so a late flush payload from a
            # de-listed node would clobber newer home data.
            np.copyto(region.home_data, data)
        if ent.owner == src:
            ent.owner = None
        ent.sharers.discard(src)
        self._reply(fut, None, payload_words=1, category=self._cat_flush_ack)

    def _drain(self, region: Region, ent: DirEntry) -> None:
        while ent.queue and not ent.busy:
            kind, src, fut = ent.queue[0]
            if not self._admit(kind, src, fut, region, ent):
                break
            ent.queue.popleft()

    # ------------------------------------------------------------------
    # introspection (liveness watchdog / StallReport)
    # ------------------------------------------------------------------
    def dump_state(self) -> list:
        """Non-quiescent directory entries, as JSON-friendly dicts.

        An entry is interesting to a stall report when it is busy, has
        queued requests, or is mid-recall — idle entries (the vast
        majority) are omitted.
        """
        out = []
        for shard in self._shards:
            for rid, ent in shard.items():
                if not (ent.busy or ent.queue or ent.pending is not None):
                    continue
                pending = None
                if ent.pending is not None:
                    pending = {
                        "kind": ent.pending["kind"],
                        "src": ent.pending["src"],
                        "awaiting_acks": len(ent.pending["acks"].waiting),
                    }
                out.append(
                    {
                        "prefix": self.prefix,
                        "rid": rid,
                        "home": self.regions.get(rid).home,
                        "busy": ent.busy,
                        "owner": ent.owner,
                        "sharers": sorted(ent.sharers),
                        "home_readers": ent.home_readers,
                        "home_writing": ent.home_writing,
                        "queued": [(kind, src) for kind, src, _ in ent.queue],
                        "pending": pending,
                    }
                )
        return out
