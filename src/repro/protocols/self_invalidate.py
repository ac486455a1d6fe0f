"""Self-invalidation / self-downgrade protocol (the "Mending Fences" family).

The invalidation protocols keep copies coherent *eagerly*: the home
tracks every sharer and recalls copies when a writer shows up.  The
self-invalidation family inverts the responsibility — each node damages
its **own** copies at synchronization points, so the home needs no
sharer lists, no recall fan-out, and no busy windows:

* **write self-downgrade**: ``end_write`` ships the region home
  synchronously (the writer waits for the ack), so canonical data is
  always current and the writer's copy downgrades itself from
  "dirty" to "clean readable" the moment the write completes;
* **barrier self-invalidate**: entering a barrier, a node invalidates
  every non-home copy it holds; whatever it touches next epoch is
  re-fetched from the (current) home.

The application contract is the data-race-free one the family assumes:
one writer per region per barrier epoch, readers synchronized by the
barrier.  The home *checks* the contract (concurrent epoch writers
raise :class:`~repro.protocols.base.ProtocolMisuse`) — that is the
entire directory.

The table carries ``sync_model="barrier"`` / ``writer_model="epoch"``,
which routes the model checker to its barrier-epoch machine: reads must
observe at least everything published by the last barrier.  Dropping
the ``writeback_home`` action or the ``self_invalidate`` action from
the table makes the checker report a stale read — see
``tests/verify/test_modelcheck.py``.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import ProtocolMisuse, ProtocolSpec
from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.spec import ProtocolTable, Transition

SELF_INVALIDATE_TABLE = ProtocolTable(
    name="SelfInvalidate",
    description="self-invalidate at barriers; writes self-downgrade via synchronous write-back",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        # -- reads: hit on any resident copy, refetch otherwise ----------
        Transition("node", "valid", "start_read", actions=("hit",)),
        Transition("node", "home", "start_read", actions=("hit",)),
        Transition(
            "node",
            "*",
            "start_read",
            next="valid",
            cost=25,
            actions=("fetch",),
            msg="fetch",
            note="self-invalidated copy revalidates from the always-current home",
        ),
        # -- writes: same shape; epoch discipline replaces exclusivity ---
        Transition("node", "valid", "start_write", actions=("hit",)),
        Transition("node", "home", "start_write", actions=("hit",)),
        Transition(
            "node",
            "*",
            "start_write",
            next="valid",
            cost=25,
            actions=("fetch",),
            msg="fetch",
        ),
        # -- write self-downgrade: home is current before the write ends --
        Transition(
            "node",
            "*",
            "end_write",
            cost=4,
            actions=("writeback_home",),
            msg="wb",
            note="synchronous: the writer waits for the home's ack",
        ),
        # -- barrier self-invalidate ---------------------------------------
        Transition(
            "node",
            "*",
            "barrier",
            actions=("self_invalidate", "rendezvous", "advance_epoch"),
            note="each node damages its own copies; no fan-out, no sharer lists",
        ),
        # -- the whole directory: an epoch-writer assertion ----------------
        Transition(
            "home",
            "idle",
            "wb",
            actions=("check_epoch_writer", "apply_writeback"),
            msg="wb_ack",
            note="one writer per region per epoch (ProtocolMisuse otherwise)",
        ),
    ),
    costs={"fetch": 25, "end_write": 4},
    entry_costs={"start_read": 6, "start_write": 6},
    optimizable=True,
    null_hooks=frozenset({"end_read"}),
    sync_model="barrier",
    writer_model="epoch",
)


@default_registry.register
class SelfInvalidateProtocol(CachedTableProtocol):
    """Barrier-triggered self-invalidation with write self-downgrade."""

    table = SELF_INVALIDATE_TABLE
    spec = ProtocolSpec.from_table(SELF_INVALIDATE_TABLE)

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        n = self.transport.n_procs
        self._epoch = [0] * n
        # The directory, in its entirety: (rid, epoch) -> writer nid.
        self._epoch_writer: dict = {}
        # A late duplicate of an old epoch's write-back must not clobber
        # newer canonical data: served once, duplicates get the old ack.
        self._h_writeback = self.port.serves(self._on_writeback)

    # -- actions (table-referenced) ---------------------------------------
    def act_hit(self, nid: int, handle):
        self._count("hit")

    def act_fetch(self, nid: int, handle):
        """Revalidate a self-invalidated copy from the home."""
        self._count("refetch")
        region = handle.region
        data, _extra = yield from self._rpc(
            nid,
            region.home,
            self._h_fetch,
            region.rid,
            payload_words=2,
            category="proto.SelfInvalidate.fetch",
        )
        np.copyto(handle.data, data)

    def act_writeback_home(self, nid: int, handle):
        """Ship the written region home and wait for the ack."""
        region = handle.region
        epoch = self._epoch[nid]
        if nid == region.home:
            # The home copy aliases canonical storage: the data is
            # already in place, only the epoch contract is checked.
            self._note_writer(region.rid, epoch, nid)
            return
        self._count("writeback")
        data = np.array(handle.data, copy=True)
        yield from self._rpc(
            nid,
            region.home,
            self._h_writeback,
            region.rid,
            epoch,
            data,
            payload_words=region.size,
            category="proto.SelfInvalidate.wb",
        )

    def act_self_invalidate(self, nid: int):
        """Invalidate every non-home copy this node holds."""
        dropped = 0
        for rid, copy in self._copies[nid].items():
            if self.regions.get(rid).home != nid and copy.state != "invalid":
                copy.state = "invalid"
                dropped += 1
        if dropped:
            self._count("self_invalidate", dropped)

    def act_advance_epoch(self, nid: int):
        self._epoch[nid] += 1

    # -- home side (handler context) --------------------------------------
    def _note_writer(self, rid: int, epoch: int, src: int) -> None:
        key = (rid, epoch)
        prev = self._epoch_writer.get(key)
        if prev is not None and prev != src:
            raise ProtocolMisuse(
                f"SelfInvalidate: nodes {prev} and {src} both wrote region {rid} "
                f"in epoch {epoch}; this protocol asserts one writer per epoch"
            )
        self._epoch_writer[key] = src

    def _on_writeback(self, node, src, fut, rid, epoch, data):
        self._note_writer(rid, epoch, src)
        np.copyto(self.regions.get(rid).home_data, data)
        self._reply(fut, None, payload_words=1, category="proto.SelfInvalidate.wb_ack")

    # flush_node: the inherited default (drop non-home copies) is exact —
    # write self-downgrade keeps home data current synchronously, so
    # there is never buffered dirty state to drain.
