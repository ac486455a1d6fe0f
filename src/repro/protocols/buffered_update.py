"""Buffered update protocol — built from the §6 building blocks.

Fills the gap between the two update protocols the paper evaluates:
``DynamicUpdate`` propagates on *every* write (low latency, chatty) and
``StaticUpdate`` pushes at barriers but only homes may write.  Here
*any* node may write; writes buffer locally, and the node's barrier
hook ships each written region once — whole-region, last-writer-wins —
to its home, which forwards to the sharers.  The application asserts a
single writer per region per epoch (checked at the home: concurrent
epoch writers raise).

Implementation-wise this protocol is deliberately thin: sharer
tracking comes from :mod:`repro.protocols.blocks`, both acked fan-outs
(writer to homes, home to sharers) are the port's ``fan_out`` +
``Acks``, and the table is three rows.
"""

from __future__ import annotations

import numpy as np

from repro.dsm.transport import Acks
from repro.protocols.base import ProtocolMisuse, ProtocolSpec
from repro.protocols.blocks import SharerDirectory
from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.sim import Future
from repro.spec import ProtocolTable, Transition

BUFFERED_UPDATE_TABLE = ProtocolTable(
    name="BufferedUpdate",
    description="writes buffered locally; one push per dirty region per barrier",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "end_write",
            cost=4,
            actions=("mark_dirty",),
        ),
        Transition(
            "node",
            "*",
            "barrier",
            actions=("ship_dirty", "rendezvous", "advance_epoch"),
            msg="update",
        ),
        Transition(
            "home",
            "idle",
            "update",
            actions=("check_epoch_writer", "apply_update", "fan_out"),
            msg="push",
            note="one writer per region per epoch (misuse otherwise)",
        ),
    ),
    costs={"end_write": 4},
    optimizable=True,
    null_hooks=frozenset({"start_read", "end_read", "start_write"}),
    sync_model="barrier",
    writer_model="epoch",
)


@default_registry.register
class BufferedUpdateProtocol(CachedTableProtocol):
    """Any-writer batched updates, shipped once per barrier epoch."""

    table = BUFFERED_UPDATE_TABLE
    spec = ProtocolSpec.from_table(BUFFERED_UPDATE_TABLE)

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        n = self.transport.n_procs
        self._dirty: list[set] = [set() for _ in range(n)]
        self._sharers = SharerDirectory()
        # home-side: rid -> epoch version of last accepted write
        self._last_writer: dict = {}
        self._epoch = [0] * n
        # A re-run update would answer its writer twice, and a delayed
        # duplicate (update or push) must not overwrite a newer epoch's data.
        port = self.port
        self._h_update = port.hears(self._on_update, "proto.BufferedUpdate.update_ack")
        self._h_push = port.answers(self._on_push, "proto.BufferedUpdate.push_ack", "_on_ack")
        port.watch(("proto.BufferedUpdate.update", "proto.BufferedUpdate.push"))

    def _fetch_extra(self, rid: int, src: int):
        self._sharers.register(rid, src)
        return None

    # -- actions (table-referenced) ---------------------------------------
    def act_mark_dirty(self, nid: int, handle):
        self._dirty[nid].add(handle.region.rid)

    def act_ship_dirty(self, nid: int):
        """Ship dirty regions to their homes and drain the acks."""
        dirty = sorted(self._dirty[nid])
        self._dirty[nid].clear()
        epoch = self._epoch[nid]
        shipped = Acks(done=Future(name=f"bu:ship@{nid}"))  # one answer per region, from its home
        shipped.waiting.extend(dirty)
        if not dirty:
            shipped.done.resolve(None)
        for rid in dirty:
            region = self.regions.get(rid)
            copy = self._copies[nid][rid]
            data = np.array(copy.data, copy=True)
            if nid == region.home:
                self._on_update(self.transport.nodes[nid], nid, rid, epoch, data, shipped)
            else:
                self._post(
                    nid,
                    region.home,
                    self._h_update,
                    rid,
                    epoch,
                    data,
                    shipped,
                    payload_words=region.size,
                    category="proto.BufferedUpdate.update",
                )
        yield shipped.done

    def act_advance_epoch(self, nid: int):
        self._epoch[nid] += 1

    # -- home side (handler context) -------------------------------------
    def _on_update(self, node, src, rid, epoch, data, shipped):
        key = (rid, epoch)
        prev = self._last_writer.get(key)
        if prev is not None and prev != src:
            raise ProtocolMisuse(
                f"BufferedUpdate: nodes {prev} and {src} both wrote region {rid} "
                f"in epoch {epoch}; this protocol asserts one writer per epoch"
            )
        self._last_writer[key] = src
        region = self.regions.get(rid)
        np.copyto(region.home_data, data)
        targets = self._sharers.sharers(rid, exclude=(src, region.home))
        if targets:
            pushed = Acks(done=Future(name=f"bu:push:{rid}@{region.home}"))
            pushed.done.add_callback(lambda _: shipped.answer(rid))
            self.port.fan_out(
                region.home,
                targets,
                self._h_push,
                rid,
                data,
                acks=pushed,
                payload_words=region.size,
                category="proto.BufferedUpdate.push",
            )
        else:
            shipped.answer(rid)
