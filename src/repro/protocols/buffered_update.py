"""Buffered update protocol — assembled from the §6 building blocks.

Fills the gap between the two update protocols the paper evaluates:
``DynamicUpdate`` propagates on *every* write (low latency, chatty) and
``StaticUpdate`` pushes at barriers but only homes may write.  Here
*any* node may write; writes buffer locally, and the node's barrier
hook ships each written region once — whole-region, last-writer-wins —
to its home, which forwards to the sharers.  The application asserts a
single writer per region per epoch (checked at the home: concurrent
epoch writers raise).

This protocol is deliberately thin: the sharer record and the home
update (adopt, push to the sharers, answer the writer) are
:class:`~repro.protocols.caching.UpdateProtocol`'s; the epoch counter,
the one-writer-per-epoch check and the acked push are
:class:`~repro.protocols.caching.CachedCopyProtocol`'s.  What is left
is the writer's leg — one port ``post`` per dirty region, answered
into an :class:`~repro.dsm.transport.Acks` collector — and a table of
three rows.
"""

from __future__ import annotations

from repro.dsm.transport import Acks
from repro.protocols.caching import UpdateProtocol
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
class BufferedUpdateProtocol(UpdateProtocol):
    """Any-writer batched updates, shipped once per barrier epoch."""

    table = BUFFERED_UPDATE_TABLE

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._dirty: list[set] = [set() for _ in range(self.transport.n_procs)]
        # A re-run update would answer its writer twice, and a delayed
        # duplicate (update or push) must not overwrite a newer epoch's data.
        port = self.port
        self._h_update = port.hears(self._on_update, "proto.BufferedUpdate.update_ack")
        self._h_push = port.answers(self._on_push, "proto.BufferedUpdate.push_ack", "_on_ack")

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
            data = copy.data.copy()
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

    # -- home side (handler context) -------------------------------------
    def _on_update(self, node, src, rid, epoch, data, shipped):
        self._check_epoch_writer(rid, epoch, src)
        pushed = self._update_home(src, rid, data, f"bu:push:{rid}@{node.nid}")
        pushed.done.add_callback(lambda _: shipped.answer(rid))
