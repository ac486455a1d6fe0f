"""Dynamic update protocol: writes propagate to all sharers immediately.

The producer-consumer protocol of §2.1/§3.3: "writes to a region are
propagated to all sharers immediately".  A writer needs no exclusive
access — the §6 observation that custom protocols shrink the state
space ("a writer need not acquire exclusive access before proceeding
with a write, as long as the result of the write is propagated to all
sharers").

Mechanics
---------
* Sharer registration happens at map time (the home records who
  fetched a copy).
* ``end_write`` ships the whole region to the home, which applies it
  and fans it out to every other sharer; the writer blocks until all
  sharers have acknowledged, so propagation really is *immediate* and
  a subsequent barrier needs no extra work.
* Reads are pure local hits — ``start_read``/``end_read`` are null and
  the compiler deletes them (this protocol's assertion: regions have a
  single writer at a time, e.g. a Barnes-Hut body is written only by
  its owner).

The message rows (``update``/``push``) are not compiled into hooks and
nothing runs them: they document the home and sharer handlers below for
the protocol reference.  The model checker runs the ``end_write`` hook
generated from the node row, over a home of its own that serves the
update and its fan-out.
"""

from __future__ import annotations

from repro.dsm.transport import Acks
from repro.protocols.caching import UpdateProtocol
from repro.protocols.registry import default_registry
from repro.spec import ProtocolTable, Transition

DYNAMIC_UPDATE_TABLE = ProtocolTable(
    name="DynamicUpdate",
    description="writes propagated to all sharers after each write",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "end_write",
            cost=20,
            actions=("propagate_write",),
            msg="update",
            note="ship whole region to home; block until sharers ack",
        ),
        Transition(
            "home",
            "idle",
            "update",
            actions=("apply_update", "fan_out"),
            msg="push",
        ),
        Transition(
            "node",
            "valid",
            "push",
            actions=("apply_push",),
            msg="push_ack",
        ),
    ),
    costs={"end_write": 20, "apply": 15},
    optimizable=True,
    null_hooks=frozenset({"start_read", "end_read", "start_write"}),
    sync_model="immediate",
    writer_model="none",
)


@default_registry.register
class DynamicUpdateProtocol(UpdateProtocol):
    """Write-through-with-multicast update protocol."""

    table = DYNAMIC_UPDATE_TABLE

    END_WRITE_COST = DYNAMIC_UPDATE_TABLE.cost("end_write")
    APPLY_COST = DYNAMIC_UPDATE_TABLE.cost("apply")

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        #: recovery-active only: writer -> {"rid", "data", "acks"} for
        #: the update whose fan-out has not fully acked (a writer blocks
        #: per update, so at most one each; a dead home strands these
        #: and on_node_dead re-issues from the new home).
        self._open_updates: dict = {}
        # On a lossy fabric a delayed duplicate of update K can arrive
        # after update K+1 (the writer only blocks per update), and
        # re-applying it would roll home data back — so it is served
        # once and duplicates get the recorded ack.  Pushes likewise: a
        # delayed duplicate must not overwrite a newer one.  An update
        # follows a dead home to the new one; a push to a dead sharer is
        # answered on its behalf, so the fan-out completes.
        self._h_update = self.port.serves(self._on_update, on_dead="retarget")
        self._h_push = self.port.answers(
            self._on_apply, "proto.DynamicUpdate.push_ack", "_on_apply_ack", on_dead="answer"
        )

    def act_propagate_write(self, nid: int, handle):
        """Push the written region to home + all sharers; wait for acks."""
        region = handle.region
        self._count("propagate")
        data = handle.data.copy()
        if nid == region.home:
            # Home's copy aliases home_data: adopting ``data`` rewrites it in place.
            yield self._update_home(nid, region.rid, data, f"du:{region.rid}@{nid}").done
        else:
            yield from self._rpc(
                nid,
                region.home,
                self._h_update,
                region.rid,
                data,
                payload_words=region.size,
                category="proto.DynamicUpdate.update",
            )

    # -- home side (handler context) -------------------------------------
    def _on_update(self, node, src, fut, rid, data):
        acks = self._update_home(src, rid, data, f"du:{rid}@home")
        acks.done.add_callback(
            lambda _: self._reply(
                fut, None, payload_words=1, category="proto.DynamicUpdate.update_ack"
            )
        )
        if self._recovery is not None and acks.waiting:
            # If the home dies mid-fan-out the writer would stall on the
            # update ack forever; record enough to re-issue the pushes
            # from the successor home.
            self._open_updates[src] = {"rid": rid, "data": data, "acks": acks}
            acks.done.add_callback(lambda _fut: self._open_updates.pop(src, None))

    def _on_apply(self, node, src, ack, rid, data):
        """:meth:`_on_push` under this protocol's own handler name, which
        its ``handler._on_apply*`` stat keys carry."""
        self._on_push(node, src, ack, rid, data)

    # -- crash recovery ---------------------------------------------------
    def on_node_dead(self, dead: int, manager, rehomed: dict) -> None:
        """Finish the fan-outs a dead home stranded.

        Pushes *to* a dead sharer were fake-acked by the manager's sweep
        (their collector already heard them); pushes *from* a dead home
        were abandoned, so the writer's update would never complete.
        The successor home re-issues those pushes — ``home_data`` (which
        the old home applied before dying and the successor adopted)
        carries exactly the in-flight update's contents.
        """
        super().on_node_dead(dead, manager, rehomed)
        for _key, entry in sorted(self._open_updates.items()):
            acks = entry["acks"]
            if not acks.waiting or entry["rid"] not in rehomed:
                continue
            waiting = sorted(acks.waiting)
            for t in waiting:
                if t in manager.dead:
                    acks.answer(t)
            region = rehomed[entry["rid"]]
            alive = [t for t in waiting if t not in manager.dead]
            self._send_push(region.home, alive, region, entry["data"], Acks(acks.answer))
