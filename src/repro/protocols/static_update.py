"""Static update protocol: sharer lists built once, updates pushed at barriers.

"The static protocol builds sharer lists during the first iteration,
and then, propagates updates appropriately at subsequent barriers —
essentially Falsafi et al.'s protocol for EM3D" (§3.3).  The paper
measures ~5x over SC invalidation for EM3D with it.

Assertions this protocol is built on (the §6 state-space reduction):

* a region is written only by its *home* node (the producer owns it);
* the reader set is stable after first map (static access pattern).

Consequently:

* sharer registration happens at map time, *at the home* — since the
  home is the writer, the sharer list is local to the node that needs
  it at barrier time;
* reads after the first fetch are pure local accesses —
  ``start_read``/``end_read``/``start_write`` are all registered null,
  which is why the compiler's direct-dispatch pass wins so much on
  EM3D's tight kernel (Table 4);
* at ``Ace_Barrier``, each node pushes every *dirty* region it homes
  to that region's sharers and waits for their acknowledgements
  before entering the global rendezvous, so all consumers see fresh
  values after the barrier.

The table's two ``end_write`` rows are the protocol's assertion made
machine-readable: the guarded row marks the region dirty when the
writer is the home; the fall-through row rejects everything else.
"""

from __future__ import annotations

from repro.dsm.transport import Acks
from repro.protocols.base import ProtocolMisuse
from repro.protocols.caching import UpdateProtocol
from repro.protocols.registry import default_registry
from repro.sim import Delay, Future
from repro.spec import ProtocolTable, Transition

STATIC_UPDATE_TABLE = ProtocolTable(
    name="StaticUpdate",
    description="sharer lists built at first map; homes push updates at barriers",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "end_write",
            guard="home_writer",
            cost=8,
            actions=("mark_dirty",),
        ),
        Transition(
            "node",
            "*",
            "end_write",
            actions=("reject_remote_write",),
            note="producers own their regions; remote writes are misuse",
        ),
        Transition(
            "node",
            "*",
            "barrier",
            actions=("push_dirty", "rendezvous"),
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
    costs={"end_write": 8, "push_setup": 12},
    optimizable=True,
    null_hooks=frozenset({"start_read", "end_read", "start_write"}),
    home_writer=True,
    sync_model="barrier",
    writer_model="home",
)


@default_registry.register
class StaticUpdateProtocol(UpdateProtocol):
    """Falsafi-style static update: home pushes dirty regions at barriers."""

    table = STATIC_UPDATE_TABLE

    END_WRITE_COST = STATIC_UPDATE_TABLE.cost("end_write")
    PUSH_SETUP_COST = STATIC_UPDATE_TABLE.cost("push_setup")

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._dirty: list[set[int]] = [set() for _ in range(self.transport.n_procs)]
        self._d_push_setup = Delay(self.PUSH_SETUP_COST)
        # A delayed duplicate of a previous barrier's push must not
        # overwrite this barrier's data: heard once, always re-acked.
        self._h_push = self.port.answers(
            self._on_push, "proto.StaticUpdate.push_ack", "_on_push_ack"
        )

    # -- guards / actions (table-referenced) ------------------------------
    def g_home_writer(self, nid: int, handle) -> bool:
        return handle.region.home == nid

    def act_mark_dirty(self, nid: int, handle):
        self._dirty[nid].add(handle.region.rid)

    def act_reject_remote_write(self, nid: int, handle):
        region = handle.region
        raise ProtocolMisuse(
            f"StaticUpdate: node {nid} wrote region {region.rid} homed at "
            f"{region.home}; this protocol asserts producers own their regions"
        )

    def act_push_dirty(self, nid: int):
        """Push dirty home regions to sharers (the barrier's first leg)."""
        dirty = sorted(self._dirty[nid])
        self._dirty[nid].clear()
        pushes = []
        for rid in dirty:
            region = self.regions.get(rid)
            targets = sorted(self._sharers.get(rid, ()))
            if not targets:
                continue
            pushes.append((region, targets))
        if pushes:
            yield self._d_push_setup
            acks = Acks(done=Future(name=f"su:barrier@{nid}"))
            for region, targets in pushes:
                self._count("push", len(targets))
                self._send_push(nid, targets, region, region.home_data.copy(), acks)
            yield acks.done
