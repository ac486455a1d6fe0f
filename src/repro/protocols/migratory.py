"""Migratory protocol: the (single) copy follows the accessing processor.

One of the "common protocols such as update protocols, migratory
protocols, etc." the paper expects protocol libraries to provide
(§2.1).  Suits data touched by one processor at a time in turn (e.g.
objects passed around a work list): each access moves the region to
the requester in a single three-hop transaction — home lookup,
recall, direct data hand-off — with no sharer lists and no
invalidation fan-out.

Both read and write accesses acquire the region exclusively; the home
serializes competing requests with a busy/queue pair like the SC
directory, and a holder actively using the region defers the hand-off
until its matching end call.

Table notes: the per-event *entry* cost (the access-check charge) is
charged before the copy state is examined — a concurrent hand-off may
land during those cycles, so match order is check-then-look.  Both end
calls release the copy (``use`` counts open accesses), so neither hook
is null: a deleted ``end_read`` would defer the next recall forever.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.memory import RegionCopy
from repro.protocols.base import _POOL, _POOL_SIZE, ProtocolSpec, TableProtocol
from repro.protocols.registry import default_registry
from repro.sim import Delay, Future
from repro.spec import ProtocolTable, Transition

MIGRATORY_TABLE = ProtocolTable(
    name="Migratory",
    description="single copy migrates to each accessor in turn",
    node_states=("invalid", "valid"),
    home_states=("idle", "busy"),
    base_state="invalid",
    transitions=(
        Transition("node", "valid", "start_read", actions=("hit",)),
        Transition(
            "node",
            "*",
            "start_read",
            cost=25,
            actions=("migrate",),
            msg="req",
        ),
        Transition("node", "valid", "start_write", actions=("hit",)),
        Transition(
            "node",
            "*",
            "start_write",
            cost=25,
            actions=("migrate",),
            msg="req",
        ),
        Transition("node", "*", "end_read", cost=4, actions=("release",)),
        Transition("node", "*", "end_write", cost=4, actions=("release",)),
        Transition(
            "home",
            "idle",
            "req",
            next="busy",
            actions=("recall_holder",),
            msg="recall",
        ),
        Transition("home", "busy", "req", actions=("queue_request",)),
        Transition(
            "node",
            "valid",
            "recall",
            next="invalid",
            actions=("hand_off",),
            msg="data",
            note="deferred while the copy is in use or data is in flight",
        ),
        Transition("home", "busy", "moved", next="idle", actions=("record_location",)),
    ),
    costs={"create": 90, "map": 12, "start_hit": 10, "miss": 25, "release": 4, "unmap": 4},
    entry_costs={"start_read": 10, "start_write": 10},
    optimizable=True,
    sync_model="access",
    writer_model="copy",
)


@default_registry.register
class MigratoryProtocol(TableProtocol):
    """Exclusive, migrating single copy per region."""

    table = MIGRATORY_TABLE
    spec = ProtocolSpec.from_table(MIGRATORY_TABLE)

    CREATE_COST = MIGRATORY_TABLE.cost("create")
    MAP_COST = MIGRATORY_TABLE.cost("map")
    UNMAP_COST = MIGRATORY_TABLE.cost("unmap")

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._copies: list[dict[int, RegionCopy]] = [dict() for _ in range(self.transport.n_procs)]
        # home-side: rid -> {"loc": nid, "busy": bool, "queue": deque}
        self._dir: dict[int, dict] = {}
        self._d_create = Delay(self.CREATE_COST)
        # Every hop is a one-way state change (queue, defer, hand off,
        # record) that a duplicate must not repeat: all four are heard once.
        port = self.port = self.transport.port("proto.Migratory")
        self._post = port.post
        self._h_request = port.hears(self._on_request, "proto.Migratory.req_ack")
        self._h_recall = port.hears(self._on_recall, "proto.Migratory.recall_ack")
        self._h_data = port.hears(self._on_data, "proto.Migratory.data_ack")
        self._h_moved = port.hears(self._on_moved, "proto.Migratory.moved_ack")
        port.watch(tuple(f"proto.Migratory.{m}" for m in ("req", "recall", "data", "moved")))

    # -- lifecycle ---------------------------------------------------------
    def init_space(self, nid: int):
        """Adopt pre-existing regions (§3.1): a region handed over in the
        base state has current home data and no cached copies, so the
        home seeds itself as the location of the single copy."""
        for rid in self.space.regions:
            region = self.regions.get(rid)
            if region.home == nid and rid not in self._dir:
                self._install_home(nid, region)
        return
        yield  # pragma: no cover - makes this a generator

    # -- data management -------------------------------------------------
    def create(self, nid: int, size: int):
        yield self._d_create
        region = self.regions.alloc(home=nid, size=size)
        self._install_home(nid, region)
        return region.rid

    def _install_home(self, nid: int, region) -> None:
        """The single copy starts at home, aliasing canonical storage."""
        copy = self._copies[nid][region.rid] = RegionCopy(region, nid)
        copy.data = region.home_data
        copy.state = "valid"
        self._dir[region.rid] = {"loc": nid, "busy": False, "queue": deque()}

    def map(self, nid: int, rid: int, lead: int = 0):
        copy = self._copies[nid].get(rid)
        yield _POOL[c] if (c := lead + self.MAP_COST) < _POOL_SIZE else Delay(c)
        if copy is None:
            copy = self._copies[nid][rid] = RegionCopy(self.regions.get(rid), nid)
        copy.mapped = True
        copy.space, copy.gen = self.space, self.space.generation
        return copy

    def unmap(self, nid: int, handle, lead: int = 0):
        yield _POOL[c] if (c := lead + self.UNMAP_COST) < _POOL_SIZE else Delay(c)
        handle.mapped = False

    # -- guards / actions (table-referenced) --------------------------------
    def act_hit(self, nid: int, handle):
        handle.use += 1
        self._count("hit")

    def act_migrate(self, nid: int, handle):
        """Pull the single copy here (three-hop home/recall/hand-off)."""
        self._count("migrate")
        region = handle.region
        fut = Future(name=f"mig:{region.rid}@{nid}")
        if nid == region.home:
            self._on_request(self.transport.nodes[nid], nid, region.rid, fut)
        else:
            yield from self.port.send(
                nid,
                region.home,
                self._h_request,
                region.rid,
                fut,
                payload_words=2,
                category="proto.Migratory.req",
            )
        data = yield fut
        if data is not None:
            np.copyto(handle.data, data)
        handle.state = "valid"
        handle.use += 1

    def act_release(self, nid: int, handle):
        handle.use -= 1
        if handle.use == 0 and handle.deferred:
            fire, handle.deferred = handle.deferred, ()
            for args in fire:
                self._hand_off(handle, *args)

    # -- home side (handler context) ----------------------------------------
    def _on_request(self, node, src, rid, fut):
        ent = self._dir[rid]
        if ent["busy"]:
            ent["queue"].append((src, fut))
            return
        self._grant(rid, ent, src, fut)

    def _grant(self, rid, ent, src, fut) -> None:
        holder = ent["loc"]
        region = self.regions.get(rid)
        if holder == src:
            # Requester is the recorded holder (possible transiently after a
            # flush); its copy is authoritative — just revalidate.
            fut.resolve(None)
            return
        ent["busy"] = True
        self._post(
            region.home,
            holder,
            self._h_recall,
            rid,
            src,
            fut,
            payload_words=2,
            category="proto.Migratory.recall",
        )

    def _on_recall(self, node, src_home, rid, dest, fut):
        copy = self._copies[node.nid][rid]
        # Defer while the copy is in use, and also while the hand-off data
        # is still in flight to us (the home can learn about a move before
        # the — larger, hence slower — data message lands).
        if copy.use > 0 or copy.state != "valid":
            copy.deferred += ((rid, dest, fut),)
            return
        self._hand_off(copy, rid, dest, fut)

    def _hand_off(self, copy: RegionCopy, rid: int, dest: int, fut: Future) -> None:
        region = copy.region
        data = np.array(copy.data, copy=True)
        copy.state = "invalid"
        self._post(
            copy.node,
            dest,
            self._h_data,
            rid,
            data,
            fut,
            payload_words=region.size,
            category="proto.Migratory.data",
        )
        # tell home the new location
        self._post(
            copy.node,
            region.home,
            self._h_moved,
            rid,
            dest,
            payload_words=2,
            category="proto.Migratory.moved",
        )

    def _on_data(self, node, src, rid, data, fut):
        if node.nid == self.regions.get(rid).home:
            np.copyto(self.regions.get(rid).home_data, data)
            fut.resolve(None)
        else:
            fut.resolve(data)

    def _on_moved(self, node, src, rid, dest):
        ent = self._dir[rid]
        ent["loc"] = dest
        ent["busy"] = False
        if ent["queue"]:
            nxt_src, nxt_fut = ent["queue"].popleft()
            self._grant(rid, ent, nxt_src, nxt_fut)

    def flush_node(self, nid: int):
        """Bring every migrated region home so successors find it there."""
        for rid in self.space.regions:
            region = self.regions.get(rid)
            if nid != region.home:
                continue
            ent = self._dir[rid]
            if ent["loc"] == nid or ent["busy"]:
                continue
            handle = self._copies[nid][rid]
            handle.state = "invalid"
            yield from self.start_read(nid, handle)
            yield from self.end_read(nid, handle)
        # Remote copies are NOT dropped here: the home's recall may still
        # be in flight toward them (change_protocol barriers after every
        # node's flush); they are discarded with this protocol instance.
