"""Counter protocol: home-serialized read-modify-write regions (TSP, §5.2).

"In TSP, the improved performance is due to better management of
accesses to a counter that is used to assign jobs to processors."

Under the SC default, incrementing a shared counter costs a lock
acquisition, a write miss with invalidation fan-out, and a release —
several round trips.  This protocol folds mutual exclusion into the
access hooks themselves: ``start_write`` is a single round trip that
both serializes at the home *and* returns the current value;
``end_write`` ships the new value back and releases in one one-way
message.  Reads are a single fetch of the current committed value.

Everything still goes through the standard full-access-control
interface — the point of §2.1 is precisely that hooks before/after
accesses suffice to express this.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.protocols.base import ProtocolSpec
from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.sim import Future
from repro.spec import ProtocolTable, Transition

COUNTER_TABLE = ProtocolTable(
    name="Counter",
    description="home-serialized read-modify-write; one round trip per access",
    node_states=("invalid", "valid", "home"),
    home_states=("free", "held"),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "start_write",
            cost=8,
            actions=("acquire_rmw",),
            msg="acquire",
        ),
        Transition(
            "node",
            "*",
            "end_write",
            cost=8,
            actions=("commit",),
            msg="commit",
        ),
        Transition(
            "node",
            "*",
            "start_read",
            guard="remote",
            cost=6,
            actions=("fetch_value",),
            msg="read",
        ),
        Transition("home", "free", "acquire", next="held", actions=("grant",)),
        Transition("home", "held", "acquire", actions=("queue_request",)),
        Transition("home", "held", "commit", next="free", actions=("apply_commit", "grant_next")),
    ),
    costs={"start_write": 8, "end_write": 8, "read": 6},
    optimizable=False,  # accesses are atomic RMW transactions: no motion
    null_hooks=frozenset({"end_read"}),
    sync_model="access",
    writer_model="serialized",
)


@default_registry.register
class CounterProtocol(CachedTableProtocol):
    """Home-serialized fetch/modify/commit for small hot regions."""

    table = COUNTER_TABLE
    spec = ProtocolSpec.from_table(COUNTER_TABLE)

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        # rid -> {"held_by": nid|None, "queue": deque[(src, fut)]}
        self._locks: dict[int, dict] = {}
        # Acquire is a call, commit a notify (DESIGN.md §9), the lock
        # service's shape: a re-executed acquire would queue the holder
        # behind itself, a re-run commit would release the next holder.
        port = self.port
        self._h_acquire = port.serves(self._on_acquire)
        self._h_commit = port.hears(self._on_commit, "proto.Counter.commit_ack")
        self._h_read = port.idempotent(self._on_read)
        port.watch(("proto.Counter.acquire", "proto.Counter.commit", "proto.Counter.read"))

    def _lock_state(self, rid: int) -> dict:
        st = self._locks.get(rid)
        if st is None:
            st = {"held_by": None, "queue": deque()}
            self._locks[rid] = st
        return st

    # -- guards / actions (table-referenced) ------------------------------
    def g_remote(self, nid: int, handle) -> bool:
        return handle.region.home != nid

    def act_acquire_rmw(self, nid: int, handle):
        """Acquire the home-side serialization point and fetch fresh data."""
        region = handle.region
        if nid == region.home:
            fut = Future(name=f"ctr:{region.rid}@{nid}")
            self._on_acquire(self.transport.nodes[nid], nid, fut, region.rid)
            data = yield fut
        else:
            data = yield from self._rpc(
                nid,
                region.home,
                self._h_acquire,
                region.rid,
                payload_words=2,
                category="proto.Counter.acquire",
            )
        if data is not None:
            np.copyto(handle.data, data)
        handle.state = "valid"
        self._count("rmw")

    def act_commit(self, nid: int, handle):
        """Commit the new value and release in a single one-way message."""
        region = handle.region
        if nid == region.home:
            self._on_commit(self.transport.nodes[nid], nid, region.rid, None)
        else:
            yield from self.port.send(
                nid,
                region.home,
                self._h_commit,
                region.rid,
                np.array(handle.data, copy=True),
                payload_words=region.size,
                category="proto.Counter.commit",
            )

    def act_fetch_value(self, nid: int, handle):
        """Fetch the current committed value (no serialization)."""
        region = handle.region
        data = yield from self._rpc(
            nid,
            region.home,
            self._h_read,
            region.rid,
            payload_words=2,
            category="proto.Counter.read",
        )
        np.copyto(handle.data, data)
        handle.state = "valid"

    # -- home side (handler context) -------------------------------------
    def _on_acquire(self, node, src, fut, rid):
        st = self._lock_state(rid)
        if st["held_by"] is None:
            st["held_by"] = src
            self._grant(rid, src, fut)
        else:
            st["queue"].append((src, fut))
            self._count("contended")

    def _grant(self, rid: int, src: int, fut: Future) -> None:
        region = self.regions.get(rid)
        if src == region.home:
            fut.resolve(None)  # home copy aliases home_data: already current
        else:
            self._reply(
                fut,
                region.home_data.copy(),
                payload_words=region.size,
                category="proto.Counter.grant",
            )

    def _on_commit(self, node, src, rid, data):
        region = self.regions.get(rid)
        st = self._lock_state(rid)
        if data is not None:
            np.copyto(region.home_data, data)
        st["held_by"] = None
        if st["queue"]:
            nxt, fut = st["queue"].popleft()
            st["held_by"] = nxt
            self._grant(rid, nxt, fut)

    def _on_read(self, node, src, fut, rid):
        region = self.regions.get(rid)
        self._reply(
            fut,
            region.home_data.copy(),
            payload_words=region.size,
            category="proto.Counter.read_data",
        )
