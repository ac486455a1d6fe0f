"""Owned-state (MOESI-style) invalidation protocol with cache-to-cache supply.

The SC table recalls a dirty copy all the way home before any other
node may read it — two region-sized transfers for every
producer/consumer hand-off.  This table adds the classic **owned**
state: when a reader misses on a region whose dirty copy lives at
another node, the home *forwards* the request and the owner supplies
the data directly, downgrading itself ``excl -> owned`` (dirty but
shared, responsible for supplying further readers).  Writes still
serialize through the home with an invalidation fan-out, so the
protocol stays in the paper's invalidation family and verifies under
the same SWMR/freshness invariants as SC — the model checker's
certificate covers the forwarding races (supply vs. queued writes,
owner self-upgrades, deferred forwards) that make owned-state
protocols notoriously easy to get wrong.

Interesting rows, beyond MSI:

* ``excl --fwd_read--> owned`` / ``owned --fwd_read--> owned``: the
  owner answers the forwarded reader directly (``supply``); the home
  stays busy until the reader's ``grant_ack`` records it as a sharer.
* ``owned --invalidate--> invalid`` writes back: the owner is the only
  current copy the home can trust, exactly like ``excl``.
* An owner *upgrading* (``owned`` + sharers elsewhere, then a write)
  takes the wildcard ``start_write`` miss like everyone else, but the
  home answers with ``upgrade_ack`` — shipping home data would hand
  the owner a stale base for its read-modify-write.
* The home's own accesses use the guarded hit rows when the directory
  is quiet and explicit ``fetch_*_home`` rows otherwise, so the home
  alias state never decays into ``shared`` (its copy *is* canonical
  storage).

Reliability (DESIGN.md §9): requests are port *calls*; the owner's
supply goes through the port's recording reply, so on a lossy fabric a
retried ``read_req`` whose supply was dropped replays the recorded
grant instead of re-running the forward.  Invalidations, forwards and
grant acks go out through the port's *fan-out*; an invalidation's answer
*is* the (possibly dirty) writeback, and a deferred invalidation stays
unanswered until the open access releases.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from repro.dsm.transport import Acks
from repro.memory import RegionCopy
from repro.protocols.base import _POOL, _POOL_SIZE, ProtocolSpec, TableProtocol
from repro.protocols.registry import default_registry
from repro.sim import Delay, Future
from repro.spec import ProtocolTable, Transition

OWNED_TABLE = ProtocolTable(
    name="Owned",
    description="MOESI-style ownership: dirty owners supply readers cache-to-cache",
    node_states=("invalid", "shared", "excl", "owned", "home"),
    home_states=("idle", "busy"),
    base_state="invalid",
    transitions=(
        # -- node: access hooks -----------------------------------------
        Transition("node", "shared", "start_read", actions=("hit",)),
        Transition("node", "excl", "start_read", actions=("hit",)),
        Transition("node", "owned", "start_read", actions=("hit",)),
        Transition(
            "node",
            "home",
            "start_read",
            guard="home_idle",
            actions=("hit", "open_home_read"),
            note="home alias reads locally unless a remote owner exists",
        ),
        Transition(
            "node",
            "home",
            "start_read",
            cost=25,
            actions=("fetch_read_home",),
            msg="read_req",
            note="owner elsewhere: the home queues like any reader; its copy stays 'home'",
        ),
        Transition(
            "node",
            "*",
            "start_read",
            next="shared",
            cost=25,
            actions=("fetch_read",),
            msg="read_req",
            effects=("add_sharer", "copy_current"),
        ),
        Transition("node", "excl", "start_write", actions=("hit",)),
        Transition(
            "node",
            "home",
            "start_write",
            guard="home_sole",
            actions=("hit", "open_home_write"),
            note="home alias writes locally unless remote copies exist",
        ),
        Transition(
            "node",
            "home",
            "start_write",
            cost=25,
            actions=("fetch_write_home",),
            msg="write_req",
        ),
        Transition(
            "node",
            "*",
            "start_write",
            next="excl",
            cost=25,
            actions=("fetch_write",),
            msg="write_req",
            effects=("set_owner", "drop_sharer", "copy_current"),
            note="an owned-state upgrade also lands here; the home sends upgrade_ack",
        ),
        Transition("node", "home", "end_read", cost=4, actions=("release", "close_home_read")),
        Transition("node", "*", "end_read", cost=4, actions=("release",), effects=("fire_deferred",)),
        Transition("node", "home", "end_write", cost=4, actions=("release", "close_home_write")),
        Transition("node", "*", "end_write", cost=4, actions=("release",), effects=("fire_deferred",)),
        # -- node: recall receive side ------------------------------------
        Transition(
            "node",
            "excl",
            "invalidate",
            next="invalid",
            actions=("writeback", "ack"),
            msg="inval_ack",
            effects=("write_home",),
        ),
        Transition(
            "node",
            "owned",
            "invalidate",
            next="invalid",
            actions=("writeback", "ack"),
            msg="inval_ack",
            effects=("write_home",),
            note="the owner is the only trusted copy; its data rides the ack",
        ),
        Transition("node", "shared", "invalidate", next="invalid", actions=("ack",), msg="inval_ack"),
        # -- node: forwarded reads (cache-to-cache supply) -----------------
        Transition(
            "node",
            "excl",
            "fwd_read",
            next="owned",
            actions=("supply",),
            msg="supply",
            effects=("add_sharer",),
            note="first forwarded reader downgrades the owner excl -> owned",
        ),
        Transition(
            "node",
            "owned",
            "fwd_read",
            actions=("supply",),
            msg="supply",
            effects=("add_sharer",),
        ),
        # -- home: admission (atomic handler context) ----------------------
        Transition("home", "idle", "read_req", guard="home_writing", actions=("enqueue",)),
        Transition(
            "home",
            "idle",
            "read_req",
            guard="owned_elsewhere",
            next="busy",
            actions=("forward_read",),
            msg="fwd_read",
            note="three-hop read: home forwards, owner supplies, reader grant_acks",
        ),
        Transition(
            "home",
            "idle",
            "read_req",
            next="busy",
            actions=("grant_shared",),
            msg="read_data",
            effects=("add_sharer",),
        ),
        Transition("home", "idle", "write_req", guard="home_open", actions=("enqueue",)),
        Transition(
            "home",
            "idle",
            "write_req",
            guard="copies_elsewhere",
            next="busy",
            actions=("recall_invalidate",),
            msg="invalidate",
        ),
        Transition(
            "home",
            "idle",
            "write_req",
            next="busy",
            actions=("grant_excl",),
            msg="write_data",
            effects=("set_owner",),
        ),
        Transition("home", "busy", "read_req", actions=("enqueue",), note="FIFO; no starvation"),
        Transition("home", "busy", "write_req", actions=("enqueue",), note="FIFO; no starvation"),
        Transition(
            "home",
            "busy",
            "inval_ack",
            guard="acks_remaining",
            actions=("collect_ack",),
        ),
        Transition(
            "home",
            "busy",
            "inval_ack",
            next="idle",
            actions=("collect_ack", "serve_pending", "drain_queue"),
        ),
        Transition(
            "home",
            "busy",
            "grant_ack",
            next="idle",
            actions=("record_sharer", "drain_queue"),
            note="a supplied reader becomes a sharer here (forwarded grants)",
        ),
        Transition(
            "home",
            "idle",
            "flush",
            actions=("accept_flush",),
            msg="flush_ack",
            effects=("write_home", "drop_sharer", "clear_owner"),
        ),
    ),
    costs={"create": 90, "map": 12, "miss": 25, "end_op": 4, "unmap": 6},
    entry_costs={"start_read": 10, "start_write": 10},
    optimizable=False,
    null_hooks=frozenset(),
    sync_model="access",
    writer_model="copy",
)


@default_registry.register
class OwnedProtocol(TableProtocol):
    """MOESI-style owned-state invalidation with forwarding directory."""

    table = OWNED_TABLE
    spec = ProtocolSpec.from_table(OWNED_TABLE)

    CREATE_COST = OWNED_TABLE.cost("create")
    MAP_COST = OWNED_TABLE.cost("map")
    UNMAP_COST = OWNED_TABLE.cost("unmap")

    #: Futures that must be granted remote-style even though their
    #: source is the region's home: after re-homing, a survivor can be
    #: suspended in the *remote* fetch epilogue of a request now
    #: addressed to itself (retargeted, re-admitted, or issued from a
    #: remote-state copy of its own region).  A home-style grant would
    #: open hr/hw that the table's remote rows never close.  Immutable
    #: empty default: nothing is ever marked without recovery.
    _remote_self: frozenset = frozenset()
    #: Unanswered requests that crossed the fabric (the port's view; bound
    #: only under recovery, where a home's own fetches are called in place).
    _wire_calls = frozenset()
    #: (nid, rid) -> that node's last applied dirty writeback, kept only
    #: under recovery: if the answer carrying it dies with the home, the
    #: re-homed rebuild adopts it from here.
    _wb_log = None

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        n = self.transport.n_procs
        self._copies: list[dict[int, RegionCopy]] = [dict() for _ in range(n)]
        # home-side directory: rid -> entry dict (owner / sharers / busy
        # window / recall-or-forward pending / FIFO queue / the home
        # task's own open accesses)
        self._dir: dict[int, dict] = {}
        port = self.port = self.transport.port("proto.Owned")
        self._rpc = port.call
        self._reply = port.reply
        self._fan_out = port.fan_out
        self._h_read_req = port.serves(self._on_read_req)
        self._h_write_req = port.serves(self._on_write_req)
        self._h_flush = port.serves(self._on_flush)
        self._h_grant_ack = port.answers(self._on_grant_ack, "proto.Owned.grant_ack_ok")
        self._h_invalidate = port.answers(self._on_invalidate, "proto.Owned.inval_ack")
        self._h_fwd_read = port.answers(self._on_fwd_read, "proto.Owned.fwd_ack")
        self._h_fwd_miss = port.answers(self._on_fwd_miss, "proto.Owned.fwd_miss_ack")
        # A home's own fetch is a call in place where no reply can be lost
        # (and in recovery runs, whose grant style _remote_self steers).
        # On a plain lossy fabric it rides the wire to itself instead: its
        # grant may be a remote owner's supply, and a dropped one must be
        # retransmitted and replayed like any remote request's — a bare
        # local future would hang.
        self._home_in_place = not port.lossy or self._recovery is not None
        self._d_create = Delay(self.CREATE_COST)
        if self._recovery is not None:
            self._wire_calls = port.open_calls

    # -- lifecycle ---------------------------------------------------------
    def init_space(self, nid: int):
        """Adopt pre-existing regions: base state means current home data
        and no cached copies, so the home seeds only its own alias."""
        for rid in self.space.regions:
            region = self.regions.get(rid)
            if region.home != nid or rid in self._copies[nid]:
                continue
            self._install_home(nid, region)
        return
        yield  # pragma: no cover - makes this a generator

    def flush_node(self, nid: int):
        """Ship dirty copies home and drop everything non-home."""
        for rid in list(self._copies[nid]):
            region = self.regions.get(rid)
            if nid == region.home:
                continue
            copy = self._copies[nid].pop(rid)
            if copy.state in ("excl", "owned"):
                data = np.array(copy.data, copy=True)
                copy.state = "invalid"
                yield from self._rpc(
                    nid,
                    region.home,
                    self._h_flush,
                    rid,
                    data,
                    payload_words=region.size,
                    category="proto.Owned.flush",
                )
            elif copy.state == "shared":
                copy.state = "invalid"
                yield from self._rpc(
                    nid,
                    region.home,
                    self._h_flush,
                    rid,
                    None,
                    payload_words=2,
                    category="proto.Owned.flush",
                )

    # -- data management ---------------------------------------------------
    def create(self, nid: int, size: int):
        yield self._d_create
        region = self.regions.alloc(home=nid, size=size)
        self._install_home(nid, region)
        self._count("create")
        return region.rid

    def map(self, nid: int, rid: int, lead: int = 0):
        yield _POOL[c] if (c := lead + self.MAP_COST) < _POOL_SIZE else Delay(c)
        copy = self._copies[nid].get(rid)
        if copy is None:
            region = self.regions.get(rid)
            copy = RegionCopy(region, nid)
            copy.meta["use"] = 0
            self._copies[nid][rid] = copy
        copy.mapped = True
        copy.space, copy.gen = self.space, self.space.generation
        return copy

    def unmap(self, nid: int, handle, lead: int = 0):
        yield _POOL[c] if (c := lead + self.UNMAP_COST) < _POOL_SIZE else Delay(c)
        handle.mapped = False

    def _install_home(self, nid: int, region) -> RegionCopy:
        copy = RegionCopy(region, nid)
        copy.data = region.home_data  # the alias IS canonical storage
        copy.state = "home"
        copy.meta["use"] = 0
        self._copies[nid][region.rid] = copy
        self._entry(region.rid)
        return copy

    def _entry(self, rid: int) -> dict:
        ent = self._dir.get(rid)
        if ent is None:
            ent = self._dir[rid] = {
                "owner": None,
                "sharers": set(),
                "busy": False,
                "pending": None,
                "queue": deque(),
                "hr": 0,
                "hw": False,
                # Who a grant window (busy, pending None) is waiting on
                # for its grant_ack — crash recovery clears the window
                # when the grantee dies.
                "grantee": None,
            }
        return ent

    # -- guards (table-referenced) ------------------------------------------
    def g_home_idle(self, nid: int, handle) -> bool:
        ent = self._entry(handle.region.rid)
        return ent["owner"] is None and not ent["busy"]

    def g_home_sole(self, nid: int, handle) -> bool:
        ent = self._entry(handle.region.rid)
        return ent["owner"] is None and not ent["sharers"] and not ent["busy"]

    # -- actions (table-referenced) -------------------------------------------
    def act_hit(self, nid: int, handle):
        handle.meta["use"] += 1
        self._count("hit")
        return
        yield  # pragma: no cover - makes this a generator

    def act_open_home_read(self, nid: int, handle):
        # Runs in the same atomic step as the guard (hit rows charge no
        # row cost), so guard-check and counter update cannot interleave
        # with a remote admission.
        self._entry(handle.region.rid)["hr"] += 1
        return
        yield  # pragma: no cover - makes this a generator

    def act_open_home_write(self, nid: int, handle):
        self._entry(handle.region.rid)["hw"] = True
        return
        yield  # pragma: no cover - makes this a generator

    def act_close_home_read(self, nid: int, handle):
        ent = self._entry(handle.region.rid)
        ent["hr"] -= 1
        self._drain(handle.region.rid)
        return
        yield  # pragma: no cover - makes this a generator

    def act_close_home_write(self, nid: int, handle):
        ent = self._entry(handle.region.rid)
        ent["hw"] = False
        self._drain(handle.region.rid)
        return
        yield  # pragma: no cover - makes this a generator

    def act_fetch_read(self, nid: int, handle):
        self._count("read_miss")
        yield from self._fetch(nid, handle, "r")

    def act_fetch_write(self, nid: int, handle):
        self._count("write_miss")
        yield from self._fetch(nid, handle, "w")

    def act_fetch_read_home(self, nid: int, handle):
        self._count("home_read_wait")
        yield from self._fetch(nid, handle, "r")

    def act_fetch_write_home(self, nid: int, handle):
        self._count("home_write_wait")
        yield from self._fetch(nid, handle, "w")

    def _fetch(self, nid: int, handle, kind: str):
        """Request access from the home; install whatever grant arrives."""
        region = handle.region
        if nid == region.home and self._home_in_place:
            fut = Future(name=f"owned:{kind}req@{nid}")
            if handle.state != "home" and self._recovery is not None:
                # Post-recovery only: a re-homed node fetching from a
                # remote-state copy of its own region.  The table's next
                # state is a remote state, so the grant must be
                # remote-style (data + busy window), not hr/hw.
                self._remote_self.add(fut)
            handler = self._on_read_req if kind == "r" else self._on_write_req
            handler(self.transport.nodes[nid], nid, fut, region.rid)
            val = yield fut
        else:
            val = yield from self._rpc(
                nid,
                region.home,
                self._h_read_req if kind == "r" else self._h_write_req,
                region.rid,
                payload_words=2,
                category=f"proto.Owned.{'read' if kind == 'r' else 'write'}_req",
            )
        tag, data = val
        if data is not None:
            # read_data / write_data / supply; "upgrade" and "grant"
            # carry no data (the requester's copy is already current)
            np.copyto(handle.data, data)
        if tag != "grant":
            # Close the home's busy window; for forwarded reads this is
            # also what records us as a sharer (record_sharer row).
            self._fan_out(
                nid,
                (region.home,),
                self._h_grant_ack,
                region.rid,
                payload_words=1,
                category="proto.Owned.grant_ack",
            )
        handle.meta["use"] += 1

    def act_release(self, nid: int, handle):
        handle.meta["use"] -= 1
        if handle.meta["use"] == 0 and handle.deferred:
            fire, handle.deferred = handle.deferred, ()
            for item in fire:
                if item[0] == "inval":
                    self._apply_invalidate(nid, handle, item[1])
                else:  # ("fwd", requester, rfut)
                    self._supply(nid, handle, item[1], item[2])
        return
        yield  # pragma: no cover - makes this a generator

    # -- home side: admission (handler context) --------------------------------
    def _on_read_req(self, node, src, fut, rid):
        # A request that crossed the fabric from the region's own home
        # only exists after re-homing: grant it remote-style.
        if fut in self._wire_calls and src == self.regions.get(rid).home:
            self._remote_self.add(fut)
        self._admit(rid, "r", src, fut)

    def _on_write_req(self, node, src, fut, rid):
        if fut in self._wire_calls and src == self.regions.get(rid).home:
            self._remote_self.add(fut)
        self._admit(rid, "w", src, fut)

    def _admit(self, rid, kind, src, fut, queued=False) -> bool:
        """Run the home admission rows; False = not admissible (requeue)."""
        ent = self._entry(rid)
        region = self.regions.get(rid)
        home = region.home
        if ent["busy"]:
            if queued:
                return False
            ent["queue"].append((kind, src, fut))
            return True
        if kind == "r":
            if ent["hw"] and src != home:  # guard: home_writing
                if queued:
                    return False
                ent["queue"].append((kind, src, fut))
                return True
            owner = ent["owner"]
            if owner is not None and owner != src:  # guard: owned_elsewhere
                ent["busy"] = True
                ent["pending"] = {"kind": "f", "src": src, "fut": fut}
                self._count("forward")
                self._fan_out(
                    home,
                    (owner,),
                    self._h_fwd_read,
                    rid,
                    src,
                    fut,
                    payload_words=2,
                    category="proto.Owned.fwd_read",
                )
                return True
            self._grant_read(rid, ent, src, fut)
            return True
        # kind == "w"
        if (ent["hw"] or ent["hr"] > 0) and src != home:  # guard: home_open
            if queued:
                return False
            ent["queue"].append((kind, src, fut))
            return True
        owner = ent["owner"]
        targets = []
        if owner is not None and owner != src:
            targets.append(owner)
        targets += sorted(x for x in ent["sharers"] if x != src and x not in targets)
        if targets:  # guard: copies_elsewhere
            ent["busy"] = True
            acks = Acks(partial(self._collect_ack, rid))
            ent["pending"] = {"kind": "w", "src": src, "fut": fut, "acks": acks}
            self._fan_out(
                home,
                targets,
                self._h_invalidate,
                rid,
                acks=acks,
                payload_words=2,
                category="proto.Owned.invalidate",
            )
            return True
        self._grant_write(rid, ent, src, fut)
        return True

    def _grant_read(self, rid, ent, src, fut) -> None:
        region = self.regions.get(rid)
        if src == region.home and fut not in self._remote_self:
            # The home's own read: no install, no busy window — mark the
            # open access and let the waiting task proceed.
            ent["hr"] += 1
            self._reply(fut, ("grant", None), payload_words=1, category="proto.Owned.home_grant")
            return
        if src == region.home:
            self._remote_self.discard(fut)  # re-homed self-request
        ent["busy"] = True
        ent["grantee"] = src
        ent["sharers"].add(src)
        self._reply(
            fut,
            ("data", region.home_data.copy()),
            payload_words=region.size,
            category="proto.Owned.read_data",
        )

    def _grant_write(self, rid, ent, src, fut) -> None:
        region = self.regions.get(rid)
        if src == region.home:
            if fut not in self._remote_self:
                ent["hw"] = True
                self._reply(
                    fut, ("grant", None), payload_words=1, category="proto.Owned.home_grant"
                )
                return
            self._remote_self.discard(fut)  # re-homed self-request
        # An upgrading sharer — or an owner self-upgrading from owned —
        # keeps its current data; home data would be a stale write base.
        had = src == ent["owner"] or src in ent["sharers"]
        ent["sharers"].discard(src)
        ent["owner"] = src
        ent["busy"] = True
        ent["grantee"] = src
        if had:
            self._reply(fut, ("upgrade", None), payload_words=1, category="proto.Owned.upgrade_ack")
        else:
            self._reply(
                fut,
                ("data", region.home_data.copy()),
                payload_words=region.size,
                category="proto.Owned.write_data",
            )

    def _collect_ack(self, rid, target, value) -> None:
        """One invalidation target acknowledged (ack value = its dirty data)."""
        ent = self._entry(rid)
        pend = ent["pending"]
        if pend is None:
            # Crash recovery canceled this recall (the window was rebuilt
            # at a successor home); absorb the late ack.
            if self._recovery is not None:
                self._recovery.count_stray_ack()
            return
        if value is not None:
            np.copyto(self.regions.get(rid).home_data, np.asarray(value))
        if ent["owner"] == target:
            ent["owner"] = None
        ent["sharers"].discard(target)
        if pend["acks"].waiting:
            return
        ent["pending"] = None
        ent["busy"] = False
        if not pend.get("orphan"):
            self._grant_write(rid, ent, pend["src"], pend["fut"])
        if not ent["busy"]:
            self._drain(rid)

    def _on_grant_ack(self, node, src, ack, rid):
        ack()
        ent = self._entry(rid)
        if not ent["busy"]:
            return
        pend = ent["pending"]
        # Only the party the window waits on may close it: a grant window
        # its grantee, a forward its reader.  Crash recovery can tear down
        # a window whose grantee survives; that grantee's late ack must not
        # close the window opened since (nor cut into a recall).
        if pend is None:
            waits_on = ent["grantee"]
        else:
            waits_on = pend["src"] if pend["kind"] == "f" else None
        if src != waits_on:
            return
        if pend is not None and pend["kind"] == "f":
            # record_sharer: the forwarded reader installed its supply
            req = pend["src"]
            if req == self.regions.get(rid).home:
                if pend["fut"] in self._remote_self:
                    self._remote_self.discard(pend["fut"])  # re-homed self-read
                    ent["sharers"].add(req)
                else:
                    ent["hr"] += 1  # the home's own forwarded read opened
            else:
                ent["sharers"].add(req)
        ent["pending"] = None
        ent["busy"] = False
        ent["grantee"] = None
        self._drain(rid)

    def _drain(self, rid) -> None:
        ent = self._entry(rid)
        while not ent["busy"] and ent["queue"]:
            kind, src, fut = ent["queue"].popleft()
            if not self._admit(rid, kind, src, fut, queued=True):
                ent["queue"].appendleft((kind, src, fut))
                return

    def _on_flush(self, node, src, fut, rid, data):
        ent = self._entry(rid)
        if ent["owner"] == src:
            ent["owner"] = None
        ent["sharers"].discard(src)
        if data is not None:
            np.copyto(self.regions.get(rid).home_data, np.asarray(data))
        self._reply(fut, None, payload_words=1, category="proto.Owned.flush_ack")

    # -- target side: recalls and forwards (handler context) --------------------
    def _on_invalidate(self, node, src, ack, rid):
        nid = node.nid
        copy = self._copies[nid].get(rid)
        if copy is None or copy.state == "invalid":
            ack()
        elif copy.meta["use"] > 0:
            # Unanswered until the open access releases; on a lossy
            # fabric the home's retries keep the recall alive meanwhile.
            copy.deferred += (("inval", ack),)
        else:
            self._apply_invalidate(nid, copy, ack)

    def _apply_invalidate(self, nid, copy, ack) -> None:
        region = copy.region
        dirty = copy.state in ("excl", "owned")
        data = np.array(copy.data, copy=True) if dirty else None
        copy.state = "invalid"
        if nid == region.home:
            # Post-recovery only: a recall of the re-homed successor's
            # remote-style copy of its own region returns it to the home
            # alias (its writeback rides the ack like any owner's); the
            # hr/hw admission gate governs the home's accesses from here.
            copy.data = region.home_data
            copy.state = "home"
        self._count("invalidated")
        if dirty and self._wb_log is not None:
            self._wb_log[(nid, region.rid)] = data
        ack(data, region.size if dirty else 1)

    def _on_fwd_read(self, node, src, ack, rid, requester, rfut):
        # Delivery-ack immediately: the forward's outcome travels on the
        # requester's own reply future.
        ack()
        nid = node.nid
        copy = self._copies[nid].get(rid)
        if copy is None or copy.state == "invalid":
            # Forward/flush race: the home forwarded to us as owner, but
            # our flush (an Ace_ChangeProtocol in progress) already
            # shipped the data home and dropped the copy.  We cannot
            # supply; bounce the miss so the home re-admits the pending
            # read — by then the flush has (or will have) cleared the
            # owner, and admission grants from home data.
            self._count("fwd_miss")
            self._fan_out(
                nid,
                (self.regions.get(rid).home,),
                self._h_fwd_miss,
                rid,
                requester,
                rfut,
                payload_words=2,
                category="proto.Owned.fwd_miss",
            )
            return
        if copy.meta["use"] > 0:
            copy.deferred += (("fwd", requester, rfut),)
            return
        self._supply(nid, copy, requester, rfut)

    def _on_fwd_miss(self, node, src, ack, rid, requester, rfut):
        """Home side of the forward/flush race: retry admission."""
        ack()
        ent = self._entry(rid)
        pend = ent["pending"]
        if pend is None or pend.get("kind") != "f" or pend.get("fut") is not rfut:
            return  # window already torn down (e.g. crash recovery rebuilt it)
        ent["pending"] = None
        ent["busy"] = False
        self._admit(rid, "r", requester, rfut)
        if not ent["busy"]:
            self._drain(rid)

    def _supply(self, nid, copy, requester, rfut) -> None:
        """Cache-to-cache transfer; excl owners downgrade to owned."""
        region = copy.region
        data = np.array(copy.data, copy=True)
        if copy.state == "excl":
            copy.state = "owned"
        self._count("supply")
        self._reply(
            rfut, ("supply", data), payload_words=region.size, category="proto.Owned.supply"
        )

    # -- crash recovery ---------------------------------------------------
    def _register_recovery(self, manager) -> None:
        super()._register_recovery(manager)
        self._remote_self = set()
        self._wb_log = {}
        manager.register_home_categories(
            ("proto.Owned.read_req", "proto.Owned.write_req", "proto.Owned.flush"),
            self.regions,
        )
        manager.register_push_categories(("proto.Owned.invalidate",))
        manager.register_ack_categories(("proto.Owned.grant_ack",))
        manager.register_pending_handler("proto.Owned.fwd_read", "_recover_fwd_read")

    def _recover_fwd_read(self, manager, pend, dead: int) -> None:
        """Sweep handler for an in-flight forward touching the dead node.

        Home died (``src``): neutralize; the re-homed rebuild re-admits
        the requester at the successor.  Owner died (``dst``): the
        supply will never come — prune the dead owner and re-admit the
        requester, who is granted from home data (the owner's dirty
        copy is lost; fail-stop)."""
        manager.cancel(pend)
        if pend.src == dead:
            manager.count("abandoned")
            return
        rid, requester, rfut = pend.call_args
        ent = self._entry(rid)
        cur = ent["pending"]
        if cur is None or cur["kind"] != "f" or cur["fut"] is not rfut:
            # A stale forward: its supply landed and its window closed,
            # only the delivery ack was outstanding.  The window open now
            # belongs to other work; on_node_dead prunes the dead owner.
            manager.count("abandoned")
            return
        if ent["owner"] == dead:
            ent["owner"] = None
        ent["sharers"].discard(dead)
        ent["pending"] = None
        ent["busy"] = False
        if requester in manager.dead:
            manager.count("abandoned")
            self._drain(rid)
            return
        manager.count("retargeted")
        self._admit(rid, "r", requester, rfut)

    def on_node_dead(self, dead: int, manager, rehomed: dict) -> None:
        """Directory shrink + re-homed entry reconstruction.

        Runs after the manager's pending sweep, so calls from the dead
        node are neutralized, pushes *to* it are fake-acked (their
        ``_collect_ack`` chains already pruned it from fan-outs), and
        requests parked at a dead home have been retargeted — the
        receiver-side dedup table turns those re-deliveries into no-ops
        whenever the original was admitted, in which case the re-homed
        rebuild below re-admits the original continuation instead.
        """
        for copy in self._copies[dead].values():
            if copy.state in ("excl", "owned"):
                manager.count("lost_dirty")
        self._copies[dead].clear()
        for rid, ent in self._dir.items():
            if ent["queue"]:
                ent["queue"] = deque(item for item in ent["queue"] if item[1] != dead)
            pend = ent["pending"]
            if pend is not None and pend["src"] == dead:
                if pend["kind"] == "w":
                    # Live recall for a dead requester: let the surviving
                    # targets' acks finish the fan-out (writebacks still
                    # land), but skip granting to the dead node.
                    pend["orphan"] = True
                else:
                    # Forwarded read for a dead requester: its grant_ack
                    # will never come; any late supply hits a dead future.
                    ent["pending"] = None
                    ent["busy"] = False
            if ent["busy"] and ent["pending"] is None and ent["grantee"] == dead:
                ent["busy"] = False
                ent["grantee"] = None
            if ent["owner"] == dead:
                ent["owner"] = None
            ent["sharers"].discard(dead)
            if rid in rehomed:
                self._rebuild_rehomed_entry(rehomed[rid], ent, dead)
            if not ent["busy"]:
                self._drain(rid)

    def _rebuild_rehomed_entry(self, region, ent, dead: int) -> None:
        """Reconstruct one entry at the successor home (mirrors the
        coherence engine's rebuild; see repro.dsm.recovery)."""
        from repro.sim.future import _UNSET

        succ = region.home
        rid = region.rid
        # Freshest-writer adoption: a surviving owner's dirty copy is
        # the authoritative version of the region.  An owner still
        # listed whose copy is already invalid applied a recall whose
        # writeback ack died with the home — the writeback log still
        # holds that data.
        if ent["owner"] is not None:
            ocopy = self._copies[ent["owner"]].get(rid)
            if ocopy is not None and ocopy.state in ("excl", "owned"):
                np.copyto(region.home_data, ocopy.data)
            else:
                rec = self._wb_log.get((ent["owner"], rid))
                if rec is not None:
                    np.copyto(region.home_data, rec)
        # The successor's own copy becomes the home alias.
        scopy = self._copies[succ].get(rid)
        if scopy is None:
            self._install_home(succ, region)
        else:
            if scopy.state in ("excl", "owned"):
                np.copyto(region.home_data, scopy.data)
                if ent["owner"] == succ:
                    ent["owner"] = None
            scopy.data = region.home_data
            scopy.state = "home"
            ent["sharers"].discard(succ)
        # The dead home's own open accesses died with it.
        ent["hr"] = 0
        ent["hw"] = False
        # Live in-flight work at the old home: re-admit requests whose
        # futures are still waiting.  A forward whose supply already
        # landed (fut resolved, grant_ack lost with the old home) only
        # needs its sharer recorded; recall fan-outs from the dead home
        # were fully neutralized by the sweep, so cancel + re-admit is
        # safe.  Grant windows need nothing — owner/sharer state was
        # recorded at grant time.
        reqs = []
        pend = ent["pending"]
        if pend is not None and pend["src"] != dead and not pend.get("orphan"):
            fut = pend.get("fut")
            if fut is not None and fut._value is _UNSET and fut._exc is None:
                reqs.append(("r" if pend["kind"] == "f" else pend["kind"], pend["src"], fut))
            elif pend["kind"] == "f":
                ent["sharers"].add(pend["src"])
        ent["pending"] = None
        ent["busy"] = False
        ent["grantee"] = None
        # Work from the successor itself — re-admitted here or parked on
        # the queue at the old home — must now be granted remote-style:
        # the requester is suspended in the remote fetch epilogue.
        for kind, src, fut in reqs:
            if src == succ:
                self._remote_self.add(fut)
        for item in ent["queue"]:
            if item[1] == succ:
                self._remote_self.add(item[2])
        for kind, src, fut in reqs:
            self._admit(rid, kind, src, fut)

    # -- introspection (tests) ---------------------------------------------
    def cached_copy(self, nid: int, rid: int) -> RegionCopy | None:
        return self._copies[nid].get(rid)

    def directory_entry(self, rid: int) -> dict:
        return self._entry(rid)
