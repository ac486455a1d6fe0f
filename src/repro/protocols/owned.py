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

The home and recall sides are the shared invalidation machines
(:class:`~repro.dsm.directory.HomeMachine`,
:class:`~repro.dsm.regioncache.RecallReceiver`) that the SC engine and
the model checker run too, built from :data:`OWNED_TABLE`; this module
is their *wire* (the ``proto.Owned.*`` handlers and sends) plus the
table's node-hook actions.  Requests are port *calls*, so on a lossy
fabric a retried ``read_req`` whose supply was dropped replays the
recorded grant; invalidations, forwards and grant acks go out through
the port's *fan-out*, and an invalidation's answer *is* the (possibly
dirty) writeback (DESIGN.md §9).
"""

from __future__ import annotations

from functools import partialmethod

import numpy as np

from repro.dsm.directory import DirectoryService, HomeMachine
from repro.dsm.regioncache import RecallReceiver
from repro.machine.stats import intern_key
from repro.memory import RegionCopy
from repro.protocols.base import _POOL, _POOL_SIZE, TableProtocol
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
            "node", "home", "start_write", cost=25, actions=("fetch_write_home",), msg="write_req"
        ),
        Transition(
            "node",
            "*",
            "start_write",
            next="excl",
            cost=25,
            actions=("fetch_write",),
            msg="write_req",
            note="an owned-state upgrade also lands here; the home sends upgrade_ack",
        ),
        Transition("node", "home", "end_read", cost=4, actions=("release", "close_home_read")),
        Transition("node", "*", "end_read", cost=4, actions=("release",)),
        Transition("node", "home", "end_write", cost=4, actions=("release", "close_home_write")),
        Transition("node", "*", "end_write", cost=4, actions=("release",)),
        # -- node: recall receive side ------------------------------------
        Transition(
            "node",
            "excl",
            "invalidate",
            next="invalid",
            actions=("writeback", "ack"),
            msg="inval_ack",
        ),
        Transition(
            "node",
            "owned",
            "invalidate",
            next="invalid",
            actions=("writeback", "ack"),
            msg="inval_ack",
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
            note="first forwarded reader downgrades the owner excl -> owned",
        ),
        Transition("node", "owned", "fwd_read", actions=("supply",), msg="supply"),
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
            "home", "idle", "read_req", next="busy", actions=("grant_shared",), msg="read_data"
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
            "home", "idle", "write_req", next="busy", actions=("grant_excl",), msg="write_data"
        ),
        Transition("home", "busy", "read_req", actions=("enqueue",), note="FIFO; no starvation"),
        Transition("home", "busy", "write_req", actions=("enqueue",), note="FIFO; no starvation"),
        Transition("home", "busy", "inval_ack", guard="acks_remaining", actions=("collect_ack",)),
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
        Transition("home", "idle", "flush", actions=("accept_flush",), msg="flush_ack"),
    ),
    costs={"create": 90, "map": 12, "miss": 25, "end_op": 4, "unmap": 6},
    entry_costs={"start_read": 10, "start_write": 10},
    optimizable=False,
    null_hooks=frozenset(),
    sync_model="access",
    writer_model="copy",
)


#: reply categories by grant style (and request kind, for data grants)
_GRANT_CATEGORY = {
    "grant": "proto.Owned.home_grant",
    "upgrade": "proto.Owned.upgrade_ack",
    "read": "proto.Owned.read_data",
    "write": "proto.Owned.write_data",
}
#: the fan-out messages' shapes
_INVALIDATE = {"payload_words": 2, "category": "proto.Owned.invalidate"}
_FORWARD = {"payload_words": 2, "category": "proto.Owned.fwd_read"}
_FWD_MISS = {"payload_words": 2, "category": "proto.Owned.fwd_miss"}
_GRANT_ACK = {"payload_words": 1, "category": "proto.Owned.grant_ack"}


@default_registry.register
class OwnedProtocol(TableProtocol):
    """MOESI-style owned-state invalidation with forwarding directory.

    An open access of either kind is counted in the copy's ``reads``:
    that is what defers a recall or a forward at the receiver.
    """

    table = OWNED_TABLE

    CREATE_COST = OWNED_TABLE.cost("create")
    MAP_COST = OWNED_TABLE.cost("map")
    UNMAP_COST = OWNED_TABLE.cost("unmap")

    #: A flushing node drops its copy before the flush leaves, so a recall
    #: crossing the flush is answered without data and the flush payload
    #: is the only writeback: the home always adopts it.
    flush_keeps_copy = False

    def __init__(self, runtime, space):
        self.home = HomeMachine(self.table, self, runtime.regions, prefix="proto.Owned")
        self.effects = self.home.bind_alias(self)  # before the table's hooks are compiled
        super().__init__(runtime, space)
        self.cache = RecallReceiver(self.table, self, self.transport.n_procs)
        port = self.port = self.transport.port("proto.Owned")
        self._rpc = port.call
        self._reply = port.reply
        self._fan_out = port.fan_out
        self._cat_req = {"r": intern_key("proto.Owned", "read_req"), "w": intern_key("proto.Owned", "write_req")}
        # Requests and flushes run once (a re-run one is admitted twice, or
        # clobbers a newer owner) and follow a dead home to the new one.
        self._h_read_req = port.serves(self.home._on_read_req, on_dead="retarget")
        self._h_write_req = port.serves(self.home._on_write_req, on_dead="retarget")
        self._h_flush = port.serves(self._on_flush, on_dead="retarget")
        # A re-run grant ack could close a newer window; to a dead home it
        # is abandoned (the rebuild resets the window it would have closed).
        self._h_grant_ack = port.answers(self._on_grant_ack, "proto.Owned.grant_ack_ok")
        # An invalidation's answer is the writeback (a re-run one would
        # answer without it); a dead target is answered on its behalf.
        self._h_invalidate = port.answers(self._on_invalidate, "proto.Owned.inval_ack", on_dead="answer")
        # A re-run forward would supply twice, a re-run bounce re-admit the
        # read twice.  A forward touching a dead node: _recover_fwd_read.
        self._h_fwd_read = port.answers(
            self._on_fwd_read, "proto.Owned.fwd_ack", on_dead=self._recover_fwd_read
        )
        self._h_fwd_miss = port.answers(self._on_fwd_miss, "proto.Owned.fwd_miss_ack")
        port.watch(self.home)
        # A home's own fetch is a call in place where no reply can be lost
        # (and under recovery).  On a plain lossy fabric it rides the wire
        # to itself: its grant may be a remote owner's supply, which must
        # be retransmitted and replayed — a bare local future would hang.
        self._home_in_place = not port.lossy or self._recovery is not None
        self._d_create = Delay(self.CREATE_COST)
        if self._recovery is not None:
            self.home.join_recovery(self._recovery, port)
            self.cache._wb_log = {}

    # -- lifecycle ---------------------------------------------------------
    def init_space(self, nid: int):
        """Adopt pre-existing regions: base state means current home data
        and no cached copies, so the home seeds only its own alias."""
        for rid in self.space.regions:
            region = self.regions.get(rid)
            if region.home == nid and rid not in self.cache.tables[nid]:
                self._install_home(nid, region)
        return
        yield  # pragma: no cover - makes this a generator

    def flush_node(self, nid: int):
        """Ship dirty copies home and drop everything non-home."""
        copies = self.cache.tables[nid]
        for rid in list(copies):
            region = self.regions.get(rid)
            if nid == region.home:
                continue
            copy = copies.pop(rid)
            dirty = copy.state in ("excl", "owned")
            if dirty or copy.state == "shared":
                data = copy.data.copy() if dirty else None
                copy.state = "invalid"
                yield from self._rpc(
                    nid,
                    region.home,
                    self._h_flush,
                    rid,
                    data,
                    payload_words=region.size if dirty else 2,
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
        copy = self.cache.tables[nid].get(rid)
        if copy is None:
            copy = self.cache.tables[nid][rid] = RegionCopy(self.regions.get(rid), nid)
        copy.mapped = True
        copy.space, copy.gen = self.space, self.space.generation
        return copy

    def unmap(self, nid: int, handle, lead: int = 0):
        yield _POOL[c] if (c := lead + self.UNMAP_COST) < _POOL_SIZE else Delay(c)
        handle.mapped = False

    def _install_home(self, nid: int, region) -> RegionCopy:
        self.home.entry(region.rid)
        return self.cache.install(nid, region)  # the alias IS canonical storage

    # -- actions (table-referenced; the home alias's guards and open/close
    # actions are the home machine's effects) -----------------------------
    def act_hit(self, nid: int, handle):
        handle.reads += 1
        self._count("hit")

    def _fetch(self, nid: int, handle, kind: str, event: str):
        """Request access from the home; install whatever grant arrives."""
        self._count(event)
        region = handle.region
        if nid == region.home and self._home_in_place:
            fut = Future(name=f"owned:{kind}req@{nid}")
            if handle.state != "home" and self._recovery is not None:
                # Post-recovery only: a re-homed node's remote-state copy
                # of its own region takes a remote-style grant.
                self.home.remote_self.add(fut)
            handler = self.home._on_read_req if kind == "r" else self.home._on_write_req
            handler(self.transport.nodes[nid], nid, fut, region.rid)
            val = yield fut
        else:
            val = yield from self._rpc(
                nid,
                region.home,
                self._h_read_req if kind == "r" else self._h_write_req,
                region.rid,
                payload_words=2,
                category=self._cat_req[kind],
            )
        tag, data = val
        if data is not None:
            # read_data / write_data / supply; "upgrade" and "grant"
            # carry no data (the requester's copy is already current)
            handle.data[...] = data
        if tag != "grant":
            # Close the home's busy window; for forwarded reads this is
            # also what records us as a sharer (record_sharer row).
            self._fan_out(nid, (region.home,), self._h_grant_ack, region.rid, **_GRANT_ACK)
        handle.reads += 1

    act_fetch_read = partialmethod(_fetch, kind="r", event="read_miss")
    act_fetch_write = partialmethod(_fetch, kind="w", event="write_miss")
    act_fetch_read_home = partialmethod(_fetch, kind="r", event="home_read_wait")
    act_fetch_write_home = partialmethod(_fetch, kind="w", event="home_write_wait")

    def act_release(self, nid: int, handle):
        handle.reads -= 1
        if not handle.reads and handle.deferred:
            self.cache.fire_deferred(handle)

    # -- the wire: handlers (handler context) -----------------------------------
    def _on_grant_ack(self, node, src, ack, rid):
        ack()
        self.home.on_grant_ack(self.home.entry(rid), src)

    def _on_flush(self, node, src, fut, rid, data):
        self.home.on_flush(self.home.entry(rid), src, data)
        self._reply(fut, None, payload_words=1, category="proto.Owned.flush_ack")

    def _on_invalidate(self, node, src, ack, rid):
        self.cache.receive(node.nid, rid, "invalidate", ack)

    def _on_fwd_read(self, node, src, ack, rid, requester, rfut):
        # Delivery-ack at once: the outcome rides the requester's future.
        ack()
        self.cache.receive(node.nid, rid, "fwd_read", None, (requester, rfut))

    def _on_fwd_miss(self, node, src, ack, rid, requester, rfut):
        ack()
        self.home.on_fwd_miss(self.home.entry(rid), requester, rfut)

    # -- the wire: sends ------------------------------------------------------
    def grant(self, region, src: int, fut, kind: str, how: str) -> None:
        data = region.home_data.copy() if how == "data" else None
        size = 1 if data is None else region.size
        category = _GRANT_CATEGORY[how if data is None else kind]
        self._reply(fut, (how, data), payload_words=size, category=category)

    def recall(self, region, targets, mode: str, acks) -> None:
        home, rid = region.home, region.rid
        self._fan_out(home, targets, self._h_invalidate, rid, acks=acks, **_INVALIDATE)

    def forward(self, region, owner: int, src: int, fut) -> None:
        self._count("forward")
        self._fan_out(region.home, (owner,), self._h_fwd_read, region.rid, src, fut, **_FORWARD)

    adopt = staticmethod(DirectoryService.adopt)
    snapshot = staticmethod(np.ndarray.copy)

    def acked(self, copy, event: str, ack, data) -> None:
        region = copy.region
        if copy.node == region.home:
            # Post-recovery only: the re-homed successor's remote-style
            # copy of its own region returns to the home alias.
            copy.data = region.home_data
            copy.state = "home"
        self._count("invalidated")
        ack(data, region.size if data is not None else 1)

    def supplied(self, copy, aux, data) -> None:
        """Cache-to-cache transfer to the forwarded reader."""
        self._count("supply")
        size = copy.region.size
        self._reply(aux[1], ("supply", data), payload_words=size, category="proto.Owned.supply")

    def unheld(self, nid: int, rid: int, copy, event: str, answer, aux) -> None:
        if event == "fwd_read":
            # Forward/flush race: our flush already shipped the data home
            # and dropped the copy; bounce, and the home re-admits the read.
            self._count("fwd_miss")
            home = self.regions.get(rid).home
            self._fan_out(nid, (home,), self._h_fwd_miss, rid, *aux, **_FWD_MISS)
            return
        if copy is not None and copy.state != "invalid":
            self._count("invalidated")  # the re-homed successor's alias
        answer()

    # -- crash recovery ---------------------------------------------------
    def _recover_fwd_read(self, manager, pend, dead: int) -> None:
        """Sweep handler for an in-flight forward touching the dead node."""
        manager.recover_forward(self.home, pend, dead)

    def on_node_dead(self, dead: int, manager, rehomed: dict) -> None:
        """Prune and re-home: :meth:`~repro.dsm.recovery.RecoveryManager.rebuild`."""
        manager.rebuild(self.home, self.cache, dead, rehomed)
