"""The MSI engine table: one artifact for directory, cache, and hooks.

The coherence engine's state machine — node-side copy states, home-side
admission, the recall/invalidation handshake — is stated once, as a
:class:`~repro.spec.table.ProtocolTable`, and every layer is built from
it at construction:

* the shared invalidation machines interpret its message rows —
  :class:`~repro.dsm.directory.HomeMachine` the home rows (admission,
  recall completion, grant acks) and
  :class:`~repro.dsm.regioncache.RecallReceiver` the node rows for each
  recall mode (next state, writeback, ack);
* its access-hook rows *are* the engine's four access hooks:
  :class:`~repro.dsm.hooks.ProtocolHooks` compiles them with the one
  emitter (:func:`~repro.spec.emit.table_hooks`) over its requester
  actions and the home alias's guards and open/close actions, which
  :class:`~repro.dsm.directory.HomeMachine` defines for Owned too.

Where SC counts by event (``read_hit``/``write_hit``, ``reads``/``writes``)
a row names an event-specific action — ``hit_read``, ``release_write``;
:mod:`repro.verify.modelcheck` and the home side read it as its family
(:meth:`~repro.spec.table.Transition.runs`).  The rows carry no cycle
costs: each engine charges its own :class:`~repro.dsm.costs.DSMCosts`
(``start_hit``/``end_op`` on entry, ``start_miss`` in the fetch actions).

``MSI_TABLE`` doubles as the registration artifact for the two
engine-bound protocols: ``SC`` is the table verbatim and ``HwSC`` is
:meth:`~repro.spec.table.ProtocolTable.with_` overriding the name and
the hardware flag — same machine, different access-check costs.
"""
from __future__ import annotations

from repro.spec.table import ProtocolTable, TableError, Transition

MSI_TABLE = ProtocolTable(
    name="SC",
    description="home-based MSI invalidation; sequentially consistent",
    node_states=("invalid", "shared", "excl", "home"),
    home_states=("idle", "busy"),
    base_state="invalid",
    transitions=(
        # -- node: access hooks (each engine charges its own DSMCosts on
        # entry: start_hit before a start row, end_op before an end row) --
        Transition("node", "shared", "start_read", actions=("hit_read",)),
        Transition("node", "excl", "start_read", actions=("hit_read",)),
        Transition(
            "node",
            "home",
            "start_read",
            guard="home_idle",
            actions=("hit_read", "open_home_read"),
            note="home alias reads locally unless a remote owner exists",
        ),
        Transition(
            "node",
            "home",
            "start_read",
            actions=("fetch_read_home",),
            msg="read_req",
            note="costs.start_miss; the home queues like any reader; its copy stays 'home'",
        ),
        Transition(
            "node",
            "*",
            "start_read",
            next="shared",
            actions=("fetch_read",),
            msg="read_req",
            note="costs.start_miss rides the request",
        ),
        Transition("node", "excl", "start_write", actions=("hit_write",)),
        Transition(
            "node",
            "home",
            "start_write",
            guard="home_sole",
            actions=("hit_write", "open_home_write"),
            note="home alias writes locally unless remote copies exist",
        ),
        Transition("node", "home", "start_write", actions=("fetch_write_home",), msg="write_req"),
        Transition("node", "*", "start_write", next="excl", actions=("fetch_write",), msg="write_req"),
        Transition("node", "home", "end_read", actions=("release_read", "close_home_read")),
        Transition("node", "*", "end_read", actions=("release_read",)),
        Transition("node", "home", "end_write", actions=("release_write", "close_home_write")),
        Transition(
            "node",
            "*",
            "end_write",
            actions=("release_write",),
            note="copy stays dirty-exclusive (lazy write-back)",
        ),
        # -- node: recall receive side (message events) ------------------
        Transition(
            "node",
            "excl",
            "invalidate",
            next="invalid",
            actions=("writeback", "ack"),
            msg="inval_ack",
            note="costs.inval_handler; dirty data rides the ack",
        ),
        Transition(
            "node",
            "shared",
            "invalidate",
            next="invalid",
            actions=("ack",),
            msg="inval_ack",
            note="costs.inval_handler",
        ),
        Transition(
            "node",
            "excl",
            "downgrade",
            next="shared",
            actions=("writeback", "ack"),
            msg="inval_ack",
            note="costs.inval_handler; dirty data rides the ack",
        ),
        Transition(
            "node",
            "shared",
            "downgrade",
            actions=("ack",),
            msg="inval_ack",
            note="costs.inval_handler",
        ),
        # -- home: admission (atomic handler context) --------------------
        Transition(
            "home",
            "idle",
            "read_req",
            guard="home_writing",
            actions=("enqueue",),
            note="home task holds an open write; remote reads queue FIFO",
        ),
        Transition(
            "home",
            "idle",
            "read_req",
            guard="owned_elsewhere",
            next="busy",
            actions=("recall_downgrade",),
            msg="downgrade",
            note="no handler charge; owner's dirty data must come home first",
        ),
        Transition(
            "home",
            "idle",
            "read_req",
            next="busy",
            actions=("grant_shared",),
            msg="read_data",
            note="no handler charge; busy until grant_ack closes the race window",
        ),
        Transition(
            "home",
            "idle",
            "write_req",
            guard="home_open",
            actions=("enqueue",),
            note="home task has open accesses; remote writes queue FIFO",
        ),
        Transition(
            "home",
            "idle",
            "write_req",
            guard="copies_elsewhere",
            next="busy",
            actions=("recall_invalidate",),
            msg="invalidate",
            note="no handler charge; every remote copy is invalidated",
        ),
        Transition(
            "home",
            "idle",
            "write_req",
            next="busy",
            actions=("grant_excl",),
            msg="write_data",
            note="no handler charge; upgrade ack when the writer already shares",
        ),
        Transition("home", "busy", "read_req", actions=("enqueue",), note="FIFO; no starvation"),
        Transition("home", "busy", "write_req", actions=("enqueue",), note="FIFO; no starvation"),
        Transition(
            "home",
            "busy",
            "inval_ack",
            guard="acks_remaining",
            actions=("collect_ack",),
            note="fan-out not yet fully acknowledged",
        ),
        Transition(
            "home",
            "busy",
            "inval_ack",
            next="idle",
            actions=("collect_ack", "serve_pending", "drain_queue"),
            note="last ack serves the stalled request and drains the queue",
        ),
        Transition(
            "home",
            "busy",
            "grant_ack",
            next="idle",
            actions=("drain_queue",),
            note="grantee installed its copy; entry reopens",
        ),
        Transition(
            "home",
            "idle",
            "flush",
            actions=("accept_flush",),
            msg="flush_ack",
            note="costs.flush; change-protocol path",
        ),
    ),
    optimizable=False,
    null_hooks=frozenset(),
    sync_model="access",
    writer_model="copy",
)

#: HwSC is the same machine with hardware access checks; only the
#: registration metadata differs (costs live in HW_SC_COSTS).
HW_SC_TABLE = MSI_TABLE.with_(
    name="HwSC",
    hardware=True,
    description="SC invalidation; hit-path checks done by hardware access control",
)


def home_alias(table: ProtocolTable) -> str:
    """The home node's alias of canonical storage: the unique state
    whose hit rows are directory-guarded."""
    homes = {
        t.state
        for ev in ("start_read", "start_write")
        for t in table.rows("node", ev)
        if t.runs("hit") and t.guard is not None
    }
    if len(homes) != 1:
        got = sorted(homes)
        raise TableError(f"{table.name}: expected one guarded home-alias state, got {got}")
    return homes.pop()
