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
* :class:`~repro.dsm.hooks.ProtocolHooks` takes the hit states, the
  fill states a miss installs, and the home-alias state through
  :func:`engine_view`, which validates them — a table without a fill
  state fails at construction, not mid-run.

The per-access fast paths read the derived attributes exactly as they
read string literals, so the table-driven engine costs zero simulated
cycles (cycle costs come from :class:`~repro.dsm.costs.DSMCosts`, named
in each row's ``note``).

``MSI_TABLE`` doubles as the registration artifact for the two
engine-bound protocols: ``SC`` is the table verbatim and ``HwSC`` is
:meth:`~repro.spec.table.ProtocolTable.with_` overriding the name and
the hardware flag — same machine, different access-check costs.
"""
from __future__ import annotations

from dataclasses import dataclass
from repro.spec.table import ProtocolTable, TableError, Transition

#: recall modes the engine's invalidation handshake understands; the
#: table's home rows name them as ``recall_<mode>`` actions and its
#: node rows handle each as a message event.
RECALL_MODES = ("invalidate", "downgrade")

MSI_TABLE = ProtocolTable(
    name="SC",
    description="home-based MSI invalidation; sequentially consistent",
    node_states=("invalid", "shared", "excl", "home"),
    home_states=("idle", "busy"),
    base_state="invalid",
    transitions=(
        # -- node: access hooks -----------------------------------------
        Transition("node", "shared", "start_read", actions=("hit",), note="costs.start_hit"),
        Transition("node", "excl", "start_read", actions=("hit",), note="costs.start_hit"),
        Transition(
            "node",
            "home",
            "start_read",
            guard="home_idle",
            actions=("hit",),
            note="home alias reads locally unless a remote owner exists",
        ),
        Transition(
            "node",
            "*",
            "start_read",
            next="shared",
            actions=("fetch",),
            msg="read_req",
            note="costs.start_miss",
        ),
        Transition("node", "excl", "start_write", actions=("hit",), note="costs.start_hit"),
        Transition(
            "node",
            "home",
            "start_write",
            guard="home_sole",
            actions=("hit",),
            note="home alias writes locally unless remote copies exist",
        ),
        Transition(
            "node",
            "*",
            "start_write",
            next="excl",
            actions=("fetch",),
            msg="write_req",
            note="costs.start_miss",
        ),
        Transition(
            "node",
            "*",
            "end_read",
            actions=("release",),
            note="costs.end_op",
        ),
        Transition(
            "node",
            "*",
            "end_write",
            actions=("release",),
            note="costs.end_op; copy stays dirty-exclusive (lazy write-back)",
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
        if "hit" in t.actions and t.guard is not None
    }
    if len(homes) != 1:
        got = sorted(homes)
        raise TableError(f"{table.name}: expected one guarded home-alias state, got {got}")
    return homes.pop()


@dataclass(frozen=True)
class EngineView:
    """The constants the requester-side hooks derive from one table."""

    #: node states where ``start_read`` is a local hit (no guard)
    read_hit: tuple[str, ...]
    #: node states where ``start_write`` is a local hit (no guard)
    write_hit: tuple[str, ...]
    #: the home node's alias of canonical storage
    home_state: str
    #: state a read miss installs its filled copy in
    fill_read: str
    #: state a write miss installs its filled copy in
    fill_write: str
    #: state flushes and failed copies return to
    base_state: str
    #: states whose copies are dirty (write back on recall/flush)
    dirty_states: frozenset


def engine_view(table: ProtocolTable) -> EngineView:
    """Derive (and validate) the hooks layer's constants from ``table``.

    Raises :class:`~repro.spec.table.TableError` when the table does
    not cover the machine the hooks run — no fill state for a miss, an
    ambiguous home alias, a recall mode without node rows — so a bad
    table fails at engine construction rather than mid-simulation.
    """
    # Hit states: unguarded rows whose action is the local fast path.
    read_hit = tuple(
        t.state for t in table.rows("node", "start_read") if "hit" in t.actions and t.guard is None
    )
    write_hit = tuple(
        t.state for t in table.rows("node", "start_write") if "hit" in t.actions and t.guard is None
    )
    if not read_hit or not write_hit:
        raise TableError(f"{table.name}: engine table has no unguarded hit states")
    home_state = home_alias(table)

    # Fill states: the destination of the wildcard fetch rows.
    fills = {}
    for kind, event in (("read", "start_read"), ("write", "start_write")):
        rows = [t for t in table.rows("node", event) if "fetch" in t.actions]
        if len(rows) != 1 or rows[0].next in ("=",):
            raise TableError(f"{table.name}: expected one fetch row with a fill state for {event}")
        fills[kind] = rows[0].next

    dirty: set[str] = set()
    for mode in RECALL_MODES:
        rows = table.rows("node", mode)
        if not rows:
            raise TableError(f"{table.name}: no node rows for recall mode {mode!r}")
        dirty.update(t.state for t in rows if "writeback" in t.actions)
    if home_state in dirty:
        raise TableError(f"{table.name}: the home alias cannot be a writeback state")

    return EngineView(
        read_hit=read_hit,
        write_hit=write_hit,
        home_state=home_state,
        fill_read=fills["read"],
        fill_write=fills["write"],
        base_state=table.base_state,
        dirty_states=frozenset(dirty),
    )
