"""Small-scope model checker for protocol tables.

Exhaustively enumerates every interleaving of application events and
message deliveries that a :class:`~repro.spec.table.ProtocolTable`
admits on a small scope (2–3 nodes, 1–2 regions, a couple of
operations per node), and checks the coherence invariants the paper's
protocol families promise:

``single_writer``
    No region ever has two concurrently open writes, or a reader
    concurrent with a foreign writer (SWMR, invalidation family).
``no_stale_read``
    Every open read observes the freshest value its family's
    visibility contract requires: the latest committed version for
    ``sync_model="access"``, everything acknowledged for
    ``"immediate"``, and everything from before the last barrier for
    ``"barrier"``.
``dir_cache_agreement``
    Whenever a region is quiescent (no messages in flight, no busy
    directory window), the home's owner/sharer records agree with the
    node-side copy states.
``quiescence``
    Every terminal state is clean: no undelivered messages, no stuck
    queues, no node blocked forever (deadlock freedom within scope).

The checker is an *abstract* interpreter: it executes table rows — the
same artifact the runtime interprets and the DSM layers derive their
constants from — against a small vocabulary of abstract actions and
guards (``hit``, ``fetch``, ``recall_*``, ``writeback``, ``ack``, …).
The rows decide everything the table can decide (which states hit,
what a recall does to each state, whether an ack carries data, what
the next state is), so a *semantic* mutation of the table — flip the
invalidate row to keep the copy readable, drop the writeback from the
ack — changes the explored state graph and surfaces as an invariant
violation with a minimal counterexample trace (BFS order guarantees
minimality in steps).

Data is abstracted to monotonically increasing version numbers: each
committed write mints a fresh version, and staleness is a comparison.
State spaces at the scopes used here are a few thousand states; the
hard cap exists only to fail loudly on runaway tables.

Three family models share the search core, selected by the table's
``sync_model``/``writer_model`` metadata:

* :class:`InvalidationModel` — MSI / MOESI-style ownership protocols
  (``writer_model="copy"``), including home-side admission, recall
  fan-out, grant-in-flight busy windows, deferred invalidations, and
  cache-to-cache forwarding for owned-state tables;
* :class:`BarrierModel` — self-invalidation protocols
  (``sync_model="barrier"``): synchronous write-back self-downgrade,
  barrier-triggered self-invalidation, epoch visibility;
* :class:`UpdateModel` — immediate-propagation update protocols
  (``sync_model="immediate"``): write fan-out with acks, visibility
  once acknowledged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.spec.table import KEEP, ProtocolTable, TableError, WILDCARD


class ModelCheckError(Exception):
    """The checker cannot interpret this table (unknown vocabulary)."""


#: message tuples are (type, src, dst, rid, payload, tag) — fixed arity
#: and primitive fields so the network multiset sorts canonically.
_NO_PAYLOAD = -1


@dataclass(frozen=True)
class Scope:
    """How big a world to enumerate."""

    nodes: int = 2
    regions: int = 1
    ops: int = 2      # operations per node (per epoch, for barrier models)
    epochs: int = 2   # barrier rounds (barrier models only)

    def home(self, rid: int) -> int:
        return rid % self.nodes


@dataclass(frozen=True)
class Violation:
    """One invariant failure with its minimal reproducing interleaving."""

    invariant: str
    detail: str
    trace: tuple[str, ...]

    def render(self) -> str:
        lines = [f"invariant {self.invariant!r} violated: {self.detail}", "counterexample:"]
        lines += [f"  {i + 1}. {step}" for i, step in enumerate(self.trace)]
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of one exhaustive run (the certificate payload)."""

    protocol: str
    family: str
    scope: Scope
    invariants: tuple[str, ...]
    states: int = 0
    transitions: int = 0
    violations: list[Violation] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def certificate(self) -> dict:
        """JSON-friendly record for ``repro/verify/certs/``."""
        return {
            "protocol": self.protocol,
            "family": self.family,
            "table_fingerprint": self.fingerprint,
            "scope": {
                "nodes": self.scope.nodes,
                "regions": self.scope.regions,
                "ops": self.scope.ops,
                "epochs": self.scope.epochs,
            },
            "invariants": list(self.invariants),
            "states": self.states,
            "transitions": self.transitions,
            "violations": [
                {"invariant": v.invariant, "detail": v.detail, "trace": list(v.trace)}
                for v in self.violations
            ],
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# search core
# ----------------------------------------------------------------------
def _bfs(model, result: CheckResult, max_states: int, stop_at_first: bool) -> CheckResult:
    init = model.initial()
    parent: dict = {init: (None, None)}
    frontier = deque([init])
    seen = 1
    edges = 0
    while frontier:
        state = frontier.popleft()
        bad = model.invariant_violation(state)
        if bad is not None:
            result.violations.append(Violation(bad[0], bad[1], _trace(parent, state)))
            if stop_at_first:
                break
            continue  # don't explore past a broken state
        moves = model.moves(state)
        if not moves:
            bad = model.terminal_violation(state)
            if bad is not None:
                result.violations.append(Violation(bad[0], bad[1], _trace(parent, state)))
                if stop_at_first:
                    break
            continue
        for label, nxt in moves:
            edges += 1
            if nxt not in parent:
                parent[nxt] = (state, label)
                frontier.append(nxt)
                seen += 1
                if seen > max_states:
                    raise ModelCheckError(
                        f"{result.protocol}: state space exceeded {max_states} states "
                        f"at scope {result.scope}"
                    )
    result.states = seen
    result.transitions = edges
    return result


def _trace(parent: dict, state) -> tuple[str, ...]:
    steps: list[str] = []
    while True:
        prev, label = parent[state]
        if prev is None:
            break
        steps.append(label)
        state = prev
    return tuple(reversed(steps))


# ----------------------------------------------------------------------
# shared table derivations
# ----------------------------------------------------------------------
def _hit_states(table: ProtocolTable, event: str) -> frozenset:
    return frozenset(
        t.state for t in table.rows("node", event) if "hit" in t.actions and t.guard is None
    )


def _guarded_hit_states(table: ProtocolTable) -> frozenset:
    return frozenset(
        t.state
        for ev in ("start_read", "start_write")
        for t in table.rows("node", ev)
        if "hit" in t.actions and t.guard is not None
    )


def _is_fetch(row) -> bool:
    """Tables may specialize the fetch action per hook (``fetch_read``)
    or per requester (``fetch_read_home``); any of them is a miss."""
    return any(a == "fetch" or a.startswith("fetch_") for a in row.actions)


def _fetch_row(table: ProtocolTable, event: str):
    rows = [t for t in table.rows("node", event) if _is_fetch(t)]
    for t in rows:
        if t.state == WILDCARD:
            return t  # the wildcard row names the fill state remote misses use
    return rows[0] if rows else None


def _resolve_next(state: str, nxt: str) -> str:
    return state if nxt == KEEP else nxt


# ----------------------------------------------------------------------
# invalidation family (MSI / MOESI ownership)
# ----------------------------------------------------------------------
class InvalidationModel:
    """Abstract machine for ``writer_model="copy"`` tables.

    State layout (all tuples, fully hashable)::

        (copies, open_, ops, dirs, homever, latest, net, nextver)

        copies[n][r] = (state, version, deferred)   deferred: ((event, aux), ...)
        open_[n]     = None | (kind, rid)           kind: r w wr ww  (w*=waiting)
        ops[n]       = operations remaining
        dirs[r]      = (owner, sharers, busy, pending, queue, home_readers, home_writing)
                       pending: None | (kind, src, need)
        latest[r]    = newest committed version, wherever it lives —
                       the freshness oracle a lost writeback cannot fool
        net          = sorted tuple of (type, src, dst, rid, payload, tag)
    """

    family = "invalidation"
    invariants = ("single_writer", "no_stale_read", "dir_cache_agreement", "quiescence")

    #: vocabulary this model interprets; anything else in a table is an error
    NODE_ACTIONS = {
        "hit",
        "fetch",
        "fetch_read",
        "fetch_write",
        "fetch_read_home",
        "fetch_write_home",
        "open_home_read",
        "open_home_write",
        "release",
        "writeback",
        "ack",
        "supply",
    }
    HOME_ACTIONS = {
        "enqueue",
        "recall_invalidate",
        "recall_downgrade",
        "forward_read",
        "grant_shared",
        "grant_excl",
        "collect_ack",
        "serve_pending",
        "drain_queue",
        "record_sharer",
        "accept_flush",
        "send_meta",
    }

    def __init__(self, table: ProtocolTable, scope: Scope):
        self.table = table
        self.scope = scope
        self.read_hit = _hit_states(table, "start_read")
        self.write_hit = _hit_states(table, "start_write")
        homes = _guarded_hit_states(table)
        self.home_state = next(iter(homes)) if len(homes) == 1 else None
        fr = _fetch_row(table, "start_read")
        fw = _fetch_row(table, "start_write")
        if fr is None or fw is None:
            raise ModelCheckError(f"{table.name}: no fetch row for a start hook")
        self.base = table.base_state
        # recall modes: node-side message events whose rows may write back
        self.modes = tuple(
            ev
            for ev in table.events("node")
            if ev not in ("start_read", "end_read", "start_write", "end_write", "barrier")
            and ev not in ("fwd_read",)
        )
        self.dirty = frozenset(
            t.state for ev in self.modes for t in table.rows("node", ev) if "writeback" in t.actions
        )
        # modes whose application leaves the target with a readable copy
        self.sharer_modes = frozenset(
            mode
            for mode in self.modes
            if any(s in self.read_hit for s in self.table.next_map("node", mode).values())
        )
        self._check_vocabulary()

    def _check_vocabulary(self) -> None:
        for t in self.table.rows("node"):
            if t.event in ("end_read", "end_write", "barrier"):
                continue
            for a in t.actions:
                if a not in self.NODE_ACTIONS:
                    raise ModelCheckError(
                        f"{self.table.name}: unknown node action {a!r} for the "
                        f"invalidation model (row {t.state!r}/{t.event!r})"
                    )
        for t in self.table.rows("home"):
            for a in t.actions:
                if a not in self.HOME_ACTIONS:
                    raise ModelCheckError(
                        f"{self.table.name}: unknown home action {a!r} for the "
                        f"invalidation model (row {t.state!r}/{t.event!r})"
                    )

    # -- state construction ---------------------------------------------
    def initial(self):
        sc = self.scope
        copies = tuple(
            tuple(
                (self.home_state, 0, ()) if n == sc.home(r) and self.home_state else (self.base, 0, ())
                for r in range(sc.regions)
            )
            for n in range(sc.nodes)
        )
        open_ = (None,) * sc.nodes
        ops = (sc.ops,) * sc.nodes
        dirs = ((None, (), False, None, (), 0, False),) * sc.regions
        homever = (0,) * sc.regions
        return (copies, open_, ops, dirs, homever, (0,) * sc.regions, (), 1)

    # -- move generation -------------------------------------------------
    def moves(self, s):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        out = []
        for n in range(self.scope.nodes):
            if open_[n] is None and ops[n] > 0:
                for r in range(self.scope.regions):
                    for kind in ("r", "w"):
                        out.append(self._start(s, n, r, kind))
            elif open_[n] is not None and open_[n][0] in ("r", "w"):
                out.append(self._end(s, n))
        for i, msg in enumerate(net):
            out.append(self._deliver(s, i))
        return [m for m in out if m is not None]

    # -- hooks -----------------------------------------------------------
    def _start(self, s, n, r, kind):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        event = "start_read" if kind == "r" else "start_write"
        st, ver, deferred = copies[n][r]
        row = self._match_node(st, event, n, r, dirs[r])
        if row is None:
            return None  # no applicable row: the access cannot start here
        label = f"node{n}: {event} r{r} [{st}]"
        ops2 = _set(ops, n, ops[n] - 1)
        if "hit" in row.actions:
            dirs2 = dirs
            if st == self.home_state:
                d = list(dirs[r])
                if kind == "r":
                    d[5] += 1
                else:
                    d[6] = True
                dirs2 = _set(dirs, r, tuple(d))
            copies2 = _set2(copies, n, r, (_resolve_next(st, row.next), ver, deferred))
            return (label + " hit", (copies2, _set(open_, n, (kind, r)), ops2, dirs2, homever, latest, net, nextver))
        if _is_fetch(row):
            msg = (("read_req" if kind == "r" else "write_req"), n, self.scope.home(r), r, _NO_PAYLOAD, "")
            return (
                label + " miss",
                (copies, _set(open_, n, ("w" + kind, r)), ops2, dirs, homever, latest, _add(net, msg), nextver),
            )
        return None

    def _end(self, s, n):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        kind, r = open_[n]
        st, ver, deferred = copies[n][r]
        label = f"node{n}: end_{'read' if kind == 'r' else 'write'} r{r}"
        if kind == "w":
            ver = nextver
            nextver += 1
            latest = _set(latest, r, ver)
            if st == self.home_state:
                homever = _set(homever, r, ver)
            label += f" (commit v{ver})"
        copies = _set2(copies, n, r, (st, ver, deferred))
        open_ = _set(open_, n, None)
        if st == self.home_state:
            d = list(dirs[r])
            if kind == "r":
                d[5] -= 1
            else:
                d[6] = False
            dirs = _set(dirs, r, tuple(d))
            state = (copies, open_, ops, dirs, homever, latest, net, nextver)
            state = self._drain(state, r)
        else:
            state = (copies, open_, ops, dirs, homever, latest, net, nextver)
            state = self._fire_deferred(state, n, r)
        return (label, state)

    def _fire_deferred(self, s, n, r):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        st, ver, deferred = copies[n][r]
        while deferred:
            (event, aux), deferred = deferred[0], deferred[1:]
            copies = _set2(copies, n, r, (st, ver, deferred))
            s = self._apply_node_msg(
                (copies, open_, ops, dirs, homever, latest, net, nextver), n, r, event, aux
            )
            copies, open_, ops, dirs, homever, latest, net, nextver = s
            st, ver, deferred = copies[n][r]
        return (copies, open_, ops, dirs, homever, latest, net, nextver)

    # -- node-side guards -------------------------------------------------
    def _match_node(self, st, event, n, r, dir_):
        for row in self.table.lookup("node", st, event):
            if row.guard is None or self._node_guard(row.guard, n, r, dir_):
                return row
        return None

    def _node_guard(self, guard, n, r, dir_):
        owner, sharers, busy, pending, queue, hr, hw = dir_
        home = self.scope.home(r)
        if guard == "home_idle":
            return n == home and owner is None and not busy
        if guard == "home_sole":
            return n == home and owner is None and not sharers and not busy
        raise ModelCheckError(f"{self.table.name}: unknown node guard {guard!r}")

    # -- message delivery --------------------------------------------------
    def _deliver(self, s, i):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        msg = net[i]
        net2 = net[:i] + net[i + 1 :]
        s2 = (copies, open_, ops, dirs, homever, latest, net2, nextver)
        mtype, src, dst, r, payload, tag = msg
        label = f"deliver {mtype} {src}->{dst} r{r}"
        if mtype in ("read_req", "write_req"):
            return (label, self._home_request(s2, "r" if mtype == "read_req" else "w", src, r))
        if mtype in self.modes or mtype == "fwd_read":
            cp = s2[0][dst][r]
            if s2[1][dst] is not None and s2[1][dst][0] in ("r", "w") and s2[1][dst][1] == r:
                # copy in use: defer until the closing end hook
                deferred = cp[2] + ((mtype, payload),)
                return (
                    label + " (deferred)",
                    (_set2(s2[0], dst, r, (cp[0], cp[1], deferred)),) + s2[1:],
                )
            return (label, self._apply_node_msg(s2, dst, r, mtype, payload))
        if mtype == "inval_ack":
            return (label, self._home_inval_ack(s2, src, r, payload, tag))
        if mtype in ("read_data", "write_data", "upgrade_ack", "supply"):
            return (label, self._node_fill(s2, dst, r, mtype, payload))
        if mtype == "grant_ack":
            return (label, self._home_unbusy(s2, r))
        if mtype == "home_grant":
            # the home task's own admitted access opens
            return (label, (s2[0], _set(s2[1], dst, (tag, r))) + s2[2:])
        raise ModelCheckError(f"{self.table.name}: unroutable message {mtype!r}")

    # node receives a recall / forward message
    def _apply_node_msg(self, s, n, r, event, aux):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        st, ver, deferred = copies[n][r]
        rows = self.table.lookup("node", st, event)
        if not rows:
            return s  # mutated table: message silently dropped (ack never sent)
        row = rows[0]
        home = self.scope.home(r)
        wb = "writeback" in row.actions
        if "ack" in row.actions:
            net = _add(net, ("inval_ack", n, home, r, ver if wb else _NO_PAYLOAD, event))
        if "supply" in row.actions:
            # cache-to-cache transfer: the owner answers the forwarded
            # reader directly; the home's busy window closes when the
            # reader's grant_ack arrives (like any other grant).
            net = _add(net, ("supply", n, aux, r, ver, ""))
        copies = _set2(copies, n, r, (_resolve_next(st, row.next), ver, deferred))
        return (copies, open_, ops, dirs, homever, latest, net, nextver)

    # home receives a read/write request (or retries one off the queue)
    def _home_request(self, s, kind, src, r, queued=False):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        owner, sharers, busy, pending, queue, hr, hw = dirs[r]
        event = "read_req" if kind == "r" else "write_req"
        home = self.scope.home(r)
        hstate = "busy" if busy else "idle"
        row = None
        for t in self.table.lookup("home", hstate, event):
            if t.guard is None or self._home_guard(t.guard, src, r, dirs[r], s):
                row = t
                break
        if row is None or "enqueue" in row.actions:
            if queued:
                return None  # caller keeps it at the queue head
            queue = queue + ((kind, src),)
            return (copies, open_, ops, _set(dirs, r, (owner, sharers, busy, pending, queue, hr, hw)), homever, latest, net, nextver)
        return self._run_home_row(s, row, kind, src, r)

    def _run_home_row(self, s, row, kind, src, r):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        owner, sharers, busy, pending, queue, hr, hw = dirs[r]
        home = self.scope.home(r)
        busy2 = _resolve_next("busy" if busy else "idle", row.next) == "busy"
        for a in row.actions:
            if a.startswith("recall_"):
                mode = a[len("recall_"):]
                if mode not in self.modes:
                    raise ModelCheckError(f"{self.table.name}: recall mode {mode!r} has no node rows")
                targets = []
                if owner is not None and owner != src:
                    targets.append(owner)
                if kind == "w":
                    targets += [x for x in sharers if x != src and x not in targets]
                pending = (kind, src, len(targets))
                for t in targets:
                    net = _add(net, (mode, home, t, r, _NO_PAYLOAD, ""))
                busy = busy2
            elif a == "forward_read":
                pending = ("f", src, 1)
                net = _add(net, ("fwd_read", home, owner, r, src, ""))
                busy = busy2
            elif a == "grant_shared":
                if src == home:
                    hr += 1
                    net = _add(net, ("home_grant", home, home, r, _NO_PAYLOAD, "r"))
                else:
                    sharers = tuple(sorted(set(sharers) | {src}))
                    busy = busy2
                    net = _add(net, ("read_data", home, src, r, homever[r], ""))
            elif a == "grant_excl":
                if src == home:
                    hw = True
                    net = _add(net, ("home_grant", home, home, r, _NO_PAYLOAD, "w"))
                else:
                    # an upgrading sharer — or an owner self-upgrading
                    # from an owned state — keeps its (current) data;
                    # shipping home data would hand it a stale base.
                    had = src == owner or src in sharers
                    sharers = tuple(x for x in sharers if x != src)
                    owner = src
                    busy = busy2
                    if had:
                        net = _add(net, ("upgrade_ack", home, src, r, _NO_PAYLOAD, ""))
                    else:
                        net = _add(net, ("write_data", home, src, r, homever[r], ""))
        dirs = _set(dirs, r, (owner, sharers, busy, pending, queue, hr, hw))
        out = (copies, open_, ops, dirs, homever, latest, net, nextver)
        if not busy:
            out = self._drain(out, r)
        return out

    def _home_guard(self, guard, src, r, dir_, s):
        owner, sharers, busy, pending, queue, hr, hw = dir_
        home = self.scope.home(r)
        if guard == "home_writing":
            return hw and src != home
        if guard == "home_open":
            return (hw or hr > 0) and src != home
        if guard == "owned_elsewhere":
            return owner is not None and owner != src
        if guard == "copies_elsewhere":
            return (owner is not None and owner != src) or any(x != src for x in sharers)
        if guard == "acks_remaining":
            return pending is not None and pending[2] > 1
        raise ModelCheckError(f"{self.table.name}: unknown home guard {guard!r}")

    def _home_inval_ack(self, s, target, r, payload, mode):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        owner, sharers, busy, pending, queue, hr, hw = dirs[r]
        if payload != _NO_PAYLOAD:
            homever = _set(homever, r, payload)
        if owner == target:
            owner = None
        sharers = tuple(x for x in sharers if x != target)
        if mode in self.sharer_modes:
            sharers = tuple(sorted(set(sharers) | {target}))
        if pending is None:
            return (copies, open_, ops, _set(dirs, r, (owner, sharers, busy, pending, queue, hr, hw)), homever, latest, net, nextver)
        kind, src, need = pending
        need -= 1
        if need > 0:
            pending = (kind, src, need)
            dirs = _set(dirs, r, (owner, sharers, busy, pending, queue, hr, hw))
            return (copies, open_, ops, dirs, homever, latest, net, nextver)
        busy = False
        pending = None
        dirs = _set(dirs, r, (owner, sharers, busy, pending, queue, hr, hw))
        s = (copies, open_, ops, dirs, homever, latest, net, nextver)
        # the stalled request is served with the grant row of its event
        row = self._grant_row("read_req" if kind == "r" else "write_req")
        return self._run_home_row(s, row, kind, src, r)

    def _grant_row(self, event):
        for t in self.table.rows("home", event):
            if any(a.startswith("grant_") for a in t.actions):
                return t
        raise ModelCheckError(f"{self.table.name}: no grant row for {event!r}")

    def _home_unbusy(self, s, r):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        owner, sharers, busy, pending, queue, hr, hw = dirs[r]
        if pending is not None and pending[0] == "f":
            # a forwarded read completed: the requester installed the
            # owner's supplied copy and is now a sharer (record_sharer)
            req = pending[1]
            if req != self.scope.home(r):
                sharers = tuple(sorted(set(sharers) | {req}))
        dirs = _set(dirs, r, (owner, sharers, False, None, queue, hr, hw))
        return self._drain((copies, open_, ops, dirs, homever, latest, net, nextver), r)

    def _drain(self, s, r):
        while True:
            copies, open_, ops, dirs, homever, latest, net, nextver = s
            owner, sharers, busy, pending, queue, hr, hw = dirs[r]
            if busy or not queue:
                return s
            (kind, src), rest = queue[0], queue[1:]
            dirs = _set(dirs, r, (owner, sharers, busy, pending, rest, hr, hw))
            served = self._home_request(
                (copies, open_, ops, dirs, homever, latest, net, nextver), kind, src, r, queued=True
            )
            if served is None:
                return s  # head not admissible yet; leave the queue intact
            s = served

    # node receives grant / supplied data
    def _node_fill(self, s, n, r, mtype, payload):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        st, ver, deferred = copies[n][r]
        home = self.scope.home(r)
        if mtype == "supply" and n == home:
            # supplying the home *is* a write-back: canonical storage
            # takes the owner's version and the home's own read opens
            # against it; the home's alias copy keeps its state.
            d = list(dirs[r])
            d[5] += 1
            dirs2 = _set(dirs, r, tuple(d))
            homever2 = _set(homever, r, payload)
            net2 = _add(net, ("grant_ack", n, home, r, _NO_PAYLOAD, ""))
            return (copies, _set(s[1], n, ("r", r)), ops, dirs2, homever2, latest, net2, nextver)
        if mtype in ("read_data", "supply"):
            st2 = _resolve_next(st, _fetch_row(self.table, "start_read").next)
            kind = "r"
        elif mtype == "write_data":
            st2 = _resolve_next(st, _fetch_row(self.table, "start_write").next)
            kind = "w"
        else:  # upgrade_ack keeps the requester's current data
            st2 = _resolve_next(st, _fetch_row(self.table, "start_write").next)
            kind = "w"
            payload = ver
        ver2 = payload if payload != _NO_PAYLOAD else ver
        copies = _set2(copies, n, r, (st2, ver2, deferred))
        open_ = _set(s[1], n, (kind, r))
        net = _add(net, ("grant_ack", n, self.scope.home(r), r, _NO_PAYLOAD, ""))
        return (copies, open_, ops, dirs, homever, latest, net, nextver)

    # -- invariants --------------------------------------------------------
    def invariant_violation(self, s):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        for r in range(self.scope.regions):
            writers = [n for n in range(self.scope.nodes) if open_[n] == ("w", r)]
            readers = [n for n in range(self.scope.nodes) if open_[n] == ("r", r)]
            if len(writers) > 1:
                return ("single_writer", f"region {r} has concurrent writers {writers}")
            if writers and readers:
                return (
                    "single_writer",
                    f"region {r} has reader(s) {readers} concurrent with writer {writers[0]}",
                )
            # Freshness: an open read must see the newest committed
            # version; an open write is a read-modify-write, so its
            # base data must be just as fresh (this is what catches a
            # grant served from a home that never got the writeback).
            for n in readers + writers:
                st, ver, _d = copies[n][r]
                obs = homever[r] if st == self.home_state else ver
                if obs < latest[r]:
                    verb = "reads" if n in readers else "writes over"
                    return (
                        "no_stale_read",
                        f"node {n} {verb} r{r} at v{obs} while v{latest[r]} is committed",
                    )
            bad = self._agreement(s, r)
            if bad is not None:
                return bad
        return None

    def _agreement(self, s, r):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        owner, sharers, busy, pending, queue, hr, hw = dirs[r]
        if busy or pending is not None or any(m[3] == r for m in net):
            return None  # transient; judged only at rest
        home = self.scope.home(r)
        for n in range(self.scope.nodes):
            st, ver, deferred = copies[n][r]
            if deferred or open_[n] in ((("r", r)), (("w", r))) or (
                open_[n] is not None and open_[n][1] == r
            ):
                return None
        if owner is not None:
            st = copies[owner][r][0]
            if st not in self.write_hit and st not in self.dirty:
                return (
                    "dir_cache_agreement",
                    f"directory owner {owner} of r{r} holds state {st!r}",
                )
        else:
            for n in range(self.scope.nodes):
                st = copies[n][r][0]
                if n != home and st in self.dirty:
                    return (
                        "dir_cache_agreement",
                        f"node {n} holds dirty r{r} ({st!r}) with no directory owner",
                    )
        for n in range(self.scope.nodes):
            st = copies[n][r][0]
            if n != home and st in self.read_hit and n not in sharers and n != owner:
                return (
                    "dir_cache_agreement",
                    f"node {n} holds readable r{r} ({st!r}) unknown to the directory",
                )
        return None

    def terminal_violation(self, s):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        if net:
            return ("quiescence", f"terminal state with {len(net)} undelivered message(s)")
        for n in range(self.scope.nodes):
            if open_[n] is not None:
                return ("quiescence", f"node {n} stuck in {open_[n]}")
            if ops[n] > 0:
                return ("quiescence", f"node {n} deadlocked with {ops[n]} op(s) left")
        for r in range(self.scope.regions):
            owner, sharers, busy, pending, queue, hr, hw = dirs[r]
            if busy or pending is not None or queue:
                return ("quiescence", f"region {r} directory stuck (busy={busy}, queue={len(queue)})")
        return None


# ----------------------------------------------------------------------
# barrier family (self-invalidation)
# ----------------------------------------------------------------------
class BarrierModel:
    """Abstract machine for ``sync_model="barrier"`` tables.

    Visibility contract: a read observes at least everything committed
    before the most recent global barrier.  The application contract
    (one writer per region per epoch) is enforced by the move
    generator, matching the protocol's stated usage discipline.

    State layout::

        (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver)

        copies[n][r] = (state, version)
        open_[n]     = None | (kind, rid) | ("bar",)   kind: r w wr ww wb
        ew[r]        = this epoch's writer (or -1)
    """

    family = "barrier"
    invariants = ("single_writer", "no_stale_read", "quiescence")

    def __init__(self, table: ProtocolTable, scope: Scope):
        self.table = table
        self.scope = scope
        self.read_hit = _hit_states(table, "start_read")
        self.write_hit = _hit_states(table, "start_write")
        fr = _fetch_row(table, "start_read")
        fw = _fetch_row(table, "start_write")
        if fr is None or fw is None:
            raise ModelCheckError(f"{table.name}: barrier model needs fetch rows for both hooks")
        self.fill_read = fr.next
        self.fill_write = fw.next
        self.base = table.base_state
        homes = _guarded_hit_states(table) or frozenset({"home"})
        self.home_state = next(iter(homes))
        ew_rows = table.rows("node", "end_write")
        self.sync_writeback = any("writeback_home" in t.actions for t in ew_rows)
        self.end_write_next = ew_rows[0].next if ew_rows else KEEP
        bar_rows = table.rows("node", "barrier")
        self.self_invalidate = any("self_invalidate" in t.actions for t in bar_rows)

    def initial(self):
        sc = self.scope
        copies = tuple(
            tuple(
                (self.home_state, 0) if n == sc.home(r) else (self.base, 0)
                for r in range(sc.regions)
            )
            for n in range(sc.nodes)
        )
        return (
            copies,
            (None,) * sc.nodes,
            (sc.ops,) * sc.nodes,
            0,
            (-1,) * sc.regions,
            (0,) * sc.regions,
            (0,) * sc.regions,
            (0,) * sc.regions,
            (),
            1,
        )

    def moves(self, s):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        out = []
        for n in range(self.scope.nodes):
            o = open_[n]
            if o is None:
                if ops[n] > 0:
                    for r in range(self.scope.regions):
                        out.append(self._start(s, n, r, "r"))
                        if ew[r] in (-1, n):
                            out.append(self._start(s, n, r, "w"))
                elif epoch < self.scope.epochs:
                    out.append(self._enter_barrier(s, n))
            elif o[0] in ("r", "w"):
                out.append(self._end(s, n))
        for i in range(len(net)):
            out.append(self._deliver(s, i))
        return [m for m in out if m is not None]

    def _start(self, s, n, r, kind):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        st, ver = copies[n][r]
        event = "start_read" if kind == "r" else "start_write"
        label = f"node{n}: {event} r{r} [{st}] e{epoch}"
        hit = st in (self.read_hit if kind == "r" else self.write_hit) or (
            st == self.home_state and n == self.scope.home(r)
        )
        ops2 = _set(ops, n, ops[n] - 1)
        ew2 = _set(ew, r, n) if kind == "w" else ew
        if hit:
            return (label + " hit", (copies, _set(open_, n, (kind, r)), ops2, epoch, ew2, homever, latest, barver, net, nextver))
        msg = ("fetch", n, self.scope.home(r), r, _NO_PAYLOAD, kind)
        return (
            label + " miss",
            (copies, _set(open_, n, ("w" + kind, r)), ops2, epoch, ew2, homever, latest, barver, _add(net, msg), nextver),
        )

    def _end(self, s, n):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        kind, r = open_[n]
        st, ver = copies[n][r]
        if kind == "r":
            return (f"node{n}: end_read r{r}", (copies, _set(open_, n, None), ops, epoch, ew, homever, latest, barver, net, nextver))
        ver = nextver
        nextver += 1
        latest = _set(latest, r, ver)
        copies = _set2(copies, n, r, (_resolve_next(st, self.end_write_next), ver))
        label = f"node{n}: end_write r{r} (commit v{ver})"
        if n == self.scope.home(r):
            homever = _set(homever, r, ver)
            return (label, (copies, _set(open_, n, None), ops, epoch, ew, homever, latest, barver, net, nextver))
        if self.sync_writeback:
            net = _add(net, ("wb", n, self.scope.home(r), r, ver, ""))
            open_ = _set(open_, n, ("wb", r))
        else:
            open_ = _set(open_, n, None)  # mutated table: write never reaches home
        return (label, (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver))

    def _enter_barrier(self, s, n):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        if self.self_invalidate:
            row = tuple(
                (self.base, 0) if self.scope.home(r) != n else copies[n][r]
                for r in range(self.scope.regions)
            )
            copies = _set(copies, n, row)
        open_ = _set(open_, n, ("bar",))
        label = f"node{n}: barrier e{epoch}"
        if all(o == ("bar",) for o in open_):
            epoch += 1
            barver = latest
            ew = (-1,) * self.scope.regions
            open_ = (None,) * self.scope.nodes
            ops = (self.scope.ops if epoch < self.scope.epochs else 0,) * self.scope.nodes
            label += " (released)"
        return (label, (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver))

    def _deliver(self, s, i):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        msg = net[i]
        net = net[:i] + net[i + 1 :]
        mtype, src, dst, r, payload, tag = msg
        label = f"deliver {mtype} {src}->{dst} r{r}"
        if mtype == "fetch":
            net = _add(net, ("data", dst, src, r, homever[r], tag))
            return (label, (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver))
        if mtype == "data":
            kind = tag
            st2 = self.fill_read if kind == "r" else self.fill_write
            copies = _set2(copies, dst, r, (st2, payload))
            open_ = _set(open_, dst, (kind, r))
            return (label, (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver))
        if mtype == "wb":
            homever = _set(homever, r, payload)
            net = _add(net, ("wb_ack", dst, src, r, _NO_PAYLOAD, ""))
            return (label, (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver))
        if mtype == "wb_ack":
            open_ = _set(open_, dst, None)
            return (label, (copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver))
        raise ModelCheckError(f"{self.table.name}: unroutable message {mtype!r}")

    def invariant_violation(self, s):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        for r in range(self.scope.regions):
            writers = [n for n in range(self.scope.nodes) if open_[n] == ("w", r)]
            if len(writers) > 1:
                return ("single_writer", f"region {r} has concurrent epoch writers {writers}")
            for n in range(self.scope.nodes):
                if open_[n] != ("r", r):
                    continue
                st, ver = copies[n][r]
                obs = homever[r] if st == self.home_state and n == self.scope.home(r) else ver
                if obs < barver[r]:
                    return (
                        "no_stale_read",
                        f"node {n} reads r{r} at v{obs} after a barrier that published v{barver[r]}",
                    )
        return None

    def terminal_violation(self, s):
        copies, open_, ops, epoch, ew, homever, latest, barver, net, nextver = s
        if net:
            return ("quiescence", f"terminal state with {len(net)} undelivered message(s)")
        for n in range(self.scope.nodes):
            if open_[n] is not None:
                return ("quiescence", f"node {n} stuck in {open_[n]}")
        return None


# ----------------------------------------------------------------------
# update family (immediate propagation)
# ----------------------------------------------------------------------
class UpdateModel:
    """Abstract machine for ``sync_model="immediate"`` tables.

    Every node holds a copy of every region (the worst case for an
    update protocol); writes are serialized per region by the
    application, matching the protocol's usage discipline.  Visibility
    contract: once a write's propagation fan-out is fully acknowledged,
    every copy reflects it.

    State layout::

        (copies, open_, ops, homever, acked, pend, net, nextver)

        copies[n][r] = version
        pend[r]      = None | (writer, version, need)
    """

    family = "update"
    invariants = ("single_writer", "no_stale_read", "quiescence")

    def __init__(self, table: ProtocolTable, scope: Scope):
        self.table = table
        self.scope = scope
        ew = table.rows("node", "end_write")
        self.propagates = any(
            "propagate_write" in t.actions or t.msg == "update" for t in ew
        )

    def initial(self):
        sc = self.scope
        return (
            ((0,) * sc.regions,) * sc.nodes,
            (None,) * sc.nodes,
            (sc.ops,) * sc.nodes,
            (0,) * sc.regions,
            (0,) * sc.regions,
            (None,) * sc.regions,
            (),
            1,
        )

    def moves(self, s):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        out = []
        for n in range(self.scope.nodes):
            o = open_[n]
            if o is None and ops[n] > 0:
                for r in range(self.scope.regions):
                    out.append(self._start(s, n, r, "r"))
                    if self._write_free(s, n, r):
                        out.append(self._start(s, n, r, "w"))
            elif o is not None and o[0] in ("r", "w"):
                out.append(self._end(s, n))
        for i in range(len(net)):
            out.append(self._deliver(s, i))
        return [m for m in out if m is not None]

    def _write_free(self, s, n, r):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        if pend[r] is not None:
            return False
        for m in range(self.scope.nodes):
            if m != n and open_[m] is not None and open_[m][1] == r and open_[m][0] in ("w", "wu"):
                return False
        return not any(msg[3] == r and msg[0] in ("upd", "apply", "apply_ack", "upd_done") for msg in net)

    def _start(self, s, n, r, kind):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        label = f"node{n}: start_{'read' if kind == 'r' else 'write'} r{r}"
        return (label, (copies, _set(open_, n, (kind, r)), _set(ops, n, ops[n] - 1), homever, acked, pend, net, nextver))

    def _end(self, s, n):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        kind, r = open_[n]
        if kind == "r":
            return (f"node{n}: end_read r{r}", (copies, _set(open_, n, None), ops, homever, acked, pend, net, nextver))
        ver = nextver
        nextver += 1
        copies = _set2(copies, n, r, ver)
        label = f"node{n}: end_write r{r} (commit v{ver})"
        if self.propagates:
            net = _add(net, ("upd", n, self.scope.home(r), r, ver, ""))
            open_ = _set(open_, n, ("wu", r))
        else:
            open_ = _set(open_, n, None)
            acked = _set(acked, r, ver)  # mutated table: claimed visible, never sent
        return (label, (copies, open_, ops, homever, acked, pend, net, nextver))

    def _deliver(self, s, i):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        msg = net[i]
        net = net[:i] + net[i + 1 :]
        mtype, src, dst, r, payload, tag = msg
        label = f"deliver {mtype} {src}->{dst} r{r}"
        if mtype == "upd":
            homever = _set(homever, r, payload)
            if dst != src:
                copies = _set2(copies, dst, r, payload)
            targets = [n for n in range(self.scope.nodes) if n not in (src, dst)]
            if not targets:
                net = _add(net, ("upd_done", dst, src, r, payload, ""))
            else:
                pend = _set(pend, r, (src, payload, len(targets)))
                for t in targets:
                    net = _add(net, ("apply", dst, t, r, payload, ""))
            return (label, (copies, open_, ops, homever, acked, pend, net, nextver))
        if mtype == "apply":
            copies = _set2(copies, dst, r, payload)
            net = _add(net, ("apply_ack", dst, src, r, payload, ""))
            return (label, (copies, open_, ops, homever, acked, pend, net, nextver))
        if mtype == "apply_ack":
            writer, ver, need = pend[r]
            need -= 1
            if need > 0:
                pend = _set(pend, r, (writer, ver, need))
            else:
                pend = _set(pend, r, None)
                net = _add(net, ("upd_done", dst, writer, r, ver, ""))
            return (label, (copies, open_, ops, homever, acked, pend, net, nextver))
        if mtype == "upd_done":
            open_ = _set(open_, dst, None)
            acked = _set(acked, r, payload)
            return (label, (copies, open_, ops, homever, acked, pend, net, nextver))
        raise ModelCheckError(f"{self.table.name}: unroutable message {mtype!r}")

    def invariant_violation(self, s):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        for r in range(self.scope.regions):
            writers = [
                n for n in range(self.scope.nodes) if open_[n] is not None
                and open_[n][1] == r and open_[n][0] in ("w", "wu")
            ]
            if len(writers) > 1:
                return ("single_writer", f"region {r} has concurrent writers {writers}")
            for n in range(self.scope.nodes):
                if copies[n][r] < acked[r]:
                    return (
                        "no_stale_read",
                        f"node {n} holds r{r} at v{copies[n][r]} after v{acked[r]} fully acked",
                    )
        return None

    def terminal_violation(self, s):
        copies, open_, ops, homever, acked, pend, net, nextver = s
        if net:
            return ("quiescence", f"terminal state with {len(net)} undelivered message(s)")
        for n in range(self.scope.nodes):
            if open_[n] is not None:
                return ("quiescence", f"node {n} stuck in {open_[n]}")
        return None


# ----------------------------------------------------------------------
# tuple helpers (states are immutable; these rebuild one slot)
# ----------------------------------------------------------------------
def _set(tup, i, value):
    return tup[:i] + (value,) + tup[i + 1 :]


def _set2(tup, i, j, value):
    return _set(tup, i, _set(tup[i], j, value))


def _add(net, msg):
    return tuple(sorted(net + (msg,)))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def model_for(table: ProtocolTable, scope: Scope):
    """Pick the family model the table's metadata declares."""
    if table.writer_model == "copy" and table.sync_model == "access":
        return InvalidationModel(table, scope)
    if table.sync_model == "barrier" and table.writer_model == "epoch":
        return BarrierModel(table, scope)
    if table.sync_model == "immediate":
        return UpdateModel(table, scope)
    raise ModelCheckError(
        f"{table.name}: no model for sync_model={table.sync_model!r} "
        f"writer_model={table.writer_model!r}"
    )


def check_table(
    table: ProtocolTable,
    scope: Scope | None = None,
    max_states: int = 400_000,
    stop_at_first: bool = True,
) -> CheckResult:
    """Exhaustively check ``table`` at ``scope``; returns the result
    (violations carry minimal counterexample traces)."""
    scope = scope or Scope()
    model = model_for(table, scope)
    result = CheckResult(
        protocol=table.name,
        family=model.family,
        scope=scope,
        invariants=model.invariants,
        fingerprint=table.fingerprint(),
    )
    return _bfs(model, result, max_states, stop_at_first)


def seeded_mutations(table: ProtocolTable) -> list[tuple[str, ProtocolTable]]:
    """Deliberately broken variants of an invalidation table.

    Used by ``repro modelcheck --seeded`` and the test suite to
    prove the checker has teeth: each mutation is type-well-formed
    (tables re-validate on construction) but semantically wrong, and
    the checker must refute every one of them.
    """
    out = []
    try:
        i = table.find_row("node", "excl", "invalidate")
    except TableError:
        i = None
    if i is not None:
        row = table.transitions[i]
        # 1. flipped invalidate ack: ack without the dirty writeback —
        #    the home serves the next request from stale canonical data.
        out.append(
            (
                "invalidate-ack-drops-writeback",
                table.mutate(i, actions=tuple(a for a in row.actions if a != "writeback")),
            )
        )
        # 2. invalidate leaves the copy readable: the old sharer keeps
        #    hitting locally after ownership moved.
        out.append(("invalidate-keeps-copy-readable", table.mutate(i, next="shared")))
    try:
        j = table.find_row("home", "idle", "write_req", guard="copies_elsewhere")
        out.append(("write-grant-skips-recall", table.mutate(j, guard="owned_elsewhere")))
    except TableError:
        pass
    # Barrier family: drop the synchronous write-back (home never learns
    # about the write) or the barrier self-invalidation (stale copies
    # survive the epoch boundary).
    for k, t in enumerate(table.transitions):
        if t.role != "node":
            continue
        if t.event == "end_write" and "writeback_home" in t.actions:
            out.append(
                (
                    "write-back-dropped",
                    table.mutate(
                        k, actions=tuple(a for a in t.actions if a != "writeback_home"), msg=None
                    ),
                )
            )
        if t.event == "barrier" and "self_invalidate" in t.actions:
            out.append(
                (
                    "self-invalidate-dropped",
                    table.mutate(k, actions=tuple(a for a in t.actions if a != "self_invalidate")),
                )
            )
        # Update family: the write commits locally but is never pushed.
        if t.event == "end_write" and "propagate_write" in t.actions:
            out.append(
                (
                    "update-propagation-dropped",
                    table.mutate(
                        k, actions=tuple(a for a in t.actions if a != "propagate_write"), msg=None
                    ),
                )
            )
    return out
