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

The checker interprets table rows — the same artifact the runtime
interprets — so a *semantic* mutation of the table (flip the
invalidate row to keep the copy readable, drop the writeback from the
ack) changes the explored state graph and surfaces as an invariant
violation with a minimal counterexample trace (BFS order guarantees
minimality in steps).

Data is abstracted to monotonically increasing version numbers: each
committed write mints a fresh version, and staleness is a comparison.
State spaces at the scopes used here are a few thousand states; the
hard cap exists only to fail loudly on runaway tables.

Three family models share the search core, selected by the table's
``sync_model``/``writer_model`` metadata.  One of them runs shipped code:

* :class:`InvalidationModel` — MSI / MOESI-style ownership protocols
  (``writer_model="copy"``).  Its home admission, recall fan-out,
  grant and forward windows, deferred invalidations and cache-to-cache
  supply are not modeled: each such step thaws one region into the
  :class:`~repro.dsm.directory.HomeMachine` or
  :class:`~repro.dsm.regioncache.RecallReceiver` that SC, HwSC, CRL and
  Owned run, through an abstract wire.  Only the requester side
  (access starts, ends and fills) is written here;
* :class:`BarrierModel` — self-invalidation protocols
  (``sync_model="barrier"``): synchronous write-back self-downgrade,
  barrier-triggered self-invalidation, epoch visibility — a hand-written
  abstract interpreter over a small action vocabulary;
* :class:`UpdateModel` — immediate-propagation update protocols
  (``sync_model="immediate"``): write fan-out with acks, visibility
  once acknowledged — likewise hand-written.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dsm.directory import DirEntry, HomeMachine
from repro.dsm.regioncache import RecallReceiver
from repro.dsm.transport import Acks
from repro.memory import RegionCopy
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
    return frozenset(t.state for t in table.rows("node", event) if t.runs("hit") and t.guard is None)


def _guarded_hit_states(table: ProtocolTable) -> frozenset:
    return frozenset(
        t.state
        for ev in ("start_read", "start_write")
        for t in table.rows("node", ev)
        if t.runs("hit") and t.guard is not None
    )


def _fetch_row(table: ProtocolTable, event: str):
    # a fetch may be specialised per hook (``fetch_read``) or per
    # requester (``fetch_read_home``); any of them is a miss
    rows = [t for t in table.rows("node", event) if t.runs("fetch")]
    for t in rows:
        if t.state == WILDCARD:
            return t  # the wildcard row names the fill state remote misses use
    return rows[0] if rows else None


def _resolve_next(state: str, nxt: str) -> str:
    return state if nxt == KEEP else nxt


# ----------------------------------------------------------------------
# invalidation family (MSI / MOESI ownership)
# ----------------------------------------------------------------------
class _Wire:
    """The checker's abstract wire for the shared invalidation machines.

    Data is a version number: a grant carries the home's version, a
    writeback the copy's.  Sends collect in :attr:`sent` and join the
    state's sorted network when the step freezes.
    """

    def __init__(self):
        self.sent: list = []
        self.homever = 0

    # -- home side
    def grant(self, region, src, fut, kind, how):
        if how == "grant":  # the home task's own access opens
            msg = ("home_grant", region.home, src, region.rid, _NO_PAYLOAD, kind[0])
        elif how == "upgrade":
            msg = ("upgrade_ack", region.home, src, region.rid, _NO_PAYLOAD, "")
        else:
            msg = (kind + "_data", region.home, src, region.rid, self.homever, "")
        self.sent.append(msg)

    def recall(self, region, targets, mode, acks):
        for t in targets:
            acks.waiting.append(t)
            self.sent.append((mode, region.home, t, region.rid, _NO_PAYLOAD, ""))

    def forward(self, region, owner, src, fut):
        self.sent.append(("fwd_read", region.home, owner, region.rid, src, ""))

    def adopt(self, region, data):
        self.homever = data

    # -- copy side
    @staticmethod
    def snapshot(data):
        return data

    def acked(self, copy, event, answer, data):
        ver = _NO_PAYLOAD if data is None else data
        self.sent.append(("inval_ack", copy.node, copy.region.home, copy.region.rid, ver, event))

    def supplied(self, copy, aux, data):
        self.sent.append(("supply", copy.node, aux, copy.region.rid, data, ""))

    def unheld(self, nid, rid, copy, event, answer, aux):
        if event == "fwd_read":
            raise ModelCheckError(f"fwd_read reached node {nid} without a copy to supply")
        self.sent.append(("inval_ack", nid, copy.region.home, rid, _NO_PAYLOAD, event))


class _Region:
    __slots__ = ("rid", "home")

    def __init__(self, rid, home):
        self.rid, self.home = rid, home


def _thaw_entry(region, d) -> DirEntry:
    ent = DirEntry.__new__(DirEntry)
    ent.region = region
    ent.owner, sharers, ent.busy, pending, queue, hr, hw, ent.grantee = d
    ent.home_readers, ent.home_writing = hr, hw
    ent.sharers = set(sharers)
    ent.queue = deque([(kind, src, None) for kind, src in queue])
    if pending is None:
        ent.pending = None
    else:
        kind, src, need = pending
        acks = Acks()
        acks.waiting = [None] * need
        ent.pending = {"kind": kind, "src": src, "fut": None, "acks": acks, "remote": False}
    return ent


def _freeze_entry(ent: DirEntry):
    p = ent.pending
    if p is not None:
        p = (p["kind"], p["src"], len(p["acks"].waiting) if "acks" in p else 1)
    return (
        ent.owner,
        tuple(sorted(ent.sharers)),
        ent.busy,
        p,
        tuple((kind, src) for kind, src, _ in ent.queue),
        ent.home_readers,
        ent.home_writing,
        ent.grantee,
    )


class InvalidationModel:
    """Abstract machine for ``writer_model="copy"`` tables.

    The requester side — access starts, ends and fills — is modeled
    here; everything the home and a recalled or forwarded copy do is the
    shipped code: each such step thaws one region into a
    :class:`~repro.dsm.directory.HomeMachine` or
    :class:`~repro.dsm.regioncache.RecallReceiver` built from the table,
    runs it through the abstract :class:`_Wire`, and freezes the result.

    State layout (all tuples, fully hashable)::

        (copies, open_, ops, dirs, homever, latest, net, nextver)

        copies[n][r] = (state, version, deferred)   deferred: ((event, aux), ...)
        open_[n]     = None | (kind, rid)           kind: r w wr ww  (w*=waiting)
        ops[n]       = operations remaining
        dirs[r]      = (owner, sharers, busy, pending, queue, home_readers,
                        home_writing, grantee)      pending: None | (kind, src, need)
        latest[r]    = newest committed version, wherever it lives —
                       the freshness oracle a lost writeback cannot fool
        net          = sorted tuple of (type, src, dst, rid, payload, tag)
    """

    family = "invalidation"
    invariants = ("single_writer", "no_stale_read", "dir_cache_agreement", "quiescence")

    #: requester-side vocabulary this model interprets; the message rows
    #: are the shared machines' to validate
    NODE_ACTIONS = {
        "hit",
        "hit_read",
        "hit_write",
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
        self._check_vocabulary()
        self.wire = _Wire()
        try:
            self.home = HomeMachine(table, self.wire)
            self.cache = RecallReceiver(table, self.wire, scope.nodes)
        except TableError as exc:
            raise ModelCheckError(str(exc)) from None
        self.dirty = self.cache.dirty_states
        self.regions = tuple(_Region(r, scope.home(r)) for r in range(scope.regions))

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
        dirs = ((None, (), False, None, (), 0, False, None),) * sc.regions
        homever = (0,) * sc.regions
        return (copies, open_, ops, dirs, homever, (0,) * sc.regions, (), 1)

    # -- the shipped machines, one region at a time -----------------------
    def _home_step(self, s, r, step, *args):
        """Run ``step(entry, *args)`` — a home event — on region ``r``."""
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        wire = self.wire
        wire.sent = []
        wire.homever = homever[r]
        ent = _thaw_entry(self.regions[r], dirs[r])
        step(ent, *args)
        dirs = _set(dirs, r, _freeze_entry(ent))
        if wire.homever != homever[r]:
            homever = _set(homever, r, wire.homever)
        if wire.sent:
            net = tuple(sorted(net + tuple(wire.sent)))
        return (copies, open_, ops, dirs, homever, latest, net, nextver)

    def _copy_step(self, s, n, r, step, *args):
        """Run ``step(copy, *args)`` — a recall or forward receipt — on
        node ``n``'s copy of region ``r``."""
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        st, ver, deferred = copies[n][r]
        copy = RegionCopy.__new__(RegionCopy)
        copy.region, copy.node, copy.state, copy.data = self.regions[r], n, st, ver
        copy.reads = copy.writes = 0
        if open_[n] is not None and open_[n][0] in ("r", "w") and open_[n][1] == r:
            copy.reads = 1  # in use: the receiver defers
        copy.deferred = tuple((event, None, aux) for event, aux in deferred)
        self.cache.tables[n][r] = copy
        wire = self.wire
        wire.sent = []
        step(copy, *args)
        frozen = (copy.state, copy.data, tuple((event, aux) for event, _, aux in copy.deferred))
        copies = _set2(copies, n, r, frozen)
        if wire.sent:
            net = tuple(sorted(net + tuple(wire.sent)))
        return (copies, open_, ops, dirs, homever, latest, net, nextver)

    def _receive(self, copy, event, aux):
        self.cache.receive(copy.node, copy.region.rid, event, None, aux)

    def _collect_ack(self, ent, mode, target, data):
        """The fan-out's collector: strike one target, then the ack rows."""
        if ent.pending is not None:
            ent.pending["acks"].waiting.pop()
        self.home.on_inval_ack(ent, mode, target, data)

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
        if row.runs("hit"):
            dirs2 = dirs
            if row.runs("open_home"):  # the home task's own access opens
                d = list(dirs[r])
                if "open_home_read" in row.actions:
                    d[5] += 1
                if "open_home_write" in row.actions:
                    d[6] = True
                dirs2 = _set(dirs, r, tuple(d))
            copies2 = _set2(copies, n, r, (_resolve_next(st, row.next), ver, deferred))
            return (label + " hit", (copies2, _set(open_, n, (kind, r)), ops2, dirs2, homever, latest, net, nextver))
        if row.runs("fetch"):
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
        event = "end_read" if kind == "r" else "end_write"
        row = self._match_node(st, event, n, r, dirs[r])
        label = f"node{n}: {event} r{r}"
        if kind == "w":
            ver = nextver
            nextver += 1
            latest = _set(latest, r, ver)
            if st == self.home_state:
                homever = _set(homever, r, ver)
            label += f" (commit v{ver})"
        copies = _set2(copies, n, r, (st, ver, deferred))
        open_ = _set(open_, n, None)
        if row is not None and row.runs("close_home"):  # the home task's own access closes
            d = list(dirs[r])
            if "close_home_read" in row.actions:
                d[5] -= 1
            if "close_home_write" in row.actions:
                d[6] = False
            dirs = _set(dirs, r, tuple(d))
            state = (copies, open_, ops, dirs, homever, latest, net, nextver)
            return (label, self._home_step(state, r, self.home.drain))
        state = (copies, open_, ops, dirs, homever, latest, net, nextver)
        if deferred:
            state = self._copy_step(state, n, r, self.cache.fire_deferred)
        return (label, state)

    # -- node-side guards -------------------------------------------------
    def _match_node(self, st, event, n, r, dir_):
        for row in self.table.lookup("node", st, event):
            if row.guard is None or self._node_guard(row.guard, n, r, dir_):
                return row
        return None

    def _node_guard(self, guard, n, r, dir_):
        owner, sharers, busy = dir_[:3]
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
        s2 = (copies, open_, ops, dirs, homever, latest, net[:i] + net[i + 1 :], nextver)
        mtype, src, dst, r, payload, tag = msg
        label = f"deliver {mtype} {src}->{dst} r{r}"
        if mtype in ("read_req", "write_req"):
            return (label, self._home_step(s2, r, self.home.request, mtype[:-4], src, None))
        if mtype == "inval_ack":
            data = None if payload == _NO_PAYLOAD else payload
            return (label, self._home_step(s2, r, self._collect_ack, tag, src, data))
        if mtype == "grant_ack":
            return (label, self._home_step(s2, r, self.home.on_grant_ack, src))
        if mtype in self.cache._rows:  # a recall or forward reaches a copy
            o = open_[dst]
            if o is not None and o[0] in ("r", "w") and o[1] == r:
                label += " (deferred)"
            return (label, self._copy_step(s2, dst, r, self._receive, mtype, payload))
        if mtype in ("read_data", "write_data", "upgrade_ack", "supply"):
            return (label, self._node_fill(s2, dst, r, mtype, payload))
        if mtype == "home_grant":
            # the home task's own admitted access opens
            return (label, (s2[0], _set(s2[1], dst, (tag, r))) + s2[2:])
        raise ModelCheckError(f"{self.table.name}: unroutable message {mtype!r}")

    # node receives grant / supplied data
    def _node_fill(self, s, n, r, mtype, payload):
        copies, open_, ops, dirs, homever, latest, net, nextver = s
        st, ver, deferred = copies[n][r]
        home = self.scope.home(r)
        if mtype == "supply" and n == home:
            # supplying the home *is* a write-back: canonical storage
            # takes the owner's version and the home's own read opens
            # against it (the grant ack records it in home_readers); the
            # home's alias copy keeps its state.
            homever2 = _set(homever, r, payload)
            net2 = _add(net, ("grant_ack", n, home, r, _NO_PAYLOAD, ""))
            return (copies, _set(s[1], n, ("r", r)), ops, dirs, homever2, latest, net2, nextver)
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
        owner, sharers, busy, pending, queue, hr, hw, grantee = dirs[r]
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
            owner, sharers, busy, pending, queue, hr, hw, grantee = dirs[r]
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
    try:
        # the home writes in place over remote sharers' copies
        k = table.find_row("node", "home", "start_write", guard="home_sole")
        out.append(("home-write-skips-sharers", table.mutate(k, guard="home_idle")))
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
