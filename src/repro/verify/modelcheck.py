"""Small-scope model checker for protocol tables.

Exhaustively enumerates every interleaving of application events and
message deliveries that a :class:`~repro.spec.table.ProtocolTable`
admits on a small scope (2–3 nodes, 1–2 regions, a couple of
operations per node), and checks the coherence invariants the paper's
protocol families promise:

``single_writer``
    No region ever has two unfinished writes, or a reader concurrent
    with a foreign writer (SWMR, invalidation family).
``no_stale_read``
    Every open access observes at least its family's read floor: the
    latest committed version for ``sync_model="access"``, every write
    whose end hook has returned for ``"immediate"``, and everything
    from before the last barrier for ``"barrier"``.
``dir_cache_agreement``
    Whenever a region is quiescent (no messages in flight, no busy
    directory window), the home's owner/sharer records agree with the
    node-side copy states.
``quiescence``
    Every terminal state is clean: no undelivered messages, no stuck
    queues, no node blocked forever (deadlock freedom within scope).

The checker runs the code that ships, so a *semantic* mutation of the
table (flip the invalidate row to keep the copy readable, drop the
writeback from the ack, drop a hit's use count) changes the explored
state graph and surfaces as an invariant violation with a minimal
counterexample trace (BFS order guarantees minimality in steps).

Data is abstracted to monotonically increasing version numbers: each
committed write mints a fresh version, and staleness is a comparison.
State spaces at the scopes used here are a few thousand states; the
hard cap exists only to fail loudly on runaway tables.

Two family models share the search core and one hook runner
(:class:`_HookModel`), selected by the table's
``sync_model``/``writer_model`` metadata: :class:`InvalidationModel`
(MSI / MOESI ownership, ``writer_model="copy"``) and
:class:`PublishModel`, for tables whose home is always current
(self-invalidation, ``sync_model="barrier"``, and immediate update
propagation, ``sync_model="immediate"``).

Both run shipped code.  Their requester side is the access hooks
:func:`~repro.spec.emit.table_hooks` generates from the table — the
text the protocol itself compiles — over a checker target whose actions
move versions instead of data.  The invalidation family's home and
recall sides are the :class:`~repro.dsm.directory.HomeMachine` and
:class:`~repro.dsm.regioncache.RecallReceiver` that SC, HwSC, CRL and
Owned run, through an abstract wire, with the home alias's guards and
open/close actions bound as at runtime.  The other family's home is
written here: it serves fetches and write-backs, or updates and their
fan-out; the barrier and update families differ only in where a write
is published.  Each step thaws one world — the stepped node's copies,
its region's directory entry and the wire — runs it and freezes the
result.  A hook that blocks parks: the state records its event and
guard answers, and the delivery that answers it re-runs the hook's
prefix without effects, then resumes the blocked action live.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import asdict, dataclass, field

from repro.dsm.directory import DirEntry, HomeMachine
from repro.dsm.regioncache import RecallReceiver
from repro.dsm.transport import Acks
from repro.memory import RegionCopy
from repro.sim.kernel import _DELAY_POOL, _DELAY_POOL_SIZE, Delay
from repro.spec.emit import CodeFile, effect_calls, table_hooks
from repro.spec.table import WILDCARD, ProtocolTable, TableError


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

    def __post_init__(self):
        for name in ("nodes", "regions", "ops", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"scope {name} must be at least 1, got {getattr(self, name)}")

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
        cert = asdict(self)
        cert.update(table_fingerprint=cert.pop("fingerprint"), invariants=list(self.invariants), ok=self.ok)
        for v in cert["violations"]:
            v["trace"] = list(v["trace"])
        return cert


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
        moves = () if bad else model.moves(state)
        if not (bad or moves):
            bad = model.terminal_violation(state)
        if bad is not None:
            result.violations.append(Violation(bad[0], bad[1], _trace(parent, state)))
            if stop_at_first:
                break
            continue  # don't explore past a broken state
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
# the requester side: generated hooks over a checker target
# ----------------------------------------------------------------------
#: the checker's generated hooks are line ranges of this pseudo-file
_CODE = CodeFile(
    "<generated>/repro/verify/modelcheck.py",
    {"_POOL": _DELAY_POOL, "_POOL_SIZE": _DELAY_POOL_SIZE, "Delay": Delay},
)

#: what a blocking checker action yields: its hook parks there until the
#: delivery that answers it
_PARK = object()

_KIND = {"start_read": "r", "start_write": "w"}

#: the slots that hold a region's write: open, or parked in its end hook
_WRITING = ("w", "end_write")


class _Requester:
    """The target a table's generated hooks run against in the checker.

    Live, an action moves versions on the thawed world — the stepped
    node's ``copies``, one per region — and sends through ``wire``.
    While a parked hook's prefix is re-run (``live`` False) actions do
    nothing and guards give back the ``answers`` they gave live.  A
    blocking action names its family in ``parked`` and yields
    :data:`_PARK`; the value sent back is its answer.
    """

    def __init__(self, name: str, wire):
        self.name = name
        self.wire = wire
        self.kind = "r"  # the access a start hook runs for
        self.live = True
        self.answers: list = []
        self.parked = None
        self.copies: list = []

    def adopt_alias(self, home: HomeMachine) -> None:
        """Take the home alias's guards and open/close actions from
        ``home``, the effects the shipped wires splice, compiled into the
        calls the call-form hooks make: guards recorded for a replay,
        actions idle during it."""
        for name, fn in effect_calls(home.bind_alias(self), self, _CODE).items():
            setattr(self, name, self._recorded(fn) if name.startswith("g_") else self._quiet(fn))

    def _recorded(self, guard):
        def g(*args):
            if self.live:
                ok = guard(*args)
                self.answers.append(ok)
                return ok
            if not self.answers:
                raise ModelCheckError(f"{self.name}: a replayed hook asks a guard its live run did not")
            return self.answers.pop(0)
        return g

    def _quiet(self, act):
        def a(*args):
            if self.live:
                act(*args)
        return a

    def run(self, hook, args, answers=None, family=None, reply=None):
        """Drive ``hook(*args)`` live; its guard answers if it parks, else
        None.  Given the ``answers`` of a parked run: re-run the prefix
        without effects to the ``family`` action it parked in, then send
        that action ``reply`` and finish live.  Anything else a hook
        yields is a cycle charge, and skipped."""
        gen = hook(*args)
        if answers is None:
            self.live, self.answers = True, []
            for got in gen:
                if got is _PARK:
                    return tuple(self.answers)
            return None
        self.live, self.answers = False, list(answers)
        for got in gen:
            if got is _PARK:
                break
        else:
            raise ModelCheckError(f"{self.name}: a replayed hook finished without parking")
        if self.parked != family or self.answers:
            raise ModelCheckError(f"{self.name}: a replayed hook parks in {self.parked!r}, not {family!r}")
        self.live = True
        try:
            got = gen.send(reply)
            while got is not _PARK:
                got = next(gen)
        except StopIteration:
            return None
        raise ModelCheckError(f"{self.name}: a resumed hook parks again in {self.parked!r}")


class _CopyRequester(_Requester):
    """The invalidation family's requester actions (SC, HwSC, Owned).

    A hit or a fill opens a use of the copy (``reads``: every open
    access, as Owned counts them); a release closes one and, at the
    last, applies the recalls the copy deferred.  A fetch asks the home
    by message — the home's own request too — and parks until the grant.
    """

    def __init__(self, name: str, wire, cache: RecallReceiver):
        super().__init__(name, wire)
        self.cache = cache

    def act_hit(self, nid: int, copy) -> None:
        if self.live:
            copy.reads += 1

    act_hit_read = act_hit_write = act_hit

    def act_fetch(self, nid: int, copy):
        region = copy.region
        if self.live:
            req = "read_req" if self.kind == "r" else "write_req"
            self.wire.sent.append((req, nid, region.home, region.rid, _NO_PAYLOAD, ""))
        self.parked = "fetch"
        mtype, payload = yield _PARK
        if payload != _NO_PAYLOAD:
            if copy.state == self.cache.home_state:
                self.wire.homever = payload  # the alias is canonical storage
            else:
                copy.data = payload
        if mtype != "home_grant":
            self.wire.sent.append(("grant_ack", nid, region.home, region.rid, _NO_PAYLOAD, ""))
        copy.reads += 1

    act_fetch_read = act_fetch_write = act_fetch_read_home = act_fetch_write_home = act_fetch

    def act_release(self, nid: int, copy) -> None:
        if self.live:
            copy.reads -= 1
            if copy.deferred and not copy.reads:
                self.cache.fire_deferred(copy)

    act_release_read = act_release_write = act_release


class _EpochRequester(_Requester):
    """The requester actions of the tables whose home is always current
    (SelfInvalidate, DynamicUpdate).

    A miss refetches from the home.  A write ends by shipping its
    version home and waiting for the ack (``writeback_home``), or by
    pushing it to every copy and waiting until each has applied it
    (``propagate_write``).  A barrier drops the node's non-home copies
    (their data with them), meets every node and hands the node the
    next epoch's operations (``ops``).
    """

    def __init__(self, name: str, wire, base: str):
        super().__init__(name, wire)
        self.base = base
        self.ops: list = []
        self.refill = 0

    def act_hit(self, nid: int, copy) -> None:
        """The shipped action only counts."""

    def act_fetch(self, nid: int, copy):
        region = copy.region
        if self.live:
            self.wire.sent.append(("fetch", nid, region.home, region.rid, _NO_PAYLOAD, self.kind))
        self.parked = "fetch"
        copy.data = yield _PARK

    def act_writeback_home(self, nid: int, copy):
        region = copy.region
        if nid == region.home:
            return  # the alias is canonical storage already
        if self.live:
            self.wire.sent.append(("wb", nid, region.home, region.rid, copy.data, ""))
        self.parked = "writeback_home"
        yield _PARK

    def act_propagate_write(self, nid: int, copy):
        """The home fans its write out in place; any other writer sends
        it home (``upd``).  Either way the write waits for every copy."""
        region = copy.region
        if nid == region.home:
            sent = self.wire.push(region, nid, copy.data)
            if not sent:
                return  # no other copy to wait for
        else:
            sent = [("upd", nid, region.home, region.rid, copy.data, "")]
        if self.live:
            self.wire.sent += sent
        self.parked = "propagate_write"
        yield _PARK

    def act_self_invalidate(self, nid: int) -> None:
        if self.live:
            for copy in self.copies:
                if copy.region.home != nid:
                    copy.state, copy.data = self.base, 0

    def act_rendezvous(self, nid: int):
        self.parked = "rendezvous"
        yield _PARK

    def act_advance_epoch(self, nid: int) -> None:
        if self.live:
            self.ops[nid] = self.refill


class _Wire:
    """The checker's abstract wire: the sends of a step collect in
    :attr:`sent` and join the state's sorted network when it freezes,
    and :attr:`homever` is the stepped region's canonical version.

    The rest is the shared invalidation machines' wire and the update
    family's fan-out.  Data is a version number: a grant carries the
    home's version, a writeback the copy's.
    """

    def __init__(self, nodes: int = 0):
        self.nodes = nodes
        self.sent: list = []
        self.homever = 0

    def push(self, region, writer: int, ver: int) -> list:
        """The update fan-out: ``ver`` to every copy but the writer's and
        the home's (every node holds a copy, the worst case)."""
        return [("apply", region.home, t, region.rid, ver, "")
                for t in range(self.nodes) if t not in (writer, region.home)]

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


_Region = namedtuple("_Region", "rid home")


def _copy(region, n: int) -> RegionCopy:
    """A copy the checker thaws frozen ones into, step after step."""
    copy = RegionCopy.__new__(RegionCopy)
    copy.region, copy.node, copy.writes = region, n, 0
    return copy


class _HookModel:
    """A model that runs shipped code: each access runs the table's
    generated hooks over :attr:`target`, on one world :meth:`_step`
    thaws from the state and freezes back.  A state begins
    ``(copies, open_, ops, homever, latest, net, nextver)``::

        copies[n][r] = (state, version, ...)     the family's frozen copy
        open_[n]   = None | (kind, rid)          an open access, kind r w
                   | (event, rid, answers)       parked in ``event``'s hook
                                                 (rid None for a barrier)
        ops[n]     = operations remaining
        homever[r] = the home's canonical version
        latest[r]  = newest committed version, wherever it lives —
                     the freshness oracle a lost writeback cannot fool
        net        = sorted tuple of (type, src, dst, rid, payload, tag)

    Every family promises one writer per region (no reader beside it
    either, if :attr:`exclusive`), every open access at least as fresh
    as the family's read floor (state slot :attr:`FLOOR`), and a clean
    end: nothing in flight, nobody stuck, no operation left.
    """

    invariants = ("single_writer", "no_stale_read", "quiescence")
    exclusive = False

    def __init__(self, table: ProtocolTable, scope: Scope, target: _Requester):
        self.table = table
        self.scope = scope
        self.base = table.base_state
        self.regions = tuple(_Region(r, scope.home(r)) for r in range(scope.regions))
        self._rows = [[_copy(region, n) for region in self.regions] for n in range(scope.nodes)]
        self.wire = target.wire
        self.target = target
        try:
            self.hooks = table_hooks(table, target, _CODE)
        except TableError as exc:
            raise ModelCheckError(str(exc)) from None

    def initial(self):
        sc = self.scope
        copies = tuple(
            tuple((self.home_state if n == sc.home(r) else self.base,) + self.FRESH for r in range(sc.regions))
            for n in range(sc.nodes)
        )
        zeros = (0,) * sc.regions
        return (copies, (None,) * sc.nodes, (sc.ops,) * sc.nodes, zeros, zeros, (), 1) + self._initial_tail()

    def moves(self, s):
        out = []
        for n, slot in enumerate(s[1]):
            if slot is None:
                out += self._idle_moves(s, n)
            elif len(slot) == 2:
                out.append(self._finish(s, n))
        return out + [self._deliver(s, i) for i in range(len(s[5]))]

    # -- one world: thaw, step, freeze -------------------------------------
    def _step(self, s, n, r, step, *args):
        """Run ``step(n, copy, *args)`` on one thawed world — node ``n``'s
        copies (``copy``: region ``r``'s, None for a barrier), the
        region's home record and the wire — and freeze it; returns the
        next state and what ``step`` returned."""
        copies, open_, ops, homever, latest, net, nextver, *tail = s
        row = self.target.copies = self._rows[n]
        self._thaw(row, copies[n])
        wire = self.wire
        wire.sent = []
        if r is None:
            out = step(n, None, *args)
        else:
            copy = row[r]
            wire.homever = homever[r]
            self._thaw_home(copy, tail)
            out = step(n, copy, *args)
            if wire.homever != homever[r]:
                homever = _set(homever, r, wire.homever)
            tail = self._freeze_home(copy, tail)
        frozen = self._freeze(row)
        if frozen != copies[n]:
            copies = _set(copies, n, frozen)
        if wire.sent:
            net = tuple(sorted(net + tuple(wire.sent)))
        return (copies, open_, ops, homever, latest, net, nextver, *tail), out

    #: a copy's frozen tail before any step: its version
    FRESH = (0,)

    @staticmethod
    def _thaw(row, frozen) -> None:
        for copy, (st, ver) in zip(row, frozen):
            copy.state, copy.data = st, ver

    @staticmethod
    def _freeze(row):
        return tuple([(copy.state, copy.data) for copy in row])

    def _thaw_home(self, copy, tail) -> None:
        """A family whose home keeps a record per region thaws it here."""

    def _freeze_home(self, copy, tail):
        return tail

    # -- the application's accesses ----------------------------------------
    def _begin(self, s, n, r, kind, when=""):
        event = "start_read" if kind == "r" else "start_write"
        label = f"node{n}: {event} r{r} [{s[0][n][r][0]}]{when}"
        self.target.kind = kind
        (copies, open_, ops, *rest), parked = self._step(s, n, r, self._run, event)
        open_ = _set(open_, n, (kind, r) if parked is None else (event, r, parked))
        label += " hit" if parked is None else " miss"
        return (label, (copies, open_, _set(ops, n, ops[n] - 1), *rest))

    def _finish(self, s, n):
        kind, r = s[1][n]
        event = "end_read" if kind == "r" else "end_write"
        label = f"node{n}: {event} r{r}"
        ver = parked = None
        if kind == "w":  # the application's write commits a fresh version
            ver = s[6]
            label += f" (commit v{ver})"
        if ver is not None or event in self.hooks:
            s, parked = self._step(s, n, r, self._run, event, ver)
        copies, open_, ops, homever, latest, net, nextver, *rest = s
        open_ = _set(open_, n, None if parked is None else (event, r, parked))
        if ver is not None:
            latest, nextver = _set(latest, r, ver), ver + 1
        s = (copies, open_, ops, homever, latest, net, nextver, *rest)
        return (label, s if parked is not None else self._ended(s, event, r))

    def _resume(self, s, n, r, family, reply):
        """Deliver ``reply`` to the ``family`` action node ``n``'s hook
        parked in, for region ``r``; a start's access opens."""
        slot = s[1][n]
        if slot is None or len(slot) != 3 or slot[1] != r:
            raise ModelCheckError(f"{self.table.name}: node {n} has no hook parked for r{r}'s {family}")
        event, _, answers = slot
        copies, open_, *rest = self._step(s, n, r, self._run, event, None, answers, family, reply)[0]
        if event in _KIND:
            return (copies, _set(open_, n, (_KIND[event], r)), *rest)
        return self._ended((copies, _set(open_, n, None), *rest), event, r)

    def _ended(self, s, event, r):
        """``event``'s hook has returned for region ``r``."""
        return s

    def _run(self, n, copy, event, ver=None, answers=None, family=None, reply=None):
        """The application's write commits ``ver`` into ``copy`` (a home
        alias's is canonical storage), then ``event``'s hook runs — live,
        or resumed (:meth:`_Requester.run`).  A barrier's takes no copy."""
        if ver is not None:
            copy.data = ver
            if copy.state == self.home_state:
                self.wire.homever = ver
        hook = self.hooks.get(event)
        if hook is None:
            return None
        return self.target.run(hook, (n,) if copy is None else (n, copy), answers, family, reply)

    # -- invariants --------------------------------------------------------
    #: state slot of the per-region read floor, and what put it there
    FLOOR = (4, "committed")

    def invariant_violation(self, s):
        copies, open_, homever = s[0], s[1], s[3]
        at, why = self.FLOOR
        floor = s[at]
        for r in range(self.scope.regions):
            readers = [n for n, o in enumerate(open_) if o == ("r", r)]
            writers = [n for n, o in enumerate(open_) if o is not None and o[1] == r and o[0] in _WRITING]
            if len(writers) > 1:
                return ("single_writer", f"region {r} has concurrent writers {writers}")
            if self.exclusive and writers and readers:
                return (
                    "single_writer",
                    f"region {r} has reader(s) {readers} concurrent with writer {writers[0]}",
                )
            # Freshness: an open read must see its family's floor; an
            # open write is a read-modify-write, so its base data must
            # be just as fresh (this is what catches a grant served
            # from a home that never got the writeback).
            for n in readers + writers:
                st, ver = copies[n][r][:2]
                obs = homever[r] if st == self.home_state else ver
                if obs < floor[r]:
                    verb = "reads" if n in readers else "writes over"
                    return (
                        "no_stale_read",
                        f"node {n} {verb} r{r} at v{obs} while v{floor[r]} is {why}",
                    )
        return None

    def terminal_violation(self, s):
        open_, ops, net = s[1], s[2], s[5]
        if net:
            return ("quiescence", f"terminal state with {len(net)} undelivered message(s)")
        for n in range(self.scope.nodes):
            if open_[n] is not None:
                return ("quiescence", f"node {n} stuck in {open_[n]}")
            if ops[n] > 0:
                return ("quiescence", f"node {n} deadlocked with {ops[n]} op(s) left")
        return None


# ----------------------------------------------------------------------
# invalidation family (MSI / MOESI ownership)
# ----------------------------------------------------------------------
#: deliveries that answer a parked fetch
_FILLS = frozenset({"read_data", "write_data", "upgrade_ack", "supply", "home_grant"})


class InvalidationModel(_HookModel):
    """Abstract machine for ``writer_model="copy"`` tables.

    Everything is shipped code but the application and the wire: the
    requester runs the generated hooks over :class:`_CopyRequester`, the
    home a :class:`~repro.dsm.directory.HomeMachine` and a recalled or
    forwarded copy a :class:`~repro.dsm.regioncache.RecallReceiver`.  The
    state (:class:`_HookModel`) ends with ``dirs``, the directory, and
    its read floor is ``latest``::

        copies[n][r] = (state, version, deferred, uses)
                       deferred: ((event, aux), ...); uses: open accesses
        dirs[r]      = (owner, sharers, busy, pending, queue, home_readers,
                        home_writing, grantee)      pending: None | (kind, src, need)
    """

    family = "invalidation"
    invariants = ("single_writer", "no_stale_read", "dir_cache_agreement", "quiescence")
    exclusive = True

    def __init__(self, table: ProtocolTable, scope: Scope):
        wire = _Wire()
        try:
            self.home = HomeMachine(table, wire)
            self.cache = RecallReceiver(table, wire, scope.nodes)
        except TableError as exc:
            raise ModelCheckError(str(exc)) from None
        target = _CopyRequester(table.name, wire, self.cache)
        target.adopt_alias(self.home)
        super().__init__(table, scope, target)
        self.home_state = self.cache.home_state
        self.dirty = self.cache.dirty_states
        # for the invariants: the states a copy reads or writes in unasked
        self.read_hit, self.write_hit = (
            frozenset(t.state for t in table.rows("node", ev) if t.runs("hit") and not t.guard)
            for ev in ("start_read", "start_write"))
        for copies, row in zip(self.cache.tables, self._rows):
            copies.update((copy.region.rid, copy) for copy in row)

    #: a copy's frozen tail before any step: version, deferred, uses
    FRESH = (0, (), 0)

    def _initial_tail(self):
        return (((None, (), False, None, (), 0, False, None),) * self.scope.regions,)

    @staticmethod
    def _thaw(row, frozen) -> None:
        for copy, (st, ver, deferred, uses) in zip(row, frozen):
            copy.state, copy.data, copy.reads = st, ver, uses
            copy.deferred = tuple([(event, None, aux) for event, aux in deferred]) if deferred else ()

    @staticmethod
    def _freeze(row):
        return tuple([
            (copy.state, copy.data,
             tuple([(event, aux) for event, _, aux in copy.deferred]) if copy.deferred else (), copy.reads)
            for copy in row])

    def _thaw_home(self, copy, tail) -> None:
        ent = copy.ent = DirEntry.__new__(DirEntry)
        ent.region = copy.region
        (ent.owner, sharers, ent.busy, pending, queue, ent.home_readers, ent.home_writing,
         ent.grantee) = tail[0][copy.region.rid]
        ent.sharers = set(sharers)
        ent.queue = deque([(kind, src, None) for kind, src in queue])
        if pending is None:
            ent.pending = None
        else:
            kind, src, need = pending
            acks = Acks()
            acks.waiting = [None] * need
            ent.pending = {"kind": kind, "src": src, "fut": None, "acks": acks, "remote": False}

    def _freeze_home(self, copy, tail):
        ent = copy.ent
        p = ent.pending
        if p is not None:
            p = (p["kind"], p["src"], len(p["acks"].waiting) if "acks" in p else 1)
        queue = tuple((kind, src) for kind, src, _ in ent.queue)
        frozen = (ent.owner, tuple(sorted(ent.sharers)), ent.busy, p, queue, ent.home_readers,
                  ent.home_writing, ent.grantee)
        return (_set(tail[0], ent.region.rid, frozen),)

    def _idle_moves(self, s, n):
        if not s[2][n]:
            return []
        return [self._begin(s, n, r, kind) for r in range(self.scope.regions) for kind in "rw"]

    # -- the shipped home and recall sides, as step functions ----------------
    @staticmethod
    def _home(n, copy, event, *args):
        event(copy.ent, *args)

    def _collect_ack(self, ent, mode, target, data):
        """The fan-out's collector: strike one target, then the ack rows."""
        if ent.pending is not None:
            ent.pending["acks"].waiting.pop()
        self.home.on_inval_ack(ent, mode, target, data)

    def _receive(self, n, copy, event, aux):
        self.cache.receive(n, copy.region.rid, event, None, aux)

    def _deliver(self, s, i):
        net = s[5]
        mtype, src, dst, r, payload, tag = net[i]
        s = _set(s, 5, net[:i] + net[i + 1 :])
        label = f"deliver {mtype} {src}->{dst} r{r}"
        if mtype in ("read_req", "write_req"):
            return (label, self._step(s, dst, r, self._home, self.home.request, mtype[:-4], src, None)[0])
        if mtype == "inval_ack":
            data = None if payload == _NO_PAYLOAD else payload
            return (label, self._step(s, dst, r, self._home, self._collect_ack, tag, src, data)[0])
        if mtype == "grant_ack":
            return (label, self._step(s, dst, r, self._home, self.home.on_grant_ack, src)[0])
        if mtype in self.cache._rows:  # a recall or forward reaches a copy
            if s[0][dst][r][3]:
                label += " (deferred)"
            return (label, self._step(s, dst, r, self._receive, mtype, payload)[0])
        if mtype in _FILLS:
            return (label, self._resume(s, dst, r, "fetch", (mtype, payload)))
        raise ModelCheckError(f"{self.table.name}: unroutable message {mtype!r}")

    # -- invariants --------------------------------------------------------
    def invariant_violation(self, s):
        bad = super().invariant_violation(s)
        for r in range(self.scope.regions):
            if bad is None:
                bad = self._agreement(s, r)
        return bad

    def _agreement(self, s, r):
        copies, open_, ops, homever, latest, net, nextver, dirs = s
        owner, sharers, busy, pending, queue, hr, hw, grantee = dirs[r]
        if busy or pending is not None or any(m[3] == r for m in net):
            return None  # transient; judged only at rest
        home = self.scope.home(r)
        for n in range(self.scope.nodes):
            if copies[n][r][2] or (open_[n] is not None and open_[n][1] == r):
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
        bad = super().terminal_violation(s)
        for r, (owner, sharers, busy, pending, queue, *_) in enumerate(s[7]):
            if bad is None and (busy or pending is not None or queue):
                return ("quiescence", f"region {r} directory stuck (busy={busy}, queue={len(queue)})")
        return bad


# ----------------------------------------------------------------------
# tables whose home is always current: barrier and update families
# ----------------------------------------------------------------------
#: deliveries that answer a parked action, by the action they answer
_ANSWERS = {"data": "fetch", "wb_ack": "writeback_home", "upd_done": "propagate_write"}


class PublishModel(_HookModel):
    """Abstract machine for tables whose home is always current:
    self-invalidation (``sync_model="barrier"``) and immediate update
    propagation (``sync_model="immediate"``).

    The requester runs the table's generated hooks over
    :class:`_EpochRequester`; the home is written here.  It serves
    fetches and adopts write-backs, or adopts updates and pushes each to
    every other copy (``apply``), answering the writer once all have
    applied it.  The two families differ only in where a write is
    *published*, which makes its version the region's read floor and
    frees the region for the next writer: at the barrier's release
    (one writer per region per epoch), or when the write's end hook
    returns (writes serialized per region).  The state
    (:class:`_HookModel`) ends with ``(writer, floor, epoch)``::

        copies[n][r] = (state, version)
        writer[r]    = the node whose write is unpublished (or -1)
        floor[r]     = the version last published
    """

    #: the state a home's copy is installed in (as the shipped protocols do)
    home_state = "home"
    FLOOR = (8, "published")

    def __init__(self, table: ProtocolTable, scope: Scope):
        self.barrier = table.sync_model == "barrier"
        self.family = "barrier" if self.barrier else "update"
        super().__init__(table, scope, _EpochRequester(table.name, _Wire(scope.nodes), table.base_state))
        if self.barrier and "barrier" not in self.hooks:
            raise ModelCheckError(f"{table.name}: the barrier model needs barrier rows")

    def _initial_tail(self):
        return ((-1,) * self.scope.regions, (0,) * self.scope.regions, 0)

    def _publish(self, s, regions):
        *head, writer, floor, epoch = s
        writer, floor, latest = list(writer), list(floor), s[4]
        for r in regions:
            writer[r], floor[r] = -1, latest[r]
        return (*head, tuple(writer), tuple(floor), epoch)

    def _ended(self, s, event, r):
        return self._publish(s, (r,)) if event == "end_write" and not self.barrier else s

    def _idle_moves(self, s, n):
        if not s[2][n]:
            return [self._enter_barrier(s, n)] if self.barrier and s[9] < self.scope.epochs else []
        out, writer = [], s[7]
        when = f" e{s[9]}" if self.barrier else ""
        for r in range(self.scope.regions):
            out.append(self._begin(s, n, r, "r", when))
            if writer[r] in (-1, n):  # no other node's write to r is unpublished
                label, nxt = self._begin(s, n, r, "w", when)
                out.append((label, _set(nxt, 7, _set(writer, r, n))))
        return out

    def _enter_barrier(self, s, n):
        label = f"node{n}: barrier e{s[9]}"
        s, parked = self._step(s, n, None, self._run, "barrier")
        open_ = _set(s[1], n, None if parked is None else ("barrier", None, parked))
        s = _set(s, 1, open_)
        if all(o is not None and o[0] == "barrier" for o in open_):
            # the last one in: every parked barrier hook resumes past its
            # rendezvous into the next epoch, which publishes ``latest``
            epoch = s[9] + 1
            t = self.target
            t.ops, t.refill = list(s[2]), self.scope.ops if epoch < self.scope.epochs else 0
            s = _set(self._publish(s, range(self.scope.regions)), 9, epoch)
            for m in range(self.scope.nodes):
                s = self._resume(s, m, None, "rendezvous", None)
            s = _set(s, 2, tuple(t.ops))
            label += " (released)"
        return (label, s)

    def _deliver(self, s, i):
        net = s[5]
        mtype, src, dst, r, payload, tag = net[i]
        s = _set(s, 5, net[:i] + net[i + 1 :])
        label = f"deliver {mtype} {src}->{dst} r{r}"
        if mtype in _ANSWERS:
            return (label, self._resume(s, dst, r, _ANSWERS[mtype], payload))
        if mtype == "fetch":  # the home serves its current version
            sent = [("data", dst, src, r, s[3][r], tag)]
        elif mtype == "wb":  # the home adopts the write and acks it
            s = _set(s, 3, _set(s[3], r, payload))
            sent = [("wb_ack", dst, src, r, _NO_PAYLOAD, "")]
        elif mtype in ("upd", "apply"):  # a copy installs the pushed version
            s = _set(s, 0, _set2(s[0], dst, r, (s[0][dst][r][0], payload)))
            if mtype == "apply":
                sent = [("apply_ack", dst, src, r, _NO_PAYLOAD, "")]
            else:  # the home's is canonical storage; it pushes the write on
                s = _set(s, 3, _set(s[3], r, payload))
                sent = self.wire.push(self.regions[r], src, payload) or [
                    ("upd_done", dst, src, r, _NO_PAYLOAD, "")]
        elif mtype == "apply_ack":
            # writes are serialized, so the region's fan-out is complete
            # when none of its pushes or acks is still in flight
            if any(m[3] == r and m[0] in ("apply", "apply_ack") for m in s[5]):
                return (label, s)
            writer = s[7][r]
            if writer == dst:  # the home's own write, pushed in place
                return (label, self._resume(s, dst, r, "propagate_write", None))
            sent = [("upd_done", dst, writer, r, _NO_PAYLOAD, "")]
        else:
            raise ModelCheckError(f"{self.table.name}: unroutable message {mtype!r}")
        return (label, _set(s, 5, tuple(sorted(s[5] + tuple(sent)))))


# ----------------------------------------------------------------------
# tuple helpers (states are immutable; these rebuild one slot)
# ----------------------------------------------------------------------
def _set(tup, i, value):
    return tup[:i] + (value,) + tup[i + 1 :]


def _set2(tup, i, j, value):
    return _set(tup, i, _set(tup[i], j, value))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def model_for(table: ProtocolTable, scope: Scope):
    """Pick the family model the table's metadata declares."""
    if table.writer_model == "copy" and table.sync_model == "access":
        return InvalidationModel(table, scope)
    if (table.sync_model, table.writer_model) == ("barrier", "epoch") or table.sync_model == "immediate":
        return PublishModel(table, scope)
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


#: (label, row key, change) for :func:`seeded_mutations`:
#: ``drop`` removes an action (and its specialised forms), the rest is
#: handed to :meth:`~repro.spec.table.ProtocolTable.mutate`
_MUTATIONS = (
    # a recall ack without the dirty writeback: the home serves the next
    # request from stale canonical data
    ("invalidate-ack-drops-writeback", ("node", "excl", "invalidate", None), {"drop": "writeback"}),
    # an invalidated dirty copy stays readable after ownership moved
    ("invalidate-keeps-copy-readable", ("node", "excl", "invalidate", None), {"next": "shared"}),
    # a read hit on the dirty copy opens no use: a recall applies under it
    ("read-hit-uncounted", ("node", "excl", "start_read", None), {"drop": "hit", "recalls": True}),
    # a remote read's end releases nothing: later recalls wait forever
    ("end-read-unreleased", ("node", WILDCARD, "end_read", None), {"drop": "release", "recalls": True}),
    # a write granted over remote copies
    ("write-grant-skips-recall", ("home", "idle", "write_req", "copies_elsewhere"), {"guard": "owned_elsewhere"}),
    # the home writes in place over remote sharers' copies
    ("home-write-skips-sharers", ("node", "home", "start_write", "home_sole"), {"guard": "home_idle"}),
    # barrier family: the home never learns of the write, or stale
    # copies survive the epoch boundary
    ("write-back-dropped", ("node", WILDCARD, "end_write", None), {"drop": "writeback_home", "msg": None}),
    ("self-invalidate-dropped", ("node", WILDCARD, "barrier", None), {"drop": "self_invalidate"}),
    # update family: the write commits locally but is never pushed, with
    # the row's message dropped too or kept
    ("update-propagation-dropped", ("node", WILDCARD, "end_write", None), {"drop": "propagate_write", "msg": None}),
    ("update-action-dropped", ("node", WILDCARD, "end_write", None), {"drop": "propagate_write"}),
)


def seeded_mutations(table: ProtocolTable) -> list[tuple[str, ProtocolTable]]:
    """Deliberately broken variants of a table (:data:`_MUTATIONS`).

    Used by ``repro modelcheck --seeded`` and the test suite to
    prove the checker has teeth: each mutation is type-well-formed
    (tables re-validate on construction) but semantically wrong, and
    the checker must refute every one of them.  A mutation applies
    where its row exists (and runs the action it drops); the
    ``recalls`` ones only to tables with recall rows.
    """
    recalls = any(a.startswith("recall_") for t in table.rows("home") for a in t.actions)
    out = []
    for label, key, change in _MUTATIONS:
        change = dict(change)
        if change.pop("recalls", False) and not recalls:
            continue
        try:
            k = table.find_row(*key)
        except TableError:
            continue
        if "drop" in change:
            row, drop = table.transitions[k], change.pop("drop")
            if not row.runs(drop):
                continue
            change["actions"] = tuple(a for a in row.actions if a != drop and not a.startswith(drop + "_"))
        out.append((label, table.mutate(k, **change)))
    return out
