"""The invalidation family's home side: one table-driven machine, three wires.

:class:`HomeMachine` is the atomic, handler-context half of every
invalidation protocol's directory, written once against
:class:`DirEntry` slots and compiled from a
:class:`~repro.spec.table.ProtocolTable`'s home rows:

* **admission** — the ``read_req``/``write_req`` rows, first match wins,
  each guarded by one of the five home guards defined here
  (:data:`HOME_GUARDS`): enqueue FIFO, grant, recall (``recall_<mode>``)
  or forward to the owner (``forward_read``);
* **completion** — the ``inval_ack`` rows collect a recall's answers and
  serve the stalled request, the ``grant_ack`` rows close a grant or
  forward window (recording a forwarded reader as a sharer), and each
  drains the queue;
* **flush** — ``accept_flush`` for ``Ace_ChangeProtocol``.

Every send, and every read or write of region data, goes through the
machine's *wire*.  Three exist:

* :class:`DirectoryService` — the coherence engine's (SC, HwSC, CRL):
  ``<prefix>.*`` categories, :class:`~repro.dsm.costs.DSMCosts`
  payloads, and in-place grants to the home's own requests;
* :class:`~repro.protocols.owned.OwnedProtocol` — ``proto.Owned.*``
  categories, tagged replies, answered grant acks;
* the abstract wire of :mod:`repro.verify.modelcheck` — versions
  instead of data and a sorted multiset network.

Directory state is addressed by ``(shard, region)``: entries live in
``n_shards`` independent tables selected by ``rid % n_shards``.  With
the default single shard this is one flat directory; the shard axis is
the seam along which the directory can later be split across nodes.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro.dsm.costs import DSMCosts
from repro.dsm.errors import ProtocolError
from repro.dsm.msi import MSI_TABLE
from repro.dsm.transport import Acks, Transport
from repro.machine.stats import intern_key
from repro.memory import RegionDirectory
from repro.spec.emit import CodeFile
from repro.spec.table import KEEP, TableError


class DirEntry:
    """Home-side directory state for one region."""

    __slots__ = (
        "region",
        "owner",
        "sharers",
        "home_readers",
        "home_writing",
        "busy",
        "queue",
        "pending",
        "grantee",
    )

    def __init__(self, region):
        self.region = region
        self.owner: int | None = None
        self.sharers: set[int] = set()
        self.home_readers = 0
        self.home_writing = False
        self.busy = False
        self.queue: deque = deque()
        #: the recall or forward the busy window waits on:
        #: ``{"kind", "src", "fut"}`` plus ``"acks"`` (a recall) or
        #: ``"remote"`` (a forward); ``"orphan"`` once its requester died
        self.pending: dict | None = None
        #: Node a grant is in flight to while ``busy`` (who we are
        #: waiting on for the grant-ack) — lets the recovery manager
        #: clear a window whose grantee died.
        self.grantee: int | None = None


# ----------------------------------------------------------------------
# the five home guards, defined once: expressions over the entry ``ent``,
# the requester ``src`` and the region's ``home``
# ----------------------------------------------------------------------
HOME_GUARDS = {
    # the home task holds an open write; remote reads wait
    "home_writing": "ent.home_writing and src != home",
    # the home task has open accesses; remote writes wait
    "home_open": "(ent.home_writing or ent.home_readers > 0) and src != home",
    # another node holds the dirty copy
    "owned_elsewhere": "ent.owner is not None and ent.owner != src",
    # another node holds any copy
    "copies_elsewhere": "ent.owner is not None and ent.owner != src"
    " or len(ent.sharers) > 1 or (bool(ent.sharers) and src not in ent.sharers)",
    # the recall in flight has targets still to answer
    "acks_remaining": "bool(ent.pending['acks'].waiting)",
}

_ENQUEUE, _GRANT, _RECALL, _FORWARD = "enqueue", "grant", "recall", "forward"


#: every generated ``first`` is a line range of this pseudo-file (a
#: profiler files it under ``dsm.directory``)
_CODE = CodeFile("<generated>/repro/dsm/directory.py")


def _first_row(table, state: str, event: str):
    """The home rows for ``(state, event)``, and ``first(ent, src, home)``:
    the index of the first whose guard holds (``len(rows)`` for none).

    ``first`` is generated with the guards inline, so a dispatch costs
    one call however many guarded rows precede the match."""
    rows = table.lookup("home", state, event)
    code = ["def _make():", f"  def first(ent, src, home):  # {table.name} home rows {state}/{event}"]
    for i, t in enumerate(rows):
        if t.guard is None:
            code.append(f"    return {i}")
            break
        if t.guard not in HOME_GUARDS:
            raise TableError(f"{table.name}: unknown home guard {t.guard!r}")
        code += [f"    if {HOME_GUARDS[t.guard]}:  # {t.guard}", f"      return {i}"]
    else:
        code.append(f"    return {len(rows)}")
    code += ["  return first", ""]
    return rows, _CODE.factory("\n".join(code))()


def _compile_request(table, event: str, state: str) -> tuple:
    """One home state's ``event`` rows: ``(first, ((op, mode, busy_after), ...))``,
    one action per row plus a trailing enqueue for no match."""
    rows, first = _first_row(table, state, event)
    out = []
    for t in rows:
        op, mode = _ENQUEUE, None
        for a in t.actions:
            if a.startswith("recall_"):
                op, mode = _RECALL, a[len("recall_"):]
                if not table.rows("node", mode):
                    raise TableError(f"{table.name}: recall mode {mode!r} has no node rows")
            elif a == "forward_read":
                op = _FORWARD
            elif a in ("grant_shared", "grant_excl"):
                op = _GRANT
            elif a != "enqueue":
                raise TableError(f"{table.name}: unknown home action {a!r} for {event!r}")
        busy = (state if t.next == KEEP else t.next) == "busy"
        out.append((op, mode, busy))
    return first, tuple(out) + ((_ENQUEUE, None, False),)


class HomeMachine:
    """The home side of one invalidation table, sending through ``wire``.

    Methods take the region's entry, so a caller may run them on
    entries it keeps itself (:mod:`repro.verify.modelcheck` thaws one
    per step); :meth:`entry` is the store the shipped wires use.
    """

    #: Crash-recovery manager (see :meth:`join_recovery`): with one, a
    #: recall ack that outlived its recall is counted, not fatal.
    _recovery = None
    #: Requests a home must grant remote-style although it sent them
    #: itself: re-homing can leave a survivor's *remote* miss addressed to
    #: itself (retargeted, or queued at the dead home and re-admitted),
    #: its requester suspended in the remote-miss epilogue — a home-style
    #: grant would open home_readers/home_writing that no continuation
    #: ever closes, wedging the entry.  Such a request crossed the wire
    #: and is unanswered (``wire_calls``, the port's view), or was called
    #: in place and marked by its wire (``remote_self``).  Immutable empty
    #: defaults: without recovery the probes are constant-false.
    wire_calls = remote_self = frozenset()

    def __init__(self, table, wire, regions=None, n_shards: int = 1, prefix: str = ""):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.wire = wire
        self.prefix = prefix  # its wire's category prefix, named in stall reports
        self.regions = regions
        self.n_shards = n_shards
        self._shards: tuple[dict[int, DirEntry], ...] = tuple({} for _ in range(n_shards))
        kinds = (("read", "read_req"), ("write", "write_req"))
        self._idle = {kind: _compile_request(table, ev, "idle") for kind, ev in kinds}
        self._busy = {kind: _compile_request(table, ev, "busy") for kind, ev in kinds}
        # serve_pending: a recalled request is served by its grant row
        self._grant_busy = {
            kind: next((busy for op, _, busy in self._idle[kind][1] if op is _GRANT), True)
            for kind, _ in kinds
        }
        # the inval_ack rows: which of them serve the recalled request
        rows, self._first_ack = _first_row(table, "busy", "inval_ack")
        self._ack_serves = tuple("serve_pending" in t.actions for t in rows) + (False,)
        # Recall modes after which the target still holds a readable
        # copy leave it a sharer (downgrade, in MSI terms).
        read_hit = {t.state for t in table.rows("node", "start_read") if t.runs("hit") and not t.guard}
        modes = {mode for _, rows in self._idle.values() for op, mode, _ in rows if op is _RECALL}
        self._sharer_modes = frozenset(
            m for m in modes if any(s in read_hit for s in table.next_map("node", m).values())
        )

    def join_recovery(self, manager, port) -> None:
        """Arm crash recovery: tolerate stray acks, grant re-homed
        self-requests remote-style."""
        self._recovery = manager
        self.wire_calls = port.open_calls
        self.remote_self = set()

    # ------------------------------------------------------------------
    # entry addressing: (shard, region)
    # ------------------------------------------------------------------
    def shard_of(self, rid: int) -> int:
        """Which shard holds ``rid``'s entry."""
        return rid % self.n_shards

    def entry(self, rid: int) -> DirEntry:
        """Get-or-create the directory entry for ``rid``."""
        shard = self._shards[rid % self.n_shards]  # shard_of, inlined
        ent = shard.get(rid)
        if ent is None:
            ent = shard[rid] = DirEntry(self.regions.get(rid))
        return ent

    def entry_at(self, shard: int, rid: int) -> DirEntry | None:
        """Introspection: the entry for ``rid`` in ``shard``, if present."""
        return self._shards[shard].get(rid)

    def entries(self):
        """Every ``(rid, entry)``, shard by shard in creation order."""
        for shard in self._shards:
            yield from shard.items()

    # ------------------------------------------------------------------
    # the home alias's own accesses: the guards and actions of its node
    # rows, as effects the requester side's hooks splice
    # ------------------------------------------------------------------
    #: over ``nid``, ``handle`` and the names :meth:`bind_alias` gives; the
    #: alias copy caches its entry (``RegionCopy.ent``, created once per
    #: region).  A hit row opens with its guard: no admission interleaves.
    ALIAS_EFFECTS = {
        # the home may read in place: no remote owner, no window open
        "g_home_idle": "(ent := handle.ent or P._alias_entry(handle)).owner is None and not ent.busy",
        # the home may write in place: no remote copy, no window open
        "g_home_sole": "(ent := handle.ent or P._alias_entry(handle)).owner is None"
        " and not ent.sharers and not ent.busy",
        "act_open_home_read": "(handle.ent or P._alias_entry(handle)).home_readers += 1",
        "act_open_home_write": "(handle.ent or P._alias_entry(handle)).home_writing = True",
        "act_close_home_read": """\
ent = handle.ent or P._alias_entry(handle)
ent.home_readers -= 1
if not ent.home_readers and ent.queue:
  P._alias_drain(ent)""",
        "act_close_home_write": """\
if not handle.writes:  # else a nested write is still open
  ent = handle.ent or P._alias_entry(handle)
  ent.home_writing = False
  if ent.queue:
    P._alias_drain(ent)""",
    }

    def bind_alias(self, target) -> dict:
        """Give ``target``, whose table hooks are compiled next, the names
        :data:`ALIAS_EFFECTS` read; returns those effects."""
        target._alias_entry, target._alias_drain = self._alias_entry, self.drain
        return self.ALIAS_EFFECTS

    def _alias_entry(self, handle) -> DirEntry:
        ent = handle.ent = self.entry(handle.region.rid)
        return ent

    # ------------------------------------------------------------------
    # admission (read_req / write_req rows)
    # ------------------------------------------------------------------
    def _on_read_req(self, node, src, fut, rid):
        self.request(self.entry(rid), "read", src, fut)

    def _on_write_req(self, node, src, fut, rid):
        self.request(self.entry(rid), "write", src, fut)

    def request(self, ent: DirEntry, kind: str, src: int, fut, queued=False) -> bool:
        """Run the first matching row for a ``"read"``/``"write"`` request.

        False means the rows hold it back: it joins the FIFO queue,
        unless it is the queue's head already (``queued``)."""
        region = ent.region
        home = region.home
        first, actions = (self._busy if ent.busy else self._idle)[kind]
        op, mode, busy = actions[first(ent, src, home)]
        if op is _GRANT:
            self._grant(region, ent, kind, src, fut, busy)
        elif op is _RECALL:
            self._recall(region, ent, kind, src, fut, mode, busy)
        elif op is _FORWARD:
            ent.busy = busy
            remote = src == home and (fut in self.wire_calls or fut in self.remote_self)
            ent.pending = {"kind": "fwd", "src": src, "fut": fut, "remote": remote}
            self.wire.forward(region, ent.owner, src, fut)
        else:
            if not queued:
                ent.queue.append((kind, src, fut))
            return False
        return True

    def _grant(self, region, ent: DirEntry, kind: str, src: int, fut, busy: bool) -> None:
        wire = self.wire
        if src == region.home and fut not in self.wire_calls and fut not in self.remote_self:
            # The home's own access: no copy to install, no busy window.
            if kind == "read":
                ent.home_readers += 1
            else:
                ent.home_writing = True
                # A re-homed node can be listed as a sharer of its own
                # region; its write makes the alias the only copy.
                ent.sharers.discard(src)
            wire.grant(region, src, fut, kind, "grant")
            return
        # The entry stays busy until the grantee acknowledges install:
        # otherwise a queued write's invalidation could overtake the
        # grant data in the network (grant-in-flight race).
        ent.busy = busy
        ent.grantee = src
        if kind == "read":
            ent.sharers.add(src)
            wire.grant(region, src, fut, kind, "data")
            return
        # An upgrading sharer — or an owner upgrading from an owned
        # state — keeps its data; home data would be a stale write base.
        how = "upgrade" if src == ent.owner or src in ent.sharers else "data"
        ent.sharers.discard(src)
        ent.owner = src
        wire.grant(region, src, fut, kind, how)

    def _recall(self, region, ent: DirEntry, kind, src, fut, mode: str, busy: bool) -> None:
        owner = ent.owner
        targets = [owner] if owner is not None and owner != src else []
        if kind == "write":
            targets.extend(s for s in sorted(ent.sharers) if s != src and s != owner)
        ent.busy = busy
        acks = Acks(partial(self.on_inval_ack, ent, mode))
        ent.pending = {"kind": kind, "src": src, "fut": fut, "acks": acks}
        self.wire.recall(region, targets, mode, acks)

    # ------------------------------------------------------------------
    # completion (inval_ack / grant_ack rows)
    # ------------------------------------------------------------------
    def on_inval_ack(self, ent: DirEntry, mode: str, target: int, data) -> None:
        """One recall target answered (``data``: its writeback, or None)."""
        region = ent.region
        pending = ent.pending
        if pending is None:
            # Only after a death: the manager canceled the recall when its
            # home died, so every surviving ack is structurally stray.
            if self._recovery is None:  # pragma: no cover - acks only while pending
                raise ProtocolError(f"stray invalidation ack for region {region.rid}")
            self._recovery.count("stray_ack")
            return
        if data is not None:
            self.wire.adopt(region, data)
        if ent.owner == target:
            ent.owner = None
        ent.sharers.discard(target)
        if mode in self._sharer_modes and target != region.home:
            # The home is a recall target only after re-homing; its
            # recalled copy reverts to the home alias, never a sharer.
            ent.sharers.add(target)
        if not self._ack_serves[self._first_ack(ent, target, region.home)]:
            return  # a collect-only row: acks remain
        ent.busy = False
        ent.pending = None
        kind = pending["kind"]
        if not pending.get("orphan"):  # recovery marks a dead requester's recall
            self._grant(region, ent, kind, pending["src"], pending["fut"], self._grant_busy[kind])
        if ent.queue:
            self.drain(ent)

    def on_grant_ack(self, ent: DirEntry, src: int) -> None:
        """A grantee installed its copy; a forwarded reader is recorded."""
        if not ent.busy:
            return
        pending = ent.pending
        # Only the party the window waits on may close it: a grant window
        # its grantee, a forward its reader.  Crash recovery can tear down
        # a window whose grantee survives; that grantee's late ack must not
        # close the window opened since (nor cut into a recall).
        if pending is None:
            waits_on = ent.grantee
        elif pending["kind"] == "fwd":
            waits_on = pending["src"]
        else:
            return
        if src != waits_on:
            return
        if pending is not None:  # record_sharer
            if src == ent.region.home and not pending["remote"]:
                ent.home_readers += 1  # the home's own forwarded read opened
            else:
                ent.sharers.add(src)
            ent.pending = None
        ent.busy = False
        ent.grantee = None
        if ent.queue:
            self.drain(ent)

    def on_fwd_miss(self, ent: DirEntry, requester: int, fut) -> None:
        """The owner a read was forwarded to had no copy to supply (it
        flushed first): re-admit the read, unless its window is gone."""
        pending = ent.pending
        if pending is None or pending["kind"] != "fwd" or pending["fut"] is not fut:
            return  # torn down (e.g. crash recovery rebuilt the entry)
        ent.pending = None
        ent.busy = False
        self.request(ent, "read", requester, fut)
        self.drain(ent)

    def drain(self, ent: DirEntry) -> None:
        """Admit queued requests in FIFO order until one must wait."""
        while ent.queue and not ent.busy:
            kind, src, fut = ent.queue[0]
            if not self.request(ent, kind, src, fut, queued=True):
                break
            ent.queue.popleft()

    # ------------------------------------------------------------------
    # flush (change-protocol path)
    # ------------------------------------------------------------------
    def on_flush(self, ent: DirEntry, src: int, data) -> None:
        """``src`` dropped its copy; ``data`` is its writeback, if dirty."""
        if data is not None and (
            not self.wire.flush_keeps_copy or ent.owner == src or src in ent.sharers
        ):
            # A flusher that keeps its copy until the ack is still listed
            # unless a recall crossed the flush — and that recall's ack
            # already carried this snapshot (and may have been granted
            # onward since), so the late payload would clobber newer data.
            self.wire.adopt(ent.region, data)
        if ent.owner == src:
            ent.owner = None
        ent.sharers.discard(src)

    # ------------------------------------------------------------------
    # introspection (liveness watchdog / StallReport)
    # ------------------------------------------------------------------
    def dump_state(self) -> list:
        """Non-quiescent directory entries, as JSON-friendly dicts.

        An entry is interesting to a stall report when it is busy, has
        queued requests, or is mid-recall or mid-forward — idle entries
        (the vast majority) are omitted.  A recall reports the acks it
        awaits; a forward, its reader and whether that read is remote.
        """
        out = []
        for rid, ent in self.entries():
            pending = ent.pending
            if not (ent.busy or ent.queue or pending is not None):
                continue
            if pending is not None:
                if pending["kind"] == "fwd":  # waits on its reader's grant ack
                    waits = {"remote": pending["remote"]}
                else:  # waits on its recall's acks
                    waits = {"awaiting_acks": len(pending["acks"].waiting)}
                pending = {"kind": pending["kind"], "src": pending["src"], **waits}
            out.append(
                {
                    "prefix": self.prefix,
                    "rid": rid,
                    "home": ent.region.home,
                    "busy": ent.busy,
                    "owner": ent.owner,
                    "grantee": ent.grantee,
                    "sharers": sorted(ent.sharers),
                    "home_readers": ent.home_readers,
                    "home_writing": ent.home_writing,
                    "queued": [(kind, src) for kind, src, _ in ent.queue],
                    "pending": pending,
                }
            )
        return out


class DirectoryService(HomeMachine):
    """The coherence engine's home: its port, its handlers, and its wire.

    Runs in handler context, sends through its
    :class:`~repro.dsm.transport.Port`, and reaches the node side only
    through the invalidation handler bound by :meth:`wire_cache`.
    """

    #: The engine's flush keeps the copy's state until the home acks it.
    flush_keeps_copy = True

    def __init__(
        self,
        transport: Transport,
        regions: RegionDirectory,
        costs: DSMCosts,
        prefix: str = "dsm",
        n_shards: int = 1,
        table=None,
    ):
        super().__init__(table if table is not None else MSI_TABLE, self, regions, n_shards, prefix)
        self.transport = transport
        self.costs = costs
        # Stat keys and message categories are interned once here so the
        # handlers never build an f-string (see machine.stats).
        self._counts = transport.stats.counter_ref()
        self._k_recall = intern_key(prefix, "recall")
        self._cat_map_reply = intern_key(prefix, "map_reply")
        self._cat_data = {kind: intern_key(prefix, kind + "_data") for kind in ("read", "write")}
        self._cat_upgrade_ack = intern_key(prefix, "upgrade_ack")
        self._cat_inval = intern_key(prefix, "inval")
        self._cat_flush_ack = intern_key(prefix, "flush_ack")
        # The fabric, through the reliability seam (DESIGN.md §9): on an
        # exactly-once transport these are its own bound methods and the
        # wire handlers below are the plain bound methods — stable
        # objects, so sends fetch an attribute instead of materializing a
        # bound method per call and the machine's handler-stat cache
        # hits on identity.
        port = self.port = transport.port(prefix)
        self._reply = port.reply
        self._fan_out = port.fan_out
        # A request whose home died is retargeted to the region's new home.
        self._h_map_lookup = port.idempotent(self._on_map_lookup, on_dead="retarget")  # a metadata read
        # A re-run request would be admitted (queued, granted) twice.
        self._h_read_req = port.serves(self._on_read_req, on_dead="retarget")
        self._h_write_req = port.serves(self._on_write_req, on_dead="retarget")
        # A retried flush must never re-execute: the home may have granted
        # ownership onward, and the stale writeback would clobber it.
        self._h_flush = port.serves(self._on_flush, on_dead="retarget")
        # A re-run grant ack could close a newer window; to a dead home it
        # is abandoned (the rebuild resets the window it would have closed).
        self._h_grant_ack = port.hears(self._on_grant_ack, intern_key(prefix, "grant_ack_ack"))
        # Node-side invalidation handler; see wire_cache.
        self._h_inval_req = None
        port.watch(self)

    def wire_cache(self, cache) -> None:
        """Bind the node-side invalidation handler recalls fan out to; its
        answer (the writeback, when dirty) comes back as an ``inval_ack``.
        A dead target is answered on its behalf, so the recall completes."""
        self._h_inval_req = self.port.answers(
            cache._on_inval_req, intern_key(self.prefix, "inval_ack"), "_on_inval_ack", on_dead="answer"
        )

    # ------------------------------------------------------------------
    # wire handlers (atomic handler context)
    # ------------------------------------------------------------------
    def _on_map_lookup(self, node, src, fut, rid):
        """CRL-style cold map: the region's metadata."""
        region = self.regions.get(rid)
        self._reply(
            fut, region.size, payload_words=self.costs.meta_words, category=self._cat_map_reply
        )

    def _on_grant_ack(self, node, src, rid):
        self.on_grant_ack(self.entry(rid), src)

    def _on_flush(self, node, src, fut, rid, data):
        self.on_flush(self.entry(rid), src, data)
        self._reply(fut, None, payload_words=1, category=self._cat_flush_ack)

    # ------------------------------------------------------------------
    # the engine's wire
    # ------------------------------------------------------------------
    def grant(self, region, src: int, fut, kind: str, how: str) -> None:
        if how == "grant":
            fut.resolve(None)  # the home's miss called the handler in place
        elif how == "upgrade":  # the requester's shared data is current
            self._reply(fut, None, payload_words=1, category=self._cat_upgrade_ack)
        else:
            data = region.home_data.copy()
            self._reply(fut, data, payload_words=region.size, category=self._cat_data[kind])

    def recall(self, region, targets, mode: str, acks) -> None:
        self._counts[self._k_recall] += 1
        self._fan_out(
            region.home,
            targets,
            self._h_inval_req,
            region.rid,
            mode,
            acks=acks,
            payload_words=self.costs.meta_words,
            category=self._cat_inval,
        )

    @staticmethod
    def adopt(region, data) -> None:
        region.home_data[...] = data
