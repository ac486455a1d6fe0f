"""Dynamic access validator: the sanitizer's run-time side.

Opt-in (``run_spmd(..., check=True)``) epoch race detection over the
annotation stream the runtime already sees.  Each node carries a
vector clock advanced at synchronization points (space barriers, lock
transfer); every START_READ/START_WRITE is an *access event* checked
against the region's last writer and concurrent readers with the
classic FastTrack epoch test — a recorded event ``(owner, c)``
happens-before node ``n`` iff ``c <= vc[n][owner]``.  Two accesses to
the same region with no happens-before edge, at least one a write, is
a data race: exactly the §5 discipline the annotations are supposed to
make impossible, so any report here is an application (or protocol)
bug, not a tuning hint.

Also checked:

* **use-after-UNMAP** — an access on a region the node has unmapped
  more times than it mapped (the handle may still *work*, because the
  region cache retains data, which is what makes this bug silent);
* **protocol-observed races** — when the active protocol is
  ``RaceDetect``, its own epoch reports are adopted into this
  checker's ledger so one report covers both detectors.

Zero-cost when off: only ``check=True`` builds the
:class:`~repro.sanitize.checked.CheckedRuntime` that calls in here; an
unchecked run executes the plain :class:`~repro.core.runtime.AceRuntime`
(``repro bench --gate`` holds cycle equality).  The wrapper adds
bookkeeping but no :class:`~repro.sim.Delay`, so even a *checked* run
reports the same simulated cycle count — only wall time pays.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RaceRecord:
    """One detected race: ``kind`` is ``ww``/``rw``/``wr``/``protocol``."""

    kind: str
    rid: int
    nodes: tuple
    detail: str

    def __str__(self) -> str:
        who = ",".join(str(n) for n in self.nodes)
        return f"region {self.rid}: [{self.kind}-race] nodes {who}: {self.detail}"


@dataclass(frozen=True)
class AccessViolation:
    """A non-race discipline violation observed at run time."""

    kind: str
    rid: int
    node: int
    detail: str

    def __str__(self) -> str:
        return f"region {self.rid}: [{self.kind}] node {self.node}: {self.detail}"


class DynamicChecker:
    """Vector-clock race and mapping-discipline checker for one run.

    The checked runtime calls in at annotation points; nothing here
    yields or charges cycles, so a checked run's simulated clock matches
    the unchecked run exactly.

    Parameters
    ----------
    n_procs:
        Node count (one vector-clock component per node).
    obs:
        Optional layer tracer (``Tracer.tracer("sanitize")``); races are
        emitted as ``sanitize.race`` events so they land in the same
        causal timeline as the protocol traffic that produced them.
    sim:
        Optional simulator, used only to timestamp emitted events.
    """

    def __init__(self, n_procs: int, obs=None, sim=None):
        self.n_procs = n_procs
        self._obs = obs
        self._sim = sim
        self.vc = [[0] * n_procs for _ in range(n_procs)]
        for i in range(n_procs):
            self.vc[i][i] = 1
        self._sync_vc: dict = {}           # lock rid / ("barrier", round) -> released clock
        self._round = [0] * n_procs        # per node: the barrier round it is in
        self._last_write: dict = {}        # rid -> (node, clock)
        self._readers: dict = {}           # rid -> {node: clock}
        self._maps: dict = {}              # (nid, rid) -> live map count
        self._seen: set = set()            # dedupe key set
        self.races: list = []
        self.violations: list = []
        self.sync_rounds = 0
        self.accesses_checked = 0

    # -- synchronization ------------------------------------------------
    # One happens-before edge for locks and barriers alike: a release
    # joins the node's clock into the sync object's and ticks the node; an
    # acquire joins the sync object's clock into the node's.  A barrier
    # round is a sync object every node releases on the way in and
    # acquires on the way out, so no arrival is counted — a round a dead
    # node never reaches still orders the survivors.
    def _release(self, nid: int, key) -> None:
        own = self.vc[nid]
        clock = self._sync_vc.get(key, own)
        self._sync_vc[key] = [max(a, b) for a, b in zip(clock, own)]
        own[nid] += 1

    def _acquire(self, nid: int, key) -> None:
        clock = self._sync_vc.get(key)
        if clock is not None:
            self.vc[nid] = [max(a, b) for a, b in zip(self.vc[nid], clock)]

    def barrier_release(self, nid: int) -> None:
        """Called as the node enters a barrier: publish its clock on the round."""
        self._release(nid, ("barrier", self._round[nid]))

    def barrier_acquire(self, nid: int) -> None:
        """Called once the barrier returns: join every arrival's clock."""
        k = self._round[nid]
        self._acquire(nid, ("barrier", k))
        self._round[nid] = k + 1
        self.sync_rounds = max(self.sync_rounds, k + 1)

    def lock_released(self, nid: int, rid: int) -> None:
        """Called as the node releases: publish its clock on the lock."""
        self._release(nid, rid)

    def lock_acquired(self, nid: int, rid: int) -> None:
        """Called once the lock is held: join the last releaser's clock."""
        self._acquire(nid, rid)

    # -- mapping discipline ---------------------------------------------
    def map_acquired(self, nid: int, rid: int) -> None:
        key = (nid, rid)
        self._maps[key] = self._maps.get(key, 0) + 1

    def unmapped(self, nid: int, rid: int) -> None:
        key = (nid, rid)
        self._maps[key] = self._maps.get(key, 0) - 1

    def unmapped_use(self, nid: int, rid: int, where: str = "access") -> None:
        """Record a use of an unmapped region (called for the runtime's
        map count and for an SC engine copy whose own ``maps`` is 0)."""
        self._violation(
            "use-after-unmap", rid, nid,
            f"{where} on region {rid} after its last ACE_UNMAP on node {nid}",
        )

    # -- access events ---------------------------------------------------
    def access(self, nid: int, rid: int, write: bool) -> None:
        """Check one START event against the region's history."""
        self.accesses_checked += 1
        if self._maps.get((nid, rid), 1) <= 0:
            kind = "START_WRITE" if write else "START_READ"
            self.unmapped_use(nid, rid, where=kind)
        own = self.vc[nid]
        lw = self._last_write.get(rid)
        if lw is not None:
            w_node, w_clock = lw
            if w_node != nid and w_clock > own[w_node]:
                kind = "ww" if write else "wr"
                what = "writes" if write else "write then read"
                self._race(kind, rid, (w_node, nid),
                           f"concurrent {what} with no ordering sync")
        if write:
            readers = self._readers.get(rid)
            if readers:
                for r_node, r_clock in readers.items():
                    if r_node != nid and r_clock > own[r_node]:
                        self._race("rw", rid, (r_node, nid),
                                   "read and write with no ordering sync")
            self._last_write[rid] = (nid, own[nid])
            self._readers[rid] = {}
        else:
            self._readers.setdefault(rid, {})[nid] = own[nid]

    # -- protocol integration ---------------------------------------------
    def adopt_protocol_race(self, epoch: int, rid: int, readers, writers) -> None:
        """Fold a :class:`RaceDetectProtocol` epoch report into the ledger."""
        nodes = tuple(sorted(set(readers) | set(writers)))
        self._race(
            "protocol", rid, nodes,
            f"RaceDetect epoch {epoch}: readers {sorted(readers)} "
            f"writers {sorted(writers)}",
        )

    # -- recording --------------------------------------------------------
    def _race(self, kind: str, rid: int, nodes, detail: str) -> None:
        nodes = tuple(sorted(nodes))
        key = (kind, rid, nodes)
        if key in self._seen:
            return
        self._seen.add(key)
        rec = RaceRecord(kind, rid, nodes, detail)
        self.races.append(rec)
        self._emit("sanitize.race", nodes[-1], kind, rid, nodes)

    def _violation(self, kind: str, rid: int, nid: int, detail: str) -> None:
        key = (kind, rid, nid)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(AccessViolation(kind, rid, nid, detail))
        self._emit("sanitize.violation", nid, kind, rid)

    def _emit(self, event: str, nid: int, *payload) -> None:
        if self._obs is not None:
            now = self._sim.now if self._sim is not None else 0
            self._obs.emit(now, event, nid, -1, *payload)

    # -- reporting --------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.races and not self.violations

    def report(self) -> list:
        """All findings, races first, each ``str()``-renderable."""
        return list(self.races) + list(self.violations)

    def summary(self) -> str:
        lines = [
            f"dynamic sanitizer: {self.accesses_checked} accesses checked, "
            f"{self.sync_rounds} sync rounds, {len(self.races)} race(s), "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(f"  {r}" for r in self.report())
        return "\n".join(lines)
