"""Crash recovery: failure detection, epoch fencing, and directory re-homing.

PR 4's chaos fabric models crash-stop faults, but the only response the
stack had was a :class:`~repro.dsm.faults.StallReport` after retry
exhaustion — hundreds of thousands of cycles after the crash, and the
run still dies.  This module turns a crash into a *handled event*
(DESIGN.md §15):

:class:`FailureDetector`
    Leases riding the ordinary :class:`~repro.dsm.transport.Transport`
    surface.  Every message the fault fabric accepts renews its
    sender's lease; a live node posts a small heartbeat to every peer
    only at an ``HB_INTERVAL`` tick since whose predecessor nothing else
    left it.  Heartbeats go through the fabric like any other traffic
    (charged real cycles, droppable by the plan's rates, and silently
    discarded once their sender's crash cycle passes — which is exactly
    the detection signal).  A node unheard-from for its seeded,
    per-node suspicion timeout is declared dead.
:class:`RecoveryManager`
    Owns cluster membership.  On a death declaration it either raises
    a prompt, suspect-attributed :class:`~repro.dsm.faults.StallError`
    (``on_crash="abort"``) or runs the recovery sequence
    (``on_crash="recover"``): bump the cluster **epoch**, fence the
    fabric against the dead incarnation, retire the dead task,
    **re-home** every region the dead node was home for onto its
    deterministic rank-order successor, sweep the
    :class:`~repro.dsm.faults.RetryKit`'s in-flight calls (retarget /
    fake-ack / abandon per message category), rebuild directory
    entries from the surviving :class:`~repro.dsm.regioncache`
    copies, shrink collective membership (barriers, ack collectors),
    and break locks the dead node held.

Zero-cost-when-off: no object in this module is constructed unless
``run_spmd(..., on_crash=...)`` (or ``FaultTransport(on_crash=...)``)
asks for it, so crash-free runs — and faulted runs without a recovery
mode — execute exactly the code they always did, cycle for cycle.

Modeling notes
--------------
* **Membership is a global oracle.**  Heartbeats are charged to the
  fabric, but suspicion state is centralized (one ``last_heard`` per
  node, fed by every accepted send) rather than replicated per-node — the
  simulation models the *cost* and *latency* of detection, not a
  consensus protocol.  A node is suspected only when *no* peer has
  heard from it, so random heartbeat drops need a full silent window
  across all links to false-positive.
* **Between crash and declaration the dead task keeps running
  locally.**  The kernel cannot kill a generator mid-yield (see
  :mod:`repro.dsm.faults`); the fabric drops everything the node
  sends, so it blocks within a few operations and is retired at
  declaration with a :class:`Crashed` result.
* **Re-homed state reconstruction is synchronous.**  The successor's
  per-survivor state queries are posted (and charged) as real
  ``recovery.rehome`` messages, but the directory rebuild itself
  happens atomically at declaration — the same convention the rest of
  the simulation uses for handler-context state changes.  Home data
  adoption takes the freshest *writer* copy (a surviving owner's
  dirty data) when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random

import numpy as np

from repro.machine.stats import intern_key
from repro.sim.future import _UNSET, Future


@dataclass(frozen=True)
class Crashed:
    """Per-node result marker for a task retired by the recovery manager."""

    nid: int
    at: int  # cycle the node was *declared* dead (epoch transition)


#: Heartbeat period, in cycles.  Small enough that detection (a few
#: missed heartbeats) beats retry exhaustion by an order of magnitude.
HB_INTERVAL = 2000
#: Base silence, in cycles, before a node is suspected.  Several
#: heartbeat periods: random drops must silence every link from a node
#: for the whole window to false-positive.
SUSPECT_AFTER = 9000
#: Range of the seeded per-node suspicion jitter (breaks symmetric
#: multi-crash declarations into a deterministic order).
SUSPECT_JITTER = 1024
#: Crash-to-declaration contract: a lease cannot postdate its node's
#: crash and the sweep runs every tick (the second interval is slack).
DETECT_WITHIN = SUSPECT_AFTER + SUSPECT_JITTER + 2 * HB_INTERVAL


class RecoveryManager:
    """Cluster membership, epoch fencing, and the recovery sequence.

    Constructed by :class:`~repro.dsm.faults.FaultTransport` when an
    ``on_crash`` mode is requested; services and protocols find it as
    ``transport.recovery`` and register themselves at construction
    (decided once, at construction).
    """

    def __init__(self, transport, mode: str):
        if mode not in ("recover", "abort"):
            raise ValueError(f"unknown on_crash mode {mode!r}; use 'recover' or 'abort'")
        self.transport = transport
        self.mode = mode
        self.sim = transport.sim
        self.n_procs = transport.n_procs
        self.live: set[int] = set(range(self.n_procs))
        #: shared with the fabric, where it is the epoch fence: traffic
        #: from or to a member is discarded at the injection point
        self.dead: set[int] = transport.dead
        self.epoch = 0
        #: per-death event records (chaos artifacts; see summary())
        self.events: list[dict] = []
        self._tasks: list = []
        self._open_tasks = 0
        self._heartbeat = None  # the pending _tick timer while tasks are open
        # Registered participants.
        self._engines: list = []
        self._locks: list = []
        self._protocols: list = []
        self._region_dirs: list = []
        #: category -> ("home", regions) | ("push", None) | ("ack", None)
        #:             | ("custom", method_name)
        self._categories: dict = {}
        # Failure-detector state (filled in start()).
        self._last_heard: dict[int, int] = {}
        self._suspect_after: dict[int, int] = {}
        # Counters / tracing.
        counts = self._counts = transport.stats.counter_ref()
        self._k = {
            name: intern_key("recovery", name)
            for name in (
                "fenced",
                "rehomed_regions",
                "broken_locks",
                "lost_dirty",
                "stray_ack",
                "abandoned",
                "retargeted",
                "fake_acks",
                "epochs",
                "heartbeats",
            )
        }
        del counts  # counter_ref retained via self._counts
        tracer = transport.tracer
        self._obs = tracer.tracer("recovery") if tracer is not None else None
        # Crash-aware hardware barrier: replace the transport's binding
        # *before* any service binds it (services are constructed after
        # the transport, so they pick this up).
        self._bar_arrived: set[int] = set()
        self._bar_gen = 0
        self._bar_fut = Future(name="recovery:hw_barrier:0")
        self._hw_cost = transport.machine.HW_BARRIER_COST
        transport.hw_barrier = self._hw_barrier

    # ------------------------------------------------------------------
    # registration (construction-time, from services and protocols)
    # ------------------------------------------------------------------
    def register_engine(self, engine) -> None:
        """A :class:`~repro.dsm.coherence.CoherenceEngine` joins recovery."""
        self._engines.append(engine)
        self._add_region_dir(engine.regions)
        engine.directory.enable_recovery(self)

    def register_locks(self, service) -> None:
        self._locks.append(service)
        self._add_region_dir(service.regions)
        self.register_home_categories((service._cat_req, service._cat_rel), service.regions)

    def register_protocol(self, proto) -> None:
        self._protocols.append(proto)
        self._add_region_dir(proto.regions)

    def register_home_categories(self, categories, regions) -> None:
        """Calls in these categories target ``regions.get(args[0]).home``:
        on a dead destination they are retargeted to the new home."""
        for cat in categories:
            self._categories[cat] = ("home", regions)

    def register_push_categories(self, categories) -> None:
        """Home-to-peer notifies whose ack feeds a fan-out counter: a dead
        destination is acknowledged on its behalf (fake-ack)."""
        for cat in categories:
            self._categories[cat] = ("push", None)

    def register_ack_categories(self, categories) -> None:
        """Fire-and-forget acknowledgements (grant acks): safe to abandon
        when their destination dies — the rebuild resets the window they
        would have closed."""
        for cat in categories:
            self._categories[cat] = ("ack", None)

    def register_pending_handler(self, category, method_name: str) -> None:
        """Category needing bespoke handling: the manager calls
        ``pend.handler.__self__.<method_name>(self, pend, dead)``."""
        self._categories[category] = ("custom", method_name)

    def _add_region_dir(self, regions) -> None:
        if all(r is not regions for r in self._region_dirs):
            self._region_dirs.append(regions)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a recovery counter (participants report their losses here)."""
        self._counts[self._k[name]] += n

    def count_stray_ack(self) -> None:
        """Tolerant ack collectors report absorbed post-cancel acks here."""
        self._counts[self._k["stray_ack"]] += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, tasks) -> None:
        """Begin heartbeating/sweeping over the spawned node tasks."""
        self._tasks = list(tasks)
        self._open_tasks = len(self._tasks)
        for t in self._tasks:
            t.done.add_callback(self._note_task_done)
        now = self.sim.now
        seed = self.transport.plan.seed
        rng = Random(seed ^ 0x9E3779B9)
        for nid in range(self.n_procs):
            self._last_heard[nid] = now
            self._suspect_after[nid] = SUSPECT_AFTER + rng.randrange(SUSPECT_JITTER)
        if self._open_tasks:
            self._heartbeat = self.sim.timer(HB_INTERVAL, self._tick)

    def _note_task_done(self, fut) -> None:
        self._open_tasks -= 1
        if not self._open_tasks:
            self._heartbeat.cancel()  # nobody left to watch: do not hold the clock

    def _tick(self) -> None:
        now = self.sim.now
        live = sorted(self.live)
        last_heard = self._last_heard
        # Heartbeats: a declared-live node posts a round to every live
        # peer only if the fabric accepted nothing from it since its
        # previous round (stamped one send overhead after that tick).
        # The posts ride the fault fabric — charged, droppable, renewing
        # the lease where any other message does, and silently discarded
        # once the sender's crash cycle passes.
        silent = HB_INTERVAL - self.transport._send_overhead
        post = self.transport.post
        for src in live:
            if now - last_heard[src] < silent:
                continue
            self._counts[self._k["heartbeats"]] += len(live) - 1
            for dst in live:
                if dst != src:
                    post(src, dst, self._on_hb, payload_words=1, category="recovery.hb")
        # Suspicion sweep (deterministic order).
        for nid in live:
            if now - last_heard[nid] > self._suspect_after[nid]:
                if self._obs is not None:
                    self._obs.emit(now, "recovery.suspect", nid, -1, now - last_heard[nid])
                self._declare_dead(nid)
        if self._open_tasks:  # a declaration above may have retired the last one
            self._heartbeat = self.sim.timer(HB_INTERVAL, self._tick)

    def _on_hb(self, node, src) -> None:
        pass  # the fabric renewed the lease when it accepted the message

    # ------------------------------------------------------------------
    # death declaration
    # ------------------------------------------------------------------
    def _declare_dead(self, nid: int) -> None:
        now = self.sim.now
        crash_at = self.transport.plan.crashes.get(nid)
        if self.mode == "abort":
            from repro.dsm.faults import StallError

            silent = now - self._last_heard[nid]
            report = self.transport.watchdog.report(
                f"failure detector: node {nid} silent for {silent} cycles"
                + (f" (crash-stop at cycle {crash_at})" if crash_at is not None else "")
            )
            report.suspects = [nid] + [s for s in report.suspects if s != nid]
            raise StallError(report)
        self._finalize_death(nid, crash_at, now)

    def _finalize_death(self, nid: int, crash_at, now: int) -> None:
        # 1. Epoch bump + fabric fence: post-recovery traffic from/to the
        #    dead incarnation is discarded at the injection point.
        self.epoch += 1
        self.transport.epoch = self.epoch
        self.dead.add(nid)
        self.live.discard(nid)
        self._counts[self._k["epochs"]] += 1
        if self._obs is not None:
            self._obs.emit(now, "recovery.dead", nid, -1, self.epoch, crash_at)
            self._obs.emit(now, "recovery.epoch", -1, -1, self.epoch, tuple(sorted(self.live)))
        # 2. Retire the dead node's task: its done future resolves with a
        #    Crashed marker instead of stalling the run.
        task = self._tasks[nid] if nid < len(self._tasks) else None
        if task is not None:
            self.sim.retire(task, Crashed(nid, now))
        # 3. Directory re-homing: every region homed at the dead node
        #    moves to its deterministic rank-order successor.
        rehomed = self._rehome(nid)
        # 4. In-flight reliable calls touching the dead node: retarget /
        #    fake-ack / abandon by category.  (After re-homing, so
        #    retargets see the new homes; before the entry rebuild, so
        #    fake-acks still find their pending fan-outs.)
        self._sweep_pending(nid)
        # 5. Rebuild directory entries from surviving caches.
        for engine in self._engines:
            self.rebuild(engine.directory, engine.cache, nid, rehomed)
        # 6. Protocol-specific membership shrink / re-issue.
        for proto in self._protocols:
            proto.on_node_dead(nid, self, rehomed)
        # 7. Break locks the dead node held; prune dead waiters.
        broken = 0
        for service in self._locks:
            broken += service.break_dead(nid, self)
        self._check_barrier()
        if self._obs is not None:
            self._obs.emit(self.sim.now, "recovery.complete", nid, -1, self.epoch, len(rehomed))
        self.events.append(
            {
                "nid": nid,
                "crash_at": crash_at,
                "declared_at": now,
                "last_heard": self._last_heard.get(nid),  # the lease that expired
                "epoch": self.epoch,
                "rehomed_regions": len(rehomed),
                "broken_locks": broken,
                "live": sorted(self.live),
            }
        )

    # -- 3: re-homing ----------------------------------------------------
    def successor(self, nid: int) -> int:
        """Deterministic successor: the next live rank after ``nid``, wrapping."""
        if not self.live:
            raise RuntimeError("no live nodes left to re-home onto")
        return min(self.live, key=lambda r: (r - nid) % self.n_procs)

    def _rehome(self, nid: int) -> dict:
        """Reassign ``region.home`` for the dead node's regions; returns
        ``{rid: region}`` for this event.  Charges one query/ack round
        per (region, survivor) pair as real fabric messages."""
        rehomed: dict = {}
        succ = self.successor(nid)
        k = self._k["rehomed_regions"]
        for regions in self._region_dirs:
            for region in regions.all_regions():
                if region.home != nid or region.rid in rehomed:
                    continue
                region.home = succ
                rehomed[region.rid] = region
                self._counts[k] += 1
                if self._obs is not None:
                    self._obs.emit(self.sim.now, "recovery.rehome", succ, -1, region.rid, nid)
                for peer in sorted(self.live):
                    if peer == succ:
                        continue
                    self.transport.post(
                        succ, peer, self._on_rehome_query, peer, region.rid,
                        payload_words=1, category="recovery.rehome",
                    )
        return rehomed

    def _on_rehome_query(self, node, src, peer, rid) -> None:
        # Cost modeling for the successor's state gathering: the peer
        # answers with its copy/dirty state (the actual reconstruction
        # is synchronous; see the module docstring).
        self.transport.post(
            peer, src, self._on_rehome_ack, rid, payload_words=2, category="recovery.rehome"
        )

    def _on_rehome_ack(self, node, src, rid) -> None:
        pass

    # -- 4: pending sweep ------------------------------------------------
    def cancel(self, pend) -> None:
        """Take a call out of the retry table and silence its ack chain."""
        self.transport.kit.settle(pend)
        pend.fut._callbacks = None

    def _sweep_pending(self, dead: int) -> None:
        kit = self.transport.kit
        counts = self._counts
        for pend in sorted(kit.pending.values(), key=lambda p: p.seq):
            if pend.src != dead and pend.dst != dead:
                continue
            kind, extra = self._categories.get(pend.category, (None, None))
            if kind == "custom":
                getattr(pend.handler.__self__, extra)(self, pend, dead)
            elif pend.src == dead or kind not in ("home", "push"):
                # Neutralize.  Either the caller died (nobody waits for
                # this ack anymore, and firing its callbacks against
                # rebuilt state would corrupt it), or this is an "ack" /
                # unregistered call to the dead node, safe to abandon.
                self.cancel(pend)
                counts[self._k["abandoned"]] += 1
            elif kind == "home":
                self.retarget(pend, extra.get(pend.call_args[0]).home)
            else:  # "push"
                # Acknowledge on the dead target's behalf so the fan-out
                # completes; the resolve settles the call and its
                # collector prunes the target.
                counts[self._k["fake_acks"]] += 1
                self.transport._resolve_once(pend.fut, None)

    def retarget(self, pend, new_dst: int) -> None:
        """Re-issue a reliable call at a new destination (same seq, same
        future — the receiver's dedup table keeps effects exactly-once
        even if the old home had already admitted the original)."""
        pend.dst = new_dst
        pend.attempts = 1
        pend.born = self.sim.now
        pend.epoch = self.epoch
        self._counts[self._k["retargeted"]] += 1
        self.transport.kit.transmit(pend)

    def recover_forward(self, home, pend, dead: int) -> None:
        """Sweep a forwarded read in flight between ``home``'s entry and
        the dead node (a ``register_pending_handler`` target's body).

        Home died (``src``): neutralize; the re-homed rebuild re-admits
        the requester at the successor.  Owner died (``dst``): the
        supply will never come — prune the dead owner and re-admit the
        requester, who is granted from home data (the owner's dirty
        copy is lost; fail-stop)."""
        self.cancel(pend)
        rid, requester, fut = pend.call_args
        ent = home.entry(rid)
        cur = ent.pending
        if pend.src == dead or cur is None or cur["kind"] != "fwd" or cur["fut"] is not fut:
            # Or a stale forward: its supply landed and its window closed,
            # only the delivery ack was outstanding; the rebuild prunes.
            self.count("abandoned")
            return
        if ent.owner == dead:
            ent.owner = None
        ent.sharers.discard(dead)
        ent.pending = None
        ent.busy = False
        if requester in self.dead:
            self.count("abandoned")
            home.drain(ent)
            return
        self.count("retargeted")
        home.request(ent, "read", requester, fut)

    # -- 5: directory/cache rebuild --------------------------------------
    def rebuild(self, home, cache, dead: int, rehomed: dict) -> None:
        """Prune ``dead`` from one invalidation machine and rebuild its
        re-homed entries: the engine's (step 5) and Owned's (step 6,
        from its ``on_node_dead``) run this same code.

        ``home`` is a :class:`~repro.dsm.directory.HomeMachine` and
        ``cache`` its :class:`~repro.dsm.regioncache.RecallReceiver`."""
        # The dead node's copies are gone; dirty ones are lost state
        # (fail-stop: the home's data is the surviving authority).
        for copy in cache.tables[dead].values():
            if copy.state in cache.dirty_states:
                self._counts[self._k["lost_dirty"]] += 1
        cache.tables[dead].clear()
        for rid, ent in home.entries():
            # Queued requests from the dead node will never be
            # collected — drop them.
            if ent.queue:
                ent.queue = type(ent.queue)(item for item in ent.queue if item[1] != dead)
            pending = ent.pending
            if pending is not None and pending["src"] == dead:
                if pending["kind"] == "fwd":
                    # A forwarded read for a dead requester: its grant ack
                    # will never come; any late supply hits a dead future.
                    ent.pending = None
                    ent.busy = False
                else:
                    # The requester died mid-recall.  The recall itself is
                    # healthy (its home is alive), so let it run to
                    # completion — the ack collector sees the orphan mark
                    # and skips the final serve.
                    pending["orphan"] = True
            if ent.busy and ent.pending is None and ent.grantee == dead:
                # Grant window whose grantee died before acking.
                ent.busy = False
                ent.grantee = None
            if ent.owner == dead:
                ent.owner = None
            ent.sharers.discard(dead)
            if rid in rehomed:
                self._rebuild_rehomed(home, cache, ent, dead)
            if not ent.busy:
                home.drain(ent)

    def _rebuild_rehomed(self, home, cache, ent, dead: int) -> None:
        """Reconstruct one re-homed entry at the successor.

        Adopt the freshest writer copy, convert the successor's cached
        copy into the home alias, reset the dead home's local-access
        bookkeeping, and re-admit whatever live work was in flight at
        the old home (the requesters' futures are still live; the dedup
        table keeps their eventual replies consistent with retried
        transmissions)."""
        region = ent.region
        succ = region.home
        rid = region.rid
        dirty = cache.dirty_states
        # Freshest-writer adoption: a surviving owner's dirty copy is the
        # authoritative version of the region.  If the owner already
        # applied a recall — its writeback rode an ack the dead home
        # never processed (it would have been pruned as owner) — the
        # writeback log still holds that data.
        if ent.owner is not None:
            ocopy = cache.tables[ent.owner].get(rid)
            if ocopy is not None and ocopy.state in dirty:
                np.copyto(region.home_data, ocopy.data)
            else:
                rec = cache._wb_log.get((ent.owner, rid))
                if rec is not None:
                    np.copyto(region.home_data, rec)
        # The successor's own copy becomes the home alias.
        scopy = cache.tables[succ].get(rid)
        if scopy is None:
            cache.install(succ, region)
        else:
            if scopy.state in dirty:
                np.copyto(region.home_data, scopy.data)
                if ent.owner == succ:
                    ent.owner = None
            scopy.data = region.home_data
            scopy.state = cache.home_state
            ent.sharers.discard(succ)
        # The dead home's own open accesses died with it.
        ent.home_readers = 0
        ent.home_writing = False
        # Live in-flight work at the old home: re-admit.  The old home's
        # recall fan-out (if any) is fully neutralized — its sends had
        # the dead node as source, so the sweep cleared their ack
        # callbacks — which makes outright cancel + re-issue safe here
        # (unlike the live-home orphan case above).  A forward whose
        # supply already landed lost only its grant ack: record the
        # reader.  Requests from the successor itself all crossed the
        # wire, so the home grants them remote-style (see
        # DirectoryService.enable_recovery).
        pending = ent.pending
        readmit = None
        if pending is not None and pending["src"] != dead and not pending.get("orphan"):
            fut = pending["fut"]
            kind = pending["kind"]
            if not fut.resolved:
                readmit = ("read" if kind == "fwd" else kind, pending["src"], fut)
            elif kind == "fwd":
                ent.sharers.add(pending["src"])
        ent.pending = None
        ent.busy = False
        ent.grantee = None
        if readmit is not None:
            home.request(ent, *readmit)

    # ------------------------------------------------------------------
    # crash-aware hardware barrier (replaces machine.hw_barrier)
    # ------------------------------------------------------------------
    def _hw_barrier(self, nid: int):
        """Generator: rendezvous released when every *live* node arrived.

        ``arrived`` may be a superset of ``live`` (a node can arrive and
        then be declared dead); the release rule is
        ``live ⊆ arrived``, re-checked at every arrival and at every
        death declaration, so a crash inside a barrier epoch releases
        the survivors instead of stranding them."""
        if nid in self.dead:
            # A declared-dead task still running host-side: park it (its
            # retirement is imminent or already swept past this frame).
            yield Future(name="recovery:dead_barrier")
            return
        self._bar_arrived.add(nid)
        self.transport.stats.count("barrier.hw_arrive")
        fut = self._bar_fut
        self._check_barrier()
        yield fut

    def _check_barrier(self) -> None:
        if not self._bar_arrived or not self.live <= self._bar_arrived:
            return
        released = self._bar_fut
        self._bar_gen += 1
        self._bar_fut = Future(name=f"recovery:hw_barrier:{self._bar_gen}")
        self._bar_arrived = set()
        self.sim.schedule(self._hw_cost, partial(self._release_barrier, released))

    @staticmethod
    def _release_barrier(released: Future) -> None:
        if released._value is _UNSET and released._exc is None:
            released.resolve(None)

    # ------------------------------------------------------------------
    # introspection (chaos artifacts)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-friendly recovery record for per-cell chaos artifacts."""
        counts = self._counts
        return {
            "mode": self.mode,
            "epoch": self.epoch,
            "live": sorted(self.live),
            "dead": sorted(self.dead),
            "events": list(self.events),
            "counters": {name: counts[key] for name, key in self._k.items() if counts[key]},
        }
