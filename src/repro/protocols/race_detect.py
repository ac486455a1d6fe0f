"""Data-race detection as a coherence protocol (§2.1).

The paper cites Larus et al.'s LCM data-race checking protocol as the
kind of customization that *requires* full access control: its actions
"can be executed either before or after accesses" and at
synchronization points.  This protocol implements that idea for Ace:

* between two barriers (an *epoch*), every node records which regions
  it read and wrote;
* at the barrier, each node ships its access summary (plus written
  data) to each touched region's home;
* the home crosses the summaries: two writers, or a writer plus a
  foreign reader, in the same epoch is a data race, recorded in the
  space's protocol-private data (§4.1's per-space pointer);
* homes then push fresh values to the epoch's readers, so a race-free
  program computes exactly what it would under static update.

The race report is available as ``protocol.races`` — a sorted list of
``(epoch, rid, readers, writers)`` tuples — and via
:meth:`AceRuntime.space_protocol` lookups in tests and tools.

Every hook is live instrumentation, so the table registers no null
hooks and the protocol is non-optimizable: the rows ARE the recording
discipline (note the barrier row's five-step epoch-close pipeline).
"""

from __future__ import annotations

from repro.dsm.transport import Acks
from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.sim import Delay, Future
from repro.spec import ProtocolTable, Transition

RACE_DETECT_TABLE = ProtocolTable(
    name="RaceDetect",
    description="records readers/writers per barrier epoch; reports conflicts",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "start_read",
            guard="epoch_stale_remote",
            cost=4,
            actions=("refetch", "mark_epoch", "touch_read"),
            msg="refetch",
        ),
        Transition("node", "*", "start_read", actions=("mark_epoch", "touch_read")),
        Transition("node", "*", "end_read", cost=2),
        Transition("node", "*", "start_write", actions=("mark_epoch", "touch_write")),
        Transition("node", "*", "end_write", cost=2),
        Transition(
            "node",
            "*",
            "barrier",
            actions=("ship_summaries", "rendezvous", "close_races", "rendezvous", "advance_epoch"),
            msg="summary",
        ),
    ),
    costs={"record": 6, "end_op": 2, "refetch_check": 4},
    optimizable=False,  # hooks are the instrumentation: must all run
    null_hooks=frozenset(),
    sync_model="barrier",
    writer_model="none",
)


@default_registry.register
class RaceDetectProtocol(CachedTableProtocol):
    """Epoch-based happens-before race checker with update semantics."""

    table = RACE_DETECT_TABLE

    RECORD_COST = RACE_DETECT_TABLE.cost("record")
    SUMMARY_WORDS = 4

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        n = self.transport.n_procs
        # Dynamic sanitizer, if the runtime carries one: protocol-level
        # race verdicts are folded into its unified report.
        self._checker = getattr(runtime, "checker", None)
        # per node: rid -> {"r": bool, "w": bool}
        self._touched: list[dict] = [dict() for _ in range(n)]
        # home-side per-epoch aggregation: (rid, epoch) -> {"readers": set, "writers": set}
        self._agg: dict = {}
        #: confirmed races: (epoch, rid, readers, writers)
        self.races: list = []
        self._d_record = Delay(self.RECORD_COST)
        # A summary counted twice would open the barrier early, and a
        # delayed duplicate of an old push must not overwrite a newer one.
        port = self.port
        self._h_refetch = port.idempotent(self._on_refetch)  # a copy of home data
        self._h_summary = port.hears(self._on_summary, "proto.RaceDetect.summary_ack")
        self._h_push = port.answers(self._on_push, "proto.RaceDetect.push_ack", "_on_push_ack")

    # -- guards / instrumentation actions ---------------------------------
    def g_epoch_stale_remote(self, nid: int, handle) -> bool:
        return handle.epoch != self._epoch[nid] and handle.region.home != nid

    def _touch(self, nid: int, handle, kind: str):
        yield self._d_record
        rec = self._touched[nid].setdefault(handle.region.rid, {"r": False, "w": False})
        rec[kind] = True

    def act_mark_epoch(self, nid: int, handle):
        handle.epoch = self._epoch[nid]

    def act_touch_read(self, nid: int, handle):
        yield from self._touch(nid, handle, "r")

    def act_touch_write(self, nid: int, handle):
        yield from self._touch(nid, handle, "w")

    # -- epoch close (the barrier row's action pipeline) ------------------
    def act_ship_summaries(self, nid: int):
        epoch = self._epoch[nid]
        touched = self._touched[nid]
        self._touched[nid] = {}
        heard = Acks(done=Future(name=f"rd:summary@{nid}"))  # one answer per region, from its home
        heard.waiting.extend(touched)
        if not touched:
            heard.done.resolve(None)
        for rid, rec in sorted(touched.items()):
            region = self.regions.get(rid)
            data = handle_data = None
            payload = self.SUMMARY_WORDS
            if rec["w"]:
                copy = self._copies[nid].get(rid)
                if copy is not None:
                    handle_data = copy.data.copy()
                    payload += region.size
            if nid == region.home:
                self._on_summary(
                    self.transport.nodes[nid], nid, rid, epoch, rec["r"], rec["w"], handle_data, heard
                )
            else:
                self._post(
                    nid,
                    region.home,
                    self._h_summary,
                    rid,
                    epoch,
                    rec["r"],
                    rec["w"],
                    handle_data,
                    heard,
                    payload_words=payload,
                    category="proto.RaceDetect.summary",
                )
        yield heard.done

    def act_close_races(self, nid: int):
        """Homes: detect races, push updates for regions written this epoch."""
        yield from self._close_epoch(nid, self._epoch[nid])

    def _on_summary(self, node, src, rid, epoch, read, wrote, data, heard):
        agg = self._agg.setdefault((rid, epoch), {"readers": set(), "writers": set()})
        if read:
            agg["readers"].add(src)
        if wrote:
            agg["writers"].add(src)
            if data is not None:
                self.regions.get(rid).home_data[...] = data
        heard.answer(rid)

    def _close_epoch(self, nid: int, epoch: int):
        pushes = []
        closed = []
        for (rid, ep), agg in sorted(self._agg.items()):
            if ep != epoch:
                continue
            region = self.regions.get(rid)
            if region.home != nid:
                continue
            closed.append((rid, ep))
            readers = agg["readers"]
            writers = agg["writers"]
            if len(writers) > 1 or (writers and (readers - writers)):
                self.races.append(
                    (epoch, rid, tuple(sorted(readers)), tuple(sorted(writers)))
                )
                self._count("race")
                if self._checker is not None:
                    self._checker.adopt_protocol_race(epoch, rid, readers, writers)
            if writers:
                targets = sorted((readers | writers) - {nid})
                if targets:
                    pushes.append((region, targets))
        for key in closed:
            del self._agg[key]
        if not pushes:
            return
        acks = Acks(done=Future(name=f"rd:push@{nid}"))
        for region, targets in pushes:
            self._send_push(nid, targets, region, region.home_data.copy(), acks)
        yield acks.done
