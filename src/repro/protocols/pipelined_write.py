"""Pipelined-write protocol: buffered delta writes drained at barriers (Water).

"In Water, we improve performance by pipelining writes to a molecule
during the inter-molecular calculation phase" (§5.2).  During that
phase many processors *accumulate* forces into the same molecule; the
SC default would bounce ownership of each molecule region between
writers.  Instead:

* ``start_write`` snapshots the local copy;
* ``end_write`` computes the write's *delta*, fires it at the home in
  a single one-way message, and immediately continues — writes from
  different molecules pipeline into the network;
* the home **combines** deltas into the canonical data (addition is
  commutative, so ordering does not matter — the assertion this
  protocol rests on);
* the ``barrier`` hook first waits for all of this node's outstanding
  deltas to be acknowledged (the Split-C-style split-phase completion
  check of §2.1), then enters the global rendezvous, and finally
  advances the local *phase* so the next read of a remote molecule
  refetches fresh data.

Reads revalidate once per phase: the first ``start_read`` of a region
after a barrier refetches it; later reads in the phase are local.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.sim import Future
from repro.spec import ProtocolTable, Transition

PIPELINED_WRITE_TABLE = ProtocolTable(
    name="PipelinedWrite",
    description="delta writes pipelined to home; drained at barriers",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "start_read",
            guard="phase_stale_home",
            cost=4,
            actions=("home_refresh",),
            note="home rereads canonical data once per phase",
        ),
        Transition(
            "node",
            "*",
            "start_read",
            guard="phase_stale_remote",
            cost=4,
            actions=("refetch",),
            msg="refetch",
        ),
        Transition("node", "*", "start_write", cost=6, actions=("open_write",)),
        Transition(
            "node",
            "*",
            "end_write",
            cost=12,
            actions=("close_write",),
            msg="delta",
        ),
        Transition(
            "node",
            "*",
            "barrier",
            actions=("drain", "rendezvous", "advance_phase"),
        ),
        Transition("home", "idle", "delta", actions=("merge_delta",), msg="delta_ack"),
    ),
    costs={"snapshot": 6, "delta": 12, "refetch_check": 4},
    optimizable=True,
    null_hooks=frozenset({"end_read"}),
    sync_model="barrier",
    writer_model="none",
)


@default_registry.register
class PipelinedWriteProtocol(CachedTableProtocol):
    """Accumulating pipelined writes; per-phase read revalidation."""

    table = PIPELINED_WRITE_TABLE

    ALIAS_HOME = False  # home works on a private copy; deltas merge into truth
    SNAPSHOT_COST = PIPELINED_WRITE_TABLE.cost("snapshot")
    DELTA_COST = PIPELINED_WRITE_TABLE.cost("delta")

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._phase = [0] * self.transport.n_procs
        self._outstanding = [0] * self.transport.n_procs
        self._drain_futs: list[Future | None] = [None] * self.transport.n_procs
        # A delta merged twice, or an ack counted twice, corrupts the sum
        # or the drain: both are heard once.  ``delta_ack`` is this
        # protocol's own message, so the port's receipts are ``*_heard``.
        port = self.port
        self._h_refetch = port.idempotent(self._on_refetch)  # a copy of home data
        self._h_delta = port.hears(self._on_delta, "proto.PipelinedWrite.delta_heard")
        self._h_delta_ack = port.hears(self._on_delta_ack, "proto.PipelinedWrite.delta_ack_heard")

    # -- guards (table-referenced) ----------------------------------------
    def g_phase_stale_home(self, nid: int, handle) -> bool:
        return handle.region.home == nid and handle.phase != self._phase[nid]

    def g_phase_stale_remote(self, nid: int, handle) -> bool:
        return handle.region.home != nid and handle.phase != self._phase[nid]

    # -- reads: revalidate once per phase ---------------------------------
    def act_home_refresh(self, nid: int, handle):
        handle.data[...] = handle.region.home_data
        handle.phase = self._phase[nid]

    def act_refetch(self, nid: int, handle):
        yield from super().act_refetch(nid, handle)
        handle.phase = self._phase[nid]
        self._count("refetch")

    def _after_fetch(self, nid: int, copy, extra) -> None:
        copy.phase = self._phase[nid]

    # -- writes: snapshot, delta, pipeline ----------------------------------
    def act_open_write(self, nid: int, handle):
        """Snapshot on the outermost start_write only.

        Write sections may nest or overlap (the compiler's hoisting and
        merging passes create exactly that — this protocol is registered
        *optimizable*, so it must tolerate it): a depth counter keeps a
        single snapshot per outermost section.
        """
        depth = handle.wdepth
        handle.wdepth = depth + 1
        if depth > 0:
            return
        # Make sure the copy we diff against is phase-fresh (start_read
        # handles both the home fast path and the remote refetch).
        if handle.phase != self._phase[nid]:
            yield from self.start_read(nid, handle)
        handle.snapshot = handle.data.copy()

    def act_close_write(self, nid: int, handle):
        depth = handle.wdepth - 1
        handle.wdepth = max(depth, 0)
        if depth > 0:
            return
        snapshot, handle.snapshot = handle.snapshot, None
        if snapshot is None:
            snapshot = np.zeros_like(handle.data)
        delta = handle.data - snapshot
        region = handle.region
        self._outstanding[nid] += 1
        self._count("delta")
        if nid == region.home:
            region.home_data += delta
            self._ack(nid)
        else:
            yield from self.port.send(
                nid,
                region.home,
                self._h_delta,
                region.rid,
                delta,
                nid,
                payload_words=region.size,
                category="proto.PipelinedWrite.delta",
            )

    def _on_delta(self, node, src, rid, delta, writer):
        region = self.regions.get(rid)
        region.home_data += delta
        self._post(
            node.nid,
            writer,
            self._h_delta_ack,
            writer,
            payload_words=1,
            category="proto.PipelinedWrite.delta_ack",
        )

    def _on_delta_ack(self, node, src, writer):
        self._ack(writer)

    def _ack(self, nid: int) -> None:
        self._outstanding[nid] -= 1
        if self._outstanding[nid] == 0 and self._drain_futs[nid] is not None:
            fut = self._drain_futs[nid]
            self._drain_futs[nid] = None
            fut.resolve(None)

    # -- synchronization -------------------------------------------------------
    def act_drain(self, nid: int):
        yield from self._drain(nid)

    def act_advance_phase(self, nid: int):
        self._phase[nid] += 1
        # Home copies must pick up deltas merged by other writers.
        for copy in self._copies[nid].values():
            if copy.region.home == nid:
                copy.data[...] = copy.region.home_data

    def _drain(self, nid: int):
        if self._outstanding[nid] > 0:
            fut = Future(name=f"pw:drain@{nid}")
            self._drain_futs[nid] = fut
            yield fut

    def flush_node(self, nid: int):
        """Drain deltas then drop caches so home data is the single truth."""
        yield from self._drain(nid)
        yield from self.runtime.rendezvous(nid)
        self._copies[nid] = {
            rid: c for rid, c in self._copies[nid].items() if c.region.home == nid
        }
