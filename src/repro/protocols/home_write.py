"""Home-write protocol: only a region's creator writes it (BSC, §5.2).

"For BSC, we take advantage of the fact that data are written only by
the processors that created them."  With a single known writer there
is nothing to invalidate and no ownership to move: the home writes
locally and bumps a version number; readers cache whole regions and
revalidate with a metadata round trip instead of participating in an
invalidation protocol.

The paper found the improvement marginal because the default protocol
already bulk-transfers whole regions (user-specified granularity) —
the only savings are the removed ownership/invalidation messages.
This implementation reproduces exactly that balance: reads trade SC's
invalidation fan-out for cheap version checks.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import ProtocolMisuse, ProtocolSpec
from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.spec import ProtocolTable, Transition

HOME_WRITE_TABLE = ProtocolTable(
    name="HomeWrite",
    description="only the home writes; readers bulk-fetch and version-check",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "start_read",
            guard="remote",
            cost=10,
            actions=("revalidate",),
            msg="check",
        ),
        Transition(
            "node",
            "*",
            "start_write",
            guard="remote",
            actions=("reject_remote_write",),
            note="creators own their data; remote writes are misuse",
        ),
        Transition(
            "node",
            "*",
            "end_write",
            cost=4,
            actions=("bump_version",),
        ),
    ),
    costs={"check": 10, "end_write": 4},
    optimizable=True,
    null_hooks=frozenset({"end_read"}),
    home_writer=True,
    sync_model="access",
    writer_model="home",
)


@default_registry.register
class HomeWriteProtocol(CachedTableProtocol):
    """Single-writer-at-home; readers revalidate cached copies by version."""

    table = HOME_WRITE_TABLE
    spec = ProtocolSpec.from_table(HOME_WRITE_TABLE)

    CHECK_COST = HOME_WRITE_TABLE.cost("check")

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._versions: dict[int, int] = {}
        self._h_check = self.port.idempotent(self._on_check)  # a version compare and a copy
        self.port.watch(("proto.HomeWrite.check",))

    def _fetch_extra(self, rid: int, src: int):
        return self._versions.get(rid, 0)

    def _after_fetch(self, nid: int, copy, extra) -> None:
        copy.version = extra

    # -- guards / actions (table-referenced) ------------------------------
    def g_remote(self, nid: int, handle) -> bool:
        return handle.region.home != nid

    def act_reject_remote_write(self, nid: int, handle):
        raise ProtocolMisuse(
            f"HomeWrite: node {nid} wrote region {handle.region.rid} homed at "
            f"{handle.region.home}; this protocol asserts creators own their data"
        )

    def act_bump_version(self, nid: int, handle):
        rid = handle.region.rid
        self._versions[rid] = self._versions.get(rid, 0) + 1

    def act_revalidate(self, nid: int, handle):
        """Version round trip; refetch the whole region when stale."""
        region = handle.region
        current = yield from self._rpc(
            nid,
            region.home,
            self._h_check,
            region.rid,
            handle.version,
            payload_words=2,
            category="proto.HomeWrite.check",
        )
        if current is not None:
            version, data = current
            np.copyto(handle.data, data)
            handle.version = version
            handle.state = "valid"
            self._count("refetch")
        else:
            self._count("revalidate_hit")

    # -- home side (handler context) -------------------------------------
    def _on_check(self, node, src, fut, rid, reader_version):
        version = self._versions.get(rid, 0)
        if version == reader_version:
            self._reply(fut, None, payload_words=1, category="proto.HomeWrite.ok")
        else:
            region = self.regions.get(rid)
            self._reply(
                fut,
                (version, region.home_data.copy()),
                payload_words=region.size,
                category="proto.HomeWrite.data",
            )
