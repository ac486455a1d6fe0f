"""The null protocol: no coherence actions at all.

Used when the programmer can assert a phase touches only data that
needs no coherence — the paper's Water uses it for the intra-molecular
phase, where every processor reads and writes only its own molecules
(§2.2, §5.2).  Remote *reads* are permitted and served by a one-time
snapshot fetch at map time; remote *writes* violate the protocol's
assertion and raise, which is exactly the kind of error the paper's
"theoretical framework of correctness" discussion (§6) is about
catching.

All access hooks are null, so the compiler's direct-dispatch pass
deletes every START/END call on data in a null space.  The table below
is correspondingly tiny: one guarded ``start_write`` row enforcing the
home-writer assertion.
"""

from __future__ import annotations

from repro.protocols.base import ProtocolMisuse, ProtocolSpec
from repro.protocols.caching import CachedTableProtocol
from repro.protocols.registry import default_registry
from repro.spec import ProtocolTable, Transition

NULL_TABLE = ProtocolTable(
    name="Null",
    description="no coherence actions; remote writes are protocol misuse",
    node_states=("invalid", "valid", "home"),
    home_states=("idle",),
    base_state="invalid",
    transitions=(
        Transition(
            "node",
            "*",
            "start_write",
            guard="remote",
            actions=("reject_remote_write",),
            note="phase-local assertion: only the home may write",
        ),
    ),
    optimizable=True,
    null_hooks=frozenset({"start_read", "end_read", "end_write"}),
    home_writer=True,
    sync_model="access",
    writer_model="home",
)


@default_registry.register
class NullProtocol(CachedTableProtocol):
    """No coherence: local data stays local; remote reads get a snapshot."""

    table = NULL_TABLE
    spec = ProtocolSpec.from_table(NULL_TABLE)

    def g_remote(self, nid: int, handle) -> bool:
        return handle.region.home != nid

    def act_reject_remote_write(self, nid: int, handle):
        raise ProtocolMisuse(
            f"Null protocol: node {nid} wrote region {handle.region.rid} "
            f"homed at {handle.region.home}; the null protocol asserts "
            "writes are home-local"
        )
