"""Region-based software-DSM machinery shared by CRL and Ace.

The paper's two systems — the CRL baseline and Ace's default
sequentially-consistent protocol — run the *same family* of home-based
MSI invalidation protocols; they differ in per-operation software costs
(mapping technique, dispatch path) and engineering detail (§5.1: "a
careful redesign of the sequential consistency protocol and a more
efficient mapping technique").  This package provides the coherence
core once, parameterized by a :class:`~repro.dsm.costs.DSMCosts`
table, so both systems exercise identical coherence logic and their
measured difference is exactly the modeled software overhead — the
paper's own explanation of Figure 7a.

The core is layered (DESIGN.md §8): :class:`~repro.dsm.transport.Transport`
(message fabric), :class:`~repro.dsm.directory.DirectoryService`
(home-side state), :class:`~repro.dsm.regioncache.RegionCache`
(node-side copies), and :class:`~repro.dsm.hooks.ProtocolHooks`
(requester-side access hooks), composed by
:class:`~repro.dsm.coherence.CoherenceEngine`.
"""

from repro.dsm.costs import DSMCosts, ACE_SC_COSTS, CRL_COSTS
from repro.dsm.errors import ProtocolError
from repro.dsm.transport import Transport, as_transport
from repro.dsm.faults import (
    FaultPlan,
    FaultTransport,
    LinkFaults,
    OneShot,
    RetryPolicy,
    StallError,
    StallReport,
)
from repro.dsm.msi import HW_SC_TABLE, MSI_TABLE
from repro.dsm.recovery import Crashed, RecoveryManager
from repro.dsm.directory import DirEntry, DirectoryService
from repro.dsm.regioncache import RegionCache
from repro.dsm.hooks import ProtocolHooks
from repro.dsm.coherence import CoherenceEngine
from repro.dsm.locks import LockService
from repro.dsm.barrier import BarrierService

__all__ = [
    "ACE_SC_COSTS",
    "BarrierService",
    "CRL_COSTS",
    "CoherenceEngine",
    "Crashed",
    "DSMCosts",
    "DirEntry",
    "DirectoryService",
    "FaultPlan",
    "FaultTransport",
    "HW_SC_TABLE",
    "LinkFaults",
    "LockService",
    "MSI_TABLE",
    "OneShot",
    "ProtocolError",
    "ProtocolHooks",
    "RecoveryManager",
    "RegionCache",
    "RetryPolicy",
    "StallError",
    "StallReport",
    "Transport",
    "as_transport",
]
