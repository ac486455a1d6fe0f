"""The Ace protocol library.

Each module implements one coherence protocol against the *full access
control* interface of §2.1/§3.2: hooks before and after reads and
writes, and at synchronization points (barrier/lock/unlock), plus
lifecycle hooks (space initialization and flush-to-base-state for
``Ace_ChangeProtocol``).

Protocols are registered declaratively (:mod:`repro.protocols.registry`),
mirroring the paper's Tcl registration script (Figure 1): a protocol
declares its name, which hooks are null, and whether its semantics
permit compiler optimization.  The registry doubles as the "system
configuration file" the Ace compiler reads.

Shipped protocols
-----------------
==================  =====================================================
``SC``              default sequentially-consistent MSI invalidation
``Null``            no coherence actions (phase-local data assertion)
``DynamicUpdate``   writes propagated to all sharers after each write
``StaticUpdate``    sharer lists built at first map; homes push at barriers
``Migratory``       data migrates to the accessing node (extension, §2.4)
``HomeWrite``       only the home writes; readers revalidate by version
``Counter``         home-serialized fetch-op region (TSP's job counter)
``PipelinedWrite``  buffered delta writes drained/verified at barriers
``RaceDetect``      Larus-style per-epoch data-race checking (§2.1)
``HwSC``            SC with hardware access-fault control (§6, Typhoon)
``BufferedUpdate``  any-writer batched updates, assembled from §6's blocks
``SelfInvalidate``  barrier self-invalidation with write self-downgrade
``Owned``           MOESI-style owned state; dirty owners supply readers
==================  =====================================================

The §6 protocol building blocks of the cached-copy protocols live in
:mod:`repro.protocols.caching`: :class:`~repro.protocols.caching.CachedCopyProtocol`
holds the fetch and refetch handlers, the acked push (one sender over
the port's ``fan_out`` + :class:`~repro.dsm.transport.Acks`, so it
survives a lossy fabric, and one receiver), the epoch counter and the
one-writer-per-epoch check; :class:`~repro.protocols.caching.UpdateProtocol`
adds the update tables' sharer record and home update.
"""

from repro.protocols.base import Handle, Protocol, ProtocolSpec
from repro.protocols.registry import ProtocolRegistry, default_registry

# Import for registration side effects into the default registry.
from repro.protocols import (  # noqa: E402  (order matters: registry first)
    sc_invalidate,
    null_protocol,
    dynamic_update,
    static_update,
    migratory,
    home_write,
    counter,
    pipelined_write,
    race_detect,
    hw_assisted,
    buffered_update,
    self_invalidate,
    owned,
)

__all__ = [
    "Handle",
    "Protocol",
    "ProtocolRegistry",
    "ProtocolSpec",
    "default_registry",
    "sc_invalidate",
    "null_protocol",
    "dynamic_update",
    "static_update",
    "migratory",
    "home_write",
    "counter",
    "pipelined_write",
    "race_detect",
    "hw_assisted",
    "buffered_update",
    "self_invalidate",
    "owned",
]
