"""The default protocol: sequentially-consistent MSI invalidation.

This is what every space runs until the programmer opts into something
else (§3.1: "the default space ... provides a sequentially consistent
invalidation-based protocol").  It delegates to the shared
:class:`~repro.dsm.coherence.CoherenceEngine` instantiated with the Ace
cost table — the "careful redesign of the sequential consistency
protocol" of §5.1.

Registered as **not optimizable**: sequential consistency forbids the
compiler from moving or merging accesses (§4.2, citing Midkiff &
Padua), so only direct-dispatch may touch SC calls — and none of its
hooks are null.

The protocol's state machine is :data:`~repro.dsm.msi.MSI_TABLE` — the
same artifact the model checker verifies, and the one the engine is
built from: its home and recall rows run in the shared invalidation
machines, and its access rows are the engine's four hooks, generated by
the one emitter that compiles every
:class:`~repro.protocols.base.TableProtocol`'s, with the engine's
:class:`~repro.dsm.costs.DSMCosts` as entry charges.  The class binds
those generated hooks directly, so declaring it here costs nothing on
the access path.
"""

from __future__ import annotations

from repro.dsm.msi import MSI_TABLE
from repro.protocols.base import Protocol, ProtocolSpec
from repro.protocols.registry import default_registry


@default_registry.register
class SCProtocol(Protocol):
    """Sequentially consistent invalidation protocol (the Ace default)."""

    table = MSI_TABLE
    spec = ProtocolSpec.from_table(MSI_TABLE)

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self._bind_engine(runtime.sc_engine)

    def _bind_engine(self, engine) -> None:
        """Bind the data-management hooks straight to ``engine``.

        Every hook here is a pure passthrough, so the protocol object
        exposes the engine generators as instance attributes instead of
        wrapper generators: ``yield from protocol.start_read(...)``
        drives the engine frame directly, and each resume of a blocked
        access traverses one generator frame fewer.  ``map`` alone adds
        this space, which the engine stamps on the handle it returns (a
        plain function, not a generator: it still takes a ``lead``).
        Subclasses with their own engine (:class:`HwAssistedSCProtocol`)
        re-bind.
        """
        self._engine = engine
        self.create = engine.create
        space, engine_map = self.space, engine.map
        self.map = lambda nid, rid, lead=0: engine_map(nid, rid, lead, space)
        self.unmap = engine.unmap
        self.start_read = engine.start_read
        self.end_read = engine.end_read
        self.start_write = engine.start_write
        self.end_write = engine.end_write

    @property
    def engine(self):
        return self._engine

    def flush_node(self, nid: int):
        """Flush every cached member region home (§3.1's change semantics)."""
        for rid in self.space.regions:
            yield from self._engine.flush(nid, rid)
