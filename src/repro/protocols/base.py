"""Protocol interface: full access control (§2.1, §3.2).

A protocol supplies generator methods for every point the paper's
interface exposes — before/after read, before/after write, barrier,
lock, unlock — plus data management (create/map/unmap) and lifecycle
(init per node, flush to base state for ``Ace_ChangeProtocol``).

The :class:`ProtocolSpec` is the machine-readable registration record
(Figure 1): hook nullness feeds the compiler's direct-dispatch pass
("if a protocol defines certain actions to be null, then calls to that
protocol action can be removed", §4.2), and ``optimizable`` gates the
loop-invariance and merging passes ("the semantics of certain
protocols ... do not allow code motion").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol, runtime_checkable

import numpy as np

from repro.memory import Region
from repro.sim import Delay
from repro.sim.errors import SimulationError
from repro.sim.kernel import _DELAY_POOL as _POOL, _DELAY_POOL_SIZE as _POOL_SIZE
from repro.spec.emit import CodeFile, table_hooks
from repro.spec.table import ProtocolTable, TableError


class ProtocolMisuse(SimulationError):
    """An application violated the assertions a protocol is built on."""


#: Hook names a spec may declare null, in the order the paper lists them.
HOOK_NAMES = (
    "start_read",
    "end_read",
    "start_write",
    "end_write",
    "barrier",
    "lock",
    "unlock",
)


@dataclass(frozen=True)
class ProtocolSpec:
    """Registration record for one protocol (the Figure 1 script's payload).

    ``hardware=True`` declares that accesses are intercepted by a
    hardware access-control mechanism (Typhoon/FLASH-style, §6): the
    runtime skips its software dispatch charge for such protocols —
    "the actual method of invocation is transparent to the protocol
    designer" (§2.1).
    """

    name: str
    optimizable: bool
    null_hooks: frozenset = field(default_factory=frozenset)
    description: str = ""
    hardware: bool = False
    #: the protocol's write path assumes the writer is the home node
    #: (conformance harnesses pick their writer from this — it is part
    #: of the registration record, not a list tests maintain by hand)
    home_writer: bool = False

    def __post_init__(self):
        unknown = set(self.null_hooks) - set(HOOK_NAMES)
        if unknown:
            raise ValueError(f"unknown hook names in spec {self.name!r}: {sorted(unknown)}")

    def is_null(self, hook: str) -> bool:
        """True if calls to ``hook`` can be removed entirely by the compiler."""
        return hook in self.null_hooks

    def routine_name(self, hook: str) -> str:
        """Derived handler name, e.g. ``Update_StartRead`` (Figure 1)."""
        camel = "".join(part.capitalize() for part in hook.split("_"))
        return f"{self.name}_{camel}"

    @classmethod
    def from_table(cls, table: ProtocolTable) -> "ProtocolSpec":
        """Derive the registration record from a protocol's table.

        The table is the single artifact: optimizability, null hooks,
        the hardware flag, and the write-path constraint all come from
        its metadata, so the registry never needs per-protocol special
        cases and the spec cannot drift from the machine it describes.
        """
        return cls(
            name=table.name,
            optimizable=table.optimizable,
            null_hooks=frozenset(table.null_hooks),
            description=table.description,
            hardware=table.hardware,
            home_writer=table.home_writer,
        )


@runtime_checkable
class Handle(TypingProtocol):
    """What applications get back from ``ACE_MAP``: a view with ``.data``."""

    data: np.ndarray
    region: Region


class Protocol:
    """Base class for protocols: null hooks and common plumbing.

    Subclasses set a class-level ``spec`` and override the hooks they
    need.  All hook methods are generators driven by the owning node's
    task; the base implementations charge nothing and do nothing, so a
    subclass only pays for what it customizes.

    ``map``/``unmap`` and the four access hooks may declare a third
    parameter, ``lead``: the runtime's dispatch cycles, which the hook
    adds to its own first fixed charge (one kernel event per access,
    not two — DESIGN.md §6).  A hook written as plain ``(nid, handle)``
    still works: the runtime then yields its dispatch ``Delay`` itself.

    Parameters
    ----------
    runtime:
        The owning :class:`~repro.core.runtime.AceRuntime` (gives access
        to the machine, the region directory, and shared services).
    space:
        The :class:`~repro.core.space.Space` this instance manages.
        One protocol instance per space — "separate instances of the
        same protocol [may] operate on different data structures" (§2.2).
    """

    spec = ProtocolSpec(name="Abstract", optimizable=False)

    def __init__(self, runtime, space):
        self.runtime = runtime
        self.space = space
        self.machine = runtime.machine
        self.transport = runtime.transport
        self.regions = runtime.regions
        # Pre-computed dispatch flag: the access primitives test it on
        # every shared access, so one attribute probe beats two.
        self.soft = not self.spec.hardware
        # Hot-path counter plumbing: the live Counts mapping plus memoized
        # full key strings, so _count skips the f-string and the stats
        # method call on every protocol event.
        self._counts = runtime.transport.stats.counter_ref()
        self._count_keys: dict = {}
        # Crash recovery, when the fabric carries it (None everywhere
        # else — the Transport class default): the protocol registers
        # its message categories for the manager's in-flight sweep and
        # gets on_node_dead() at each death declaration.
        self._recovery = runtime.transport.recovery
        if self._recovery is not None:
            self._register_recovery(self._recovery)

    # -- identity -------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    def _count(self, event: str, n: int = 1) -> None:
        key = self._count_keys.get(event)
        if key is None:
            key = self._count_keys[event] = f"proto.{self.spec.name}.{event}"
        self._counts[key] += n

    # -- lifecycle (collective) ------------------------------------------
    def init_space(self, nid: int):
        """Per-node initialization when the space adopts this protocol."""
        return
        yield  # pragma: no cover - makes this a generator

    def flush_node(self, nid: int):
        """Push this node's cached state to base (home data current, no
        dirty copies) so a successor protocol can take over (§3.1)."""
        return
        yield  # pragma: no cover - makes this a generator

    # -- data management ---------------------------------------------------
    def create(self, nid: int, size: int):
        """Allocate a region of ``size`` words homed at ``nid``; returns rid."""
        raise NotImplementedError

    def map(self, nid: int, rid: int):
        """Translate a region id to a local handle (may fetch data),
        stamped with ``space`` and its ``generation`` as ``gen``."""
        raise NotImplementedError

    # -- unmap and the access hooks ------------------------------------------
    def _null_hook(self, nid: int, handle, lead: int = 0):
        """A null hook: nothing happens but the caller's ``lead``, as a
        one-``Delay`` tuple (no generator); without one (direct dispatch,
        a hardware protocol) the tuple is empty."""
        return (_POOL[lead] if lead < _POOL_SIZE else Delay(lead),) if lead else ()

    unmap = start_read = end_read = start_write = end_write = _null_hook

    # -- synchronization hooks -----------------------------------------------
    def barrier(self, nid: int):
        """Space barrier: protocol actions plus the global rendezvous."""
        yield from self.runtime.rendezvous(nid)

    def lock(self, nid: int, rid: int):
        yield from self.runtime.locks.acquire(nid, rid)

    def unlock(self, nid: int, rid: int):
        yield from self.runtime.locks.release(nid, rid)

    # -- crash recovery --------------------------------------------------------
    def _register_recovery(self, manager) -> None:
        """Join crash recovery (called at construction when the transport
        carries a :class:`~repro.dsm.recovery.RecoveryManager`).

        Subclasses with their own message protocol override this to
        classify their categories (home/push/ack/custom) for the
        manager's in-flight sweep; the base registration only delivers
        :meth:`on_node_dead`.
        """
        manager.register_protocol(self)

    def on_node_dead(self, dead: int, manager, rehomed: dict) -> None:
        """Membership shrink at a death declaration (plain method, handler
        context): prune the dead node from protocol state and repair
        anything parked on it.  ``rehomed`` maps rid -> region for the
        regions whose home just moved.  Base protocols keep no per-node
        state, so the default is a no-op."""


#: every generated table hook is a line range of this pseudo-file (a
#: profiler files it under ``protocols``)
_CODE = CodeFile(
    "<generated>/repro/protocols/base.py", {"_POOL": _POOL, "_POOL_SIZE": _POOL_SIZE, "Delay": Delay}
)


class TableProtocol(Protocol):
    """A protocol whose hooks are *compiled from its table*.

    Subclasses declare a class-level :class:`~repro.spec.table.ProtocolTable`
    and implement the table's action primitives as ``act_<name>``
    methods — a plain method if it never blocks, a generator if it may
    — and its guards as ``g_<name>`` predicates (SLICC keeps the same
    split: tables sequence named code fragments).  At construction
    each hook event with node rows (``barrier`` included) becomes one
    generated function (:func:`hook_source`), compiled once per text
    per process and bound to the instance, so the state machine —
    which events are handled in which states, what each dispatch
    charges, which actions fire, what state results — comes from the
    declarative artifact, and only the primitive bodies remain
    imperative.

    Each generated hook, cycle-compatible with the hand-written hooks
    the tables replaced, does in order:

    1. charge the event's *entry cost* (``table.entry_costs``) plus the
       caller's ``lead``, if any, as one ``Delay``;
    2. read the copy's current state once (after the entry charge — a
       concurrent handler may have moved it during those cycles);
    3. take the first matching row, as an ``if`` chain: explicit-state
       rows in definition order, then wildcard rows; a row matches when
       its guard (if any) passes;
    4. charge the row's cost, run its actions in order (a plain call,
       or ``yield from`` a generator), then apply the ``next`` state.

    An event whose only row is an unguarded wildcard reads nothing
    between steps 1 and 4, so its entry cost, row cost and lead are a
    single charge.  Events with no rows inherit the base class's null
    hooks.  A barrier takes no handle and no lead: its guards and
    actions are ``(nid)``.
    """

    #: the declarative core; subclasses must override.
    table: ProtocolTable | None = None

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        tbl = self.table
        if tbl is None:
            raise TableError(f"{type(self).__name__} declares no ProtocolTable")
        if tbl.name != self.spec.name:
            raise TableError(
                f"{type(self).__name__}: table {tbl.name!r} does not match spec {self.spec.name!r}"
            )
        for event, hook in table_hooks(tbl, self, _CODE).items():
            setattr(self, event, hook)

    # -- common action primitives ------------------------------------------
    def act_rendezvous(self, nid: int):
        """The global barrier rendezvous, as a table-referable action."""
        yield from self.runtime.rendezvous(nid)
