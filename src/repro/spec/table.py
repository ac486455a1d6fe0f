"""``ProtocolTable``: states × events → guard / actions / next state.

The paper's position is that a coherence protocol is *interchangeable,
user-definable policy*.  Policy should therefore be **data**: this
module defines the declarative transition-table artifact every other
layer consumes —

* every protocol's access hooks are compiled from its table — a
  :class:`~repro.protocols.base.TableProtocol`'s and the coherence
  engine's (:mod:`repro.dsm.hooks`, from the MSI table in
  :mod:`repro.dsm.msi`): at construction each hook event's node rows
  become one generated straight-line function (compiled once per text
  per process, bound per instance — :mod:`repro.spec.emit`);
* the invalidation family's home and recall sides
  (:mod:`repro.dsm.directory`, :mod:`repro.dsm.regioncache`) interpret
  the message rows, so home-side and node-side state machines come
  from one artifact;
* the small-scope model checker (:mod:`repro.verify.modelcheck`)
  enumerates all message interleavings directly over the rows;
* ``python -m repro docs`` renders the protocol reference in
  DESIGN.md/README from the same fields, so the docs cannot drift.

A :class:`Transition` row reads::

    Transition(role, state, event, next, guard, actions, cost, msg, note)

``role``
    ``"node"`` (requester-side copy machine) or ``"home"`` (directory
    side).  One table describes both machines.
``state``
    Source state, or ``"*"`` for any state (wildcard rows match after
    every explicit row — definition order is match order otherwise).
``event``
    What fires the row: an access hook (``start_read`` …), a
    synchronization hook (``barrier``), or a message arrival.
``next``
    Destination state; ``"="`` keeps the current state.
``guard``
    Optional predicate name (resolved to a ``g_<name>`` method by the
    compiled hooks, and to an abstract predicate by the checker).
``actions``
    Ordered action-primitive names (``act_<name>`` methods at runtime;
    abstract transformers in the checker) — the SLICC-style "code
    fragments" the table sequences.
``cost``
    Cycles charged after the row matches (the table's cost
    annotation); per-event *entry* costs charged before matching live
    in :attr:`ProtocolTable.entry_costs`.
``msg``
    Message category the row emits, if any (documentation and
    model-checker channel bookkeeping).
``note``
    Free text for the rendered reference (which cost a row charges,
    why a guard exists); outside the fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping


class TableError(ValueError):
    """A protocol table is internally inconsistent."""


ROLES = ("node", "home")

#: Events whose node rows compile into protocol hooks.
HOOK_EVENTS = ("start_read", "end_read", "start_write", "end_write", "barrier")

WILDCARD = "*"
KEEP = "="


@dataclass(frozen=True)
class Transition:
    """One row of a protocol table (see module docstring)."""

    role: str
    state: str
    event: str
    next: str = KEEP
    guard: str | None = None
    actions: tuple[str, ...] = ()
    cost: int = 0
    msg: str | None = None
    note: str = ""

    def __post_init__(self):
        if self.role not in ROLES:
            raise TableError(f"transition role must be one of {ROLES}, got {self.role!r}")
        if self.cost < 0:
            raise TableError(f"transition cost must be >= 0, got {self.cost}")
        # Tuples, not lists: tables are frozen artifacts.
        if not isinstance(self.actions, tuple):
            object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def key(self) -> tuple:
        return (self.role, self.state, self.event, self.guard)

    def runs(self, action: str) -> bool:
        """Whether the row runs ``action`` or a specialised form of it:
        ``hit_read`` is a ``hit``, ``fetch_read_home`` a ``fetch``."""
        return any(a == action or a.startswith(action + "_") for a in self.actions)


def _freeze_map(m: Mapping | None) -> Mapping:
    return MappingProxyType(dict(m or {}))


@dataclass(frozen=True)
class ProtocolTable:
    """The declarative core of one protocol.

    Beyond the transition rows, the table carries the registration
    metadata the registry used to keep per-protocol special cases for:
    ``optimizable``, ``null_hooks``, ``home_writer``, ``hardware``, and
    the ``base_state`` a flush returns every non-home copy to.  The
    :class:`~repro.protocols.base.ProtocolSpec` of a table-driven
    protocol is *derived* from these fields — one artifact, no drift.

    ``sync_model`` and ``writer_model`` tell the model checker which
    visibility/exclusivity contract to verify:

    * ``sync_model``: ``"access"`` (writes visible at the access that
      completes them — SC family), ``"immediate"`` (update family:
      visible once propagation acks), or ``"barrier"`` (visible after
      the next barrier — self-invalidation family);
    * ``writer_model``: ``"copy"`` (exclusivity via copy states: SWMR),
      ``"home"`` (only the home writes), ``"epoch"`` (one writer per
      barrier epoch), or ``"serialized"`` (home-serialized RMW).
    """

    name: str
    description: str = ""
    node_states: tuple[str, ...] = ()
    home_states: tuple[str, ...] = ()
    base_state: str = "invalid"
    transitions: tuple[Transition, ...] = ()
    costs: Mapping[str, int] = field(default_factory=dict)
    entry_costs: Mapping[str, int] = field(default_factory=dict)
    optimizable: bool = False
    null_hooks: frozenset = frozenset()
    home_writer: bool = False
    hardware: bool = False
    sync_model: str = "access"
    writer_model: str = "copy"

    def __post_init__(self):
        if not isinstance(self.transitions, tuple):
            object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "node_states", tuple(self.node_states))
        object.__setattr__(self, "home_states", tuple(self.home_states))
        object.__setattr__(self, "null_hooks", frozenset(self.null_hooks))
        object.__setattr__(self, "costs", _freeze_map(self.costs))
        object.__setattr__(self, "entry_costs", _freeze_map(self.entry_costs))
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        name = self.name
        states = {"node": set(self.node_states), "home": set(self.home_states)}
        if self.base_state not in states["node"]:
            raise TableError(
                f"{name}: base_state {self.base_state!r} not in node_states {self.node_states}"
            )
        if self.sync_model not in ("access", "immediate", "barrier"):
            raise TableError(f"{name}: unknown sync_model {self.sync_model!r}")
        if self.writer_model not in ("copy", "home", "epoch", "serialized", "none"):
            raise TableError(f"{name}: unknown writer_model {self.writer_model!r}")
        seen: set[tuple] = set()
        for t in self.transitions:
            where = f"{name}: ({t.role}, {t.state!r}, {t.event!r})"
            if t.state != WILDCARD and t.state not in states[t.role]:
                raise TableError(f"{where}: unknown source state")
            if t.next != KEEP and t.next not in states[t.role]:
                raise TableError(f"{where}: unknown next state {t.next!r}")
            if t.key in seen:
                raise TableError(f"{where}: duplicate row (same state/event/guard)")
            seen.add(t.key)
        # A hook the registry advertises as null must really be null in
        # the table: no row may charge cycles, act, emit, or move state.
        for hook in self.null_hooks:
            for t in self.rows("node", hook):
                if t.actions or t.cost or t.msg or t.next != KEEP:
                    raise TableError(
                        f"{name}: hook {hook!r} is declared null but row "
                        f"({t.state!r}, {t.event!r}) does work"
                    )
            if self.entry_costs.get(hook):
                raise TableError(f"{name}: null hook {hook!r} has a nonzero entry cost")

    # ------------------------------------------------------------------
    # queries (used by the hook compiler, the DSM layers, the checker,
    # and the doc generator)
    # ------------------------------------------------------------------
    def rows(self, role: str | None = None, event: str | None = None) -> tuple[Transition, ...]:
        """Rows filtered by role and/or event, in definition order."""
        return tuple(
            t
            for t in self.transitions
            if (role is None or t.role == role) and (event is None or t.event == event)
        )

    def events(self, role: str | None = None) -> tuple[str, ...]:
        """Distinct events for ``role``, in first-appearance order."""
        out: list[str] = []
        for t in self.transitions:
            if (role is None or t.role == role) and t.event not in out:
                out.append(t.event)
        return tuple(out)

    def lookup(self, role: str, state: str, event: str) -> tuple[Transition, ...]:
        """Rows matching ``(role, state, event)``; explicit before wildcard."""
        exact = [t for t in self.rows(role, event) if t.state == state]
        wild = [t for t in self.rows(role, event) if t.state == WILDCARD]
        return tuple(exact + wild)

    def next_map(self, role: str, event: str) -> dict[str, str]:
        """``{state: next_state}`` for an event; wildcard rows fan out
        to every state they cover, ``"="`` resolves to identity."""
        states = self.node_states if role == "node" else self.home_states
        out: dict[str, str] = {}
        for t in self.rows(role, event):
            targets = states if t.state == WILDCARD else (t.state,)
            for s in targets:
                if s in out:
                    continue  # explicit rows were added first for s
                out[s] = s if t.next == KEEP else t.next
        return out

    def next_of(self, role: str, state: str, event: str) -> str:
        """The destination state of the first matching row."""
        rows = self.lookup(role, state, event)
        if not rows:
            raise TableError(f"{self.name}: no row for ({role}, {state!r}, {event!r})")
        nxt = rows[0].next
        return state if nxt == KEEP else nxt

    def cost(self, key: str) -> int:
        """A named cost annotation (raises on unknown keys)."""
        try:
            return self.costs[key]
        except KeyError:
            raise TableError(f"{self.name}: unknown cost annotation {key!r}") from None

    def action_names(self) -> tuple[str, ...]:
        """Every action primitive the table references (sorted, unique)."""
        names: set[str] = set()
        for t in self.transitions:
            names.update(t.actions)
        return tuple(sorted(names))

    def guard_names(self) -> tuple[str, ...]:
        """Every guard predicate the table references (sorted, unique)."""
        return tuple(sorted({t.guard for t in self.transitions if t.guard is not None}))

    def with_(self, **kw) -> "ProtocolTable":
        """A copy with fields replaced (e.g. the HwSC variant of MSI)."""
        return replace(self, **kw)

    def fingerprint(self) -> str:
        """Stable content hash of the table (rows + metadata).

        Model-checker certificates record this so a certificate is
        verifiably *about* the table as it exists today — editing any
        row invalidates every committed certificate for the protocol.
        """
        import hashlib

        parts = [
            self.name,
            self.base_state,
            self.sync_model,
            self.writer_model,
            repr(self.node_states),
            repr(self.home_states),
            repr(sorted(self.costs.items())),
            repr(sorted(self.entry_costs.items())),
            repr((self.optimizable, self.home_writer, self.hardware)),
            repr(sorted(self.null_hooks)),
        ]
        for t in self.transitions:
            parts.append(
                repr((t.role, t.state, t.event, t.next, t.guard, t.actions, t.cost, t.msg))
            )
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # mutation helper (model-checker seeded-mutation mode, tests)
    # ------------------------------------------------------------------
    def mutate(self, index: int, **kw) -> "ProtocolTable":
        """A copy with transition ``index`` replaced — deliberately
        *skipping* validation-breaking checks is not possible (the new
        table re-validates), so mutations must stay type-well-formed;
        the point is that they are *semantically* broken and the model
        checker must find them."""
        rows = list(self.transitions)
        rows[index] = replace(rows[index], **kw)
        return replace(self, transitions=tuple(rows))

    def find_row(self, role: str, state: str, event: str, guard: str | None = None) -> int:
        """Index of the unique row with this key (for :meth:`mutate`)."""
        for i, t in enumerate(self.transitions):
            if t.key == (role, state, event, guard):
                return i
        raise TableError(f"{self.name}: no row ({role}, {state!r}, {event!r}, guard={guard!r})")
