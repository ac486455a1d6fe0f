"""Event counters for experiments.

A single :class:`Stats` object hangs off each :class:`~repro.machine.machine.Machine`;
runtimes and protocols increment named counters (message categories,
protocol transitions, stall cycles) and the benchmark harness renders
them next to execution times.  Counters are plain integers keyed by
string so new layers never need schema changes.

Counter keys on hot paths should be built **once** — with
:func:`intern_key` at engine-construction time — not via an f-string
per call: interning makes every later dict probe an identity-fast
hash hit and keeps key construction off the per-event path.  Layers
that bump several counters per simulated message may also grab the
raw mapping via :meth:`Stats.counter_ref` and update it in place,
trading a method call per bump for a C-level dict store (:class:`Counts`).
Messages skip that mapping: each is two slot adds on its :class:`Route`,
which :class:`Stats` folds in before any read (DESIGN.md §6).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager


class Counts(dict):
    """A counting dict: a missing key reads 0 and is not inserted.

    ``__missing__`` is its only method: a Python-level ``__setitem__``,
    ``__delitem__`` or ``__getitem__`` (``collections.Counter`` has one)
    would make every ``counts[key] += 1`` a slot-wrapper store at about
    twice the cost (DESIGN.md §6, "Counting at dict speed")."""

    __slots__ = ()

    def __missing__(self, key):
        return 0


class Route:
    """One message kind's counts since the last fold: ``n`` messages of
    ``words`` payload words in all, each counted under ``keys``.  ``call``
    is the arrival callable of a handler's route (None on a reply's);
    ``category`` is the message category it counts."""

    __slots__ = ("call", "n", "words", "keys", "category")

    def __init__(self, call, keys: tuple, category: str):
        self.call, self.n, self.words, self.keys, self.category = call, 0, 0, keys, category


class PhaseScopeError(ValueError):
    """Unbalanced phase scoping: a pop without a push, or phases left
    open at the end of a run.

    Subclasses :class:`ValueError` for backwards compatibility; carries
    the offending phase stack so callers (and CI logs) see exactly
    which pushes were never matched.
    """

    def __init__(self, message: str, stack: list[str]):
        stacked = " > ".join(stack) if stack else "<empty>"
        super().__init__(f"{message} (phase stack: {stacked})")
        #: innermost-last names of the phases open when the error fired
        self.stack = list(stack)


def intern_key(*parts: str) -> str:
    """Join ``parts`` with dots and intern the result.

    Call at setup time (engine/runtime ``__init__``) to pre-build the
    stat keys a hot path will use, e.g. ``intern_key(prefix, "read_hit")``.
    """
    return sys.intern(".".join(parts))


class _NodeStats:
    """Per-node counting adapter: ``stats.node(3).count("msg.sent")``
    bumps ``node3.msg.sent`` in the owning :class:`Stats`.

    Keys are interned once per (node, key) pair and cached, so a layer
    that keeps the adapter around pays one dict probe per bump — the
    same discipline as :func:`intern_key`.  The adapter writes through
    to the owner's live mapping, so it composes with
    :meth:`Stats.counter_ref` and survives :meth:`Stats.reset`.
    """

    __slots__ = ("_counts", "_prefix", "_keys")

    def __init__(self, stats: "Stats", nid: int):
        self._counts = stats._counts
        self._prefix = f"node{nid}."
        self._keys: dict[str, str] = {}

    def count(self, key: str, n: int = 1) -> None:
        k = self._keys.get(key)
        if k is None:
            k = self._keys[key] = sys.intern(self._prefix + key)
        self._counts[k] += n

    def key(self, key: str) -> str:
        """The full interned key this adapter bumps for ``key``."""
        k = self._keys.get(key)
        if k is None:
            k = self._keys[key] = sys.intern(self._prefix + key)
        return k


class Stats:
    """Hierarchical string-keyed counters (convention: ``layer.event``).

    Beyond flat counting, two scoping mechanisms feed the
    observability layer (DESIGN.md §7) without touching the hot path:

    * **Phases** — :meth:`push_phase`/:meth:`pop_phase` bracket a
      program region; the pop computes the counter delta across the
      region and accumulates it under the phase name in :attr:`phases`.
      Scoping is snapshot-based, so counting itself never checks for
      an active phase: a phase costs two dict copies total, zero per
      event.
    * **Per node** — :meth:`node` returns a cached adapter that counts
      under a ``node<i>.`` prefix with interned keys.
    """

    def __init__(self):
        self._counts = Counts()
        self._routes: list[Route] = []
        self._phase_stack: list[tuple[str, dict]] = []
        self._node_scopes: dict[int, _NodeStats] = {}
        #: accumulated per-phase counter deltas: {name: Counts}
        self.phases: dict[str, Counts] = {}

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to counter ``key``."""
        self._counts[key] += n

    def route(self, category: str, handler: str | None = None, call=None) -> Route:
        """A new :class:`Route` for messages of ``category`` to the handler
        named ``handler`` (None: replies, which count no ``handler.*``)."""
        named = () if handler is None else (intern_key("handler", handler),)
        keys = (intern_key("msg", category), *named, "msg.total")
        self._routes.append(route := Route(call, keys, category))
        return route

    def _fold(self) -> None:
        """Move every route's pending counts into the counters."""
        counts = self._counts
        for route in self._routes:
            if n := route.n:
                for key in route.keys:
                    counts[key] += n
                counts["msg.words"] += route.words
                route.n = route.words = 0

    def counter_ref(self) -> Counts:
        """The live underlying mapping, for hot paths that bump several
        counters per event.  Mutate only by incrementing values; the
        reference stays valid for the lifetime of this object
        (:meth:`reset` clears it in place).  It holds no message counts
        that a route has not folded in yet."""
        return self._counts

    def get(self, key: str) -> int:
        """Current value of ``key`` (0 if never counted)."""
        self._fold()
        return self._counts[key]

    def with_prefix(self, prefix: str) -> dict:
        """All counters under ``prefix`` in the dot hierarchy.

        The prefix matches **whole dot-separated tokens**: it selects
        the bare key ``prefix`` itself and every ``prefix.<rest>``,
        and never crosses a token boundary (``with_prefix("crl")``
        does *not* match ``crlx.y``).  A trailing dot is a pure
        spelling variant: ``with_prefix("crl.")`` ≡
        ``with_prefix("crl")``, bare key included.
        """
        bare = prefix.rstrip(".")
        dotted = bare + "."
        return {k: v for k, v in self.snapshot().items() if k == bare or k.startswith(dotted)}

    def by_node(self, prefix: str | None = None) -> dict:
        """Counters grouped by node id: ``{nid: {rest: value}}``.

        Selects every ``node<i>.<rest>`` counter; with ``prefix``, only
        those whose ``rest`` matches it under the same whole-token rule
        as :meth:`with_prefix`.  The summarizers in
        :mod:`repro.obs.export` and ``repro profile`` use this to
        render per-node tables without re-parsing key strings.
        """
        bare = None if prefix is None else prefix.rstrip(".")
        dotted = None if bare is None else bare + "."
        out: dict[int, dict] = {}
        for key, v in self.snapshot().items():
            if not key.startswith("node"):
                continue
            head, _, rest = key.partition(".")
            nid = head[4:]
            if not rest or not nid.isdigit():
                continue
            if dotted is not None and rest != bare and not rest.startswith(dotted):
                continue
            out.setdefault(int(nid), {})[rest] = v
        return out

    # -- scoping --------------------------------------------------------
    def node(self, nid: int) -> _NodeStats:
        """Cached per-node counting adapter (keys under ``node<nid>.``)."""
        scope = self._node_scopes.get(nid)
        if scope is None:
            scope = self._node_scopes[nid] = _NodeStats(self, nid)
        return scope

    @property
    def current_phase(self) -> str | None:
        """Name of the innermost open phase (None outside any phase)."""
        return self._phase_stack[-1][0] if self._phase_stack else None

    def push_phase(self, name: str) -> None:
        """Begin a named phase (nestable; pops must match pushes)."""
        self._phase_stack.append((name, self.snapshot()))

    def open_phases(self) -> list[str]:
        """Names of the currently open phases, outermost first."""
        return [name for name, _ in self._phase_stack]

    def require_balanced(self) -> None:
        """Raise :class:`PhaseScopeError` if any phase is still open.

        Called at the end of a run: a leftover push would silently
        misattribute every later counter bump to a phase the program
        thought it had closed.
        """
        if self._phase_stack:
            raise PhaseScopeError(
                f"{len(self._phase_stack)} phase(s) still open at end of run",
                self.open_phases(),
            )

    def pop_phase(self) -> dict:
        """End the innermost phase; accumulate and return its delta."""
        if not self._phase_stack:
            raise PhaseScopeError("pop_phase with no phase pushed", [])
        name, base = self._phase_stack.pop()
        get = base.get
        delta = {k: d for k, v in self.snapshot().items() if (d := v - get(k, 0))}
        acc = self.phases.setdefault(name, Counts())
        for k, d in delta.items():
            acc[k] += d
        return delta

    @contextmanager
    def phase(self, name: str):
        """Context manager form of :meth:`push_phase`/:meth:`pop_phase`."""
        self.push_phase(name)
        try:
            yield self
        finally:
            self.pop_phase()

    def snapshot(self) -> dict:
        """Copy of every counter, for diffing before/after a phase."""
        self._fold()
        return dict(self._counts)

    def reset(self) -> None:
        """Zero all counters and routes and forget phases.

        The mapping handed out by :meth:`counter_ref` is cleared **in
        place**, so references held by engines stay live and later
        bumps remain visible through :meth:`get`.
        """
        self._fold()  # zeroes the routes
        self._counts.clear()
        self._phase_stack.clear()
        self.phases.clear()

    def __getstate__(self) -> dict:
        # The folded counts travel; the routes (and their handlers) stay.
        self._fold()
        return {**self.__dict__, "_routes": []}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.snapshot().items()))
        return f"Stats({body})"
