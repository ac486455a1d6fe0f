"""Protocol registration — the paper's Figure 1 as a Python API.

In Ace, a protocol designer runs a Tcl script naming the protocol, its
hook points, and whether calls to it may be optimized; the script
generates a *system configuration file* consumed by the compiler.
Here the same record is a :class:`~repro.protocols.base.ProtocolSpec`
attached to the protocol class, and :meth:`ProtocolRegistry.config_table`
is the configuration file: the compiler reads it to learn which hooks
are null and which protocols permit code motion.
"""

from __future__ import annotations

from repro.protocols.base import HOOK_NAMES, Protocol, ProtocolSpec


class ProtocolRegistry:
    """Name → protocol class table; extensible at runtime (§2.4)."""

    def __init__(self):
        self._protocols: dict[str, type] = {}

    def register(self, cls: type) -> type:
        """Register a Protocol subclass (usable as a class decorator)."""
        if not (isinstance(cls, type) and issubclass(cls, Protocol)):
            raise TypeError(f"{cls!r} is not a Protocol subclass")
        spec = cls.spec
        if not isinstance(spec, ProtocolSpec) or spec.name == "Abstract":
            raise ValueError(f"{cls.__name__} must define a concrete ProtocolSpec")
        if spec.name in self._protocols:
            raise ValueError(f"protocol {spec.name!r} registered twice")
        self._protocols[spec.name] = cls
        return cls

    def names(self) -> list[str]:
        return sorted(self._protocols)

    def get(self, name: str) -> type:
        try:
            return self._protocols[name]
        except KeyError:
            raise KeyError(
                f"unknown protocol {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def spec(self, name: str) -> ProtocolSpec:
        return self.get(name).spec

    def optimizable(self, protocols) -> bool:
        """Whether the compiler may move or merge a call that may run under
        any of ``protocols`` (``None``: not known): every one is
        optimizable (§4.2).  LI and MC rewrite under this rule, and the
        sanitizer accepts their output under it."""
        return protocols is not None and all(self.spec(p).optimizable for p in protocols)

    def may_elide(self, protocols, hook: str) -> bool:
        """Whether direct dispatch may delete a call to ``hook`` under
        ``protocols``: it has a unique protocol, optimizable, that
        declares ``hook`` null (§4.2).  The sanitizer accepts a missing
        call under the same rule."""
        if protocols is None or len(protocols) != 1:
            return False
        (proto,) = protocols
        spec = self.spec(proto)
        return spec.optimizable and spec.is_null(hook)

    def table_of(self, name: str):
        """The protocol's declarative :class:`~repro.spec.table.ProtocolTable`
        (every shipped protocol has one), or ``None`` for a user protocol
        written without.  This is what the model checker and the doc
        generator consume."""
        return getattr(self.get(name), "table", None)

    def create(self, name: str, runtime, space) -> Protocol:
        """Instantiate a fresh protocol instance for ``space``."""
        return self.get(name)(runtime, space)

    def serving_candidates(self) -> list[str]:
        """Protocols legal for open request-serving traffic (:mod:`repro.serve`).

        A serving shard sees concurrent writers on arbitrary nodes with
        no barrier between requests, so a candidate must (a) not assume
        the home is the only writer, (b) publish writes at access
        granularity rather than at barriers (``sync_model`` in the
        table metadata), and (c) not assert a single/epoch writer
        discipline the open traffic cannot honor.  The filter is
        derived from each protocol's declarative table — a new protocol
        that declares multi-writer access-grained semantics becomes a
        serving (and adaptive-controller) candidate with no list to
        maintain by hand; a protocol registered without a table is
        excluded because nothing machine-readable vouches for it.
        """
        out = []
        for name in self.names():
            pt = self.table_of(name)
            if pt is None or pt.home_writer:
                continue
            if pt.sync_model not in ("access", "immediate"):
                continue
            if pt.writer_model not in ("copy", "none"):
                continue
            out.append(name)
        return out

    def config_table(self) -> dict:
        """The "system configuration file" the Ace compiler reads (§3.2).

        Maps protocol name to its optimizability, the set of null
        hooks, and the derived handler routine names (e.g.
        ``Update_StartRead``).  Table-driven protocols additionally
        export their declarative metadata (base state, sync/writer
        models, home-writer flag) straight from the table, so the
        configuration file and the verified artifact cannot drift.
        """
        table = {}
        for name, cls in sorted(self._protocols.items()):
            spec = cls.spec
            entry = {
                "optimizable": spec.optimizable,
                "null_hooks": sorted(spec.null_hooks),
                "routines": {h: spec.routine_name(h) for h in HOOK_NAMES},
            }
            pt = getattr(cls, "table", None)
            if pt is not None:
                entry.update(
                    base_state=pt.base_state,
                    sync_model=pt.sync_model,
                    writer_model=pt.writer_model,
                    home_writer=pt.home_writer,
                )
            table[name] = entry
        return table


#: Registry holding every protocol that ships with the library.
default_registry = ProtocolRegistry()
