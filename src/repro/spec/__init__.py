"""Declarative protocol specifications (tables) shared by every layer.

This package is deliberately dependency-light: it imports nothing from
the simulator, the machine, or the protocol runtime, so the DSM layers
(:mod:`repro.dsm`), the protocol library (:mod:`repro.protocols`), the
model checker (:mod:`repro.verify.modelcheck`), and the doc generator
(``python -m repro docs``) can all consume the same
:class:`~repro.spec.table.ProtocolTable` artifacts without import
cycles.
"""

from repro.spec.table import ProtocolTable, TableError, Transition

__all__ = ["ProtocolTable", "TableError", "Transition"]
