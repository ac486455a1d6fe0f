"""Annotation sanitizer: static IR discipline checker + dynamic DSM
access validator (DESIGN.md §11).

* :mod:`repro.sanitize.static_check` — dataflow verification that every
  shared access in compiled (or hand-annotated) AceC obeys the Figure 3
  annotation discipline on every CFG path; run post-lowering and again
  post-optimization so pass bugs are caught where they happen.
* :mod:`repro.sanitize.dynamic` — opt-in vector-clock race and mapping
  checker (``run_spmd(..., check=True)``), fed by the one wrapper that
  observes the runtime's annotation calls,
  :class:`repro.sanitize.checked.CheckedRuntime`; strictly zero-cost
  when off.
"""

from repro.sanitize.dynamic import AccessViolation, DynamicChecker, RaceRecord
from repro.sanitize.static_check import (
    Violation,
    check_or_raise,
    check_program,
)

__all__ = [
    "AccessViolation",
    "DynamicChecker",
    "RaceRecord",
    "Violation",
    "check_or_raise",
    "check_program",
]
