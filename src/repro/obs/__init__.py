"""Observability: structured causal tracing, attribution, profiling.

See :mod:`repro.obs.trace` for the recording model and the
zero-cost-when-disabled design, :mod:`repro.obs.wire` for the traced
message fabric, :mod:`repro.obs.export` for JSONL /
Perfetto output and summaries, :mod:`repro.obs.attrib` for exact cycle
attribution, :mod:`repro.obs.critpath` for critical-path extraction
and what-if bounds, :mod:`repro.obs.metrics` for windowed time-series
counters, and DESIGN.md §7 and §13 for the full story.
"""

from repro.obs.attrib import Attribution, AttributionError, attribute
from repro.obs.critpath import WHAT_IF_PRESETS, CriticalPath, critical_path
from repro.obs.export import (
    cluster_hists,
    orphaned_edges,
    per_node_messages,
    run_summary,
    stall_cycles,
    to_jsonl,
    to_perfetto,
)
from repro.obs.metrics import MetricsWindow
from repro.obs.trace import Histogram, TraceBuffer, TraceEvent, Tracer

__all__ = [
    "Attribution",
    "AttributionError",
    "CriticalPath",
    "Histogram",
    "MetricsWindow",
    "TraceBuffer",
    "TraceEvent",
    "Tracer",
    "WHAT_IF_PRESETS",
    "attribute",
    "cluster_hists",
    "critical_path",
    "orphaned_edges",
    "per_node_messages",
    "run_summary",
    "stall_cycles",
    "to_jsonl",
    "to_perfetto",
]
