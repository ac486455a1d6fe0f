"""The benchmark's declared workloads and metrics — one table.

``BENCHMARK.json`` at the repository root is this module rendered by
``benchmark_json()`` (``perf/test_harness.py`` asserts they agree), and
``perf/run.py`` emits exactly these names.
"""

from __future__ import annotations

#: how long one driver run measures, seconds
RUN_SECONDS = 8

WORKLOADS = [
    ("kernel_storm",
     "repro.sim alone (heap, ring, future wakes, spawn churn): a kernel change shows at "
     "full size, a dsm/protocol change must show nothing"),
    ("fabric_pingpong",
     "Machine and SimTransport post/am_request/rpc+reply with no DSM: the fabric layer's "
     "cost is ~12% of an app and invisible anywhere else"),
    ("dsm_access",
     "synthetic SPMD hit loops, invalidation misses, map/unmap and a Null dispatch floor: "
     "core+dsm hit path and miss path as separate numbers, no app compute"),
    ("apps_sc",
     "the five paper apps under SC on crl and ace (Fig. 7a): read-miss/invalidate-heavy "
     "directory + region cache; the only workload that runs repro.crl"),
    ("apps_custom",
     "the same apps and inputs on ace under their custom plans (Fig. 7b): the dsm layers "
     "used by write-push/update across the most ProtocolTables"),
    ("compiled",
     "five AceC kernels x {base, LI, LI+MC, LI+MC+DC, hand} on the closures backend "
     "(Table 4): codegen'd closures and the annotation hit path; compile is set-up"),
    ("serve_shift",
     "open-loop sharded KV serving at an r8/r12/r16 ladder with a 0.95->0.10 read-mix "
     "shift and the adaptive controller: serve + online change_protocol + barriers"),
    ("armed_idle",
     "EM3D+Water+Barnes-Hut under SC with tracer, empty FaultPlan, recovery and sanitizer "
     "all armed but idle: what every optional feature costs when nothing happens"),
]

#: (name, unit, better, bound) — emitted for every workload with --trace 0
END_TO_END = [
    ("wall_rel", "x", "lower", 0.15),
    ("sim_cycles", "cycles", "lower", 0.12),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: the repo's modules, plus everything that is not repo code
LAYERS = (
    "sim", "machine", "dsm.transport", "dsm.directory", "dsm.regioncache", "dsm.hooks",
    "dsm.coherence", "dsm.locks", "dsm.barrier", "dsm.msi", "dsm.faults", "dsm.recovery",
    "core", "crl", "facade", "memory", "protocols", "spec", "compiler", "apps", "serve",
    "obs", "sanitize", "builtins",
)

#: layers that must not run at all unless a workload arms them
OFF_LAYERS = ("obs", "dsm.faults", "dsm.recovery", "sanitize")

#: ladder of open-loop arrival rates for serve_shift, requests / kcycle
SERVE_RATES = (8, 12, 16)

# (name, unit, better, the workloads it applies to)
_PROBES = [
    ("sim.ns_per_event_heap", "ns", "lower", ("kernel_storm",)),
    ("sim.ns_per_event_ring", "ns", "lower", ("kernel_storm",)),
    ("sim.ns_per_future_wake", "ns", "lower", ("kernel_storm",)),
    ("sim.ns_per_spawn", "ns", "lower", ("kernel_storm",)),
    ("machine.ns_per_post", "ns", "lower", ("fabric_pingpong",)),
    ("machine.ns_per_am_request", "ns", "lower", ("fabric_pingpong",)),
    ("machine.ns_per_rpc", "ns", "lower", ("fabric_pingpong",)),
    ("dsm.transport.ns_per_rpc", "ns", "lower", ("fabric_pingpong",)),
    ("dsm.transport.overhead_x", "x", "lower", ("fabric_pingpong",)),
    ("dsm.ns_per_read_hit", "ns", "lower", ("dsm_access",)),
    ("dsm.ns_per_write_hit", "ns", "lower", ("dsm_access",)),
    ("dsm.ns_per_read_miss", "ns", "lower", ("dsm_access",)),
    ("dsm.ns_per_write_miss", "ns", "lower", ("dsm_access",)),
    ("dsm.ns_per_map_hit", "ns", "lower", ("dsm_access",)),
    ("protocols.ns_per_null_access", "ns", "lower", ("dsm_access",)),
    ("protocols.dispatch_overhead_x", "x", "lower", ("dsm_access",)),
    ("compiler.compile_s", "s", "lower", ("compiled",)),
    ("compiler.interp_over_closures_x", "x", "higher", ("compiled",)),
    ("serve.requests", "count", "higher", ("serve_shift",)),
    *[(f"serve.backlog_ratio_r{r}", "ratio", "lower", ("serve_shift",)) for r in SERVE_RATES],
    ("sim_mean_latency_cycles", "cycles", "lower", ("serve_shift",)),
    ("sim_sustained_rate", "req/kcycle", "higher", ("serve_shift",)),
    ("armed.all_x", "x", "lower", ("armed_idle",)),
    ("armed.obs_x", "x", "lower", ("armed_idle",)),
    ("armed.faults_x", "x", "lower", ("armed_idle",)),
    ("armed.check_x", "x", "lower", ("armed_idle",)),
    ("armed.recover_x", "x", "lower", ("armed_idle",)),
]

_COUNTS = [
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("machine.msgs", "count", "lower"),
    ("machine.words", "count", "lower"),
    ("dsm.read_hits", "count", "higher"),
    ("dsm.read_misses", "count", "lower"),
    ("dsm.write_hits", "count", "higher"),
    ("dsm.write_misses", "count", "lower"),
    ("dsm.recalls", "count", "lower"),
    ("dsm.hit_ratio", "ratio", "higher"),
    ("dsm.transport.retries", "count", "lower"),
    ("protocols.switches", "count", "lower"),
]

#: (name, unit, better) — emitted for every workload with --trace 1
PER_LAYER = [
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.calls", "count", "lower") for layer in LAYERS],
    ("trace.overhead_x", "x", "lower"),
    ("host.wall_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    *_COUNTS,
    *[(name, unit, better) for name, unit, better, _ in _PROBES],
]

#: per-layer metrics that repeat exactly on one commit and one seed
EXACT = (
    {name for name, unit, _ in _COUNTS if unit in ("count", "ratio")}
    | {f"{layer}.calls" for layer in OFF_LAYERS}
    | {"serve.requests", "sim_mean_latency_cycles", "sim_sustained_rate"}
    | {f"serve.backlog_ratio_r{r}" for r in SERVE_RATES}
)

_APPLIES = {name: workloads for name, _, _, workloads in _PROBES}


def applies(metric: str, workload: str) -> bool:
    """False for a probe that belongs to another workload (the driver
    line reports such a metric as 0; the result JSON omits it)."""
    return workload in _APPLIES.get(metric, (workload,))


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
