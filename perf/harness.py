"""Child-side measurement: one workload, one process.

A workload is a module-level object with these methods::

    setup(seed, quick)  -> inputs      # set-up: inputs, references, compiles
    rows(inputs, out)   -> iterable    # the timed region: (label, thunk) pairs;
                                       # a thunk runs one row and records it in ``out``
    verify(inputs, out)                # untimed; out.check(...) per verified operation
    probes(out, inputs) -> dict        # per-layer metrics of its own (traced runs)

``measure`` repeats the rows for the requested number of seconds with
profiling off and reports medians; ``trace`` runs them once more under
cProfile and folds every function's self time into a layer bucket by
module path.  End-to-end numbers come only from ``measure``; per-layer
numbers only from ``trace`` (plus the exact counters both read from
the program's public results).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import pstats
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import metrics

_HERE = os.path.dirname(os.path.abspath(__file__)).replace("\\", "/")


@dataclass
class Outcome:
    """What one pass over a workload's timed region produced."""

    #: ``[label, simulated cycles]`` per run, in execution order
    rows: list = field(default_factory=list)
    #: kernel events executed, summed over the pass
    events: int = 0
    #: ``Stats.snapshot()`` counters summed over the pass
    stats: Counter = field(default_factory=Counter)
    #: host seconds per row, by label
    spans: dict = field(default_factory=dict)
    #: workload-specific exact values (serve ladder ...), by metric name
    extra: dict = field(default_factory=dict)
    #: per-row results kept for ``verify`` (dropped afterwards)
    payload: list = field(default_factory=list)
    #: verified operations attempted / the rows that failed, by name
    ops: int = 0
    failures: list = field(default_factory=list)

    def add_run(self, label: str, res) -> None:
        """Record one finished ``RunResult`` (cycles, events, counters)."""
        self.add_sim(label, res.machine.sim, res.stats.snapshot())

    def add_sim(self, label: str, sim, stats=()) -> None:
        self.rows.append([label, sim.now])
        self.events += sim.events
        self.stats.update(stats)

    def check(self, label: str, ok: bool, detail: str = "", ops: int = 1) -> None:
        """``ops`` verified operations under one name; a false ``ok``
        lists the name as failed."""
        self.ops += ops
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def guarded(self, label: str, fn):
        """Run ``fn``; an exception is a failed op, not a crash."""
        try:
            return fn()
        except Exception as exc:  # row boundary: record it and keep measuring
            self.check(label, False, f"{type(exc).__name__}: {exc}")
            return None

    def check_call(self, label: str, agrees, detail: str) -> None:
        """One verified operation decided by ``agrees()``: false fails
        it with ``detail``, an exception fails it with the exception."""
        ok = self.guarded(label, agrees)
        if ok is not None:
            self.check(label, bool(ok), detail)


def digest(*parts) -> str:
    """sha256 over the generated inputs (arrays, strings, numbers)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def prepare(workload, seed: int, quick: bool):
    """Set-up: build the inputs, then one warm-up pass on tiny inputs so
    delay pools, interned stat keys, parse/codegen caches and lazy
    imports are filled before the timed region starts."""
    inputs = workload.setup(seed, quick)
    for _, thunk in workload.rows(workload.setup(seed, True), Outcome()):
        thunk()
    return inputs


#: generator steps in one calibration loop (~15 ms on the PR's host)
CALIBRATION_STEPS = 150_000
#: timed work between two calibration loops, at least (seconds)
SEGMENT_S = 0.1


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop — the host's speed now.

    Generator resumes, dict stores and integer adds: the same kind of
    work as the simulator, and none of the repository's code, so a
    change to the program cannot move it.  The shared host's speed
    drifts by ~10% over seconds to minutes; timing this loop between
    rows and reporting the ratio (``wall_rel``) cancels that drift."""

    def steps():
        slots = {}
        for i in range(CALIBRATION_STEPS):
            slots[i & 1023] = i
            yield i

    t0 = time.perf_counter()
    total = 0
    for value in steps():
        total += value
    return time.perf_counter() - t0


@dataclass
class Pass:
    out: Outcome
    wall: float = 0.0  # sum of the rows' wall seconds
    cpu: float = 0.0   # sum of the rows' process_time seconds
    rel: float = 0.0   # sum over segments of wall / calibration wall around it


def one_pass(workload, inputs, calibrated: bool = True) -> Pass:
    """Every row once.  Each row is timed on its own; with
    ``calibrated`` a calibration loop runs after every ``SEGMENT_S`` of
    rows and each segment's wall is divided by the loops around it.

    A full collection first: every pass then starts from the same
    collector state, which cuts pass-to-pass jitter on the
    allocation-heavy workloads by about two thirds."""
    gc.collect()
    p = Pass(Outcome())
    before = calibrate() if calibrated else 1.0
    segment = 0.0
    for label, thunk in workload.rows(inputs, p.out):
        c0 = time.process_time()
        t0 = time.perf_counter()
        p.out.guarded(label, thunk)
        wall = time.perf_counter() - t0
        p.cpu += time.process_time() - c0
        p.out.spans[label] = wall
        p.wall += wall
        segment += wall
        if calibrated and segment >= SEGMENT_S:
            after = calibrate()
            p.rel += 2 * segment / (before + after)
            before, segment = after, 0.0
    if calibrated and segment:
        p.rel += 2 * segment / (before + calibrate())
    return p


@dataclass
class Passes:
    """What ``repeat`` measured: the first pass's outcome (its spans
    replaced by medians over all passes), per-pass samples, and the
    verification totals."""

    out: Outcome
    walls: list
    cpus: list
    rels: list
    ops: int
    failures: list


def repeat(workload, inputs, seconds: float) -> Passes:
    """Passes until ``seconds`` are used up (always at least one), each
    followed by its untimed verification.

    Every pass must reproduce the first one's simulated cycles, events
    and counters exactly — the program is deterministic, so a
    difference is a failed operation."""
    first, passes, spans = None, [], {}
    ops, failures = 0, []
    start = time.perf_counter()
    while True:
        p = one_pass(workload, inputs)
        out = p.out
        workload.verify(inputs, out)
        out.payload = []
        if first is None:
            first = out
        else:
            same = (out.rows, out.events, out.stats) == (first.rows, first.events, first.stats)
            out.check(f"pass {len(passes) + 1} repeats pass 1 exactly", same)
        passes.append(p)
        ops += out.ops
        failures += out.failures
        for label, secs in out.spans.items():
            spans.setdefault(label, []).append(secs)
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            break
    first.spans = {label: statistics.median(samples) for label, samples in spans.items()}
    return Passes(first, [p.wall for p in passes], [p.cpu for p in passes],
                  [p.rel for p in passes], ops, failures)


def measure(workload, inputs, seconds: float, setups: list) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics, as ``(result, detail)``.
    ``setups`` holds one ``(seconds, seconds / calibration loop)`` pair
    per set-up sample."""
    p = repeat(workload, inputs, seconds)
    values = {
        "wall_rel": statistics.median(p.rels),
        "sim_cycles": sum(cycles for _, cycles in p.out.rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(secs for secs, _ in setups),
    }
    detail = {
        "passes": len(p.walls),
        "wall_samples_s": p.walls,
        "wall_rel_samples": p.rels,
        "setup_samples_s": [secs for secs, _ in setups],
        "setup_rel_samples": [rel for _, rel in setups],
        "rows": p.out.rows,
        "events": p.out.events,
    }
    return _result(values, metrics.END_TO_END, p.ops, p.failures, detail)


def layer_of(filename: str) -> str:
    """Layer bucket for one profiled code object, by module path."""
    path = filename.replace("\\", "/")
    if path == "<acec-codegen>":  # closures emitted by repro.compiler.codegen
        return "compiler"
    _, sep, rest = path.rpartition("/repro/")
    if sep:
        package, _, module = rest.partition("/")
        if package == "dsm":
            layer = "dsm." + module.removesuffix(".py")
            return layer if layer in metrics.LAYERS else "dsm.coherence"
        if package in metrics.LAYERS:
            return package
    elif path.startswith(_HERE):
        return "apps"  # the load generator's own program bodies
    return "builtins"


def fold(profile: cProfile.Profile) -> tuple[dict, float]:
    """``{layer: [self seconds, calls]}`` and the profiled total."""
    buckets = {layer: [0.0, 0] for layer in metrics.LAYERS}
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(profile).stats.items():
        bucket = buckets[layer_of(filename)]
        bucket[0] += tottime
        bucket[1] += ncalls
        total += tottime
    return buckets, total


def _suffix_sum(stats: Counter, suffix: str) -> int:
    return sum(v for k, v in stats.items() if k.endswith(suffix))


def trace(workload, inputs, seconds: float) -> tuple[dict, dict]:
    """Traced run: the per-layer metrics, as ``(result, detail)``.

    A third of ``seconds`` goes to untraced passes (probes, counters,
    CPU time, the overhead base); then one pass runs under cProfile."""
    p = repeat(workload, inputs, seconds / 3)
    out, ops, failures = p.out, p.ops, list(p.failures)
    wall = statistics.median(p.walls)

    profile = cProfile.Profile()
    profile.enable()
    try:
        traced = one_pass(workload, inputs, calibrated=False)
    finally:
        profile.disable()
    workload.verify(inputs, traced.out)
    same = (traced.out.rows, traced.out.events) == (out.rows, out.events)
    traced.out.check("traced pass repeats untraced pass exactly", same)
    ops += traced.out.ops
    failures += traced.out.failures
    buckets, total = fold(profile)

    stats = out.stats
    hits = _suffix_sum(stats, ".read_hit") + _suffix_sum(stats, ".write_hit")
    misses = _suffix_sum(stats, ".read_miss") + _suffix_sum(stats, ".write_miss")
    values = {
        "trace.overhead_x": traced.wall / wall,
        "host.wall_s": wall,
        "host.cpu_s": statistics.median(p.cpus),
        "sim.events": out.events,
        "sim.ns_per_event": wall / out.events * 1e9,
        "machine.msgs": stats["msg.total"],
        "machine.words": stats["msg.words"],
        "dsm.read_hits": _suffix_sum(stats, ".read_hit"),
        "dsm.read_misses": _suffix_sum(stats, ".read_miss"),
        "dsm.write_hits": _suffix_sum(stats, ".write_hit"),
        "dsm.write_misses": _suffix_sum(stats, ".write_miss"),
        "dsm.recalls": _suffix_sum(stats, ".recall"),
        "dsm.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dsm.transport.retries": stats["rel.retry"],
        "protocols.switches": stats["ace.change_protocol"],
    }
    for layer, (self_s, calls) in buckets.items():
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = calls
    values.update(out.extra)
    values.update(workload.probes(out, inputs))
    detail = {
        "passes": len(p.walls),
        "profiled_total_s": total,
        "traced_wall_s": traced.wall,
        "untraced_wall_s": wall,
        "rows": out.rows,
    }
    return _result(values, metrics.PER_LAYER, ops, failures, detail)


def _result(values: dict, declared, ops: int, failures: list, detail: dict) -> tuple[dict, dict]:
    """The contract's result object — every declared metric present, one
    that does not apply to this workload reading 0 — and the detail
    that goes on the line before it."""
    result = {
        "correct": not failures,
        "attempted": max(ops, 1),
        "failed": len(failures),
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit} for name, unit, *_ in declared
        },
    }
    return result, {**detail, "failures": failures}
