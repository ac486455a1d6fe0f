#!/usr/bin/env python
"""Wall-clock benchmark harness for the simulation core.

Runs the paper workload suites (fig7a, fig7b, table4) end to end and
records, per suite:

* ``wall_s`` — wall-clock seconds for the whole suite;
* ``events`` — kernel events executed (queue pops + inline trampoline
  steps; see ``Simulator.events``), summed over the suite's runs;
* ``events_per_s`` — the headline throughput number;
* ``rows`` — the simulated-cycle tables the suite produces, exactly as
  the experiments report them.  These must be bit-identical across
  kernel optimizations (the golden-trace tests pin the same property);
  the bench records them so a perf regression hunt can double as a
  correctness check.

Output goes to ``BENCH_<stamp>.json`` (override with ``--out``), so the
repository accumulates a performance trajectory over time.  Compare two
files with ``--baseline``::

    PYTHONPATH=src python tools/bench.py                  # full run
    PYTHONPATH=src python tools/bench.py --smoke          # CI sanity run
    PYTHONPATH=src python tools/bench.py --baseline BENCH_seed.json

``--smoke`` runs a single small workload (TSP on 2 nodes) — enough to
prove the harness and the JSON schema work without burning CI minutes.
Combined with ``--baseline BENCH_seed.json --gate`` it is CI's
regression gate: simulated cycles must be bit-identical to the seed,
and the deterministic kernel-event count (plus a coarse wall-clock
backstop) must not regress.

The harness tolerates kernels that predate the ``Simulator.events``
counter (it records ``events: null``), so it can be pointed at an old
checkout to capture a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path


def _events(res) -> int | None:
    """Kernel event count for one run (None on pre-counter kernels)."""
    return getattr(res.machine.sim, "events", None)


def _acc(total, n):
    if total is None or n is None:
        return None
    return total + n


def suite_fig7a(n_procs: int, apps: list[str] | None = None, tracer_factory=None) -> dict:
    """Ace vs CRL under SC — the paper's headline comparison.

    ``tracer_factory`` (used by ``--trace-overhead``) builds a fresh
    :class:`repro.obs.TraceBuffer` per run; simulated cycles must be
    bit-identical with and without one.  The traced result also counts
    the trace events emitted (``events_emitted``).
    """
    from repro.facade import run_spmd
    from repro.harness.experiments import _PROGRAMS, FIG7_WORKLOADS

    rows, events, emitted = [], 0, 0
    t0 = time.perf_counter()
    for app, make_wl in FIG7_WORKLOADS.items():
        if apps is not None and app not in apps:
            continue
        program_fn, sc_plan, _ = _PROGRAMS[app]
        wl = make_wl()
        for backend in ("crl", "ace"):
            tracer = tracer_factory() if tracer_factory is not None else None
            res = run_spmd(program_fn(wl, sc_plan), backend=backend, n_procs=n_procs, tracer=tracer)
            rows.append([app, backend, res.time])
            events = _acc(events, _events(res))
            if tracer is not None:
                emitted += len(tracer) + tracer.dropped
    result = _result(rows, events, time.perf_counter() - t0)
    if tracer_factory is not None:
        result["events_emitted"] = emitted
    return result


def suite_fig7b(n_procs: int) -> dict:
    """SC vs application-specific protocols, on Ace."""
    from repro.facade import run_spmd
    from repro.harness.experiments import _PROGRAMS, FIG7_WORKLOADS

    rows, events = [], 0
    t0 = time.perf_counter()
    for app, make_wl in FIG7_WORKLOADS.items():
        program_fn, sc_plan, custom_plan = _PROGRAMS[app]
        wl = make_wl()
        for variant, plan in (("SC", sc_plan), ("custom", custom_plan)):
            res = run_spmd(program_fn(wl, plan), backend="ace", n_procs=n_procs)
            rows.append([app, variant, res.time])
            events = _acc(events, _events(res))
    return _result(rows, events, time.perf_counter() - t0)


def suite_table4(n_procs: int, apps: list[str] | None = None) -> dict:
    """The compiler-optimization ladder (acec → simulator)."""
    from repro.compiler import OPT_BASE, compile_source, run_compiled
    from repro.harness.experiments import TABLE4_KERNELS, TABLE4_LEVELS

    rows, events = [], 0
    t0 = time.perf_counter()
    for app, spec in TABLE4_KERNELS.items():
        if apps is not None and app not in apps:
            continue
        wl = spec["wl"]
        host = spec["host"](wl)
        src = spec["source"](wl)
        for level in TABLE4_LEVELS:
            run = run_compiled(compile_source(src, opt=level), n_procs=n_procs, host_data=host)
            rows.append([app, level.name, run.time])
            events = _acc(events, _events(run.run_result))
        hand = run_compiled(
            compile_source(spec["hand"](wl), opt=OPT_BASE), n_procs=n_procs, host_data=host
        )
        rows.append([app, "hand", hand.time])
        events = _acc(events, _events(hand.run_result))
    return _result(rows, events, time.perf_counter() - t0)


def suite_serve(n_procs: int, requests: int = 2048) -> dict:
    """The serving stack (DESIGN.md §16): statics bracketing adaptive.

    One seeded workload with the mid-run read/write-mix shift, run
    under the two regime-best static protocols and the adaptive
    controller.  Cycle rows are deterministic (seeded traffic +
    deterministic controller), so the bench doubles as the serve
    determinism gate.
    """
    from repro.serve import AdaptiveController, ServeWorkload, run_serve

    wl = ServeWorkload(
        n_keys=64, n_shards=4, n_requests=requests, batch=64,
        read_frac=0.95, shift_at=0.5, shift_read_frac=0.1, seed=11,
    )
    rows, events = [], 0
    t0 = time.perf_counter()
    for config in ("DynamicUpdate", "Migratory", "adaptive"):
        if config == "adaptive":
            ctl = AdaptiveController({s: "DynamicUpdate" for s in range(wl.n_shards)})
            _, rep = run_serve(wl, controller=ctl, n_procs=n_procs, n_dir_shards=2)
        else:
            _, rep = run_serve(wl, protocol=config, n_procs=n_procs, n_dir_shards=2)
        rows.append(["serve", config, rep["cycles"]])
        events = _acc(events, rep["events"])
    return _result(rows, events, time.perf_counter() - t0)


def _result(rows: list, events: int | None, wall: float) -> dict:
    return {
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": round(events / wall) if events else None,
        "rows": rows,
    }


SUITES = {"fig7a": suite_fig7a, "fig7b": suite_fig7b, "serve": suite_serve, "table4": suite_table4}


def _repeated(fn, repeat: int, **kw) -> dict:
    """Run a suite ``repeat`` times; report best-of-N wall with spread.

    Wall-clock numbers on shared CI runners are noisy; min is the
    standard "closest to true cost" estimator, and the spread block
    (min/median/max/stddev over all N runs) lets a reader judge how
    trustworthy a comparison is.  Simulated-cycle rows and kernel event
    counts must be bit-identical across repeats — the suite result says
    so if they are not (``nondeterministic: true``), which would be a
    determinism bug worth more than any perf number.
    """
    runs = [fn(**kw) for _ in range(repeat)]
    walls = [r["wall_s"] for r in runs]
    best = min(runs, key=lambda r: r["wall_s"])
    best["spread"] = {
        "runs": repeat,
        "min": round(min(walls), 4),
        "median": round(statistics.median(walls), 4),
        "max": round(max(walls), 4),
        "stddev": round(statistics.stdev(walls), 4) if repeat > 1 else 0.0,
    }
    if any(r["rows"] != runs[0]["rows"] or r["events"] != runs[0]["events"] for r in runs[1:]):
        best["nondeterministic"] = True  # pragma: no cover - determinism bug canary
    return best


def host_fingerprint() -> dict:
    """Who produced these numbers: wall-clock comparisons across hosts
    or interpreters are meaningless without this block."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_bench(suites: list[str], n_procs: int, smoke: bool = False, repeat: int = 1) -> dict:
    report = {
        "stamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": host_fingerprint(),
        "n_procs": n_procs,
        "smoke": smoke,
        "repeat": repeat,
        "suites": {},
    }
    if smoke:
        report["suites"]["smoke"] = _repeated(suite_fig7a, repeat, n_procs=2, apps=["TSP"])
        # the compiler path gets its own smoke entry (TSP kernel, all
        # four levels + hand, both the gate's cycles and a throughput
        # signal for the closure backend)
        report["suites"]["smoke_table4"] = _repeated(suite_table4, repeat, n_procs=2, apps=["TSP"])
        # tiny serving run: proves the serve stack and its determinism
        # without burning minutes
        report["suites"]["smoke_serve"] = _repeated(suite_serve, repeat, n_procs=2, requests=256)
        return report
    for name in suites:
        print(f"running suite {name} ...", file=sys.stderr)
        report["suites"][name] = _repeated(SUITES[name], repeat, n_procs=n_procs)
    return report


def compare(
    report: dict,
    baseline: dict,
    gate: bool = False,
    events_tolerance: float = 1.05,
    wall_factor: float = 3.0,
) -> list[str]:
    """Human-readable speedup lines for suites present in both reports.

    Simulated-cycle rows must match exactly — a kernel change that
    alters them is a correctness bug, and the comparison says so.

    With ``gate=True`` the lines also flag performance regressions:

    * a suite the baseline does not have fails the gate — a gate that
      skips what it cannot compare checks nothing for that suite;
    * ``events`` (kernel steps; deterministic and host-independent, so
      it is the meaningful "no worse" signal) may not grow past
      ``events_tolerance`` × baseline;
    * ``wall_s`` may not exceed ``wall_factor`` × baseline — a gross
      backstop only, since baselines travel across hosts.
    """
    lines = []
    for name, cur in report["suites"].items():
        base = baseline.get("suites", {}).get(name)
        if base is None:
            if gate:
                lines.append(f"{name}: not in baseline: REGRESSED (gate has nothing to compare)")
            continue
        speedup = base["wall_s"] / cur["wall_s"] if cur["wall_s"] else float("inf")
        cycles_ok = base["rows"] == cur["rows"]
        line = (
            f"{name}: {base['wall_s']:.3f}s -> {cur['wall_s']:.3f}s "
            f"({speedup:.2f}x)  cycles {'identical' if cycles_ok else 'DIFFER (BUG)'}"
        )
        if gate:
            base_ev, cur_ev = base.get("events"), cur.get("events")
            if base_ev and cur_ev and cur_ev > base_ev * events_tolerance:
                line += f"  events {base_ev} -> {cur_ev} REGRESSED"
            if base["wall_s"] and cur["wall_s"] > base["wall_s"] * wall_factor:
                line += f"  wall REGRESSED (> {wall_factor:.1f}x baseline)"
            # throughput delta is informational (host-dependent): the
            # gate itself stays on cycles + events + the wall backstop
            base_eps, cur_eps = base.get("events_per_s"), cur.get("events_per_s")
            if base_eps and cur_eps:
                delta = (cur_eps - base_eps) / base_eps * 100
                line += f"  throughput {base_eps} -> {cur_eps} events/s ({delta:+.1f}%)"
        lines.append(line)
    return lines


def profile_suite(name: str, n_procs: int, out: Path | None, top: int = 20) -> int:
    """cProfile one suite; dump the top-N cumulative entries as JSON.

    The artifact answers "what is the next hot path?" without ad-hoc
    scripting: each entry carries calls, tottime, and cumtime, sorted
    by cumulative time, plus the suite's usual wall/event numbers so
    the profile is anchored to a throughput measurement.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    suite = SUITES[name](n_procs=n_procs)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    entries = []
    for func in stats.fcn_list[:top]:  # fcn_list is in sort order
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, funcname = func
        entries.append(
            {
                "function": f"{filename}:{lineno}({funcname})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    report = {
        "stamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "suite": name,
        "n_procs": n_procs,
        "host": host_fingerprint(),
        "wall_s": suite["wall_s"],
        "events": suite["events"],
        "events_per_s": suite["events_per_s"],
        "sort": "cumulative",
        "top": entries,
    }
    path = out or Path(f"PROFILE_{name}_{report['stamp'].replace(':', '')}.json")
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    for e in entries[:5]:
        print(f"  {e['cumtime_s']:8.3f}s cum  {e['function']}")
    return 0


def trace_overhead(n_procs: int, repeat: int = 1) -> dict:
    """fig7a with tracing off and on, ``repeat`` times each (interleaved);
    the tracer's wall factor from the best wall of each side.

    The simulated-cycle rows must be bit-identical — tracing is pure
    observation; ``cycles_identical`` says whether they were.
    """
    from repro.obs import TraceBuffer

    off, on = [], []
    for i in range(repeat):
        print(f"fig7a with tracing off, then on ({i + 1}/{repeat}) ...", file=sys.stderr)
        off.append(suite_fig7a(n_procs=n_procs))
        on.append(suite_fig7a(n_procs=n_procs, tracer_factory=lambda: TraceBuffer(capacity=1 << 18)))
    off_wall = min(r["wall_s"] for r in off)
    on_wall = min(r["wall_s"] for r in on)
    return {
        "suite": "fig7a",
        "repeat": repeat,
        "off_wall_s": off_wall,
        "on_wall_s": on_wall,
        "factor": round(on_wall / off_wall, 3),
        "events_emitted": on[0]["events_emitted"],
        "cycles_identical": all(r["rows"] == off[0]["rows"] for r in off + on),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suites", nargs="+", choices=sorted(SUITES), default=sorted(SUITES))
    parser.add_argument("--procs", type=int, default=4, help="simulated processors (default 4)")
    parser.add_argument("--smoke", action="store_true", help="tiny CI run: one small workload")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each suite N times; record best-of-N wall with "
                             "min/median/max/stddev spread (default 1)")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="run fig7a off+on tracing (best of --repeat), record the wall factor "
                             "in the bench JSON, check cycles identical")
    parser.add_argument("--profile", choices=sorted(SUITES), default=None, metavar="SUITE",
                        help="cProfile one suite; dump top-20 cumulative to a JSON artifact")
    parser.add_argument("--out", type=Path, default=None, help="output path (default BENCH_<stamp>.json)")
    parser.add_argument("--baseline", type=Path, default=None, help="earlier BENCH_*.json to compare against")
    parser.add_argument("--gate", action="store_true",
                        help="fail on perf regressions vs --baseline, not just cycle mismatches")
    args = parser.parse_args(argv)

    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1 (got {args.repeat})")
    if args.profile:
        return profile_suite(args.profile, n_procs=args.procs, out=args.out)

    # Read the baseline up front: a bad path should fail before the
    # suites burn minutes, not after.
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    if args.trace_overhead:
        report = run_bench([], n_procs=args.procs, repeat=args.repeat)
        row = report["trace_overhead"] = trace_overhead(args.procs, args.repeat)
    else:
        report = run_bench(args.suites, n_procs=args.procs, smoke=args.smoke, repeat=args.repeat)
    out = args.out or Path(f"BENCH_{report['stamp'].replace(':', '')}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if args.trace_overhead:
        print(
            f"trace overhead (fig7a, {args.procs} procs, best of {args.repeat}): "
            f"{row['off_wall_s']:.3f}s off -> {row['on_wall_s']:.3f}s on "
            f"({row['factor']:.2f}x wall, {row['events_emitted']} events)  "
            f"cycles {'identical' if row['cycles_identical'] else 'DIFFER (BUG)'}"
        )
        return 0 if row["cycles_identical"] else 1
    for name, suite in report["suites"].items():
        eps = suite["events_per_s"]
        spread = suite.get("spread")
        line = (
            f"  {name}: {suite['wall_s']:.3f}s, {suite['events']} events"
            + (f", {eps} events/s" if eps else "")
        )
        if spread and spread["runs"] > 1:
            line += (f"  [best of {spread['runs']}: median {spread['median']:.3f}s, "
                     f"stddev {spread['stddev']:.3f}s]")
        print(line)
    if baseline is not None:
        lines = compare(report, baseline, gate=args.gate)
        print(f"vs {args.baseline}:")
        for line in lines:
            print("  " + line)
        if any("DIFFER" in line or "REGRESSED" in line for line in lines):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
