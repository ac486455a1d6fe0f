"""``bench`` — the deterministic cycles/events gate on the paper suites.

Runs fig7a, fig7b, table4 and the serving stack end to end and
records, per suite:

* ``rows`` — the simulated-cycle tables, exactly as the experiments
  report them.  These must be bit-identical across kernel
  optimizations (the golden-trace tests pin the same property);
* ``events`` — kernel events executed (``Simulator.events``), summed
  over the suite's runs: deterministic and host-independent, so it is
  the gate's "no worse" signal.

Nothing here reads the host clock: host time is ``perf/run.py``'s job.

``--baseline`` compares ``rows`` and ``events`` against an earlier
report (one that shares no suite with the run is a usage error); with
``--gate`` (CI, against ``BENCH_seed.json``) a suite the baseline
lacks, or one whose event count grew, fails too.  ``--smoke``
is the seconds-long version: TSP on 2 nodes through fig7a and table4
plus a 256-request serve run.
"""

from __future__ import annotations

import json
import sys

from repro.cli.common import FAILED, OK, UsageError, add_shared, existing_file
from repro.cli.serve import run_config, shift_workload
from repro.harness.experiments import fig7a_runs, fig7b_runs, table4_runs


def _suite(runs) -> dict:
    """Drain ``(app, label, RunResult)`` runs into one suite record."""
    rows, events = [], 0
    for app, label, res in runs:
        rows.append([app, label, res.time])
        events += res.machine.sim.events
    return {"events": events, "rows": rows}


def suite_fig7a(n_procs: int, apps: list[str] | None = None) -> dict:
    return _suite(fig7a_runs(n_procs, apps))


def suite_fig7b(n_procs: int) -> dict:
    return _suite(fig7b_runs(n_procs))


def suite_table4(n_procs: int, apps: list[str] | None = None) -> dict:
    return _suite(table4_runs(apps, n_procs))


def suite_serve(n_procs: int, requests: int = 2048) -> dict:
    """The serving stack (DESIGN.md §16): the two regime-best static
    protocols bracketing the adaptive controller on one seeded workload
    with a mid-run read/write-mix shift.  Seeded traffic and a
    deterministic controller make the cycle rows deterministic, so the
    bench doubles as the serve determinism gate."""
    wl = shift_workload(requests)
    configs = ("DynamicUpdate", "Migratory", "adaptive")
    return _suite(("serve", config, run_config(wl, config, n_procs)[0]) for config in configs)


SUITES = {"fig7a": suite_fig7a, "fig7b": suite_fig7b, "serve": suite_serve, "table4": suite_table4}


def run_bench(suites: list[str], n_procs: int, smoke: bool = False) -> dict:
    report = {"n_procs": n_procs, "smoke": smoke, "suites": {}}
    if smoke:
        # TSP on 2 nodes through the runtime and through the compiler
        # (all four levels + hand), and a tiny serving run: every stack
        # the full suites cover, in seconds
        report["suites"]["smoke"] = suite_fig7a(n_procs=2, apps=["TSP"])
        report["suites"]["smoke_table4"] = suite_table4(n_procs=2, apps=["TSP"])
        report["suites"]["smoke_serve"] = suite_serve(n_procs=2, requests=256)
        return report
    for name in suites:
        print(f"running suite {name} ...", file=sys.stderr)
        report["suites"][name] = SUITES[name](n_procs=n_procs)
    return report


def compare(report: dict, baseline: dict, gate: bool = False) -> list[str]:
    """Human-readable lines for the suites of ``report`` against ``baseline``.

    Each line says what the gate holds: simulated-cycle rows must match
    exactly — a kernel change that alters them is a correctness bug,
    and the comparison says so — and ``events``, which is deterministic,
    is shown against the baseline's.

    With ``gate=True`` a suite also fails (``REGRESSED``) when the
    baseline has nothing to hold it to — no such suite, or no event
    count: a gate that skips what it cannot compare checks nothing —
    or when ``events`` exceeds the baseline's.
    """
    lines = []
    for name, cur in report["suites"].items():
        base = baseline.get("suites", {}).get(name)
        if base is None:
            if gate:
                lines.append(f"{name}: not in baseline: REGRESSED (gate has nothing to compare)")
            continue
        cycles_ok = base["rows"] == cur["rows"]
        line = f"{name}: cycles {'identical' if cycles_ok else 'DIFFER (BUG)'}"
        base_ev, cur_ev = base.get("events"), cur["events"]
        if not base_ev:
            line += "  events not in baseline"
            if gate:
                line += ": REGRESSED (gate has nothing to compare)"
        else:
            line += f"  events {base_ev} -> {cur_ev} ({(cur_ev - base_ev) / base_ev * 100:+.1f}%)"
            if gate and cur_ev > base_ev:
                line += " REGRESSED"
        lines.append(line)
    return lines


def configure(parser) -> None:
    parser.add_argument("--suites", nargs="+", choices=sorted(SUITES), default=sorted(SUITES))
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run: TSP on 2 nodes (fig7a, table4) + a small serve run")
    parser.add_argument("--baseline", type=existing_file, default=None,
                        help="earlier bench report to compare against")
    parser.add_argument("--gate", action="store_true",
                        help="with --baseline: also fail on a suite or event count the baseline "
                             "lacks, and on an event count above the baseline's")
    add_shared(parser, "procs", "out")


def run(args, art) -> int:
    # Read the baseline up front: a bad file should fail before the
    # suites burn minutes, not after.
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    names = ("smoke", "smoke_table4", "smoke_serve") if args.smoke else args.suites
    if baseline is not None and not args.gate and not set(names) & set(baseline.get("suites", {})):
        raise UsageError(f"{args.baseline} shares no suite with {' '.join(names)}: nothing to compare")
    report = run_bench(args.suites, n_procs=args.procs, smoke=args.smoke)
    print(f"wrote {art.write(report)}")
    for name, suite in report["suites"].items():
        print(f"  {name}: {suite['events']} events")
    if baseline is not None:
        lines = compare(report, baseline, gate=args.gate)
        print(f"vs {args.baseline}:")
        for line in lines:
            print("  " + line)
        if any("DIFFER" in line or "REGRESSED" in line for line in lines):
            return FAILED
    return OK
