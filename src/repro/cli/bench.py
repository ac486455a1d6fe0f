"""``bench`` — the deterministic cycles/events gate on the paper suites.

Runs fig7a, fig7b, table4 and the serving stack end to end and
reports one run record per table row: its simulated cycles, exactly
as the experiments report them, which must be bit-identical across
kernel optimizations (the golden-trace tests pin the same property),
and its kernel events (``Simulator.events``), which are deterministic
and host-independent, so their sum per suite is the gate's "no worse"
signal.

Nothing here reads the host clock: host time is ``perf/run.py``'s job.

``--baseline`` holds the runs to an earlier report's, paired by cell
(see :func:`repro.cli.report.compare`; a baseline that shares no suite
with the run is a usage error); with ``--gate`` (CI, against
``BENCH_seed.json``) a suite the baseline lacks, or one whose event
count grew, fails too.  ``--smoke`` is the seconds-long version: TSP
on 2 nodes through fig7a and table4 plus a 256-request serve run.
"""

from __future__ import annotations

import sys

from repro.cli.common import UsageError, add_shared, report_file
from repro.cli.report import compare, run_record, suite_events
from repro.cli.serve import run_config, shift_workload
from repro.harness.experiments import fig7a_runs, fig7b_runs, table4_runs


def serve_runs(n_procs: int, requests: int = 2048):
    """The serving stack (DESIGN.md §16): the two regime-best static
    protocols bracketing the adaptive controller on one seeded workload
    with a mid-run read/write-mix shift.  Seeded traffic and a
    deterministic controller make the cycles deterministic, so the
    bench doubles as the serve determinism gate."""
    wl = shift_workload(requests)
    for config in ("DynamicUpdate", "Migratory", "adaptive"):
        yield "serve", config, run_config(wl, config, n_procs)[0]


#: suite -> its ``(app, label, RunResult)`` runs on ``n`` nodes
SUITES = {
    "fig7a": fig7a_runs,
    "fig7b": fig7b_runs,
    "serve": serve_runs,
    "table4": lambda n: table4_runs(None, n),
}
#: TSP on 2 nodes through the runtime and through the compiler (all
#: four levels + hand), and a tiny serving run: every stack the full
#: suites cover, in seconds
SMOKE = {
    "smoke": lambda n: fig7a_runs(n, ["TSP"]),
    "smoke_table4": lambda n: table4_runs(["TSP"], n),
    "smoke_serve": lambda n: serve_runs(n, requests=256),
}


def run_bench(suites: list[str], n_procs: int, smoke: bool = False) -> list[dict]:
    """The run records of the named suites on ``n_procs`` nodes, or of the smoke suites."""
    chosen = SMOKE if smoke else {name: SUITES[name] for name in suites}
    n_procs = 2 if smoke else n_procs
    runs = []
    for name, suite in chosen.items():
        print(f"running suite {name} ...", file=sys.stderr)
        runs += [run_record(dict(suite=name, app=app, variant=label, procs=n_procs), res)
                 for app, label, res in suite(n_procs)]
    return runs


def configure(parser) -> None:
    parser.add_argument("--suites", nargs="+", choices=sorted(SUITES), default=sorted(SUITES))
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run: TSP on 2 nodes (fig7a, table4) + a small serve run")
    # read and validated as the flag is parsed: a bad file fails before
    # the suites burn minutes, not after
    parser.add_argument("--baseline", type=report_file, default=None, metavar="REPORT",
                        help="earlier report to compare against")
    parser.add_argument("--gate", action="store_true",
                        help="with --baseline: also fail on a suite or event count the baseline "
                             "lacks, and on an event count above the baseline's")
    add_shared(parser, "procs", "out")


def run(args, art) -> int:
    baseline = args.baseline
    names = SMOKE if args.smoke else args.suites
    if baseline is not None and not args.gate and not set(names) & set(suite_events(baseline["runs"])):
        raise UsageError(f"the baseline shares no suite with {' '.join(names)}: nothing to compare")
    runs = run_bench(args.suites, n_procs=args.procs, smoke=args.smoke)
    checks = [] if baseline is None else compare({"runs": runs}, baseline, gate=args.gate)
    for name, events in suite_events(runs).items():
        print(f"  {name}: {events} events")
    if baseline is not None:
        print("vs the baseline:")
        for c in checks:
            print(f"  {c['name']}: {c['detail']}")
    return art.finish(runs, checks)
