"""``sweep`` — farm independent experiment cells across cores.

Every simulation in this repo is deterministic and single-threaded, so
an experiment matrix — protocol variant × app × node count × fault
plan — is embarrassingly parallel: each cell runs in its own worker
process and the report is independent of worker count and scheduling
(``--compare-serial`` proves it on demand).

The report holds one run record per cell, in the ``sweep`` suite: its
simulated cycles, kernel events and fault/retry counters.  ``chaos
--from-sweep`` replays its faulted cells, and ``bench --baseline``
compares two sweep reports cell by cell.

A cell that stalls under an un-maskable fault plan fails the run; its
record carries the offending :class:`~repro.dsm.FaultPlan` and stall
report, so the cell can be reproduced from the report alone.
"""

from __future__ import annotations

import os
import sys
from multiprocessing import Pool

from repro.cli.common import PLANS, add_shared, build_matrix, selected_apps
from repro.cli.report import cell_tag, check, run_record
from repro.dsm import StallError
from repro.harness.experiments import run_app

#: fault-plan families the swept matrix crosses
SWEEP_PLANS = ["none", "canonical"]


def run_cell(cell: dict) -> dict:
    """Run one cell; returns its record.

    Top-level (picklable) so a worker pool can map over it; a cell
    that stalls is recorded with its stall report rather than raised,
    so one bad cell can't sink a sweep.
    """
    plan = PLANS[cell["plan"]](cell["seed"])
    armed = cell["plan"] != "none"
    try:
        res = run_app(cell["app"], cell["variant"], n_procs=cell["procs"],
                      **({"fault_plan": plan} if armed else {}))
    except StallError as err:
        return run_record(cell, stall=err.report.to_dict(), fault_plan=plan.to_dict())
    return run_record(cell, res, fault_plan=plan.to_dict() if armed else None)


def sweep(cells: list[dict], jobs: int) -> list[dict]:
    """Run the matrix; returns the records in cell order."""
    if jobs <= 1:
        return [run_cell(c) for c in cells]
    with Pool(processes=min(jobs, len(cells))) as pool:
        return pool.map(run_cell, cells)


def configure(parser) -> None:
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes (1 = serial; default: all cores)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI matrix: TSP+EM3D, SC only, 2 nodes, one faulted seed")
    parser.add_argument("--compare-serial", action="store_true",
                        help="re-run every cell serially and fail on any record mismatch")
    add_shared(parser, "apps", "procs", "seeds", "out")


def run(args, art) -> int:
    if args.smoke:
        # SC pairs only: small, but still one faulted run per app so the
        # retry machinery is exercised
        cells = [c for c in build_matrix("sweep", ["TSP", "EM3D"], [2], SWEEP_PLANS, [0])
                 if c["variant"] == "SC"]
    else:
        cells = build_matrix("sweep", selected_apps(args), [args.procs], SWEEP_PLANS, args.seeds)

    print(f"sweep: {len(cells)} cells on {args.jobs} worker(s)", file=sys.stderr)
    runs = sweep(cells, args.jobs)
    checks = [check(f"{cell_tag(r['cell'])} completes", False, r["stall"]["reason"])
              for r in runs if r["stall"] is not None]
    if args.compare_serial:
        # Determinism: the pool must be invisible in the physics, so the
        # serial re-run's records must equal the pool's, cell for cell.
        print("re-running serially for the determinism check ...", file=sys.stderr)
        serial = sweep(cells, 1)
        differ = [cell_tag(a["cell"]) for a, b in zip(runs, serial) if a != b]
        checks.append(check("serial re-run", not differ,
                            f"{differ[0]} differs" if differ else f"{len(runs)} records identical"))
    print(f"sweep: {len(cells)} cells, {sum(r['events'] or 0 for r in runs)} events")
    for c in checks:
        print(f"  {c['name']}: {'ok' if c['ok'] else 'FAILED'} — {c['detail']}")
    return art.finish(runs, checks)
