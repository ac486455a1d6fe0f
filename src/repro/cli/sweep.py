"""``sweep`` — farm independent experiment cells across cores.

Every simulation in this repo is deterministic and single-threaded, so
an experiment matrix — protocol variant × app × node count × fault
plan — is embarrassingly parallel: each cell runs in its own worker
process and the merged report is independent of worker count and
scheduling (``--compare-serial`` proves it on demand).

The report carries two views of the same run:

* ``cells`` — one record per cell with its simulated cycles, kernel
  events, wall clock, and fault/retry counters: what ``chaos
  --from-sweep`` consumes to re-verify fault tolerance on exactly the
  swept matrix;
* ``suites.sweep`` — a ``bench``-shaped block (``wall_s`` / ``events``
  / ``events_per_s`` / ``rows``), so two sweep reports can be diffed
  with ``bench --baseline`` and its cycles-identical gate.

Cells that stall under an un-maskable fault plan are recorded, and
fail the run: the offending :class:`~repro.dsm.FaultPlan` and stall
report are written as per-run files so the cell can be reproduced from
artifacts alone.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import Pool

from repro.cli.common import (
    CELL_KEYS,
    FAILED,
    OK,
    PLANS,
    add_shared,
    build_matrix,
    cell_tag,
    selected_apps,
)
from repro.dsm import StallError
from repro.harness.experiments import run_app

#: fault-plan families the swept matrix crosses
SWEEP_PLANS = ["none", "canonical"]


def run_cell(cell: dict) -> dict:
    """Run one cell; returns the cell plus its measurements.

    Top-level (picklable) so a worker pool can map over it; a cell
    that stalls reports ``stalled`` with the plan and report embedded
    rather than raising, so one bad cell can't sink a sweep.
    """
    fault_plan = PLANS[cell["plan"]](cell["seed"])
    kwargs = {} if cell["plan"] == "none" else {"fault_plan": fault_plan}
    t0 = time.perf_counter()
    try:
        res = run_app(cell["app"], cell["variant"], n_procs=cell["procs"], **kwargs)
    except StallError as err:
        return {
            **cell,
            "wall_s": round(time.perf_counter() - t0, 4),
            "stalled": True,
            "fault_plan": fault_plan.to_dict(),
            # through JSON: plain data only crosses the pool's pickle boundary
            "stall_report": json.loads(err.report.to_json()),
        }
    return {
        **cell,
        "wall_s": round(time.perf_counter() - t0, 4),
        "stalled": False,
        "cycles": res.time,
        "events": res.machine.sim.events,
        "faults": {
            "drop": res.stats.get("fault.drop"),
            "dup": res.stats.get("fault.dup"),
            "delay": res.stats.get("fault.delay"),
            "retries": res.stats.get("rel.retry"),
        },
    }


def sweep(cells: list[dict], jobs: int) -> tuple[list[dict], float]:
    """Run the matrix; returns (records in cell order, wall seconds)."""
    t0 = time.perf_counter()
    if jobs <= 1:
        records = [run_cell(c) for c in cells]
    else:
        with Pool(processes=min(jobs, len(cells))) as pool:
            records = pool.map(run_cell, cells)
    return records, time.perf_counter() - t0


def merge(records: list[dict], wall: float, jobs: int) -> dict:
    """Fold cell records into the report (see module doc)."""
    events = sum(r["events"] for r in records if not r["stalled"])
    rows = [[*(r[k] for k in CELL_KEYS), "STALL" if r["stalled"] else r["cycles"]] for r in records]
    return {
        "jobs": jobs,
        "cells": records,
        "suites": {
            "sweep": {
                "wall_s": round(wall, 4),
                "events": events,
                "events_per_s": round(events / wall) if wall else None,
                "rows": rows,
            }
        },
    }


def compare_serial(cells: list[dict], records: list[dict]) -> list[str]:
    """Re-run every cell serially; report any cycles/events divergence.

    This is the determinism proof for the pool: worker processes must
    be invisible in the physics.  Returns human-readable mismatch
    lines (empty = identical).
    """
    mismatches = []
    for cell, par in zip(cells, records):
        ser = run_cell(cell)
        for field in ("stalled", "cycles", "events"):
            if ser.get(field) != par.get(field):
                mismatches.append(
                    f"{cell_tag(cell)}: {field} parallel={par.get(field)} serial={ser.get(field)}"
                )
    return mismatches


def configure(parser) -> None:
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes (1 = serial; default: all cores)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI matrix: TSP+EM3D, SC only, 2 nodes, one faulted seed")
    parser.add_argument("--compare-serial", action="store_true",
                        help="re-run every cell serially and fail on any cycle mismatch")
    add_shared(parser, "apps", "procs", "seeds", "out")


def run(args, art) -> int:
    if args.smoke:
        # SC pairs only: small, but still one faulted run per app so the
        # retry machinery is exercised
        cells = [c for c in build_matrix(["TSP", "EM3D"], [2], SWEEP_PLANS, [0]) if c["variant"] == "SC"]
    else:
        cells = build_matrix(selected_apps(args), [args.procs], SWEEP_PLANS, args.seeds)

    print(f"sweep: {len(cells)} cells on {args.jobs} worker(s)", file=sys.stderr)
    records, wall = sweep(cells, args.jobs)
    report = merge(records, wall, args.jobs)
    print(f"wrote {art.write(report)}")
    suite = report["suites"]["sweep"]
    print(f"  sweep: {len(cells)} cells, {suite['wall_s']:.3f}s, "
          f"{suite['events']} events, {suite['events_per_s']} events/s")

    stalled = [r for r in records if r["stalled"]]
    for r in stalled:
        for suffix, payload in (("plan", r["fault_plan"]), ("stall", r["stall_report"])):
            print(f"  stalled: {art.write(payload, f'{cell_tag(r)}-{suffix}.json')}")

    if args.compare_serial:
        print("re-running serially for the determinism check ...", file=sys.stderr)
        mismatches = compare_serial(cells, records)
        for line in mismatches:
            print("  MISMATCH " + line)
        if mismatches:
            return FAILED
        print(f"  serial check: all {len(cells)} cells identical")
    return FAILED if stalled else OK
