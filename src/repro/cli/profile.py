"""``profile`` — where a traced run's simulated cycles went.

For each requested (app, protocol-variant) pair this runs the bench
workload with observability on and prints

* the **cycle attribution table** — every node's timeline decomposed
  into compute / message wait / lock wait / barrier wait / directory
  service / retry / join / idle buckets.  The decomposition is exact:
  buckets sum to ``cycles × nodes`` (``--check`` fails if it ever does
  not);
* the **critical path** — the longest weighted chain of causal edges
  (compute stretches, message wire hops, wakeups, barrier releases)
  with its per-category composition and the heaviest segments, each
  annotated with the application phase it crossed;
* **what-if bounds** — the same path re-scanned with selected edge
  classes zeroed (free interconnect, free barriers, free locks): an
  upper bound on the speedup any optimization of that cost could buy;
* the **windowed metrics** digest (message mix, stall fraction) fed by
  a :class:`repro.obs.MetricsWindow` attached to the trace ring.

With ``--out`` it writes the report: one run record per pair whose
``attribution``, ``critical_path`` and ``metrics`` sections hold the
same numbers, and ``--check``'s verdicts.
"""

from __future__ import annotations

import sys

from repro.cli.common import TRACE_RING, add_shared, traced_pairs
from repro.cli.report import check, run_record
from repro.harness.experiments import format_table, trace_run
from repro.obs import MetricsWindow, attribute, critical_path

#: Attribution buckets in table order (idle last; zero columns elided).
COLUMNS = ["compute", "msg", "lock", "barrier", "dir", "retry", "join", "other", "idle"]
#: metrics window width in cycles; critical-path segments printed
WINDOW, TOP_K = 4096, 8


def print_attribution(app, variant, res, attr) -> None:
    cols = [c for c in COLUMNS if attr.buckets.get(c)]
    rows = []
    for nid in sorted(attr.per_node):
        b = attr.per_node[nid]
        rows.append([f"node{nid}"] + [b.get(c, 0) for c in cols] + [sum(b.values())])
    total = sum(attr.buckets.values())
    rows.append(["TOTAL"] + [attr.buckets.get(c, 0) for c in cols] + [total])
    rows.append(["%"] + [f"{attr.buckets.get(c, 0) / total * 100:.1f}" for c in cols] + [""])
    status = "exact" if attr.exact else f"approx ({attr.dropped} events dropped)"
    print(format_table(
        f"{app} [{variant}] cycle attribution — {res.time} cycles x "
        f"{attr.n_nodes} nodes ({status})",
        ["node"] + cols + ["sum"],
        rows,
    ))


def print_critpath(cp, res) -> None:
    pct = cp.length / res.time * 100 if res.time else 0.0
    comp = ", ".join(
        f"{cat}:{cyc}" for cat, cyc in sorted(cp.by_category.items(), key=lambda kv: -kv[1]) if cyc
    )
    print(f"\n  critical path: {cp.length} cycles ({pct:.1f}% of makespan), "
          f"{cp.n_events} events, {cp.n_edges} edges, "
          f"{cp.orphaned_edges} orphaned")
    print(f"  composition:   {comp}")
    print(f"  top {TOP_K} segments:")
    for seg in cp.top_segments(TOP_K):
        print(f"    {seg['cycles']:8d} cyc  {seg['category']:<14s} "
              f"phase={seg['phase']:<12s} node={seg['node']:>2d} "
              f"[{seg['from_ts']}..{seg['to_ts']}]")
    print("  what-if bounds (upper bounds; dependencies not re-simulated):")
    for name, bound in cp.to_dict(top_k=0)["what_if"].items():
        sp = bound["speedup_bound"]
        print(f"    {name:<22s} makespan >= {bound['bound_cycles']:8d}  "
              f"speedup <= {sp if sp is not None else 'inf'}")


def check_run(tag, res, attr, cp) -> list[dict]:
    """``--check``: the run's attribution reconciles, and its critical
    path fits the makespan and, with nothing evicted, has no orphan."""
    total = sum(attr.buckets.values())
    return [
        check(f"{tag} attribution reconciles", not attr.exact or attr.reconciles(),
              f"{total} of {attr.total} cycles attributed"),
        check(f"{tag} critical path within makespan", cp.length <= res.time,
              f"{cp.length} of {res.time} cycles"),
        check(f"{tag} no orphaned edge", not attr.exact or not cp.orphaned_edges,
              f"{cp.orphaned_edges} orphaned edges, {attr.dropped} events dropped"),
    ]


def configure(parser) -> None:
    parser.add_argument("--check", action="store_true",
                        help="fail unless attribution reconciles exactly and the critical "
                             "path is <= the makespan on every run")
    add_shared(parser, "apps", "variants", "procs", "out")
    parser.set_defaults(apps=["EM3D", "TSP"])


def run(args, art) -> int:
    runs, checks = [], []
    for app, variant in traced_pairs(args):
        metrics = MetricsWindow(width=WINDOW)
        res, buf = trace_run(app, variant, n_procs=args.procs, capacity=TRACE_RING, metrics=metrics)
        attr = attribute(buf, res.time, args.procs, strict=False)
        cp = critical_path(buf, res.time)
        print_attribution(app, variant, res, attr)
        print_critpath(cp, res)
        ms = metrics.summary(res.time, args.procs)
        print(f"  metrics: {ms['windows']} windows x {ms['width']} cyc, "
              f"{ms['msgs']} msgs, stall fraction {ms.get('stall_fraction', 0)}\n")
        if args.check:
            checks += check_run(f"{app}/{variant}", res, attr, cp)
        runs.append(run_record(
            dict(suite="profile", app=app, variant=variant, procs=args.procs), res,
            attribution=attr.to_dict(), critical_path=cp.to_dict(top_k=TOP_K), metrics=ms,
        ))
    failed = [c for c in checks if not c["ok"]]
    if failed:
        print("CHECK FAILED:", file=sys.stderr)
        for c in failed:
            print(f"  {c['name']}: {c['detail']}", file=sys.stderr)
    elif args.check:
        print("all profiling checks passed", file=sys.stderr)
    return art.finish(runs, checks)
