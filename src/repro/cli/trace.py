"""``trace`` — record traced workload runs; export JSONL + Perfetto; summarise.

For each requested (app, protocol-variant) pair this runs the bench
workload with the observability layer on (``repro.obs``) and writes,
beside the report (in ``trace-artifacts/`` when no ``--out`` names
one), the two data files external viewers read:

* ``<app>-<variant>.trace.jsonl`` — structured events, one JSON object
  per line (header line carries drop counts and histograms);
* ``<app>-<variant>.perfetto.json`` — load it at
  https://ui.perfetto.dev: one track per node, flow arrows on the
  causal send→receive edges, RPC round trips as slices, phases as
  spans.

The report holds one run record per pair whose ``trace`` section is
the run's message-mix / stall summary — the trace-level view of the
paper's Table 4 story (why a custom protocol wins: fewer messages,
fewer misses, less stall time) — which it also prints.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli.common import TRACE_RING, add_shared, traced_pairs
from repro.cli.report import run_record
from repro.harness.experiments import format_table, trace_run
from repro.obs import run_summary, to_jsonl, to_perfetto


def configure(parser) -> None:
    add_shared(parser, "apps", "variants", "procs", "out")


def run(args, art) -> int:
    pairs = traced_pairs(args)
    data = art.report.parent if args.out is not None else Path("trace-artifacts")
    data.mkdir(parents=True, exist_ok=True)
    runs = []
    for app, variant in pairs:
        res, buf = trace_run(app, variant, n_procs=args.procs, capacity=TRACE_RING)
        runs.append(run_record(dict(suite="trace", app=app, variant=variant, procs=args.procs),
                               res, trace=run_summary(res, buf)))
        stem = data / f"{app.lower()}-{variant.lower()}"
        jsonl, perfetto = f"{stem}.trace.jsonl", f"{stem}.perfetto.json"
        n = to_jsonl(buf, jsonl)
        to_perfetto(buf, perfetto)
        print(f"wrote {jsonl} and {perfetto} ({n} events, {buf.dropped} dropped)",
              file=sys.stderr)
    summaries = {(r["cell"]["app"], r["cell"]["variant"]): r["trace"] for r in runs}

    print(format_table(
        f"Message mix / stall summary (ace, {args.procs} procs)",
        ["app", "protocol", "cycles", "msgs", "words", "stall_cyc", "top categories"],
        [
            [app, variant, s["cycles"], s["msg_total"], s["msg_words"], s["stall_total"],
             ", ".join(f"{cat.rsplit('.', 1)[-1]}:{n}" for cat, n in list(s["mix"].items())[:3])]
            for (app, variant), s in summaries.items()
        ],
    ))
    for (app, variant), summary in summaries.items():
        if summary["hists"]:
            print(f"\n{app} [{variant}] latency histograms (cycles):")
            for name, digest in summary["hists"].items():
                print(f"  {name:32s} n={digest['count']:<6d} mean={digest['mean']:<9} "
                      f"p50={digest['p50']:<7d} p99={digest['p99']:<7d} max={digest['max']}")
        if summary["phases"]:
            print(f"{app} [{variant}] per-phase message totals:")
            for phase, delta in summary["phases"].items():
                msgs = delta.get("msg.total", 0)
                words = delta.get("msg.words", 0)
                print(f"  {phase:12s} msgs={msgs:<8d} words={words}")
    return art.finish(runs, [])
