"""``serve`` — the sharded KV service under the shifting-mix workload.

Runs :mod:`repro.serve` (DESIGN.md §16) on the seeded workload whose
read fraction drops from 0.95 to 0.1 mid-stream, and prints a report:
simulated cycles, requests per kilocycle, bucketed completion-latency
percentiles, per-shard read/write mix, and — in adaptive mode — the
controller's full decision audit.

``--compare`` is the adaptive-vs-static experiment: every
serving-candidate protocol as a uniform static config plus the
adaptive controller on the same traffic, ranked, in one report (the
committed ``SERVE_seed.json`` is its output on the default flags).  It
passes only if adaptive beat every static config on simulated cycles.

The report is a deterministic function of the command line.
"""

from __future__ import annotations

import json
import sys

from repro.cli.common import FAILED, OK, add_shared, positive_int
from repro.protocols import default_registry
from repro.serve import AdaptiveController, ServeWorkload, run_serve

#: directory-service shards every serve run uses
DIR_SHARDS = 2


def shift_workload(requests: int) -> ServeWorkload:
    """The serving scenario of ``serve`` and of ``bench``'s serve suite."""
    return ServeWorkload(
        n_keys=64, n_shards=4, n_requests=requests, batch=64,
        read_frac=0.95, shift_at=0.5, shift_read_frac=0.1, seed=11,
    )


def run_config(workload: ServeWorkload, config: str, n_procs: int):
    """One run under ``config`` — a protocol name, or ``adaptive`` (every
    shard starts on DynamicUpdate); returns run_serve's ``(RunResult, report)``."""
    if config == "adaptive":
        ctl = AdaptiveController({s: "DynamicUpdate" for s in range(workload.n_shards)})
        return run_serve(workload, controller=ctl, n_procs=n_procs, n_dir_shards=DIR_SHARDS)
    return run_serve(workload, protocol=config, n_procs=n_procs, n_dir_shards=DIR_SHARDS)


def run_compare(workload: ServeWorkload, n_procs: int) -> dict:
    """Every static candidate plus adaptive on the same workload."""
    entries = []
    for name in default_registry.serving_candidates():
        print(f"static {name} ...", file=sys.stderr)
        entries.append({"config": f"static:{name}", **run_config(workload, name, n_procs)[1]})
    print("adaptive ...", file=sys.stderr)
    adaptive = {"config": "adaptive", **run_config(workload, "adaptive", n_procs)[1]}
    best_static = min(entries, key=lambda e: e["cycles"])
    return {
        "workload": workload.to_dict(),
        "n_procs": n_procs,
        "n_dir_shards": DIR_SHARDS,
        "entries": sorted(entries + [adaptive], key=lambda e: e["cycles"]),
        "adaptive_cycles": adaptive["cycles"],
        "best_static": {"config": best_static["config"], "cycles": best_static["cycles"]},
        "adaptive_wins": adaptive["cycles"] < best_static["cycles"],
        "adaptive_advantage": round(1 - adaptive["cycles"] / best_static["cycles"], 4),
    }


def print_compare(result: dict) -> None:
    print(f"{'config':24s} {'cycles':>10s} {'msgs':>8s} {'p99 lat':>10s} {'switches':>8s}")
    for e in result["entries"]:
        print(
            f"{e['config']:24s} {e['cycles']:10d} {e['msgs']:8d} "
            f"{e['latency']['p99']:10d} {e['switches'] if e['config'] == 'adaptive' else '-':>8}"
        )
    adv = result["adaptive_advantage"] * 100
    verdict = "BEATS" if result["adaptive_wins"] else "DOES NOT BEAT"
    print(
        f"adaptive {verdict} best static ({result['best_static']['config']}): "
        f"{result['adaptive_cycles']} vs {result['best_static']['cycles']} cycles ({adv:+.1f}%)"
    )


def configure(parser) -> None:
    parser.add_argument("--requests", type=positive_int, default=2048,
                        help="total requests (default 2048)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--protocol", default="SC", choices=default_registry.serving_candidates(),
                      help="uniform static protocol (default SC)")
    mode.add_argument("--adaptive", action="store_true", help="run the adaptive controller")
    mode.add_argument("--compare", action="store_true",
                      help="all static candidates + adaptive; passes iff adaptive wins")
    add_shared(parser, "procs", "out")


def run(args, art) -> int:
    workload = shift_workload(args.requests)
    status = OK
    if args.compare:
        result = run_compare(workload, args.procs)
        print_compare(result)
        status = OK if result["adaptive_wins"] else FAILED
    else:
        result = run_config(workload, "adaptive" if args.adaptive else args.protocol, args.procs)[1]
        print(json.dumps({k: v for k, v in result.items() if k != "decisions"}, indent=2))
        if args.adaptive:
            print(f"switches: {result['switches']}  final: {result['protocols_final']}")
    if art.requested:
        print(f"wrote {art.write(result)}", file=sys.stderr)
    return status
