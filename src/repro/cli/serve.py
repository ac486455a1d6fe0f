"""``serve`` — the sharded KV service under the shifting-mix workload.

Runs :mod:`repro.serve` (DESIGN.md §16) on the seeded workload whose
read fraction drops from 0.95 to 0.1 mid-stream, and prints a report:
simulated cycles, requests per kilocycle, bucketed completion-latency
percentiles, per-shard read/write mix, and — in adaptive mode — the
controller's full decision audit.  Each run's record carries that
report as its ``serve`` section.

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

from repro.cli.common import add_shared, positive_int
from repro.cli.report import check, run_record
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


def serve_record(workload: ServeWorkload, config: str, n_procs: int) -> dict:
    """The record of one :func:`run_config` run, in the cell bench's serve
    suite gives it; its ``serve`` section is run_serve's report."""
    res, report = run_config(workload, config, n_procs)
    for key in ("protocols_initial", "protocols_final", "shard_mix"):  # keyed by shard number
        report[key] = {str(shard): v for shard, v in report[key].items()}
    return run_record(dict(suite="serve", app="serve", variant=config, procs=n_procs), res,
                      serve=report)


def label(config: str) -> str:
    """How the comparison names a config: ``adaptive`` or ``static:<protocol>``."""
    return config if config == "adaptive" else f"static:{config}"


def run_compare(workload: ServeWorkload, n_procs: int) -> list[dict]:
    """Every static candidate plus adaptive on the same workload, fastest first."""
    runs = []
    for name in [*default_registry.serving_candidates(), "adaptive"]:
        print(f"{name} ...", file=sys.stderr)
        runs.append(serve_record(workload, name, n_procs))
    return sorted(runs, key=lambda r: r["cycles"])


def advantage(runs: list[dict]) -> tuple[dict, dict, float]:
    """The adaptive run, the fastest static run, and the fraction of the
    latter's cycles that adaptive saved."""
    adaptive = next(r for r in runs if r["cell"]["variant"] == "adaptive")
    best = min((r for r in runs if r is not adaptive), key=lambda r: r["cycles"])
    return adaptive, best, round(1 - adaptive["cycles"] / best["cycles"], 4)


def print_compare(runs: list[dict]) -> dict:
    """Print the ranking; returns the check that adaptive beat every static config."""
    print(f"{'config':24s} {'cycles':>10s} {'msgs':>8s} {'p99 lat':>10s} {'switches':>8s}")
    for r in runs:
        config, s = r["cell"]["variant"], r["serve"]
        print(
            f"{label(config):24s} {r['cycles']:10d} {s['msgs']:8d} "
            f"{s['latency']['p99']:10d} {s['switches'] if config == 'adaptive' else '-':>8}"
        )
    adaptive, best, adv = advantage(runs)
    wins = adaptive["cycles"] < best["cycles"]
    line = (
        f"adaptive {'BEATS' if wins else 'DOES NOT BEAT'} best static ({label(best['cell']['variant'])}): "
        f"{adaptive['cycles']} vs {best['cycles']} cycles ({adv * 100:+.1f}%)"
    )
    print(line)
    return check("adaptive beats every static config", wins, line)


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
    if args.compare:
        runs = run_compare(workload, args.procs)
        checks = [print_compare(runs)]
    else:
        runs = [serve_record(workload, "adaptive" if args.adaptive else args.protocol, args.procs)]
        checks = []
        result = runs[0]["serve"]
        print(json.dumps({k: v for k, v in result.items() if k != "decisions"}, indent=2))
        if args.adaptive:
            print(f"switches: {result['switches']}  final: {result['protocols_final']}")
    return art.finish(runs, checks)
