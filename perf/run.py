#!/usr/bin/env python3
"""The repository's benchmark: 8 workloads, two clocks, host time per layer.

One run of one workload (what ``BENCHMARK.json``'s command drives)::

    python3 perf/run.py --workload apps_sc --seed 7 --seconds 8 --trace 0

sets up (inputs from ``--seed``, references, compiles, a warm-up pass),
repeats the workload's timed region for ``--seconds`` with profiling
off, verifies every output, and prints one JSON object as its last
line: the end-to-end metrics (``--trace 0``) or, from a pass under
cProfile plus untraced probes, the per-layer metrics (``--trace 1``).

The whole benchmark (no ``--workload``)::

    python3 perf/run.py [--seed N] [--workloads ...] [--repeats 3] [--out FILE]
    python3 perf/run.py --quick            # smoke: tiny inputs, < 30 s
    python3 perf/run.py --repeat-check     # twice back to back, compared

runs every (workload, repeat) in a fresh subprocess, then one traced
run per workload, prints every metric by name with its unit and writes
one result JSON.  See ``perf/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy and repro load

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics

#: a child that takes longer than this is reported as failed
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------- one workload
def run_one(args) -> int:
    """Driver mode: one workload in this process; result on the last line."""
    import harness
    import macro
    import micro

    workload = {w.name: w for w in micro.WORKLOADS + macro.WORKLOADS}[args.workload]
    inputs = harness.prepare(workload, args.seed, args.quick)
    setup_s = time.perf_counter() - _T0
    # the host's speed right after set-up: lets two runs' set-up times
    # be compared as ratios (setup_rel), like wall_rel
    setup = (setup_s, setup_s / harness.calibrate())
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if args.trace:
        result, detail = harness.trace(workload, inputs, args.seconds)
    else:
        # set-up again in fresh interpreters: imports and caches are
        # cold each time, so work moved into either still shows
        extra = 0 if args.quick else 2
        setups = [setup] + [_fresh_setup(args) for _ in range(extra)]
        result, detail = harness.measure(workload, inputs, args.seconds, setups)
    detail.update(workload=workload.name, seed=args.seed, quick=args.quick, digest=inputs["digest"])
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 1 if result["failed"] else 0


def _child_argv(args, workload: str) -> list:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
    return argv + (["--quick"] if args.quick else [])


def _fresh_setup(args) -> tuple:
    """(set-up seconds, the same over a calibration loop) of a fresh interpreter."""
    done = subprocess.run(
        _child_argv(args, args.workload) + ["--setup-only"],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------- the whole thing
def _child(args, workload: str, trace: int) -> dict:
    """One driver-mode run in a fresh subprocess; its result + detail."""
    argv = _child_argv(args, workload) + ["--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problem = f"no result within {CHILD_TIMEOUT_S} s"
    else:
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            result["detail"] = json.loads(lines[-2].removeprefix("detail "))
            return result
        except (IndexError, ValueError):
            problem = f"exit {done.returncode} and no result: {done.stderr[-400:]}"
    return {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        "detail": {"failures": [f"{workload} --trace {trace}: {problem}"]},
    }


def _spread(samples: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {
        "value": statistics.median(samples), "unit": unit,
        "min": min(samples), "max": max(samples), "q1": q1, "q3": q3, "n": len(samples),
    }


def _summarize(workload: str, runs: list, traced: dict) -> dict:
    """One workload's block of the result JSON."""
    attempted = sum(r["attempted"] for r in runs + [traced])
    failures = [f for r in runs + [traced] for f in r["detail"]["failures"]]
    end_to_end = {}
    for name, unit, _, _ in metrics.END_TO_END:
        samples = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if samples:
            end_to_end[name] = _spread(samples, unit)
    # recorded beside the declared metrics: plain pass seconds (the host's
    # speed drifts; wall_rel is the bounded twin) and set-up as a ratio
    # (what --repeat-check compares; setup_s is the plain seconds)
    for name, unit, samples in (("wall_s", "s", "wall_samples_s"), ("setup_rel", "x", "setup_rel_samples")):
        medians = [statistics.median(r["detail"][samples]) for r in runs if samples in r["detail"]]
        if medians:
            end_to_end[name] = _spread(medians, unit)
    if "sim_cycles" in end_to_end and end_to_end["sim_cycles"]["min"] != end_to_end["sim_cycles"]["max"]:
        failures.append("sim_cycles differs between repeats of one seed")
    end_to_end["failed_share"] = {
        "value": len(failures) / attempted, "unit": "failed/attempted",
        "failed": len(failures), "attempted": attempted,
    }
    per_layer = {
        name: value for name, value in traced["metrics"].items() if metrics.applies(name, workload)
    }
    # the paper's clock on serve: exact counts, read from unprofiled passes
    for name in ("sim_mean_latency_cycles", "sim_sustained_rate"):
        if name in per_layer:
            end_to_end[name] = per_layer.pop(name)
    first = runs[0]["detail"]
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "failures": failures,
        "input_digest": first.get("digest"),
        "sim_cycles_rows": first.get("rows"),
        "passes_per_run": [r["detail"].get("passes") for r in runs],
        "trace": {k: v for k, v in traced["detail"].items() if k.endswith("_s")},
    }


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_all(args) -> dict:
    report = {
        "stamp": time.strftime("%Y-%m-%dT%H%M%SZ", time.gmtime()),
        "quick": args.quick,
        "comparable": "quick runs are smoke tests; never compare them with full runs"
        if args.quick else "full",
        "seed": args.seed,
        "repeats": args.repeats,
        "run_seconds": args.seconds,
        "git_commit": _git_commit(),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "accuracy": "model unvalidated against hardware; no error figure",
        "workloads": {},
    }
    for workload in args.workloads:
        print(f"{workload} ...", file=sys.stderr, flush=True)
        runs = [_child(args, workload, trace=0) for _ in range(args.repeats)]
        report["workloads"][workload] = _summarize(workload, runs, _child(args, workload, trace=1))
    return report


def print_report(report: dict) -> None:
    for workload, block in report["workloads"].items():
        print(f"== {workload}")
        for section in ("end_to_end", "per_layer"):
            for name, m in block[section].items():
                spread = f"  [min {m['min']:.6g}, max {m['max']:.6g}, n {m['n']}]" if "n" in m else ""
                print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{spread}")
        for failure in block["failures"]:
            print(f"  FAILED {failure}")


def failed(report: dict) -> bool:
    return any(block["failures"] for block in report["workloads"].values())


# ------------------------------------------------------------ repeat check
def repeat_check(first: dict, second: dict) -> list:
    """One row per bounded or exact metric: both values, their relative
    difference, the bound, and whether the difference is inside it.

    Host time is compared as ratios to the calibration loop
    (``wall_rel``, ``setup_rel``); plain seconds (``wall_s``,
    ``setup_s``) are listed for the record, without a bound — between
    two runs minutes apart the host's speed alone moves them by 25%."""
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    bounds |= {"setup_rel": bounds["setup_s"], "setup_s": None, "wall_s": None}
    exact = metrics.EXACT | {"sim_cycles", "failed_share"}
    rows = []
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for section in ("end_to_end", "per_layer"):
            for name, m in a[section].items():
                if name not in exact and name not in bounds:
                    continue
                x, y = m["value"], b[section].get(name, {}).get("value")
                if y is None:
                    diff = float("inf")
                else:
                    diff = abs(y - x) / abs(x) if x else float(x != y)
                bound = 0.0 if name in exact else bounds[name]
                rows.append({"workload": workload, "metric": name, "first": x, "second": y,
                             "diff": diff, "bound": bound, "ok": bound is None or diff <= bound})
    print(f"{'workload':16s} {'metric':32s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for r in rows:
        second = "missing" if r["second"] is None else f"{r['second']:.6g}"
        bound = "none" if r["bound"] is None else f"{r['bound']:.0%}"
        print(f"{r['workload']:16s} {r['metric']:32s} {r['first']:14.6g} {second:>14s} "
              f"{r['diff']:8.2%} {bound:>6s}" + ("" if r["ok"] else "  OUTSIDE"))
    return rows


# --------------------------------------------------------------------- cli
def main(argv=None) -> int:
    names = [name for name, _ in metrics.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=2026, help="offsets every input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long one run measures (default {metrics.RUN_SECONDS}; 0 = one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, profiling off; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one pass, one repeat")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload (default 3)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run everything twice and compare within the benchmark's bounds")
    parser.add_argument("--out", type=Path, default=None, help="result JSON (default perf/results/)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.quick:
        args.repeats = 1
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(metrics.RUN_SECONDS)
    if args.workload:
        return run_one(args)

    report = run_all(args)
    print_report(report)
    ok = not failed(report)
    if args.repeat_check:
        second = run_all(args)
        rows = repeat_check(report, second)
        ok &= not failed(second) and all(r["ok"] for r in rows)
        report["repeat_check"] = {"agrees": ok, "rows": rows}
    out = args.out or HERE / "results" / f"perf-{report['stamp']}{'-quick' if args.quick else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
