"""Regenerate EXPERIMENTS.md from live harness runs.

    python tools/generate_experiments_md.py

Cycle tables come from fresh in-process runs (deterministic, host-
independent); the table4 *throughput* block additionally reads the
committed ``BENCH_*.json`` artifacts, so the before/after wall-clock
story for the closure-codegen backend travels with the repo.
"""

import glob
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness import (  # noqa: E402
    BENCH_PROCS,
    by_app,
    fig7a_rows,
    fig7b_rows,
    sec33_ladder_rows,
    table3_rows,
)
from repro.harness.experiments import table4_rows  # noqa: E402
from repro.serve import ServeWorkload, run_serve  # noqa: E402

SERVE_PROTOCOLS = ("SC", "DynamicUpdate", "Migratory")

PAPER_TABLE4 = {
    # paper Table 4, seconds
    "Barnes-Hut": {"base": 6.12, "LI": 6.03, "LI+MC": 4.75, "LI+MC+DC": 4.60, "hand": 3.74},
    "BSC": {"base": 20.39, "LI": 5.60, "LI+MC": 4.61, "LI+MC+DC": 4.50, "hand": 4.18},
    "EM3D": {"base": 0.29, "LI": 0.26, "LI+MC": 0.25, "LI+MC+DC": 0.17, "hand": 0.13},
    "TSP": {"base": 1.34, "LI": 1.16, "LI+MC": 1.05, "LI+MC+DC": 1.05, "hand": 0.80},
    "Water": {"base": 1.78, "LI": 1.76, "LI+MC": 0.73, "LI+MC+DC": 0.71, "hand": 0.63},
}

LEVELS = ["base", "LI", "LI+MC", "LI+MC+DC", "hand"]

#: the stamped artifact recorded just before the closure-codegen
#: backend landed: the tree-walking interpreter's throughput
INTERP_BASELINE = "BENCH_2026-08-05T224018Z.json"


def table4_throughput():
    """(before, after) table4 suite blocks from committed BENCH files.

    *Before* is the interpreter-era artifact pinned above; *after* is
    the newest stamped artifact in the repo root that ran table4.  Returns (None, None)
    when either is missing so EXPERIMENTS.md can still regenerate from
    a partial checkout.
    """
    root = os.path.join(os.path.dirname(__file__), "..")

    def suite(path):
        try:
            with open(path) as fh:
                return json.load(fh)["suites"].get("table4")
        except (OSError, ValueError, KeyError):
            return None

    before = suite(os.path.join(root, INTERP_BASELINE))
    stamped = sorted(
        p for p in glob.glob(os.path.join(root, "BENCH_*.json"))
        if "seed" not in os.path.basename(p)
    )
    # a partial run (one suite, a --trace-overhead row) has no table4 block
    after = next((s for s in map(suite, reversed(stamped)) if s), None)
    if after is before:  # same file: nothing to compare
        return None, None
    return before, after


def serve_mix_rows():
    """Static-protocol cycles across read/write mixes (small scale).

    The crossover this table shows — update protocols win read-heavy,
    migration wins write-heavy — is what gives the adaptive controller
    something to exploit.
    """
    rows = []
    for rf in (0.95, 0.5, 0.1):
        wl = ServeWorkload(
            n_keys=32, n_shards=2, n_requests=512, batch=32, rate=50.0,
            read_frac=rf, shift_read_frac=None, think_cycles=10, seed=11,
        )
        cells = []
        for name in SERVE_PROTOCOLS:
            _, rep = run_serve(wl, protocol=name, n_procs=3)
            cells.append(rep["cycles"])
        best = SERVE_PROTOCOLS[cells.index(min(cells))]
        rows.append((f"{rf:.2f}", *cells, best))
    return rows


def serve_headline():
    """The committed adaptive-vs-static artifact (tools/serve.py --compare)."""
    path = os.path.join(os.path.dirname(__file__), "..", "SERVE_seed.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def md_table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def main():
    lines = []
    w = lines.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Every entry below was produced by the committed harness "
      "(`benchmarks/`, `repro.harness`); regenerate this file with "
      "`python tools/generate_experiments_md.py`. The substrate is a "
      "simulated multicomputer, so *measured* values are simulated cycles "
      "at bench scale, and the reproduction target is the paper's shape "
      "— ordering, rough factors, crossovers — not absolute CM-5 seconds "
      "(see DESIGN.md §2).")
    w("")

    # -------------------------------------------------- table 3
    w("## Table 3 — benchmark inputs")
    w("")
    w(md_table(["benchmark", "paper input", "bench-scale input (this repo)"], table3_rows()))
    w("")
    w("Paper-scale inputs remain available on every workload class via "
      "`.paper()`; the bench scale keeps each experiment at seconds of "
      "wall clock in the pure-Python simulator.")
    w("")

    # -------------------------------------------------- figure 7a
    d = by_app(fig7a_rows())
    w(f"## Figure 7a — Ace runtime vs CRL (SC protocol, {BENCH_PROCS} simulated procs)")
    w("")
    rows = [
        (app, v["crl"], v["ace"], f"{v['crl'] / v['ace']:.2f}x")
        for app, v in sorted(d.items())
    ]
    w(md_table(["app", "CRL (cycles)", "Ace (cycles)", "CRL/Ace"], rows))
    w("")
    w("**Paper:** Ace at least matches CRL on every benchmark; the gap is "
      "largest for fine-grained Barnes-Hut and EM3D (mapping-path and SC-"
      "protocol engineering), and disappears for coarse-grained BSC, where "
      "the space-dispatch indirection cancels the runtime gains.  "
      "**Measured:** same ordering — Barnes-Hut "
      f"{d['Barnes-Hut']['crl'] / d['Barnes-Hut']['ace']:.2f}x and EM3D "
      f"{d['EM3D']['crl'] / d['EM3D']['ace']:.2f}x lead, BSC "
      f"{d['BSC']['crl'] / d['BSC']['ace']:.2f}x is near parity.")
    w("")

    # -------------------------------------------------- figure 7b
    d = by_app(fig7b_rows())
    w(f"## Figure 7b — SC vs application-specific protocols ({BENCH_PROCS} procs)")
    w("")
    paper_speedup = {
        "Barnes-Hut": "~2x (dynamic update)",
        "BSC": "1.02x (marginal; bulk transfer already default)",
        "EM3D": "~5x (static update)",
        "TSP": "~1.3x (counter management)",
        "Water": "~2x (pipelined writes + null phase)",
    }
    rows = [
        (app, v["SC"], v["custom"], f"{v['SC'] / v['custom']:.2f}x", paper_speedup[app])
        for app, v in sorted(d.items())
    ]
    w(md_table(["app", "SC (cycles)", "custom (cycles)", "measured speedup", "paper"], rows))
    speedups = [v["SC"] / v["custom"] for v in d.values()]
    w("")
    w(f"**Paper:** speedups 1.02x–5x, average ≈ 2.  **Measured:** "
      f"{min(speedups):.2f}x–{max(speedups):.2f}x, average "
      f"{sum(speedups) / len(speedups):.2f} — same winner (EM3D static "
      "update), same loser (BSC, marginal), Water at ≈2x from phase "
      "switching, exactly the paper's narrative.")
    w("")

    # -------------------------------------------------- §3.3
    v = by_app(sec33_ladder_rows())["EM3D"]
    w("## §3.3 (in text) — EM3D protocol ladder")
    w("")
    rows = [
        ("SC invalidate", v["SC"], "1.0x", "1.0x"),
        ("DynamicUpdate", v["DynamicUpdate"], f"{v['SC'] / v['DynamicUpdate']:.2f}x", "3.5x"),
        ("StaticUpdate", v["StaticUpdate"], f"{v['SC'] / v['StaticUpdate']:.2f}x", "~5x"),
    ]
    w(md_table(["protocol", "cycles", "measured speedup", "paper speedup"], rows))
    w("")
    w("Ordering reproduced (SC < dynamic < static). The measured factors "
      "are compressed relative to the paper's because the bench-scale "
      "graph has fewer remote edges per barrier than the CM-5 runs; the "
      "crossover structure is identical.")
    w("")

    # -------------------------------------------------- table 4
    d = by_app(table4_rows())
    w("## Table 4 — effects of compiler optimizations")
    w("")
    w("Measured (simulated cycles, AceC kernels at bench scale):")
    w("")
    apps = sorted(d)
    rows = [(lvl, *[d[a][lvl] for a in apps]) for lvl in LEVELS]
    w(md_table(["optimization", *apps], rows))
    w("")
    w("Paper (seconds on the CM-5):")
    w("")
    rows = [(lvl, *[PAPER_TABLE4[a][lvl] for a in apps]) for lvl in LEVELS]
    w(md_table(["optimization", *apps], rows))
    w("")
    ratios = {a: d[a]["LI+MC+DC"] / d[a]["hand"] for a in apps}
    paper_ratios = {a: PAPER_TABLE4[a]["LI+MC+DC"] / PAPER_TABLE4[a]["hand"] for a in apps}
    rows = [
        (a, f"{d[a]['base'] / d[a]['LI+MC+DC']:.2f}x",
         f"{PAPER_TABLE4[a]['base'] / PAPER_TABLE4[a]['LI+MC+DC']:.2f}x",
         f"{ratios[a]:.2f}x", f"{paper_ratios[a]:.2f}x")
        for a in apps
    ]
    w(md_table(
        ["app", "base/best (measured)", "base/best (paper)",
         "best/hand (measured)", "best/hand (paper)"], rows))
    w("")
    w("**Paper signatures reproduced:** the ladder is monotone for every "
      "benchmark; BSC's dominant gain comes from loop invariance "
      f"(measured {d['BSC']['base'] / d['BSC']['LI']:.2f}x from LI alone, "
      "paper 3.6x); Water's comes from merging calls (measured "
      f"{d['Water']['LI'] / d['Water']['LI+MC']:.2f}x, paper 2.4x); EM3D "
      "gets its extra push from direct dispatch deleting the static-update "
      f"protocol's null read handlers (measured "
      f"{d['EM3D']['LI+MC'] / d['EM3D']['LI+MC+DC']:.2f}x, paper 1.5x); and "
      "the best compiled code is within the paper's 1.1–1.3x of hand-"
      "optimized runtime code (measured "
      f"{min(ratios.values()):.2f}–{max(ratios.values()):.2f}x; TSP sits at "
      "parity because branch-and-bound expansion counts shift with incumbent "
      "timing).")
    w("")
    before, after = table4_throughput()
    if before and after and before.get("events_per_s") and after.get("events_per_s"):
        w("### table4 harness throughput (closure codegen, DESIGN.md §12)")
        w("")
        w("Simulated cycles above are backend-invariant; what the closure "
          "backend changes is how fast the harness produces them "
          "(kernel events/s over the whole 25-run suite, committed "
          "`BENCH_*.json` artifacts, same host class):")
        w("")
        speedup = after["events_per_s"] / before["events_per_s"]
        w(md_table(
            ["backend", "wall (s)", "kernel events", "events/s", "vs interp"],
            [
                ("tree-walking interpreter (before)", before["wall_s"],
                 before["events"], before["events_per_s"], "1.00x"),
                ("pre-bound closures (after)", after["wall_s"],
                 after["events"], after["events_per_s"], f"{speedup:.2f}x"),
            ],
        ))
        w("")

    # -------------------------------------------------- serving
    w("## Serving: adaptive online protocol switching (DESIGN.md §16)")
    w("")
    w("Not a paper figure — the serving-scale extrapolation of the "
      "paper's thesis: per-space protocol choice plus "
      "`Ace_ChangeProtocol` lets a sharded KV service revisit each "
      "shard's protocol *while serving*.  First the static regimes "
      "(zipfian stream, fixed read fraction, cycles to drain 512 "
      "requests on 3 nodes):")
    w("")
    w(md_table(["read fraction", *[f"{p} (cycles)" for p in SERVE_PROTOCOLS], "best"],
               serve_mix_rows()))
    w("")
    w("No single protocol wins every mix — update fan-out pays off only "
      "while somebody reads it; migration is mix-insensitive.  The "
      "adaptive headline (committed `SERVE_seed.json`, regenerated by "
      "`tools/serve.py --compare --out SERVE_seed.json`; CI re-runs the "
      "comparison and fails if adaptive stops winning):")
    w("")
    head = serve_headline()
    if head is not None:
        rows = [
            (e["config"], e["cycles"], e["msgs"], e["latency"]["p99"],
             e.get("switches", 0) if e["config"] == "adaptive" else "-")
            for e in head["entries"]
        ]
        w(md_table(["config", "cycles", "msgs", "p99 latency", "switches"], rows))
        w("")
        adv = head["adaptive_advantage"] * 100
        wl = head["workload"]
        w(f"Workload: {wl['n_requests']} requests over {wl['n_keys']} keys in "
          f"{wl['n_shards']} shards, read fraction {wl['read_frac']} shifting to "
          f"{wl['shift_read_frac']} at {wl['shift_at']:.0%} of the stream, "
          f"zipf s={wl['zipf_s']}, seed {wl['seed']}.  The controller starts "
          "every shard on DynamicUpdate, sees the write fraction cross its "
          "threshold within one epoch of the shift, and moves each shard to "
          f"Migratory online — beating the best static configuration by "
          f"{adv:.1f}% simulated cycles with fewer messages, despite paying "
          "for the switch collectives itself.")
    else:
        w("(SERVE_seed.json not present in this checkout.)")
    w("")

    # -------------------------------------------------- ablations
    w("## Ablations (design choices from DESIGN.md §5)")
    w("")
    w("Run via `pytest benchmarks/ --benchmark-only`:")
    w("")
    w("* `test_ablation_dispatch_cost` — zeroing the space-dispatch charge "
      "speeds fine-grained EM3D far more than coarse-grained BSC, "
      "quantifying §5.1's explanation of Figure 7a's BSC parity.")
    w("* `test_ablation_granularity` — packing independently-written "
      "counters into fixed-size coherence units (vs one region each) "
      "induces the §2.3 'false sharing of protocols' ownership ping-pong "
      "(>2x slowdown measured).")
    w("* `test_ablation_barrier` — replacing the CM-5 control-network "
      "barrier with a message-based dissemination barrier costs EM3D/"
      "StaticUpdate a measurable but bounded amount (<2x).")
    w("* `test_ablation_hw_assist` — §6's Typhoon/FLASH integration: the "
      "`HwSC` protocol keeps the SC state machine but does hit-path checks "
      "in hardware and bypasses software dispatch; EM3D speeds up, the "
      "miss path (messages) is untouched.")
    w("")
    path = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {os.path.abspath(path)}")


if __name__ == "__main__":
    main()
