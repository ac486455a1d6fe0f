"""``lint`` — the sanitizers over every kernel and app.

Three batteries, each with a hard expectation; any deviation fails:

1. **Static lint** — every AceC kernel compiles with ``sanitize=True``
   at every optimization level: the annotation-discipline checker must
   certify both the lowered IR and the optimized IR with zero
   violations.
2. **Seeded static fixtures** — four deliberately misannotated programs
   (missing END, write under START_READ, double START, UNMAP leak).
   Each must *fail* compilation with a diagnostic naming the function,
   the source line, and the violated rule.
3. **Dynamic check** — the five Python-SPMD apps run under
   ``run_spmd(..., check=True)``.  BSC, EM3D and Barnes-Hut are fully
   barrier-ordered and must come back clean (a Barnes-Hut race here is
   the missing post-sweep barrier come back).  TSP and Water
   intentionally perform intra-epoch shared read-modify-writes (job
   counters, incumbent bounds, force accumulation) that rely on
   per-access exclusivity rather than program-order synchronization —
   the strict happens-before model reports those, as the paper's LCM
   citation would, so for them the expectation is *races reported*.
   A seeded two-node write-write race fixture must
   be detected, and every checked run must keep its simulated cycle
   count bit-identical to the unchecked run (the checker charges no
   cycles).

``--static-only`` runs batteries 1–2, ``--dynamic-only`` battery 3.
Every expectation is a check in the report; each checked run is a
record whose ``sanitize`` section holds what the checker found.
"""

from __future__ import annotations

from functools import partial

from repro.apps import acec_sources as K
from repro.cli.common import APPS, add_shared
from repro.cli.report import check, run_record
from repro.compiler.driver import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source
from repro.compiler.errors import AnnotationError
from repro.facade import run_spmd
from repro.harness.experiments import run_app

ALL_OPTS = (OPT_BASE, OPT_LI, OPT_LI_MC, OPT_DIRECT)

KERNELS = {
    "em3d": lambda: K.em3d_source(K.EM3DKernelWL()),
    "bsc": lambda: K.bsc_source(K.BSCKernelWL()),
    "water": lambda: K.water_source(K.WaterKernelWL()),
    "bh": lambda: K.bh_source(K.BHKernelWL()),
    "tsp": lambda: K.tsp_source(K.TSPKernelWL()),
}

_PRELUDE = """
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    p = ace_gmalloc(s, 4);
    mapped double *m;
    m = ace_map(p);
"""

#: name -> (source, rule the diagnostic must carry)
SEEDED_FIXTURES = {
    "missing_end": (
        _PRELUDE + "    ace_start_write(m);\n    m[0] = 1;\n}\n",
        "open-access-at-exit",
    ),
    "write_under_read": (
        _PRELUDE + "    ace_start_read(m);\n    m[0] = 1;\n    ace_end_read(m);\n}\n",
        "write-under-read",
    ),
    "double_start": (
        _PRELUDE
        + "    ace_start_read(m);\n    ace_start_read(m);\n"
        + "    ace_end_read(m);\n    ace_end_read(m);\n}\n",
        "double-start",
    ),
    "unmap_leak": (
        """
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    shared double *q;
    p = ace_gmalloc(s, 4);
    q = ace_gmalloc(s, 4);
    mapped double *a;
    mapped double *b;
    a = ace_map(p);
    b = ace_map(q);
    ace_start_write(a);
    a[0] = 1;
    ace_end_write(a);
    ace_start_write(b);
    b[0] = 2;
    ace_end_write(b);
    ace_unmap(a);
}
""",
        "map-leak",
    ),
}

#: apps the checker must find race-free (TSP's and Water's intra-epoch updates are reported)
EXPECT_CLEAN = {"BSC", "Barnes-Hut", "EM3D"}


def lint_static() -> list[dict]:
    checks = []
    for kernel, source_f in sorted(KERNELS.items()):
        source = source_f()
        for opt in ALL_OPTS:
            error = ""
            try:
                compile_source(source, opt=opt, sanitize=True)
            except AnnotationError as exc:
                error = str(exc)
            checks.append(check(f"static {kernel} @ {opt.name}", not error, error or "clean"))
            print(f"  static {kernel:6s} @ {opt.name:8s} {'VIOLATIONS' if error else 'clean'}")
            if error:
                print("    " + error.replace("\n", "\n    "))
    return checks


def lint_fixtures() -> list[dict]:
    checks = []
    for name, (source, rule) in sorted(SEEDED_FIXTURES.items()):
        try:
            compile_source(source, sanitize=True)
            msg, ok = "NOT FLAGGED (sanitizer miss)", False
        except AnnotationError as exc:
            # precise: names the rule, the function, and a source line
            msg, ok = str(exc), f"[{rule}]" in str(exc) and "main:" in str(exc)
        checks.append(check(f"fixture {name} flagged [{rule}]", ok, msg))
        print(f"  fixture {name}: " + (f"flagged -> {msg.splitlines()[1].strip()}" if ok else msg))
    return checks


def _seeded_race_program(state):
    def program(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            state["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(state["rid"])
        yield from ctx.start_write(h)
        h.data[:] = ctx.nid
        yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        yield from ctx.unmap(h)

    return program


def lint_dynamic(n_procs: int) -> tuple[list[dict], list[dict]]:
    """Each app, then the seeded race on 2 nodes, run unchecked and checked:
    the checked run's record, and the check that it met its expectation
    at the unchecked run's cycles (the seeded race must be caught as one)."""
    cases = [(app, app in EXPECT_CLEAN, n_procs, partial(run_app, app, n_procs=n_procs))
             for app in sorted(APPS)]
    cases.append(("seeded-ww-race", False, 2,
                  lambda **kw: run_spmd(_seeded_race_program({}), n_procs=2, **kw)))
    runs, checks = [], []
    for name, expect_clean, procs, run_ in cases:
        base, checked = run_(), run_(check=True)
        ck = checked.checker
        ok = checked.time == base.time and ck.clean == expect_clean
        if name == "seeded-ww-race":
            ok = ok and any(r.kind == "ww" for r in ck.races)
        expect = "clean" if expect_clean else "races-reported"
        runs.append(run_record(dict(suite="lint", app=name, variant="SC", procs=procs), checked,
                               sanitize={
                                   "expect": expect,
                                   "clean": ck.clean,
                                   "races": len(ck.races),
                                   "violations": len(ck.violations),
                                   "accesses": ck.accesses_checked,
                                   "report": [str(r) for r in ck.report()],
                               }))
        detail = f"expect {expect}: {len(ck.races)} races, {checked.time} cycles (unchecked {base.time})"
        checks.append(check(f"dynamic {name}", ok, detail))
        print(f"  dynamic {name:14s} {detail} -> {'ok' if ok else 'FAIL'}")
    return runs, checks


def configure(parser) -> None:
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--static-only", action="store_true", help="kernels and fixtures only")
    mode.add_argument("--dynamic-only", action="store_true", help="the SPMD apps only")
    add_shared(parser, "procs", "out")


def run(args, art) -> int:
    runs, checks = [], []
    if not args.dynamic_only:
        print("static lint: kernels x optimization levels")
        checks += lint_static()
        print("static lint: seeded misannotation fixtures")
        checks += lint_fixtures()
    if not args.static_only:
        print(f"dynamic check: SPMD apps on {args.procs} nodes")
        runs, dynamic = lint_dynamic(args.procs)
        checks += dynamic
    failures = sum(not c["ok"] for c in checks)
    print("lint:", "PASS" if failures == 0 else f"FAIL ({failures} problem(s))")
    return art.finish(runs, checks)
