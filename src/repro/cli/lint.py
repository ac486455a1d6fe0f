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
"""

from __future__ import annotations

from repro.apps import acec_sources as K
from repro.cli.common import APPS, FAILED, OK, add_shared
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


def lint_static() -> tuple[list[dict], int]:
    rows, failures = [], 0
    for kernel, source_f in sorted(KERNELS.items()):
        source = source_f()
        for opt in ALL_OPTS:
            row = {"kernel": kernel, "opt": opt.name, "ok": True, "error": None}
            try:
                compile_source(source, opt=opt, sanitize=True)
            except AnnotationError as exc:
                row["ok"] = False
                row["error"] = str(exc)
                failures += 1
            rows.append(row)
            status = "clean" if row["ok"] else "VIOLATIONS"
            print(f"  static {kernel:6s} @ {opt.name:8s} {status}")
            if row["error"]:
                print("    " + row["error"].replace("\n", "\n    "))
    return rows, failures


def lint_fixtures() -> tuple[list[dict], int]:
    rows, failures = [], 0
    for name, (source, rule) in sorted(SEEDED_FIXTURES.items()):
        row = {"fixture": name, "rule": rule, "ok": False, "diagnostic": None}
        try:
            compile_source(source, sanitize=True)
            print(f"  fixture {name}: NOT FLAGGED (sanitizer miss)")
            failures += 1
        except AnnotationError as exc:
            msg = str(exc)
            row["diagnostic"] = msg
            # precise: names the rule, the function, and a source line
            row["ok"] = f"[{rule}]" in msg and "main:" in msg
            if row["ok"]:
                first = msg.splitlines()[1].strip()
                print(f"  fixture {name}: flagged -> {first}")
            else:
                print(f"  fixture {name}: flagged but imprecise: {msg}")
                failures += 1
        rows.append(row)
    return rows, failures


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


def _dynamic_row(app: str, expect_clean: bool, base, checked) -> dict:
    ck = checked.checker
    return {
        "app": app,
        "expect": "clean" if expect_clean else "races-reported",
        "clean": ck.clean,
        "races": len(ck.races),
        "violations": len(ck.violations),
        "accesses": ck.accesses_checked,
        "cycles_identical": checked.time == base.time,
        "ok": checked.time == base.time and ck.clean == expect_clean,
        "report": [str(r) for r in ck.report()],
    }


def lint_dynamic(n_procs: int) -> tuple[list[dict], int]:
    rows = []
    for app in sorted(APPS):
        row = _dynamic_row(app, app in EXPECT_CLEAN, run_app(app, n_procs=n_procs),
                           run_app(app, n_procs=n_procs, check=True))
        rows.append(row)
        print(
            f"  dynamic {app:10s} expect={row['expect']:15s} "
            f"races={row['races']:2d} cycles_ok={row['cycles_identical']} "
            f"-> {'ok' if row['ok'] else 'FAIL'}"
        )

    # the seeded race must be caught, at identical cycle count
    checked = run_spmd(_seeded_race_program({}), n_procs=2, check=True)
    row = _dynamic_row("seeded-ww-race", False, run_spmd(_seeded_race_program({}), n_procs=2), checked)
    caught = any(r.kind == "ww" for r in checked.checker.races)
    row["ok"] = row["ok"] and caught
    rows.append(row)
    print(f"  dynamic seeded-ww-race caught={caught} -> {'ok' if row['ok'] else 'FAIL'}")
    return rows, sum(not r["ok"] for r in rows)


def configure(parser) -> None:
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--static-only", action="store_true", help="kernels and fixtures only")
    mode.add_argument("--dynamic-only", action="store_true", help="the SPMD apps only")
    add_shared(parser, "procs", "out")


def run(args, art) -> int:
    report: dict = {}
    failures = 0
    if not args.dynamic_only:
        print("static lint: kernels x optimization levels")
        report["static"], f = lint_static()
        failures += f
        print("static lint: seeded misannotation fixtures")
        report["fixtures"], f = lint_fixtures()
        failures += f
    if not args.static_only:
        print(f"dynamic check: SPMD apps on {args.procs} nodes")
        report["dynamic"], f = lint_dynamic(args.procs)
        failures += f

    report["failures"] = failures
    if art.requested:
        print(f"report written to {art.write(report)}")
    print("lint:", "PASS" if failures == 0 else f"FAIL ({failures} problem(s))")
    return OK if failures == 0 else FAILED
