"""``chaos`` — the paper apps must survive a lossy fabric and a crashed node.

Default mode: for each cell of the app × variant matrix, run the
workload fault-free, re-run it under seeded fault plans (``--plan``),
and require the final results to equal the fault-free run's.  The
retry/dedup machinery in ``repro.dsm.faults`` is what makes that hold;
this is its end-to-end proof.  ``--plan none`` arms the machinery and
injects nothing: each cell must also match the fault-free run's cycles
with no retry — "armed costs zero simulated cycles", app by app.
``--from-sweep`` does the same for the faulted cells of a ``sweep``
report, and additionally requires each replay to reproduce the cycles
(or the stall) the sweep recorded — the sweep and the replay see the
same physics, or somebody's determinism is broken.

A second check (skip with ``--no-stall-check``) injects a permanently
dead link and requires the run to end in a
:class:`~repro.dsm.faults.StallError` whose report names the stuck
region, the home node, and the unreachable node in ``suspects`` —
silent hangs are a bug even under faults the protocol cannot mask.

``--crash`` switches to the crash-stop matrix (DESIGN.md §15): for
each protocol in (SC, Owned, DynamicUpdate) a crash-free baseline of
the shared ring workload is compared against runs that crash-stop one
node mid-run.  Under ``on_crash="recover"`` the survivors must finish
with results bit-identical to the baseline and the victim's task must
retire with a ``Crashed`` marker; under ``on_crash="abort"`` the run
must raise a prompt StallError naming the crashed node first in
``report.suspects``.  Every cell is re-run to prove determinism, and
its record's ``recovery`` section holds the epoch transitions, re-homed
region count, and recovery cycle cost.

Every run is a record in the one report and every verdict a check.
An armed run's record carries its fault plan, and a stalled run's its
stall report, so a failure can be reproduced from the report alone.

Results comparison is exact (numpy-aware) except where an app's return
value is legitimately schedule-dependent: TSP's per-node ``jobs_done``
split depends on who wins each work-queue race, so TSP is compared on
the agreed best-tour length and the *total* jobs done; Water's pair
forces accumulate in whatever order nodes win write access to the
shared molecules, and float addition is not associative, so Water is
compared to one-part-in-10^9 instead of bit-exactly (observed
fault-induced deviation is ~1 ulp).
"""

from __future__ import annotations

import numpy as np

from repro.cli.common import (
    PLANS,
    UsageError,
    add_shared,
    build_matrix,
    report_file,
    selected_apps,
)
from repro.cli.report import cell_tag, check, compare, run_record
from repro.dsm import FaultPlan, StallError
from repro.facade import run_spmd
from repro.harness.experiments import run_app

#: Apps whose results are compared with a tolerance rather than
#: bit-exactly (Water: see the module doc).
APPROX_APPS = frozenset({"Water"})


def canon(app: str, results: list):
    """Reduce per-node results to what must be fault-invariant."""
    if app == "TSP":
        # (best_seen, jobs_done) per node: the winning bound must agree
        # everywhere and all work must be done exactly once, but which
        # node did which prefix is a race the fault plan may re-decide.
        return [r[0] for r in results], sum(r[1] for r in results)
    return results


def equal(a, b, approx: bool = False) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if approx:
            return np.allclose(a, b, rtol=1e-9, atol=1e-11)
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        if not isinstance(b, (list, tuple)) or len(a) != len(b):
            return False
        return all(equal(x, y, approx) for x, y in zip(a, b))
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return False
        return all(equal(v, b[k], approx) for k, v in a.items())
    return bool(a == b)


def injected(faults: dict) -> int:
    """How many faults a run's plan injected, by its record's counters."""
    return faults["drop"] + faults["dup"] + faults["delay"]


def verify_cells(cells: list[dict], recorded_stalls: frozenset = frozenset()) -> tuple[list, list]:
    """Run each faulted cell against its fault-free twin; returns the
    runs (each twin before its first cell) and one check per cell.

    A cell whose tag is in ``recorded_stalls`` (a sweep saw it stall)
    passes if it stalls again.
    """
    runs, checks = [], []
    baselines: dict = {}
    for cell in cells:
        app, variant, procs = cell["app"], cell["variant"], cell["procs"]
        if (app, variant, procs) not in baselines:
            base = run_app(app, variant, n_procs=procs)
            baselines[app, variant, procs] = canon(app, base.results), base.time
            runs.append(run_record({**cell, "plan": None, "seed": None}, base))
            print(f"{app} [{variant}] on {procs} nodes, fault-free: {base.time} cycles")
        plan = PLANS[cell["plan"]](cell["seed"])
        tag = cell_tag(cell)
        try:
            res = run_app(app, variant, n_procs=procs, fault_plan=plan)
        except StallError as err:
            runs.append(run_record(cell, stall=err.report.to_dict(), fault_plan=plan.to_dict()))
            ok = tag in recorded_stalls
            checks.append(check(tag, ok, "stall reproduced (as recorded)" if ok else
                                f"STALL — {err.report.reason}"))
            print(f"  {tag}: {checks[-1]['detail']}")
            continue
        runs.append(run_record(cell, res, fault_plan=plan.to_dict()))
        faults = runs[-1]["faults"]
        base_results, base_time = baselines[app, variant, procs]
        problems = []
        if not equal(base_results, canon(app, res.results), app in APPROX_APPS):
            problems.append("results differ from fault-free baseline")
        if cell["plan"] == "none":
            if res.time != base_time or faults["retries"]:
                # Armed but idle costs zero simulated cycles (DESIGN.md §9).
                problems.append(f"an idle plan must match the fault-free {base_time} cycles, no retries")
        elif not injected(faults):
            problems.append("plan injected no faults")  # so it tested nothing
        detail = (
            f"{res.time} cycles, {faults['drop']} dropped, {faults['dup']} duplicated, "
            f"{faults['delay']} delayed, {faults['retries']} retries"
        )
        checks.append(check(tag, not problems, "; ".join(problems + [detail])))
        print(f"  {tag}: {'FAIL — ' + '; '.join(problems) if problems else 'ok'} — {detail}")
    return runs, checks


#: Protocols in the crash matrix: the default invalidation protocol,
#: the paper's owned/migratory protocol, and the single-writer update
#: protocol — three distinct re-homing/rebuild paths.
CRASH_PROTOCOLS = ("SC", "Owned", "DynamicUpdate")


def crash_cell(seed: int, procs: int) -> tuple[int, int]:
    """Deterministic (victim, crash_cycle) for a matrix seed."""
    return seed % procs, 800 + 700 * (seed % 5)


def crash_matrix(seeds: list[int], procs: int) -> tuple[list, list]:
    """Crash-stop one node per cell; recover or abort, deterministically.
    Returns the runs (each protocol's crash-free baseline, then its
    recovered runs) and one check per cell."""
    from repro.dsm.recovery import DETECT_WITHIN, Crashed
    from repro.harness.recovery_workload import ring_program

    runs, checks = [], []
    for proto in CRASH_PROTOCOLS:
        cell = dict(suite="crash", app="ring", variant=proto, procs=procs)
        baseline = run_spmd(ring_program(proto), n_procs=procs)
        runs.append(run_record(cell, baseline))
        print(f"{proto:>14} crash-free: {baseline.time} cycles")
        for seed in seeds:
            victim, at = crash_cell(seed, procs)
            plan = FaultPlan.crash(victim, at, seed=seed)
            crashed = {**cell, "plan": "crash", "seed": seed}
            tag = cell_tag(crashed)

            # -- recover: survivors finish, bit-identical to baseline --
            problems = []
            try:
                res = run_spmd(
                    ring_program(proto), n_procs=procs, fault_plan=plan, on_crash="recover"
                )
            except StallError as err:
                runs.append(run_record(crashed, stall=err.report.to_dict(), fault_plan=plan.to_dict()))
                checks.append(check(tag, False, f"RECOVER STALLED — {err.report.reason}"))
                print(f"{'':>14} seed {seed}: {checks[-1]['detail']}")
                continue
            for nid in range(procs):
                if nid == victim:
                    if not isinstance(res.results[nid], Crashed):
                        problems.append(f"victim {nid} did not retire as Crashed")
                elif not equal(res.results[nid], baseline.results[nid]):
                    problems.append(f"survivor {nid} differs from crash-free baseline")
            summary = res.backend.transport.recovery.summary()
            if summary["epoch"] != 1 or summary["dead"] != [victim]:
                problems.append(f"unexpected membership: {summary['dead']} @ epoch {summary['epoch']}")
            # The detector's latency contract (DESIGN.md §15), crash to declaration.
            latency = max((e["declared_at"] - at for e in summary["events"]), default=0)
            if latency > DETECT_WITHIN:
                problems.append(f"declared +{latency} after the crash, bound {DETECT_WITHIN}")
            # Determinism: the whole faulted run is a pure function of
            # (program, plan) — replay must match cycle for cycle.
            replay = run_spmd(
                ring_program(proto), n_procs=procs, fault_plan=plan, on_crash="recover"
            )
            if replay.time != res.time or not equal(replay.results, res.results):
                problems.append(f"replay diverged ({replay.time} vs {res.time} cycles)")

            # -- abort: a prompt, suspect-attributed stall ------------
            abort_detail = None
            try:
                run_spmd(ring_program(proto), n_procs=procs, fault_plan=plan, on_crash="abort")
                problems.append("abort mode completed instead of raising StallError")
            except StallError as err:
                suspects = err.report.suspects
                if not suspects or suspects[0] != victim:
                    problems.append(f"abort suspects {suspects} do not lead with victim {victim}")
                abort_detail = {"suspects": suspects, "reason": err.report.reason}

            rehomed = sum(e["rehomed_regions"] for e in summary["events"])
            runs.append(run_record(crashed, res, fault_plan=plan.to_dict(), recovery={
                "victim": victim,
                "crash_at": at,
                "detection_latency": latency,
                "recovery_cycle_cost": res.time - baseline.time,
                "epoch_transitions": summary["epoch"],
                "rehomed_regions": rehomed,
                "abort": abort_detail,
                "summary": summary,
            }))
            checks.append(check(tag, not problems, "; ".join(problems) or (
                f"victim {victim} @ {at}, declared +{latency}, {res.time} cycles "
                f"(+{res.time - baseline.time} over baseline), {rehomed} region(s) "
                f"re-homed, epoch {summary['epoch']}"
            )))
            print(f"{'':>14} seed {seed}: {'FAIL' if problems else 'ok'} — {checks[-1]['detail']}")
    return runs, checks


def stall_check() -> tuple[dict, dict]:
    """A permanently dead link must yield a StallReport, not a hang:
    returns the run's record and the check."""
    shared = {}

    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            shared["rid"] = yield from ctx.gmalloc(sid, 8)
        yield from ctx.barrier()
        handle = yield from ctx.map(shared["rid"])
        yield from ctx.start_read(handle)
        value = float(handle.data[0])
        yield from ctx.end_read(handle)
        yield from ctx.barrier()
        return value

    plan = FaultPlan.dead_link(1, 0)
    cell = dict(suite="chaos", app="dead-link", variant="SC", procs=2, plan="dead_link")
    try:
        res = run_spmd(prog, n_procs=2, fault_plan=plan)
    except StallError as err:
        report = err.report
        calls = [c for c in report.in_flight if c["region"] is not None]
        # The dead link is 1->0: node 0 (the home) is unreachable, so
        # the report's suspect list must name it.
        problem = ("report names no region" if not calls
                   else f"suspects {report.suspects} omit the dead home 0" if 0 not in report.suspects
                   else None)
        detail = problem or (
            f"StallReport names region {calls[0]['region']} at home {calls[0]['dst']} "
            f"after {calls[0]['attempts']} attempts, suspects {report.suspects}"
        )
        print(f"stall-check: {'FAIL' if problem else 'ok'} — {detail}")
        record = run_record(cell, stall=report.to_dict(), fault_plan=plan.to_dict())
        return record, check("stall-check", not problem, detail)
    print("stall-check: FAIL — dead link did not raise StallError")
    return (run_record(cell, res, fault_plan=plan.to_dict()),
            check("stall-check", False, "dead link did not raise StallError"))


def configure(parser) -> None:
    parser.add_argument("--plan", choices=["canonical", "drop_retry", "none"], default="canonical",
                        help="fault plan family (default canonical: drop + duplicate + delay; "
                             "none: armed but idle, must match the fault-free run cycle for cycle)")
    parser.add_argument("--no-stall-check", action="store_true",
                        help="skip the dead-link StallReport check")
    parser.add_argument("--from-sweep", type=report_file, default=None, metavar="SWEEP_JSON",
                        help="re-verify the faulted cells of a sweep report instead of "
                             "running the built-in matrix")
    parser.add_argument("--crash", action="store_true",
                        help="run the crash-stop recovery matrix (recover + abort over "
                             "SC/Owned/DynamicUpdate) instead of the lossy-fabric matrix")
    add_shared(parser, "apps", "procs", "seeds", "out")
    parser.set_defaults(seeds=[0, 1])


def run(args, art) -> int:
    check_stall = not args.no_stall_check
    if args.crash:
        runs, checks = crash_matrix(args.seeds, args.procs)
    elif args.from_sweep is not None:
        faulted = [r for r in args.from_sweep["runs"] if r["cell"]["plan"] not in (None, "none")]
        if not faulted:
            raise UsageError("the sweep report has no faulted cell to verify")
        stalls = frozenset(cell_tag(r["cell"]) for r in faulted if r["stall"] is not None)
        runs, checks = verify_cells([r["cell"] for r in faulted], stalls)
        # the replay and the sweep see the same physics, or somebody's determinism is broken
        replays = [r for r in runs if r["cell"]["plan"] is not None]
        for c in compare({"runs": replays}, {"runs": faulted}):
            checks.append(check(f"{c['name']} replayed", c["ok"], c["detail"]))
            print(f"  vs the sweep: {c['detail']}")
        check_stall = False  # a replay adds no fault of its own
    else:
        cells = build_matrix("chaos", selected_apps(args), [args.procs], [args.plan], args.seeds)
        runs, checks = verify_cells(cells)
    if check_stall:
        record, stalled = stall_check()
        runs.append(record)
        checks.append(stalled)
    failures = sum(not c["ok"] for c in checks)
    print(f"chaos: {failures} failure(s)" if failures else "chaos: all checks passed")
    return art.finish(runs, checks)
