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
writes a per-run file recording the epoch transitions, re-homed region
count, and recovery cycle cost.

On any failure the offending fault plan (and stall report, if any) is
written as a per-run file, so the run can be reproduced from artifacts
alone.

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

import json
import time

import numpy as np

from repro.cli.common import (
    FAILED,
    OK,
    PLANS,
    UsageError,
    add_shared,
    build_matrix,
    cell_tag,
    existing_file,
    selected_apps,
)
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


def save_repro(art, tag: str, plan: FaultPlan, stall=None) -> None:
    """What reproduces a failed run: its fault plan and, if it stalled, the report."""
    art.write(plan.to_dict(), f"{tag}-plan.json")
    if stall is not None:
        art.write(stall.to_dict(), f"{tag}-stall.json")


def verify_cells(cells: list[dict], art) -> int:
    """Run each faulted cell against its fault-free twin; returns the failure count.

    A cell that also carries what a sweep measured (``cycles``,
    ``stalled``) must reproduce that too.
    """
    failures = 0
    baselines: dict = {}
    for cell in cells:
        app, variant, procs = cell["app"], cell["variant"], cell["procs"]
        if (app, variant, procs) not in baselines:
            t0 = time.time()
            base = run_app(app, variant, n_procs=procs)
            baselines[app, variant, procs] = canon(app, base.results), base.time
            print(f"{app} [{variant}] on {procs} nodes, fault-free: {base.time} cycles "
                  f"({time.time() - t0:.2f}s)")
        plan = PLANS[cell["plan"]](cell["seed"])
        tag = cell_tag(cell)
        t0 = time.time()
        try:
            res = run_app(app, variant, n_procs=procs, fault_plan=plan)
        except StallError as err:
            if cell.get("stalled"):
                print(f"  {tag}: stall reproduced (as recorded)")
                continue
            failures += 1
            print(f"  {tag}: STALL — {err.report.reason}")
            save_repro(art, tag, plan, err.report)
            continue
        problems = []
        if cell.get("stalled"):
            problems.append("a stall was recorded; replay completed")
        base_results, base_time = baselines[app, variant, procs]
        if not equal(base_results, canon(app, res.results), app in APPROX_APPS):
            problems.append("results differ from fault-free baseline")
        if cell.get("cycles") not in (None, res.time):
            problems.append(f"cycles {res.time} != recorded {cell['cycles']}")
        stats = res.stats
        idle = cell["plan"] == "none"
        if idle and (res.time != base_time or stats.get("rel.retry")):
            # Armed but idle costs zero simulated cycles (DESIGN.md §9).
            problems.append(f"an idle plan must match the fault-free {base_time} cycles, no retries")
        detail = (
            f"{res.time} cycles, {stats.get('fault.drop')} dropped, "
            f"{stats.get('fault.dup')} duplicated, {stats.get('fault.delay')} delayed, "
            f"{stats.get('rel.retry')} retries ({time.time() - t0:.2f}s)"
        )
        if problems:
            failures += 1
            print(f"  {tag}: FAIL — {'; '.join(problems)} — {detail}")
            save_repro(art, tag, plan)
        else:
            print(f"  {tag}: ok — {detail}")
            if not idle and stats.get("fault.drop") + stats.get("fault.dup") == 0:
                print(f"  {tag}: note — plan injected no faults")
    return failures


#: Protocols in the crash matrix: the default invalidation protocol,
#: the paper's owned/migratory protocol, and the single-writer update
#: protocol — three distinct re-homing/rebuild paths.
CRASH_PROTOCOLS = ("SC", "Owned", "DynamicUpdate")


def crash_cell(seed: int, procs: int) -> tuple[int, int]:
    """Deterministic (victim, crash_cycle) for a matrix seed."""
    return seed % procs, 800 + 700 * (seed % 5)


def crash_matrix(seeds: list[int], procs: int, art) -> int:
    """Crash-stop one node per cell; recover or abort, deterministically."""
    from repro.dsm.recovery import DETECT_WITHIN, Crashed
    from repro.harness.recovery_workload import ring_program

    failures = 0
    for proto in CRASH_PROTOCOLS:
        t0 = time.time()
        baseline = run_spmd(ring_program(proto), n_procs=procs)
        print(f"{proto:>14} crash-free: {baseline.time} cycles ({time.time() - t0:.2f}s)")
        for seed in seeds:
            victim, at = crash_cell(seed, procs)
            plan = FaultPlan.crash(victim, at, seed=seed)
            tag = f"crash-{proto}-seed{seed}"

            # -- recover: survivors finish, bit-identical to baseline --
            t0 = time.time()
            problems = []
            try:
                res = run_spmd(
                    ring_program(proto), n_procs=procs, fault_plan=plan, on_crash="recover"
                )
            except StallError as err:
                failures += 1
                print(f"{'':>14} seed {seed}: RECOVER STALLED — {err.report.reason}")
                save_repro(art, tag, plan, err.report)
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
            art.write(
                {
                    "protocol": proto,
                    "seed": seed,
                    "victim": victim,
                    "crash_at": at,
                    "detection_latency": latency,
                    "baseline_cycles": baseline.time,
                    "recover_cycles": res.time,
                    "recovery_cycle_cost": res.time - baseline.time,
                    "epoch_transitions": summary["epoch"],
                    "rehomed_regions": rehomed,
                    "abort": abort_detail,
                    "recovery": summary,
                    "plan": plan.to_dict(),
                    "problems": problems,
                },
                f"{tag}.json",
            )
            if problems:
                failures += 1
                print(f"{'':>14} seed {seed}: FAIL — {'; '.join(problems)}")
            else:
                print(
                    f"{'':>14} seed {seed}: ok — victim {victim} @ {at}, declared +{latency}, "
                    f"{res.time} cycles "
                    f"(+{res.time - baseline.time} over baseline), {rehomed} region(s) "
                    f"re-homed, epoch {summary['epoch']} ({time.time() - t0:.2f}s)"
                )
    return failures


def stall_check(art) -> int:
    """A permanently dead link must yield a StallReport, not a hang."""
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

    try:
        run_spmd(prog, n_procs=2, fault_plan=FaultPlan.dead_link(1, 0))
    except StallError as err:
        report = err.report
        calls = [c for c in report.in_flight if c["region"] is not None]
        # The dead link is 1->0: node 0 (the home) is unreachable, so
        # the report's suspect list must name it.
        problem = ("report names no region" if not calls
                   else f"suspects {report.suspects} omit the dead home 0" if 0 not in report.suspects
                   else None)
        if problem:
            print(f"stall-check: FAIL — {problem}")
            art.write(report.to_dict(), "stall-check-report.json")
            return 1
        call = calls[0]
        print(
            f"stall-check: ok — StallReport names region {call['region']} "
            f"at home {call['dst']} after {call['attempts']} attempts, "
            f"suspects {report.suspects}"
        )
        return 0
    print("stall-check: FAIL — dead link did not raise StallError")
    return 1


def configure(parser) -> None:
    parser.add_argument("--plan", choices=["canonical", "drop_retry", "none"], default="canonical",
                        help="fault plan family (default canonical: drop + duplicate + delay; "
                             "none: armed but idle, must match the fault-free run cycle for cycle)")
    parser.add_argument("--no-stall-check", action="store_true",
                        help="skip the dead-link StallReport check")
    parser.add_argument("--from-sweep", type=existing_file, default=None, metavar="SWEEP_JSON",
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
        failures = crash_matrix(args.seeds, args.procs, art)
    elif args.from_sweep is not None:
        cells = json.loads(args.from_sweep.read_text()).get("cells", [])
        cells = [c for c in cells if c.get("plan", "none") != "none"]
        if not cells:
            raise UsageError(f"{args.from_sweep} has no faulted cell to verify")
        failures = verify_cells(cells, art)
        check_stall = False  # a replay adds no fault of its own
    else:
        failures = verify_cells(
            build_matrix(selected_apps(args), [args.procs], [args.plan], args.seeds), art
        )
    if check_stall:
        failures += stall_check(art)
    if failures:
        print(f"chaos: {failures} failure(s); artifacts in {art.dir}/")
        return FAILED
    print("chaos: all checks passed")
    return OK
