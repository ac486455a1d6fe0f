"""Golden-trace capture: pin the kernel's observable behavior bit-for-bit.

The simulator promises that a run is a pure function of its inputs:
same program, same ``jitter_seed`` ⇒ same event order, same simulated
cycle counts, same stats.  Performance work on the kernel hot path is
only legal while that promise holds, so this module captures a compact
fingerprint of representative runs — final simulated time, an
order-sensitive hash of the full event trace, and the complete stats
snapshot — which ``tests/verify/test_golden_trace.py`` compares against
the checked-in ``tests/verify/golden_traces.json`` (captured from the
pre-fast-path kernel).

Regenerate (only when an *intentional* semantic change is made)::

    PYTHONPATH=src python -m repro.verify.golden tests/verify/golden_traces.json

Before overwriting, it prints which top-level keys of each case stayed
the same and which changed: paste that table where the re-pin is
recorded (CHANGES.md), so no ``time`` or ``stats`` moves unnoticed.

Task names are normalized by stripping the ``~<n>`` duplicate-name
suffix :meth:`~repro.sim.kernel.Simulator.spawn` appends, so the
spawn-collision fix does not perturb the fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import partial

from repro.dsm.faults import FaultPlan, LinkFaults
from repro.facade import run_spmd
from repro.protocols import default_registry
from repro.sim import Channel, Delay, Future, Simulator

_DUP_SUFFIX = re.compile(r"~\d+")


def normalize_trace(lines: list[str]) -> list[str]:
    """Strip duplicate-name suffixes so golden traces survive renames."""
    return [_DUP_SUFFIX.sub("", line) for line in lines]


def trace_digest(lines: list[str]) -> str:
    """Order-sensitive sha256 over the normalized trace."""
    h = hashlib.sha256()
    for line in normalize_trace(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------- cases
def _fingerprint(run) -> dict:
    """Time, trace digest and full stats of ``run(trace=hook)`` (a RunResult,
    or run_serve's ``(RunResult, report)`` pair)."""
    lines: list[str] = []
    res = run(trace=lambda t, msg: lines.append(f"{t} {msg}"))
    if isinstance(res, tuple):
        res = res[0]
    return {
        "time": res.time,
        "n_trace": len(lines),
        "trace_sha256": trace_digest(lines),
        "stats": {k: int(v) for k, v in sorted(res.stats.snapshot().items())},
    }


def _spmd_fingerprint(
    app: str, backend: str, n_procs: int, seed: int | None, variant: str = "SC", **run_kw
) -> dict:
    # Imported lazily: the harness pulls in every app module.
    from repro.harness.experiments import run_app

    return _fingerprint(
        partial(run_app, app, variant, backend, n_procs, jitter_seed=seed, **run_kw)
    )


# Lossy / crash / serve pins: the retrying Port (repro.dsm.faults) is the
# only code these runs add over the cases above, so their full stats
# snapshots (rel.*, fault.*, *.dup_request, handler.*_r) pin it exactly.
def _lossy(app: str, plan, variant: str = "SC") -> dict:
    return _spmd_fingerprint(app, "ace", 4, None, variant, fault_plan=plan)


def _heavy(seed: int):
    """Enough loss that a 4-node micro-run hits every dedup/replay path."""
    return FaultPlan(seed=seed, default=LinkFaults(drop=0.08, dup=0.08, delay=0.1))


def _ring(protocol: str, plan, rounds: int = 4, **run_kw) -> dict:
    from repro.harness.recovery_workload import ring_program

    return _fingerprint(
        partial(run_spmd, ring_program(protocol, rounds), n_procs=4, fault_plan=plan, **run_kw)
    )


def _locked_counter(plan, **run_kw) -> dict:
    from repro.harness.recovery_workload import locked_counter_program

    return _fingerprint(
        partial(run_spmd, locked_counter_program(8), n_procs=3, fault_plan=plan, **run_kw)
    )


def _exercise(protocol: str):
    """One protocol's characteristic paths on one region: remote fetch,
    hits, two writes (a home-writer protocol writes at home), barriers
    (update protocols push there), and an ``Ace_ChangeProtocol`` round
    trip through a partner and back."""
    writer = 0 if default_registry.spec(protocol).home_writer else 1
    partner = "SC" if protocol != "SC" else "StaticUpdate"
    size = 4
    boxes: dict = {}

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, size)
        yield from ctx.barrier()
        rid = boxes["rid"]
        h = yield from ctx.map(rid)
        first = yield from ctx.read_region(h)
        yield from ctx.barrier(sid)
        if ctx.nid == writer:  # the second write exercises the hit path
            for round_no in (1, 2):
                yield from ctx.start_write(h)
                h.data[:] = [round_no * 10 + i for i in range(size)]
                yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        mid = yield from ctx.read_region(h)  # after the pushes / refetches
        yield from ctx.barrier(sid)
        yield from ctx.change_protocol(sid, partner)
        h2 = yield from ctx.map(rid)
        under_partner = yield from ctx.read_region(h2)
        yield from ctx.unmap(h2)
        yield from ctx.barrier(sid)
        yield from ctx.change_protocol(sid, protocol)
        h3 = yield from ctx.map(rid)
        back = yield from ctx.read_region(h3)
        yield from ctx.barrier(sid)
        return first, mid, under_partner, back

    return prog


def _proto(protocol: str, **run_kw) -> dict:
    """The exercise's fingerprint plus every node's results: the pin of a
    protocol's own messages, one per registered protocol.  Fault-free it
    drops the trace digest — a wait's future name is in the trace line,
    and a protocol may rename a wait without moving an event."""
    results: list = []

    def run(trace):
        res = run_spmd(_exercise(protocol), n_procs=3, trace=trace, **run_kw)
        results.extend([[float(x) for x in read] for read in node] for node in res.results)
        return res

    pin = _fingerprint(run)
    pin["results"] = results
    if "fault_plan" not in run_kw:
        del pin["trace_sha256"]
    return pin


def _serve_adaptive_lossy() -> dict:
    from repro.serve import AdaptiveController, ServeWorkload, run_serve

    wl = ServeWorkload(
        n_keys=16, n_shards=2, n_requests=384, batch=16, rate=60.0,
        read_frac=0.95, shift_at=0.5, shift_read_frac=0.05, think_cycles=5, seed=13,
    )
    controller = AdaptiveController(
        {s: "DynamicUpdate" for s in range(wl.n_shards)}, write_protocol="Owned"
    )
    return _fingerprint(
        partial(run_serve, wl, controller=controller, n_procs=3, fault_plan=FaultPlan.drop_retry(5))
    )


def _kernel_micro(seed: int | None) -> dict:
    """Small pure-kernel scenario whose *full* trace is stored.

    Exercises every scheduling shape the fast path touches: Delay(0)
    bursts, already-resolved futures, blocking futures, channels,
    task joins, ``at``, and a ``run(until=...)`` pause/resume.
    """
    lines: list[str] = []
    sim = Simulator(trace=lambda t, msg: lines.append(f"{t} {msg}"), jitter_seed=seed)
    chan = Channel("c")
    ready = Future(name="ready")
    ready.resolve("early")
    log: list = []

    def producer():
        for i in range(4):
            yield Delay(0)
            chan.put(i)
            yield Delay(3)
        return "produced"

    def consumer():
        total = 0
        for _ in range(4):
            item = yield from chan.get()
            total += item
            yield Delay(0)
        return total

    def joiner(t):
        v = yield ready  # resolved future: resumes this cycle
        log.append(v)
        got = yield t.done
        yield Delay(0)
        yield Delay(2)
        return got

    def ticker():
        for _ in range(5):
            yield Delay(4)
            log.append(sim.now)

    prod = sim.spawn(producer(), name="prod")
    cons = sim.spawn(consumer(), name="cons")
    sim.spawn(joiner(cons), name="join")
    sim.spawn(ticker(), name="tick")
    sim.at(7, lambda: log.append("at7"))
    sim.run(until=5)
    paused_at = sim.now
    sim.run()
    return {
        "time": sim.now,
        "paused_at": paused_at,
        "results": [prod.done.result(), cons.done.result()],
        "log": [str(x) for x in log],
        "trace": normalize_trace(lines),
    }


def _fuzz_corpus(n_procs: int = 4, seeds=range(1, 9)) -> dict:
    """Final simulated times for a seed sweep — pins the jitter schedules."""
    from repro.apps import em3d
    from repro.harness import experiments as E

    times = {}
    for seed in seeds:
        wl = E.FIG7_WORKLOADS["EM3D"]()
        res = run_spmd(
            em3d.em3d_program(wl, em3d.SC_PLAN),
            backend="ace",
            n_procs=n_procs,
            jitter_seed=seed,
        )
        times[str(seed)] = res.time
    return {"times": times}


def _table4_tsp() -> dict:
    """Compiler-driven run (interp layer) cycle counts stay pinned too."""
    from repro.harness import experiments as E

    rows = E.table4_rows(apps=["TSP"], n_procs=4)
    return {"rows": [[r.app, r.variant, r.cycles] for r in rows]}


CASES = {
    "kernel_micro": lambda: _kernel_micro(None),
    "kernel_micro_seed7": lambda: _kernel_micro(7),
    "em3d_ace": lambda: _spmd_fingerprint("EM3D", "ace", 4, None),
    "em3d_ace_seed7": lambda: _spmd_fingerprint("EM3D", "ace", 4, 7),
    "tsp_crl": lambda: _spmd_fingerprint("TSP", "crl", 4, None),
    "water_ace": lambda: _spmd_fingerprint("Water", "ace", 4, None),
    "fuzz_corpus": _fuzz_corpus,
    "table4_tsp": _table4_tsp,
    "em3d_sc_canonical0": lambda: _lossy("EM3D", FaultPlan.canonical(0)),
    "em3d_sc_drop1": lambda: _lossy("EM3D", FaultPlan.drop_retry(1)),
    "water_sc_canonical0": lambda: _lossy("Water", FaultPlan.canonical(0)),
    "water_sc_drop1": lambda: _lossy("Water", FaultPlan.drop_retry(1)),
    "em3d_static_drop1": lambda: _lossy("EM3D", FaultPlan.drop_retry(1), "static"),
    "em3d_dynamic_drop1": lambda: _lossy("EM3D", FaultPlan.drop_retry(1), "dynamic"),
    "ring_sc_crash": lambda: _ring("SC", FaultPlan.crash(1, 1500, seed=1), on_crash="recover"),
    "ring_owned_crash": lambda: _ring("Owned", FaultPlan.crash(2, 2200, seed=2), on_crash="recover"),
    "ring_du_crash": lambda: _ring(
        "DynamicUpdate", FaultPlan.crash(3, 2900, seed=3), on_crash="recover"
    ),
    "ring_owned_crash_lossy": lambda: _ring(
        "Owned",
        FaultPlan.crash(0, 800, seed=4, faults=LinkFaults(drop=0.03, dup=0.03)),
        on_crash="recover",
    ),
    "em3d_static_canonical0": lambda: _lossy("EM3D", FaultPlan.canonical(0), "static"),
    "ring_owned_heavy2": lambda: _ring("Owned", _heavy(2), rounds=12),
    "ring_selfinv_heavy3": lambda: _ring("SelfInvalidate", _heavy(3), rounds=12),
    "ring_du_heavy4": lambda: _ring("DynamicUpdate", _heavy(4), rounds=12),
    "locked_counter_heavy0": lambda: _locked_counter(_heavy(0)),
    "locked_counter_dissemination_drop1": lambda: _locked_counter(
        FaultPlan.drop_retry(1, drop=0.10), barrier_algorithm="dissemination"
    ),
    "locked_counter_dissemination_heavy5": lambda: _locked_counter(
        _heavy(5), barrier_algorithm="dissemination"
    ),
    "serve_adaptive_drop5": _serve_adaptive_lossy,
}
# What the table-vs-legacy oracle compared while protocols/legacy.py existed
# (captured on the commit that still had it, equal under both registries).
CASES.update({f"proto_{name}": partial(_proto, name) for name in default_registry.names()})
# The six protocols that took the port when the oracle went, on a lossy
# fabric (a seed whose run drops, duplicates and retries): held as exactly
# as ring_owned_heavy2 holds Owned.
CASES.update({
    f"proto_{name}_heavy{seed}": partial(_proto, name, fault_plan=_heavy(seed))
    for name, seed in (("BufferedUpdate", 7), ("Counter", 0), ("HomeWrite", 7), ("Migratory", 4),
                       ("PipelinedWrite", 7), ("RaceDetect", 4))
})


def capture_all() -> dict:
    return {name: make() for name, make in CASES.items()}


def changed_keys(stored, fresh) -> list[str]:
    """Top-level keys on which a stored fingerprint and a fresh one differ."""
    if not (isinstance(stored, dict) and isinstance(fresh, dict)):
        return [] if stored == fresh else ["*"]
    return sorted(k for k in set(stored) | set(fresh) if stored.get(k) != fresh.get(k))


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys
    from pathlib import Path

    path = Path(sys.argv[1] if len(sys.argv) > 1 else "tests/verify/golden_traces.json")
    data = capture_all()
    stored = json.loads(path.read_text()) if path.exists() else {}
    # What the overwrite moves, case by case: a deliberate re-pin pastes this.
    print("| case | same | changed |\n|---|---|---|")
    for name in sorted(data):
        changed = changed_keys(stored.get(name), data[name])
        same = sorted(set(data[name]) - set(changed)) if name in stored else []
        print(f"| `{name}` | {', '.join(same) or '-'} | {', '.join(changed) or '-'} |")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {', '.join(sorted(data))}")
