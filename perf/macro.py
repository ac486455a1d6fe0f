"""Macro workloads: the paper's experiments at benchmark scale.

Every run's output is compared with the repo's own sequential
reference (``reference()`` / ``*_reference`` computed in set-up); a run
that raises or disagrees is a failed operation, listed by row.
"""

from __future__ import annotations

import time

import numpy as np

import metrics
from harness import Outcome, digest
from repro.apps import acec_sources as K
from repro.apps import barnes_hut, bsc, em3d, tsp, water
from repro.compiler import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source, run_compiled
from repro.dsm.faults import FaultPlan
from repro.facade import NodeContext, run_spmd
from repro.obs import TraceBuffer
from repro.serve import AdaptiveController, ServeWorkload, build_traffic, run_serve

N_PROCS = 8


def _close(got, want, rtol, atol) -> bool:
    return all(np.allclose(g, w, rtol=rtol, atol=atol) for g, w in zip(got, want))


def _em3d_close(got, want) -> bool:
    """EM3D values decay towards 0 through sums that cancel, and the
    reference adds in numpy's order: compare to a tolerance relative to
    the largest value, not to each (possibly 1e-17) element."""
    return _close(got, want, 1e-9, 1e-12 * max(np.abs(w).max() for w in want))


# ------------------------------------------------------------------- apps
class App:
    """One paper application: generated workload, plans, reference."""

    def __init__(self, name, workload, program, sc_plan, custom_plan, reference, agrees):
        self.name = name
        self.workload = workload
        self.program = program
        self.plans = {"SC": sc_plan, "custom": custom_plan}
        self.reference = reference  # computed once, in set-up
        self.agrees = agrees        # (RunResult, reference) -> bool

    def run(self, plan: str, backend: str, **armed):
        program = self.program(self.workload, self.plans[plan])
        return run_spmd(program, backend=backend, n_procs=N_PROCS, **armed)


#: inputs per size: Barnes-Hut (bodies, steps), BSC (block columns,
#: block, band), EM3D (nodes per side, degree, iterations), TSP cities,
#: Water (molecules, steps)
SIZES = {
    "full": ((128, 2), (24, 8, 4), (192, 5, 8), 8, (48, 2)),
    # armed_idle runs ~4x slower per event than the same rows unarmed
    "armed": ((64, 1), (8, 4, 3), (192, 5, 3), 7, (48, 1)),
    "quick": ((24, 1), (4, 3, 2), (16, 3, 2), 6, (8, 1)),
}


def make_apps(seed: int, size: str) -> dict:
    """The five apps on inputs generated from ``seed``."""
    (bodies, bh_steps), (cols, block, band), (nodes, degree, iters), cities, (mols, wa_steps) = SIZES[size]
    bh = barnes_hut.BHWorkload(n_bodies=bodies, n_steps=bh_steps, seed=seed + 1)
    bs = bsc.BSCWorkload(n_block_cols=cols, block=block, band=band, seed=seed + 2)
    em = em3d.EM3DWorkload(
        n_e=nodes, n_h=nodes, degree=degree, pct_remote=0.25, n_iters=iters, seed=seed + 3
    )
    ts = tsp.TSPWorkload(n_cities=cities, prefix_depth=2, seed=seed + 4)
    wa = water.WaterWorkload(n_molecules=mols, n_steps=wa_steps, seed=seed + 5)

    def tsp_agrees(res, best):
        jobs = sum(done for _, done in res.results)
        return jobs == ts.n_jobs and all(abs(b - best) <= 1e-9 * best for b, _ in res.results)

    apps = [
        App("Barnes-Hut", bh, barnes_hut.bh_program, barnes_hut.SC_PLAN, barnes_hut.CUSTOM_PLAN,
            barnes_hut.reference(bh),
            lambda res, ref: _close([barnes_hut.collect_results(res, bh)], [ref], 1e-10, 1e-12)),
        App("BSC", bs, bsc.bsc_program, bsc.SC_PLAN, bsc.CUSTOM_PLAN,
            bsc.reference(bs),
            lambda res, ref: _close([bsc.collect_results(res, bs)], [ref], 1e-9, 1e-10)),
        App("EM3D", em, em3d.em3d_program, em3d.SC_PLAN, em3d.STATIC_PLAN,
            em3d.reference(em, N_PROCS),
            lambda res, ref: _em3d_close(em3d.collect_results(res, em), ref)),
        App("TSP", ts, tsp.tsp_program, tsp.SC_PLAN, tsp.CUSTOM_PLAN,
            tsp.reference(ts), tsp_agrees),
        App("Water", wa, water.water_program, water.SC_PLAN, water.CUSTOM_PLAN,
            water.reference(wa),
            lambda res, ref: _close([water.collect_results(res, wa)], [ref], 1e-9, 1e-12)),
    ]
    return {app.name: app for app in apps}


class Apps:
    """A list of (app, plan, backend) rows over one set of inputs."""

    def __init__(self, name: str, runs: list, size: str = "full"):
        self.name = name
        self.runs = runs  # (app, plan, backend) per row
        self.size = size

    def setup(self, seed: int, quick: bool) -> dict:
        apps = make_apps(seed, "quick" if quick else self.size)
        return {"apps": apps, "digest": digest(*[repr(a.workload) for a in apps.values()])}

    def arm(self) -> dict:
        """Keyword arguments arming optional features (none here)."""
        return {}

    def rows(self, inputs: dict, out: Outcome):
        for app, plan, backend in self.runs:
            label = f"{app}/{plan}/{backend}"

            def row(label=label, app=app, plan=plan, backend=backend):
                res = inputs["apps"][app].run(plan, backend, **self.arm())
                out.add_run(label, res)
                out.payload.append((label, app, res))

            yield label, row

    def verify(self, inputs: dict, out: Outcome) -> None:
        for label, name, res in out.payload:
            app = inputs["apps"][name]
            out.check_call(label, lambda: app.agrees(res, app.reference), "result differs from reference()")

    def probes(self, out: Outcome, inputs: dict) -> dict:
        return {}


_FIVE = ("Barnes-Hut", "BSC", "EM3D", "TSP", "Water")


class ArmedIdle(Apps):
    """Every optional feature constructed, nothing for any of them to do."""

    FEATURES = {
        "obs": lambda: {"tracer": TraceBuffer(capacity=1 << 18)},
        "faults": lambda: {"fault_plan": FaultPlan()},
        "check": lambda: {"check": True},
        "recover": lambda: {"fault_plan": FaultPlan(), "on_crash": "recover"},
    }

    def arm(self) -> dict:
        armed = {}
        for feature in self.FEATURES.values():
            armed.update(feature())
        return armed

    def verify(self, inputs: dict, out: Outcome) -> None:
        for label, _, res in out.payload:
            retries = res.stats.get("rel.retry")
            out.check(f"{label} idle", retries == 0, f"{retries} retries on a fault-free fabric")
        super().verify(inputs, out)

    def probes(self, out: Outcome, inputs: dict) -> dict:
        """Wall of the same rows with one feature (or all) armed, over
        the wall with everything off; best of two passes each."""

        def wall(arm) -> float:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                for app, plan, backend in self.runs:
                    inputs["apps"][app].run(plan, backend, **arm())
                best = min(best, time.perf_counter() - t0)
            return best

        off = wall(dict)
        factors = {f"armed.{name}_x": wall(arm) / off for name, arm in self.FEATURES.items()}
        factors["armed.all_x"] = wall(self.arm) / off
        return factors


# --------------------------------------------------------------- compiled
class Compiled:
    """Table 4: five AceC kernels × four optimization levels + hand."""

    name = "compiled"
    N_PROCS = 4
    LEVELS = (OPT_BASE, OPT_LI, OPT_LI_MC, OPT_DIRECT)

    def kernels(self, seed: int, quick: bool) -> dict:
        """{kernel: (source, hand source, host data, reference, agrees)}"""
        p = self.N_PROCS
        bh = K.BHKernelWL(n=8 if quick else 24, steps=1 if quick else 2, seed=seed + 1)
        bs = K.BSCKernelWL(nb=3 if quick else 9, block=2 if quick else 3, band=1 if quick else 2, seed=seed + 2)
        em = K.EM3DKernelWL(n=8 if quick else 64, degree=2 if quick else 3, iters=2 if quick else 8, seed=seed + 3)
        ts = K.TSPKernelWL(n_cities=5 if quick else 6, seed=seed + 4)
        wa = K.WaterKernelWL(n=4 if quick else 26, steps=1 if quick else 2, seed=seed + 5)

        def em3d_out(run):
            return [np.array([run.bb[(side, i)] for i in range(em.n)]) for side in ("e_out", "h_out")]

        return {
            "Barnes-Hut": (K.bh_source(bh), K.bh_hand_source(bh), K.bh_host_data(bh), K.bh_reference(bh),
                           lambda run, ref: _close([K.bh_collect(run, bh)], [ref], 1e-9, 1e-12)),
            "BSC": (K.bsc_source(bs), K.bsc_hand_source(bs), K.bsc_host_data(bs), K.bsc_reference(bs),
                    lambda run, ref: _close([K.bsc_collect(run, bs)], [ref], 1e-9, 1e-9)),
            "EM3D": (K.em3d_source(em), K.em3d_hand_source(em), K.em3d_host_data(em, p),
                     K.em3d_reference(em, p),
                     lambda run, ref: _em3d_close(em3d_out(run), ref)),
            "TSP": (K.tsp_source(ts), K.tsp_source(ts, hand=True), K.tsp_host_data(ts), K.tsp_reference(ts),
                    lambda run, ref: abs(run.bb[("result", 0)] - ref) <= 1e-9 * ref),
            "Water": (K.water_source(wa), K.water_hand_source(wa), K.water_host_data(wa),
                      K.water_reference(wa),
                      lambda run, ref: _close([K.water_collect(run, wa)], [ref], 1e-9, 1e-12)),
        }

    def setup(self, seed: int, quick: bool) -> dict:
        kernels = self.kernels(seed, quick)
        programs, compile_s = [], 0.0
        for name, (source, hand, host, _, _) in kernels.items():
            t0 = time.perf_counter()
            variants = [(level.name, compile_source(source, opt=level)) for level in self.LEVELS]
            variants.append(("hand", compile_source(hand, opt=OPT_BASE)))
            for _, program in variants:
                program.closures()
            compile_s += time.perf_counter() - t0
            programs += [(f"{name}/{variant}", name, program, host) for variant, program in variants]
        # the interpreter oracle against the closures it checks, one kernel
        tsp_program, tsp_host = next((prog, host) for label, _, prog, host in programs if label == "TSP/base")
        walls = {}
        for backend in ("interp", "closures"):
            t0 = time.perf_counter()
            run_compiled(tsp_program, n_procs=self.N_PROCS, host_data=tsp_host, backend=backend)
            walls[backend] = time.perf_counter() - t0
        return {
            "kernels": kernels, "programs": programs,
            "compile_s": compile_s, "interp_x": walls["interp"] / walls["closures"],
            "digest": digest(*[(src, hand, sorted(host)) for src, hand, host, _, _ in kernels.values()],
                             *[a for _, _, host, _, _ in kernels.values() for a in host.values()]),
        }

    def rows(self, inputs: dict, out: Outcome):
        for label, kernel, program, host in inputs["programs"]:
            def row(label=label, kernel=kernel, program=program, host=host):
                run = run_compiled(program, n_procs=self.N_PROCS, host_data=host)
                out.add_run(label, run.run_result)
                out.payload.append((label, kernel, run))

            yield label, row

    def verify(self, inputs: dict, out: Outcome) -> None:
        for label, kernel, run in out.payload:
            _, _, _, reference, agrees = inputs["kernels"][kernel]
            out.check_call(label, lambda: agrees(run, reference), "result differs from the host reference")

    def probes(self, out: Outcome, inputs: dict) -> dict:
        return {
            "compiler.compile_s": inputs["compile_s"],
            "compiler.interp_over_closures_x": inputs["interp_x"],
        }


# ------------------------------------------------------------ serve_shift
class ServeShift:
    """Open-loop serving at a ladder of arrival rates.

    Open loop: arrivals follow the generated schedule whatever the
    service does, and each request's latency runs from its due arrival
    cycle, so a stall shows as queueing delay on everything behind it.
    ``backlog_ratio`` is finish cycle over last arrival cycle — how
    late the run ended relative to its own schedule."""

    name = "serve_shift"
    #: a rate is sustained while the run ends within 5% of its schedule
    #: and p99 latency stays within 65 535 cycles (~2 ms at 33 MHz)
    MAX_BACKLOG, MAX_P99 = 1.05, 65_535

    def setup(self, seed: int, quick: bool) -> dict:
        ladder = {
            rate: ServeWorkload(
                n_keys=32 if quick else 256, n_shards=4 if quick else 8,
                n_requests=256 if quick else 12_288, batch=16 if quick else 128,
                zipf_s=1.1, read_frac=0.95, shift_at=0.5, shift_read_frac=0.10,
                rate=float(rate), seed=seed + rate,
            )
            for rate in metrics.SERVE_RATES
        }
        traffic = {rate: build_traffic(wl, N_PROCS) for rate, wl in ladder.items()}
        return {
            "ladder": ladder, "traffic": traffic,
            "digest": digest(*[t[k] for t in traffic.values() for k in ("keys", "is_read", "arrival")]),
        }

    def rows(self, inputs: dict, out: Outcome):
        out.extra.update({"serve.requests": 0, "sim_sustained_rate": 0})
        for rate, wl in inputs["ladder"].items():
            def row(rate=rate, wl=wl):
                controller = AdaptiveController({s: "DynamicUpdate" for s in range(wl.n_shards)})
                # metrics_width=0: no MetricsWindow, so no tracer — the
                # controller decides from the serve counters alone
                res, report = run_serve(
                    wl, controller=controller, n_procs=N_PROCS, n_dir_shards=2, metrics_width=0)
                out.add_run(f"r{rate}", res)
                out.payload.append((rate, res, report))
                latency = report["latency"]
                backlog = report["cycles"] / report["traffic"]["last_arrival"]
                out.extra[f"serve.backlog_ratio_r{rate}"] = backlog
                out.extra["serve.requests"] += report["requests"]
                if backlog <= self.MAX_BACKLOG and latency["p99"] <= self.MAX_P99:
                    out.extra["sim_sustained_rate"] = max(out.extra["sim_sustained_rate"], rate)
                if rate == metrics.SERVE_RATES[0]:
                    out.extra["sim_mean_latency_cycles"] = latency["total"] / latency["count"]

            yield f"r{rate}", row

    def verify(self, inputs: dict, out: Outcome) -> None:
        for rate, res, report in out.payload:
            wl, traffic = inputs["ladder"][rate], inputs["traffic"][rate]
            served = report["requests"] == report["latency"]["count"] == wl.n_requests
            out.check(f"r{rate} requests served", served, f"{report['requests']} of {wl.n_requests}",
                      ops=wl.n_requests)
            wrong = out.guarded(f"r{rate} final cells", lambda: self.wrong_cells(wl, traffic, res))
            if wrong is not None:
                out.check(f"r{rate} final cells", not wrong, f"keys {wrong[:8]}", ops=wl.n_keys)

    @staticmethod
    def wrong_cells(wl, traffic, res) -> list:
        """Keys whose final value does not name a last writer.

        A write stores its request index.  Each front end issues its
        requests in index order, so a key's final value must be the
        last write to it from *some* node (0.0 if nobody wrote it).
        The values are read back through the protocol itself, by a
        reader task spawned on the finished machine — after the timed
        region and after the report's cycle count was taken."""
        by_home: dict = {}
        for region in res.backend.runtime.regions.all_regions():
            by_home.setdefault(region.home, []).append(region.rid)
        # homes allocate their keys in increasing key order
        rid_of = {
            key: by_home[key % N_PROCS][key // N_PROCS] for key in range(wl.n_keys)
        }
        ctx, final = NodeContext(res.backend, 0), {}

        def reader():
            for key, rid in rid_of.items():
                handle = yield from ctx.map(rid)
                final[key] = float((yield from ctx.read_region(handle))[0])
                yield from ctx.unmap(handle)

        res.machine.sim.spawn(reader(), name="verify")
        res.machine.sim.run()
        keys, node = traffic["keys"], traffic["node"]
        writes = np.flatnonzero(~traffic["is_read"])
        wrong = []
        for key in range(wl.n_keys):
            mine = writes[keys[writes] == key]
            last = {0.0} if mine.size == 0 else {
                float(mine[node[mine] == n][-1]) for n in np.unique(node[mine])
            }
            if final[key] not in last:
                wrong.append(key)
        return wrong

    def probes(self, out: Outcome, inputs: dict) -> dict:
        return {}


WORKLOADS = [
    Apps("apps_sc", [(app, "SC", backend) for app in _FIVE for backend in ("crl", "ace")]),
    Apps("apps_custom", [(app, "custom", "ace") for app in _FIVE]),
    Compiled(),
    ServeShift(),
    ArmedIdle("armed_idle", [(app, "SC", "ace") for app in ("EM3D", "Water", "Barnes-Hut")], "armed"),
]
