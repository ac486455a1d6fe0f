"""Reproduction drivers for every table and figure in the paper.

Workloads here are the *bench-scale* configurations: the paper's
shapes (who wins, by roughly what factor) at sizes a pure-Python
discrete-event simulation sweeps in seconds.  Every ``*Workload``
class also carries the paper's exact Table 3 inputs via ``.paper()``
for anyone willing to wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import acec_sources as K
from repro.apps import barnes_hut, bsc, em3d, tsp, water
from repro.compiler import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source, run_compiled
from repro.facade import run_spmd

#: simulated processors used by the facade experiments (paper: 32)
BENCH_PROCS = 8

# --------------------------------------------------------------- workloads
FIG7_WORKLOADS = {
    "Barnes-Hut": lambda: barnes_hut.BHWorkload(n_bodies=64, n_steps=2, seed=6),
    "BSC": lambda: bsc.BSCWorkload(n_block_cols=10, block=10, band=3, seed=13),
    "EM3D": lambda: em3d.EM3DWorkload(n_e=96, n_h=96, degree=5, pct_remote=0.25, n_iters=6, seed=3),
    "TSP": lambda: tsp.TSPWorkload(n_cities=8, prefix_depth=2, seed=11),
    "Water": lambda: water.WaterWorkload(n_molecules=24, n_steps=2, seed=4),
}

#: app -> (program factory, {variant: plan}); ``custom`` is the app's
#: Fig. 7b protocol, EM3D also names the two §3.3 ladder steps
_PROGRAMS = {
    "Barnes-Hut": (barnes_hut.bh_program, {"SC": barnes_hut.SC_PLAN, "custom": barnes_hut.CUSTOM_PLAN}),
    "BSC": (bsc.bsc_program, {"SC": bsc.SC_PLAN, "custom": bsc.CUSTOM_PLAN}),
    "EM3D": (em3d.em3d_program, {"SC": em3d.SC_PLAN, "custom": em3d.STATIC_PLAN,
                                 "dynamic": em3d.DYNAMIC_PLAN, "static": em3d.STATIC_PLAN}),
    "TSP": (tsp.tsp_program, {"SC": tsp.SC_PLAN, "custom": tsp.CUSTOM_PLAN}),
    "Water": (water.water_program, {"SC": water.SC_PLAN, "custom": water.CUSTOM_PLAN}),
}

TABLE4_KERNELS = {
    "Barnes-Hut": dict(
        wl=K.BHKernelWL(n=16, steps=2),
        source=lambda wl: K.bh_source(wl),
        hand=lambda wl: K.bh_hand_source(wl),
        host=lambda wl: K.bh_host_data(wl),
    ),
    "BSC": dict(
        wl=K.BSCKernelWL(nb=5, block=3, band=2),
        source=lambda wl: K.bsc_source(wl),
        hand=lambda wl: K.bsc_hand_source(wl),
        host=lambda wl: K.bsc_host_data(wl),
    ),
    "EM3D": dict(
        wl=K.EM3DKernelWL(n=20, degree=3, iters=6),
        source=lambda wl: K.em3d_source(wl),
        hand=lambda wl: K.em3d_hand_source(wl),
        host=lambda wl: K.em3d_host_data(wl, BENCH_PROCS),
    ),
    "TSP": dict(
        wl=K.TSPKernelWL(n_cities=6),
        source=lambda wl: K.tsp_source(wl),
        hand=lambda wl: K.tsp_source(wl, hand=True),
        host=lambda wl: K.tsp_host_data(wl),
    ),
    "Water": dict(
        wl=K.WaterKernelWL(n=10, steps=2),
        source=lambda wl: K.water_source(wl),
        hand=lambda wl: K.water_hand_source(wl),
        host=lambda wl: K.water_host_data(wl),
    ),
}


@dataclass
class Row:
    app: str
    variant: str
    cycles: int

    def __iter__(self):  # allows tuple() for table rendering
        return iter((self.app, self.variant, self.cycles))


# --------------------------------------------------------------- app cells
def plan_for(app: str, variant: str) -> dict:
    """Resolve a plan by short name: ``SC``/``custom`` for every app,
    plus ``dynamic``/``static`` for EM3D (the §3.3 ladder)."""
    plans = _PROGRAMS[app][1]
    try:
        return plans[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r} for {app}; choose from {sorted(plans)}"
        ) from None


def run_app(app: str, variant: str = "SC", backend: str = "ace", n_procs: int = BENCH_PROCS, **run_kw):
    """Run one experiment cell: a paper app's bench-scale workload under
    a named plan, on ``backend`` with ``n_procs`` nodes.

    The single place a paper app is put on a machine: the figure rows
    below, every ``python -m repro`` subcommand and the golden pins go
    through it.  ``run_kw`` is passed to :func:`repro.facade.run_spmd`
    (``fault_plan=``, ``check=``, ``tracer=``, ``jitter_seed=`` ...).
    """
    program = _PROGRAMS[app][0](FIG7_WORKLOADS[app](), plan_for(app, variant))
    return run_spmd(program, backend=backend, n_procs=n_procs, **run_kw)


def trace_run(
    app: str,
    variant: str = "SC",
    backend: str = "ace",
    n_procs: int = BENCH_PROCS,
    capacity: int = 1 << 18,
    metrics=None,
):
    """:func:`run_app` with observability on; returns ``(RunResult, TraceBuffer)``.

    ``metrics`` is an optional :class:`repro.obs.MetricsWindow` fed
    inline at emit time (it sees every event even if the ring wraps).
    """
    from repro.obs import TraceBuffer

    buf = TraceBuffer(capacity=capacity, metrics=metrics)
    return run_app(app, variant, backend, n_procs, tracer=buf), buf


# --------------------------------------------------------------- figures 7a, 7b, §3.3
def fig7a_runs(n_procs: int = BENCH_PROCS, apps: list[str] | None = None):
    """Ace runtime vs CRL, both running the SC invalidation protocol:
    yields ``(app, backend, RunResult)``."""
    for app in apps or FIG7_WORKLOADS:
        for backend in ("crl", "ace"):
            yield app, backend, run_app(app, "SC", backend, n_procs)


def fig7b_runs(n_procs: int = BENCH_PROCS):
    """SC vs application-specific protocols, on Ace: yields ``(app, variant, RunResult)``."""
    for app in FIG7_WORKLOADS:
        for variant in ("SC", "custom"):
            yield app, variant, run_app(app, variant, n_procs=n_procs)


def _rows(runs) -> list[Row]:
    return [Row(app, label, res.time) for app, label, res in runs]


def fig7a_rows(n_procs: int = BENCH_PROCS) -> list[Row]:
    return _rows(fig7a_runs(n_procs))


def fig7b_rows(n_procs: int = BENCH_PROCS) -> list[Row]:
    return _rows(fig7b_runs(n_procs))


def sec33_ladder_rows(n_procs: int = BENCH_PROCS) -> list[Row]:
    """EM3D: SC → dynamic update → static update (§3.3's 3.5x / 5x)."""
    ladder = (("SC", "SC"), ("DynamicUpdate", "dynamic"), ("StaticUpdate", "static"))
    return [Row("EM3D", name, run_app("EM3D", variant, n_procs=n_procs).time) for name, variant in ladder]


# --------------------------------------------------------------- table 4
TABLE4_LEVELS = [OPT_BASE, OPT_LI, OPT_LI_MC, OPT_DIRECT]


def table4_runs(apps: list[str] | None = None, n_procs: int = 4):
    """Compiler-optimization ladder + hand-optimized, per kernel:
    yields ``(app, level, RunResult)``."""
    for app in apps or TABLE4_KERNELS:
        spec = TABLE4_KERNELS[app]
        wl = spec["wl"]
        host = spec["host"](wl)
        src = spec["source"](wl)
        ladder = [(level.name, src, level) for level in TABLE4_LEVELS]
        for name, source, level in ladder + [("hand", spec["hand"](wl), OPT_BASE)]:
            run = run_compiled(compile_source(source, opt=level), n_procs=n_procs, host_data=host)
            yield app, name, run.run_result


def table4_rows(apps: list[str] | None = None, n_procs: int = 4) -> list[Row]:
    return _rows(table4_runs(apps, n_procs))


# --------------------------------------------------------------- table 3
def table3_rows() -> list[tuple]:
    """The paper's benchmark inputs, plus this reproduction's bench scale."""
    return [
        ("Barnes-Hut", "16,384 bodies, 4 steps, tol=1.0, eps=0.5",
         str(FIG7_WORKLOADS["Barnes-Hut"]())),
        ("BSC", "Tk15.O", str(FIG7_WORKLOADS["BSC"]())),
        ("EM3D", "1000 E + 1000 H, 20% remote, degree 10, 100 steps",
         str(FIG7_WORKLOADS["EM3D"]())),
        ("TSP", "12 cities", str(FIG7_WORKLOADS["TSP"]())),
        ("Water", "512 molecules, 3 steps", str(FIG7_WORKLOADS["Water"]())),
    ]


# --------------------------------------------------------------- rendering
def format_table(title: str, header: list[str], rows: list) -> str:
    """Plain-text table for bench output and EXPERIMENTS.md."""
    str_rows = [[str(c) for c in tuple(r)] for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) for i, h in enumerate(header)]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, " | ".join(h.ljust(w) for h, w in zip(header, widths)), sep]
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def by_app(rows: list[Row]) -> dict:
    """{app: {variant: cycles}} convenience view."""
    out: dict = {}
    for row in rows:
        out.setdefault(row.app, {})[row.variant] = row.cycles
    return out
