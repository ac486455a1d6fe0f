"""Ablation: barrier algorithm — CM-5 control network vs dissemination.

CRL (and our default) rides the CM-5's hardware control network; the
dissemination barrier is the portable fallback for machines without
one.  A barrier-heavy workload (EM3D, two barriers per iteration)
quantifies the cost of losing the control network.
"""

from repro.apps import em3d
from repro.facade import run_spmd
from repro.harness import format_table
from repro.harness.experiments import FIG7_WORKLOADS


def _experiment():
    wl = FIG7_WORKLOADS["EM3D"]()
    program = em3d.em3d_program(wl, em3d.STATIC_PLAN)
    t_hw = run_spmd(program, backend="ace", n_procs=8, barrier_algorithm="hw").time
    program = em3d.em3d_program(wl, em3d.STATIC_PLAN)
    t_diss = run_spmd(
        program, backend="ace", n_procs=8, barrier_algorithm="dissemination"
    ).time
    return t_hw, t_diss


def test_barrier_algorithm():
    t_hw, t_diss = _experiment()
    print()
    print(
        format_table(
            "Ablation — barrier algorithm on EM3D/StaticUpdate (cycles)",
            ["barrier", "cycles"],
            [("hw (control network)", t_hw), ("dissemination (messages)", t_diss)],
        )
    )
    # losing the control network costs something, but the protocol still works
    assert t_diss > t_hw
    assert t_diss < 2.0 * t_hw
