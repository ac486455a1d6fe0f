"""Ablation: the cost of Ace's space-indirection dispatch (§4.1/§5.1).

Every Ace primitive looks the region's space up in a hash table and
calls through protocol pointers; §5.1 blames this indirection for Ace
not beating CRL on coarse-grained BSC.  Zeroing the modeled dispatch
cost quantifies it: fine-grained EM3D should speed up noticeably,
coarse-grained BSC barely.
"""

from repro.apps import bsc, em3d
from repro.core import AceConfig
from repro.facade import run_spmd
from repro.harness import format_table
from repro.harness.experiments import FIG7_WORKLOADS


def _run_pair(program):
    t_with = run_spmd(program, backend="ace", n_procs=8).time
    t_without = run_spmd(
        program, backend="ace", n_procs=8, config=AceConfig(dispatch_cost=0)
    ).time
    return t_with, t_without


def _experiment():
    em_wl = FIG7_WORKLOADS["EM3D"]()
    bsc_wl = FIG7_WORKLOADS["BSC"]()
    em = _run_pair(em3d.em3d_program(em_wl, em3d.SC_PLAN))
    bs = _run_pair(bsc.bsc_program(bsc_wl, bsc.SC_PLAN))
    return {"EM3D": em, "BSC": bs}


def test_dispatch_indirection_cost():
    results = _experiment()
    table = [
        (app, w, wo, f"{(w - wo) / w * 100:.1f}%") for app, (w, wo) in sorted(results.items())
    ]
    print()
    print(
        format_table(
            "Ablation — space-dispatch indirection (cycles)",
            ["app", "dispatch=10", "dispatch=0", "overhead"],
            table,
        )
    )

    em_overhead = (results["EM3D"][0] - results["EM3D"][1]) / results["EM3D"][0]
    bsc_overhead = (results["BSC"][0] - results["BSC"][1]) / results["BSC"][0]
    # fine-grained code pays proportionally more for the indirection
    assert em_overhead > bsc_overhead
    assert em_overhead > 0.02
    assert bsc_overhead < 0.05
