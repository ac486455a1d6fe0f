"""Protocol sweep: one application, the whole library.

EM3D runs unmodified under five protocols — the practical payoff of
§2.2's space indirection (performance tuning and even *race checking*
are a one-argument change).  Also quantifies the §2.1 LCM-style
instrumentation cost: RaceDetect pays for its per-access recording and
per-epoch summary traffic relative to the equivalent update protocol.
"""

import numpy as np

from repro.apps import em3d
from repro.facade import run_spmd
from repro.harness import format_table
from repro.harness.experiments import FIG7_WORKLOADS

PROTOCOLS = ["SC", "DynamicUpdate", "StaticUpdate", "BufferedUpdate", "RaceDetect"]


def _experiment():
    wl = FIG7_WORKLOADS["EM3D"]()
    ref = em3d.reference(wl, 8)
    out = {}
    for proto in PROTOCOLS:
        res = run_spmd(
            em3d.em3d_program(wl, {"protocol": proto}), backend="ace", n_procs=8
        )
        e, h = em3d.collect_results(res, wl)
        assert np.allclose(e, ref[0]) and np.allclose(h, ref[1]), proto
        out[proto] = res.time
    return out


def test_em3d_protocol_sweep():
    times = _experiment()
    sc = times["SC"]
    print()
    print(
        format_table(
            "Protocol sweep — EM3D under five protocols (cycles, identical results)",
            ["protocol", "cycles", "vs SC"],
            [(p, times[p], f"{sc / times[p]:.2f}x") for p in PROTOCOLS],
        )
    )

    # update protocols all beat SC for this producer-consumer pattern
    for p in ("DynamicUpdate", "StaticUpdate", "BufferedUpdate"):
        assert times[p] < sc, p
    # batched protocols beat eager per-write propagation
    assert times["StaticUpdate"] < times["DynamicUpdate"]
    assert times["BufferedUpdate"] < times["DynamicUpdate"]
    # race checking costs instrumentation + summary traffic relative to
    # the equivalent (static-update-style) data movement, but still far
    # less than running full SC invalidation
    assert times["RaceDetect"] > times["StaticUpdate"]
    assert times["RaceDetect"] < sc
