"""Ablation: §6's hardware access-fault control (Typhoon/FLASH path).

``HwSC`` keeps the SC state machine but performs the fast-path access
checks in a modeled hardware unit and bypasses the software dispatch.
The paper's claim is architectural: the application/protocol
separation lets a protocol adopt such mechanisms with no application
change.  The measurable consequence: fine-grained EM3D gains a lot,
miss-dominated traffic gains little (hardware only accelerates hits).
"""

from repro.apps import em3d
from repro.facade import run_spmd
from repro.harness import format_table
from repro.harness.experiments import FIG7_WORKLOADS


def _experiment():
    wl = FIG7_WORKLOADS["EM3D"]()
    out = {}
    for proto in ("SC", "HwSC"):
        plan = {"protocol": proto}
        res = run_spmd(em3d.em3d_program(wl, plan), backend="ace", n_procs=8)
        out[proto] = res.time
    return out


def test_hardware_access_control():
    times = _experiment()
    print()
    print(
        format_table(
            "Ablation — software SC vs hardware-assisted SC on EM3D (cycles)",
            ["protocol", "cycles"],
            [("SC (software checks)", times["SC"]),
             ("HwSC (hardware checks)", times["HwSC"])],
        )
    )
    print(f"hardware speedup: {times['SC'] / times['HwSC']:.2f}x")
    assert times["HwSC"] < times["SC"]
    # hits accelerate; the miss path (messages) is untouched, so the
    # speedup is real but bounded
    assert times["SC"] / times["HwSC"] < 2.5
