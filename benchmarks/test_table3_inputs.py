"""Table 3: benchmark inputs — the paper's canonical parameters next to
this reproduction's bench-scale configurations (see DESIGN.md for the
scaling substitution)."""

from repro.apps import barnes_hut, bsc, em3d, tsp, water
from repro.harness import format_table, table3_rows


def test_table3_benchmark_inputs():
    rows = table3_rows()
    print()
    print(format_table("Table 3 — benchmark inputs", ["name", "paper input", "bench scale"], rows))

    # the paper's canonical inputs stay available on every workload class
    assert barnes_hut.BHWorkload.paper().n_bodies == 16384
    assert em3d.EM3DWorkload.paper().n_e == 1000
    assert em3d.EM3DWorkload.paper().n_iters == 100
    assert tsp.TSPWorkload.paper().n_cities == 12
    assert water.WaterWorkload.paper().n_molecules == 512
    assert water.WaterWorkload.paper().n_steps == 3
    assert bsc.BSCWorkload.paper().n >= 100
    assert len(rows) == 5
