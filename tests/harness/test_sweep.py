"""The parallel sweep driver: matrix construction, cell determinism,
merged-report schema, and bench/chaos interoperability."""

import json

import pytest

from repro import cli
from repro.cli import bench, sweep
from repro.cli.common import APPS, CELL_KEYS, UsageError, build_matrix


def test_build_matrix_cross_product():
    cells = build_matrix(["TSP", "EM3D"], [2, 4], ["none", "canonical"], [0, 1])
    # pairs: TSP-SC, EM3D-SC, EM3D-dynamic, EM3D-static; "none" cells
    # collapse the seed axis (a fault-free run has no seed to vary) —
    # plus TSP-custom, on the faulted plan only
    assert len(cells) == 4 * 2 * (1 + 2) + 1 * 2 * 2
    assert all(set(CELL_KEYS) <= set(c) for c in cells)
    none_cells = [c for c in cells if c["plan"] == "none"]
    assert all(c["seed"] == 0 and c["variant"] != "custom" for c in none_cells)
    # every app meets a lossy fabric under its own protocol too
    faulted = {(c["app"], c["variant"]) for c in build_matrix(APPS, [4], ["canonical"], [0])}
    assert faulted == {(app, v) for app in APPS for v in ("SC", "custom") if (app, v) != ("EM3D", "custom")} | {
        ("EM3D", "dynamic"), ("EM3D", "static")}
    # an empty matrix is refused: "all checks passed" over zero cells is a lie
    with pytest.raises(UsageError, match="no cell to run"):
        build_matrix(["TSP"], [2], ["canonical"], [])


def test_run_cell_records_measurements():
    rec = sweep.run_cell(dict(app="TSP", variant="SC", procs=2, plan="none", seed=0))
    assert rec["stalled"] is False
    assert rec["cycles"] > 0
    assert rec["events"] > 0
    assert rec["faults"]["drop"] == 0


def test_run_cell_deterministic_and_pool_invisible():
    """The same cell must yield identical physics run over run — and
    the pool path (jobs>1) must match the serial path exactly."""
    cell = dict(app="TSP", variant="SC", procs=2, plan="canonical", seed=1)
    a = sweep.run_cell(cell)
    b = sweep.run_cell(cell)
    assert (a["cycles"], a["events"], a["faults"]) == (b["cycles"], b["events"], b["faults"])

    cells = [
        dict(app="TSP", variant="SC", procs=2, plan="none", seed=0),
        dict(app="TSP", variant="SC", procs=2, plan="canonical", seed=0),
    ]
    serial, _ = sweep.sweep(cells, jobs=1)
    parallel, _ = sweep.sweep(cells, jobs=2)
    for s, p in zip(serial, parallel):
        assert (s["cycles"], s["events"]) == (p["cycles"], p["events"])


def test_merged_artifact_is_bench_comparable():
    """The suites.sweep block must satisfy bench.compare()'s schema."""
    cells = [dict(app="TSP", variant="SC", procs=2, plan="none", seed=0)]
    records, wall = sweep.sweep(cells, jobs=1)
    report = sweep.merge(records, wall, jobs=1)
    suite = report["suites"]["sweep"]
    assert suite["events"] == records[0]["events"]
    assert suite["rows"] == [["TSP", "SC", 2, "none", 0, records[0]["cycles"]]]
    # identical artifacts gate clean through bench's comparator
    lines = bench.compare(report, report, gate=True)
    assert lines and "cycles identical" in lines[0]
    assert not any("REGRESSED" in line or "DIFFER" in line for line in lines)
    # and the whole report is JSON-serializable as produced
    json.dumps(report)


def test_smoke_matrix_cli(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--smoke", "--jobs", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "sweep" and report["stamp"] and report["host"]["cpus"]
    assert len(report["cells"]) == 4  # TSP+EM3D x SC x {none, canonical seed 0}
    assert all(not c["stalled"] for c in report["cells"])
    faulted = [c for c in report["cells"] if c["plan"] == "canonical"]
    assert faulted and all(
        c["faults"]["drop"] + c["faults"]["dup"] + c["faults"]["delay"] > 0
        for c in faulted
    )


def test_chaos_from_sweep_roundtrip(tmp_path, capsys):
    """chaos --from-sweep must verify a fresh sweep report clean — and
    refuse one with no faulted cell, or with a cycle count it cannot reproduce."""
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--apps", "TSP", "--procs", "2", "--seeds", "0", "--jobs", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    replay = ["chaos", "--from-sweep", str(out), "--out", str(tmp_path / "artifacts")]
    assert cli.main(replay) == 0
    assert "TSP-SC-2-canonical-0: ok" in capsys.readouterr().out

    report = json.loads(out.read_text())
    faulted = next(c for c in report["cells"] if c["plan"] == "canonical")
    faulted["cycles"] += 1
    out.write_text(json.dumps(report))
    assert cli.main(replay) == 1
    assert f"!= recorded {faulted['cycles']}" in capsys.readouterr().out
    assert (tmp_path / "artifacts" / "TSP-SC-2-canonical-0-plan.json").exists()

    report["cells"] = [c for c in report["cells"] if c["plan"] == "none"]
    out.write_text(json.dumps(report))
    assert cli.main(replay) == 2
    assert "no faulted cell to verify" in capsys.readouterr().err


@pytest.mark.slow
def test_compare_serial_full_matrix(tmp_path):
    """19-cell acceptance shape: pool and serial physics identical."""
    cells = build_matrix(["TSP", "EM3D"], [4], ["none", "canonical"], [0, 1, 2])
    assert len(cells) == 19
    records, _ = sweep.sweep(cells, jobs=4)
    assert sweep.compare_serial(cells, records) == []
