"""The parallel sweep driver: matrix construction, cell determinism,
the report's records, and bench/chaos interoperability."""

import json

import pytest

from repro import cli
from repro.cli import sweep
from repro.cli.common import APPS, UsageError, build_matrix
from repro.cli.report import CELL_KEYS, cell_tag, compare, validate
from repro.dsm import FaultPlan


def test_build_matrix_cross_product():
    cells = build_matrix("sweep", ["TSP", "EM3D"], [2, 4], ["none", "canonical"], [0, 1])
    # pairs: TSP-SC, EM3D-SC, EM3D-dynamic, EM3D-static; "none" cells
    # collapse the seed axis (a fault-free run has no seed to vary) —
    # plus TSP-custom, on the faulted plan only
    assert len(cells) == 4 * 2 * (1 + 2) + 1 * 2 * 2
    assert all(set(CELL_KEYS) <= set(c) for c in cells)
    none_cells = [c for c in cells if c["plan"] == "none"]
    assert all(c["seed"] == 0 and c["variant"] != "custom" for c in none_cells)
    # every app meets a lossy fabric under its own protocol too
    faulted = {(c["app"], c["variant"]) for c in build_matrix("sweep", APPS, [4], ["canonical"], [0])}
    assert faulted == {(app, v) for app in APPS for v in ("SC", "custom") if (app, v) != ("EM3D", "custom")} | {
        ("EM3D", "dynamic"), ("EM3D", "static")}
    # an empty matrix is refused: "all checks passed" over zero cells is a lie
    with pytest.raises(UsageError, match="no cell to run"):
        build_matrix("sweep", ["TSP"], [2], ["canonical"], [])


def _cell(plan="none", seed=0, app="TSP"):
    return dict(suite="sweep", app=app, variant="SC", procs=2, plan=plan, seed=seed)


def test_run_cell_records_measurements():
    rec = sweep.run_cell(_cell())
    assert rec["cell"] == _cell() and rec["stall"] is None and rec["fault_plan"] is None
    assert rec["cycles"] > 0
    assert rec["events"] > 0
    assert rec["faults"]["drop"] == 0
    armed = sweep.run_cell(_cell("canonical", 1))
    assert armed["fault_plan"] == FaultPlan.canonical(1).to_dict()


def test_run_cell_deterministic_and_pool_invisible():
    """The same cell must yield identical physics run over run — and
    the pool path (jobs>1) must match the serial path exactly."""
    cell = _cell("canonical", 1)
    a = sweep.run_cell(cell)
    b = sweep.run_cell(cell)
    assert (a["cycles"], a["events"], a["faults"]) == (b["cycles"], b["events"], b["faults"])

    cells = [_cell(), _cell("canonical", 0)]
    serial = sweep.sweep(cells, jobs=1)
    parallel = sweep.sweep(cells, jobs=2)
    assert serial == parallel


def test_merged_artifact_is_bench_comparable():
    """A sweep report is its own baseline: bench's comparator pairs its
    runs by cell, and two identical reports gate clean."""
    records = sweep.sweep([_cell()], jobs=1)
    report = {"runs": records}
    checks = compare(report, report, gate=True)
    assert [c["name"] for c in checks] == ["sweep"] and checks[0]["ok"]
    assert checks[0]["detail"] == f"cycles identical  events {records[0]['events']} -> {records[0]['events']} (+0.0%)"
    # one moved cycle count in the pair is caught, and named
    moved = {"runs": [{**records[0], "cycles": records[0]["cycles"] + 1}]}
    assert not compare(moved, report)[0]["ok"]
    assert "TSP-SC-2-none-0" in compare(moved, report)[0]["detail"]


def test_smoke_matrix_cli(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--smoke", "--jobs", "2", "--out", str(out)]) == 0
    report = validate(json.loads(out.read_text()))
    assert report["command"] == "sweep" and report["stamp"] and report["host"]["cpus"]
    assert len(report["runs"]) == 4  # TSP+EM3D x SC x {none, canonical seed 0}
    assert all(r["stall"] is None for r in report["runs"]) and report["checks"] == []
    faulted = [r for r in report["runs"] if r["cell"]["plan"] == "canonical"]
    assert faulted and all(
        r["faults"]["drop"] + r["faults"]["dup"] + r["faults"]["delay"] > 0
        for r in faulted
    )


def test_compare_serial_fails_on_a_record_that_differs(tmp_path, monkeypatch):
    """The determinism check holds the serial re-run's records to the
    pool's whole, so one moved event count fails it and is named."""
    real, calls = sweep.sweep, []

    def serial_moves_one(cells, jobs):
        runs = real(cells, jobs)
        calls.append(jobs)
        if len(calls) == 2:
            runs[1] = {**runs[1], "events": runs[1]["events"] + 1}
        return runs

    monkeypatch.setattr(sweep, "sweep", serial_moves_one)
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--smoke", "--jobs", "1", "--compare-serial", "--out", str(out)]) == 1
    report = validate(json.loads(out.read_text()))
    [verdict] = report["checks"]
    assert verdict == {"name": "serial re-run", "ok": False,
                       "detail": f"{cell_tag(report['runs'][1]['cell'])} differs"}


def test_chaos_from_sweep_roundtrip(tmp_path, capsys):
    """chaos --from-sweep must verify a fresh sweep report clean — and
    refuse one with no faulted cell, or with a cycle count it cannot reproduce."""
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--apps", "TSP", "--procs", "2", "--seeds", "0", "--jobs", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    replay = ["chaos", "--from-sweep", str(out), "--out", str(tmp_path / "chaos.json")]
    assert cli.main(replay) == 0
    assert "TSP-SC-2-canonical-0: ok" in capsys.readouterr().out

    report = json.loads(out.read_text())
    faulted = next(r for r in report["runs"] if r["cell"] == _cell("canonical"))
    faulted["cycles"] += 1
    out.write_text(json.dumps(report))
    assert cli.main(replay) == 1
    assert f"TSP-SC-2-canonical-0 {faulted['cycles']} -> {faulted['cycles'] - 1}" in capsys.readouterr().out
    # the replay's record of the cell carries what reproduces it
    chaos = validate(json.loads((tmp_path / "chaos.json").read_text()))
    rec = next(r for r in chaos["runs"] if r["cell"] == _cell("canonical"))
    assert rec["fault_plan"] == FaultPlan.canonical(0).to_dict()
    assert [c["name"] for c in chaos["checks"] if not c["ok"]] == ["sweep replayed"]

    report["runs"] = [r for r in report["runs"] if r["cell"]["plan"] == "none"]
    out.write_text(json.dumps(report))
    assert cli.main(replay) == 2
    assert "no faulted cell to verify" in capsys.readouterr().err


@pytest.mark.slow
def test_compare_serial_full_matrix(tmp_path):
    """19-cell acceptance shape: pool and serial physics identical."""
    cells = build_matrix("sweep", ["TSP", "EM3D"], [4], ["none", "canonical"], [0, 1, 2])
    assert len(cells) == 19
    parallel = {"runs": sweep.sweep(cells, jobs=4)}
    serial = {"runs": sweep.sweep(cells, jobs=1)}
    assert serial == parallel
