"""``repro bench``: the regression gate cannot skip a suite or an event
count, the seed baseline covers every suite with events, and a suite
record holds only deterministic numbers."""

import json
from pathlib import Path

from repro import cli
from repro.cli import bench

ROOT = Path(__file__).resolve().parents[2]


def _suite(rows, events=100):
    return {"events": events, "rows": rows}


def test_gate_fails_on_a_suite_the_baseline_lacks():
    rows = [["TSP", "ace", 1234]]
    report = {"suites": {"smoke": _suite(rows), "smoke_serve": _suite(rows)}}
    baseline = {"suites": {"smoke": _suite(rows)}}
    gated = bench.compare(report, baseline, gate=True)
    assert len(gated) == 2 and gated[0] == "smoke: cycles identical  events 100 -> 100 (+0.0%)"
    assert gated[1].startswith("smoke_serve: not in baseline") and "REGRESSED" in gated[1]
    # without --gate the comparison stays informational: common suites only
    assert bench.compare(report, baseline) == gated[:1]
    # an empty baseline leaves the gate nothing to compare — every suite fails it
    assert all("REGRESSED" in line for line in bench.compare(report, {}, gate=True))


def test_gate_holds_the_deterministic_event_count_to_the_baseline():
    rows = [["TSP", "ace", 1234]]
    baseline = {"suites": {"smoke": _suite(rows, events=100)}}

    def gated(events):
        return bench.compare({"suites": {"smoke": _suite(rows, events)}}, baseline, gate=True)[0]

    assert "REGRESSED" not in gated(100) and "REGRESSED" not in gated(99)
    assert "events 100 -> 101 (+1.0%) REGRESSED" in gated(101)  # no tolerance: the count is deterministic
    assert gated(80).endswith("events 100 -> 80 (-20.0%)")
    # a baseline suite without an event count gives the gate nothing to hold events to
    baseline["suites"]["smoke"]["events"] = None
    assert "events not in baseline: REGRESSED" in gated(100)
    ungated = bench.compare({"suites": {"smoke": _suite(rows)}}, baseline)[0]
    assert ungated.endswith("events not in baseline") and "DIFFER" not in ungated


def test_seed_baseline_covers_every_smoke_suite():
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())
    assert set(seed["suites"]) == set(bench.SUITES) | {"smoke", "smoke_table4", "smoke_serve"}
    for name, suite in seed["suites"].items():
        assert suite["rows"] and suite["events"], name
    report = bench.run_bench([], n_procs=2, smoke=True)
    assert set(report["suites"]) == {"smoke", "smoke_table4", "smoke_serve"}
    lines = bench.compare(report, seed, gate=True)
    assert len(lines) == 3 and all("cycles identical" in line for line in lines), lines
    assert not any("REGRESSED" in line for line in lines), lines
    for name, suite in report["suites"].items():
        assert suite["events"] == seed["suites"][name]["events"], name


def test_cli_gate_exits_nonzero_without_a_serve_baseline(tmp_path, capsys):
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())
    del seed["suites"]["smoke_serve"]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(seed))
    argv = ["bench", "--smoke", "--baseline", str(stale), "--out", str(tmp_path / "bench.json")]
    assert cli.main(argv + ["--gate"]) == 1
    assert "smoke_serve: not in baseline: REGRESSED" in capsys.readouterr().out
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "bench.json").read_text())
    for suite in report["suites"].values():  # no host clock: host time is perf/'s job
        assert set(suite) == {"events", "rows"} and suite["events"] > 0 and suite["rows"]
    assert report["command"] == "bench" and report["stamp"] and report["host"]["cpus"]

