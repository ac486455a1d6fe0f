"""``repro bench``: the regression gate cannot skip a suite or an event
count, the seed baseline covers every suite with events, and a run
record holds only deterministic numbers."""

import json
from pathlib import Path

from repro import cli
from repro.cli import bench, serve
from repro.cli.report import compare, suite_events

ROOT = Path(__file__).resolve().parents[2]


def _report(*suites, cycles=1234, events=100):
    """One TSP/ace run per suite."""
    return {"runs": [
        {"cell": {"suite": s, "app": "TSP", "variant": "ace", "procs": 2, "plan": None, "seed": None},
         "cycles": cycles, "events": events}
        for s in suites
    ]}


def _lines(checks):
    return [f"{c['name']}: {c['detail']}" for c in checks]


def test_gate_fails_on_a_suite_the_baseline_lacks():
    report, baseline = _report("smoke", "smoke_serve"), _report("smoke")
    gated = compare(report, baseline, gate=True)
    assert [c["ok"] for c in gated] == [True, False]
    assert _lines(gated)[0] == "smoke: cycles identical  events 100 -> 100 (+0.0%)"
    assert _lines(gated)[1].startswith("smoke_serve: not in baseline") and "REGRESSED" in _lines(gated)[1]
    # without --gate the comparison stays informational: common suites only
    assert compare(report, baseline) == gated[:1]
    # an empty baseline leaves the gate nothing to compare — every suite fails it
    assert not any(c["ok"] for c in compare(report, {"runs": []}, gate=True))


def test_gate_holds_the_deterministic_event_count_to_the_baseline():
    baseline = _report("smoke", events=100)

    def gated(events):
        return compare(_report("smoke", events=events), baseline, gate=True)[0]

    assert gated(100)["ok"] and gated(99)["ok"]
    assert not gated(101)["ok"]  # no tolerance: the count is deterministic
    assert gated(101)["detail"].endswith("events 100 -> 101 (+1.0%) REGRESSED")
    assert gated(80)["detail"].endswith("events 100 -> 80 (-20.0%)")
    # a baseline suite without an event count gives the gate nothing to hold events to
    baseline["runs"][0]["events"] = None
    assert "events not in baseline: REGRESSED" in gated(100)["detail"] and not gated(100)["ok"]
    ungated = compare(_report("smoke"), baseline)[0]
    assert ungated["ok"] and ungated["detail"].endswith("events not in baseline")
    # a moved cycle count, or a run the baseline lacks, is a bug whatever the events
    moved = compare(_report("smoke", cycles=1235), _report("smoke"))[0]
    assert not moved["ok"] and moved["detail"].startswith("cycles DIFFER (BUG): TSP-ace-2 1234 -> 1235")
    other = _report("smoke")
    other["runs"][0]["cell"]["procs"] = 4
    assert "TSP-ace-2 absent -> 1234" in compare(_report("smoke"), other)[0]["detail"]


def test_a_report_missing_a_baseline_cell_fails():
    """A suite that stops running a cell fails the comparison, even though
    its event total drops: the dropped cell shows as ``-> absent``."""
    baseline = _report("smoke")
    baseline["runs"].append({**baseline["runs"][0], "cell": {**baseline["runs"][0]["cell"], "app": "EM3D"}})
    for gate in (False, True):
        [short] = compare(_report("smoke"), baseline, gate=gate)
        assert not short["ok"]
        assert short["detail"].startswith("cycles DIFFER (BUG): EM3D-ace-2 1234 -> absent")


def test_seed_baseline_covers_every_smoke_suite():
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())
    events = suite_events(seed["runs"])
    assert set(events) == set(bench.SUITES) | set(bench.SMOKE)
    assert all(events.values()) and all(r["cycles"] for r in seed["runs"])
    runs = bench.run_bench([], n_procs=2, smoke=True)
    assert set(suite_events(runs)) == set(bench.SMOKE)
    checks = compare({"runs": runs}, seed, gate=True)
    assert len(checks) == 3 and all(c["ok"] for c in checks), checks
    assert all(c["detail"].startswith("cycles identical") for c in checks)
    for name, total in suite_events(runs).items():
        assert total == events[name], name


def test_cli_gate_exits_nonzero_without_a_serve_baseline(tmp_path, capsys):
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())
    seed["runs"] = [r for r in seed["runs"] if r["cell"]["suite"] != "smoke_serve"]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(seed))
    argv = ["bench", "--smoke", "--baseline", str(stale), "--out", str(tmp_path / "bench.json")]
    assert cli.main(argv + ["--gate"]) == 1
    assert "smoke_serve: not in baseline: REGRESSED" in capsys.readouterr().out
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "bench.json").read_text())
    for rec in report["runs"]:  # no host clock: host time is perf/'s job
        assert rec["cycles"] > 0 and rec["events"] > 0 and rec["stall"] is None
    assert report["command"] == "bench" and report["stamp"] and report["host"]["cpus"]
    assert [c["ok"] for c in report["checks"]] == [True, True]


def test_cli_baseline_sharing_no_suite_is_a_usage_error(tmp_path, capsys):
    """Without ``--gate`` a baseline that shares no suite with the run
    leaves nothing to compare: exit 2 with one line, before any suite runs."""
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())
    seed["runs"] = [r for r in seed["runs"] if r["cell"]["suite"] == "fig7a"]
    only = tmp_path / "fig7a.json"
    only.write_text(json.dumps(seed))
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--smoke", "--baseline", str(only), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "shares no suite" in captured.err
    assert not out.exists()


def test_fresh_records_have_exactly_the_seed_keys():
    """Regenerating a seed as EXPERIMENTS.md says changes no key: a fresh
    bench record and a fresh ``serve --compare`` record carry exactly the
    committed seeds' keys (no host-clock field survives)."""
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())
    fresh = bench.run_bench([], n_procs=2, smoke=True)
    assert {tuple(r) for r in seed["runs"]} == {tuple(r) for r in fresh}
    assert {tuple(r["faults"]) for r in seed["runs"]} == {tuple(r["faults"]) for r in fresh}
    seed = json.loads((ROOT / "SERVE_seed.json").read_text())
    fresh = serve.run_compare(serve.shift_workload(64), n_procs=2)
    assert {r["cell"]["variant"]: set(r["serve"]) for r in fresh} == {
        r["cell"]["variant"]: set(r["serve"]) for r in seed["runs"]}
    assert {tuple(r) for r in seed["runs"]} == {tuple(r) for r in fresh}
