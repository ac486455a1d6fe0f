"""Checks on the benchmark harness itself, on ``--quick`` runs.

Run with ``python -m pytest perf -q`` (outside ``testpaths``, so the
tier-1 suite does not collect it).  Takes about a minute: the quick
benchmark runs twice, and every workload once more in driver mode.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

NAMES = [name for name, _ in metrics.WORKLOADS]
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Two quick runs of the whole benchmark, same seed."""
    out = []
    for i in range(2):
        path = tmp_path_factory.mktemp("perf") / f"quick{i}.json"
        subprocess.run(RUN + ["--quick", "--seed", "5", "--out", str(path)],
                       check=True, capture_output=True, timeout=300)
        out.append(json.loads(path.read_text()))
    return out


@pytest.fixture(scope="module")
def lines():
    """``{(workload, trace): (result, detail)}`` from driver-mode runs."""
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                RUN + ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--quick"],
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            detail, last = done.stdout.strip().splitlines()[-2:]
            out[name, trace] = json.loads(last), json.loads(detail.removeprefix("detail "))
    return out


def test_benchmark_json_is_the_declared_table():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16 and len(declared["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace,declared", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_driver_line_carries_exactly_the_declared_metrics(lines, trace, declared):
    units = {name: unit for name, unit, *_ in declared}
    for name in NAMES:
        result, _ = lines[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_result_json_omits_what_does_not_apply(reports):
    serve_clock = {"sim_mean_latency_cycles", "sim_sustained_rate"}
    for name, block in reports[0]["workloads"].items():
        want = {m for m, _, _ in metrics.PER_LAYER if metrics.applies(m, name)} - serve_clock
        assert set(block["per_layer"]) == want
        e2e = {m for m, *_ in metrics.END_TO_END} | {"failed_share", "wall_s", "setup_rel"}
        assert set(block["end_to_end"]) == e2e | (serve_clock if name == "serve_shift" else set())
        assert block["end_to_end"]["failed_share"]["value"] == 0 and not block["failures"]
        assert block["input_digest"] and block["sim_cycles_rows"]
    assert reports[0]["quick"] and reports[0]["comparable"] != "full"


def test_layer_buckets_sum_to_the_profile_total(lines):
    for name in NAMES:
        result, detail = lines[name, 1]
        total = detail["profiled_total_s"]
        buckets = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in metrics.LAYERS)
        assert abs(buckets - total) <= 0.01 * total


def test_optional_features_run_only_when_armed(lines):
    for name in NAMES:
        calls = {layer: lines[name, 1][0]["metrics"][f"{layer}.calls"]["value"]
                 for layer in metrics.OFF_LAYERS}
        if name == "armed_idle":
            assert all(calls.values())
            continue
        if name == "serve_shift":  # its latency Histogram lives in repro.obs; no tracer runs
            calls.pop("obs")
        assert not any(calls.values()), (name, calls)


def test_micro_workloads_stay_on_their_layer(lines):
    def share(name, *layers):
        m = lines[name, 1][0]["metrics"]
        return sum(m[f"{layer}.self_s"]["value"] for layer in layers) / lines[name, 1][1]["profiled_total_s"]

    dsm = [layer for layer in metrics.LAYERS if layer.startswith("dsm.")]
    assert share("kernel_storm", "sim", "builtins") >= 0.70
    assert share("fabric_pingpong", "machine", "sim", "builtins") >= 0.70
    assert share("dsm_access", "core", "sim", "machine", "builtins", *dsm) >= 0.70
    assert share("dsm_access", "apps") < 0.15  # quick inputs; < 0.10 at full size


def test_two_runs_agree_on_every_exact_metric(reports):
    first, second = (r["workloads"] for r in reports)
    for name in NAMES:
        a, b = first[name], second[name]
        assert a["input_digest"] == b["input_digest"]
        assert a["sim_cycles_rows"] == b["sim_cycles_rows"]
        assert a["end_to_end"]["sim_cycles"]["value"] == b["end_to_end"]["sim_cycles"]["value"]
        for metric in metrics.EXACT & set(a["per_layer"]):
            assert a["per_layer"][metric]["value"] == b["per_layer"][metric]["value"], (name, metric)


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()
