"""Exporter and summary tests against a real traced run (TSP, 4 procs)."""

import json

import pytest

from repro.harness.experiments import trace_run
from repro.obs import (
    TraceBuffer,
    per_node_messages,
    run_summary,
    to_jsonl,
    to_perfetto,
)


@pytest.fixture(scope="module")
def tsp_run():
    return trace_run("TSP", "SC", n_procs=4)


def test_traced_run_matches_untraced_cycles(tsp_run):
    from repro.facade import run_spmd
    from repro.harness.experiments import FIG7_WORKLOADS, plan_for
    from repro.apps import tsp

    res, buf = tsp_run
    wl = FIG7_WORKLOADS["TSP"]()
    off = run_spmd(tsp.tsp_program(wl, plan_for("TSP", "SC")), backend="ace", n_procs=4)
    assert res.time == off.time  # tracing never perturbs the simulation
    assert len(buf) > 0 and buf.dropped == 0


def test_causal_parents_link_recv_to_send(tsp_run):
    _, buf = tsp_run
    by_id = {ev.eid: ev for ev in buf.events()}
    recvs = [ev for ev in buf.events() if ev.kind == "msg.recv"]
    assert recvs, "expected message traffic in a TSP SC run"
    for ev in recvs:
        parent = by_id[ev.parent]
        assert parent.kind == "msg.send"
        assert parent.ts <= ev.ts  # causes precede effects
        if "dst" in parent.data:
            assert parent.data["dst"] == ev.node
        else:
            assert ev.node == -1  # replies ride the global track


def test_causal_parents_link_return_to_call(tsp_run):
    _, buf = tsp_run
    by_id = {ev.eid: ev for ev in buf.events()}
    returns = [ev for ev in buf.events() if ev.kind == "rpc.return"]
    assert returns
    for ev in returns:
        call = by_id[ev.parent]
        assert call.kind == "rpc.call"
        assert call.node == ev.node  # round trip starts and ends on the caller
        assert call.ts <= ev.ts


def test_jsonl_roundtrip(tsp_run, tmp_path):
    _, buf = tsp_run
    path = tmp_path / "run.trace.jsonl"
    n = to_jsonl(buf, path)
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1  # header + one line per event
    header = json.loads(lines[0])
    assert header["trace"]["events"] == n
    assert header["trace"]["dropped"] == 0
    assert all(h["count"] > 0 for h in header["trace"]["hists"].values())
    first = json.loads(lines[1])
    assert {"id", "ts", "layer", "kind", "node"} <= set(first)
    # every line is valid JSON with increasing ids
    ids = [json.loads(line)["id"] for line in lines[1:]]
    assert ids == sorted(ids)


def test_perfetto_document_shape(tsp_run, tmp_path):
    _, buf = tsp_run
    path = tmp_path / "run.perfetto.json"
    to_perfetto(buf, path)
    doc = json.loads(path.read_text())
    evs = doc["traceEvents"]
    phases = {e["ph"] for e in evs}
    assert phases <= {"M", "i", "s", "f", "X", "B", "E"}
    # every referenced track has thread_name metadata
    named = {e["tid"] for e in evs if e["ph"] == "M"}
    assert {e["tid"] for e in evs} <= named
    # flow arrows come in s/f pairs sharing an id
    starts = {e["id"] for e in evs if e["ph"] == "s"}
    finishes = {e["id"] for e in evs if e["ph"] == "f"}
    assert starts == finishes and starts
    # RPC round trips became duration slices
    slices = [e for e in evs if e["ph"] == "X"]
    assert slices and all(e["dur"] >= 1 for e in slices)


def test_message_mix_agrees_with_counters(tsp_run):
    res, buf = tsp_run
    mix: dict = {}
    for ev in buf.events():
        if ev.kind == "msg.send":
            slot = mix.setdefault(ev.data["category"], {"count": 0, "words": 0})
            slot["count"] += 1
            slot["words"] += ev.data.get("words", 0)
    # nothing dropped, so the trace-derived totals equal the counters
    assert sum(slot["count"] for slot in mix.values()) == res.stats.get("msg.total")
    assert sum(slot["words"] for slot in mix.values()) == res.stats.get("msg.words")
    for cat, slot in mix.items():
        assert slot["count"] == res.stats.get("msg." + cat)


def test_per_node_messages(tsp_run):
    res, _ = tsp_run
    per_node = per_node_messages(res.stats)
    assert set(per_node) == set(range(4))
    sent = sum(slot["sent"] for slot in per_node.values())
    recv = sum(slot["recv"] for slot in per_node.values())
    assert sent == recv > 0  # every delivered message lands somewhere
    assert sent <= res.stats.get("msg.total")  # replies are not node-addressed


def test_run_summary_fields(tsp_run):
    res, buf = tsp_run
    s = run_summary(res, buf)
    assert s["cycles"] == res.time
    assert s["msg_total"] == res.stats.get("msg.total")
    assert s["stall_total"] == sum(s["stall_cycles"].values()) > 0
    assert list(s["mix"].values()) == sorted(s["mix"].values(), reverse=True)
    assert s["events"] == len(buf)


def test_phase_summary_from_traced_em3d():
    res, buf = trace_run("EM3D", "static", n_procs=2)
    s = run_summary(res, buf)
    assert set(s["phases"]) == {"setup", "iterate", "collect"}
    assert s["phases"]["iterate"]["msg.total"] > 0
    kinds = [ev.kind for ev in buf.events() if ev.layer == "phase"]
    assert kinds == [
        "phase.begin", "phase.end",  # setup
        "phase.begin", "phase.end",  # iterate
        "phase.begin", "phase.end",  # collect
    ]


def test_ring_overflow_reported(tmp_path):
    res, buf = trace_run("TSP", "SC", n_procs=2, capacity=64)
    assert buf.dropped > 0 and len(buf) == 64
    path = tmp_path / "overflow.trace.jsonl"
    to_jsonl(buf, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["trace"]["dropped"] == buf.dropped


def test_perfetto_tolerates_wrapped_ring(tmp_path, wrapped_trace_run):
    # Regression: a wrapped ring leaves msg.recv / rpc.return events
    # whose causal parent was evicted; the exporter must skip the flow
    # arrow / slice and count the orphan instead of KeyError-ing.
    res, buf = wrapped_trace_run("TSP", "SC", n_procs=4)
    path = tmp_path / "wrapped.perfetto.json"
    to_perfetto(buf, path)
    doc = json.loads(path.read_text())
    assert doc["otherData"]["dropped"] == buf.dropped
    assert doc["otherData"]["orphaned_edges"] > 0
    evs = doc["traceEvents"]
    # surviving flow arrows still pair up and reference surviving sends
    starts = {e["id"] for e in evs if e["ph"] == "s"}
    finishes = {e["id"] for e in evs if e["ph"] == "f"}
    assert starts == finishes
    surviving = {ev.eid for ev in buf.events()}
    assert starts <= surviving


def test_orphaned_edges_zero_without_drops(tsp_run):
    from repro.obs import orphaned_edges

    _, buf = tsp_run
    assert buf.dropped == 0
    assert orphaned_edges(buf) == 0
    s = run_summary(*tsp_run)
    assert s["orphaned_edges"] == 0


def test_orphaned_edges_counted_in_summary(wrapped_trace_run):
    from repro.obs import orphaned_edges

    res, buf = wrapped_trace_run("TSP", "SC", n_procs=2)
    n = orphaned_edges(buf)
    assert n > 0
    assert run_summary(res, buf)["orphaned_edges"] == n


def test_cluster_hists_fold_per_node_rpc(tsp_run):
    from repro.obs import cluster_hists, stall_cycles

    _, buf = tsp_run
    merged = cluster_hists(buf)
    per_node = {n: h for n, h in buf.hists.items()
                if n.startswith("node") and ".rpc." in n}
    assert per_node, "traced machine should record per-node RPC hists"
    for name, h in merged.items():
        if not name.startswith("rpc."):
            continue
        parts = [src for key, src in per_node.items()
                 if key.split(".", 1)[1] == name]
        assert h.count == sum(p.count for p in parts)
        assert h.total == sum(p.total for p in parts)
    # stall totals are the merged hist totals, so the cluster-wide
    # number is identical to summing the per-node ones directly
    stalls = stall_cycles(buf)
    assert sum(stalls.values()) == sum(h.total for h in per_node.values())
