"""Critical-path tests (repro.obs.critpath): bounds, composition, what-if."""

import pytest

from repro.harness.experiments import trace_run
from repro.obs import WHAT_IF_PRESETS, critical_path

COMBOS = [
    ("Barnes-Hut", "custom"),
    ("BSC", "SC"),
    ("EM3D", "static"),
    ("EM3D", "dynamic"),
    ("TSP", "SC"),
    ("Water", "SC"),
]

_cache = {}


def _run(app, variant, n_procs=4):
    key = (app, variant, n_procs)
    if key not in _cache:
        res, buf = trace_run(app, variant, n_procs=n_procs, capacity=1 << 20)
        assert buf.dropped == 0
        _cache[key] = (res, buf, critical_path(buf, res.time))
    return _cache[key]


@pytest.mark.parametrize("app,variant", COMBOS)
def test_length_bounded_by_makespan(app, variant):
    res, _, cp = _run(app, variant)
    assert 0 < cp.length <= res.time
    assert cp.orphaned_edges == 0


def test_equality_on_synchronization_bound_run():
    # EM3D static is barrier-synchronized every iteration: a causal
    # chain runs from cycle 0 to the final event, so the critical path
    # *is* the makespan.
    res, _, cp = _run("EM3D", "static")
    assert cp.length == res.time


@pytest.mark.parametrize("app,variant", COMBOS)
def test_composition_sums_to_length(app, variant):
    _, _, cp = _run(app, variant)
    assert sum(cp.by_category.values()) == cp.length
    assert all(w >= 0 for w in cp.by_category.values())


@pytest.mark.parametrize("app,variant", COMBOS)
def test_path_is_contiguous_and_time_ordered(app, variant):
    _, _, cp = _run(app, variant)
    assert cp.path, "a nonempty run has a nonempty path"
    for (src, dst, weight, _cat) in cp.path:
        assert dst.ts - src.ts >= weight >= 0
    for (_, dst, _, _), (nxt_src, _, _, _) in zip(cp.path, cp.path[1:]):
        assert dst.eid == nxt_src.eid  # chain, not a bag of edges


@pytest.mark.parametrize("preset", sorted(WHAT_IF_PRESETS))
def test_what_if_never_exceeds_length(preset):
    _, _, cp = _run("EM3D", "dynamic")
    bound = cp.what_if(WHAT_IF_PRESETS[preset])
    assert 0 <= bound <= cp.length
    assert cp.speedup_bound(WHAT_IF_PRESETS[preset]) >= 1.0


def test_zero_message_latency_helps_message_bound_run():
    _, _, cp = _run("EM3D", "dynamic")
    bound = cp.what_if(WHAT_IF_PRESETS["zero_message_latency"])
    assert bound < cp.length  # wire edges on the path => a real bound


def test_segments_merge_and_cover_path():
    _, _, cp = _run("TSP", "SC")
    segs = cp.segments()
    assert sum(s["cycles"] for s in segs) == cp.length
    assert sum(s["events"] for s in segs) == len(cp.path)
    for a, b in zip(segs, segs[1:]):
        assert a["category"] != b["category"]  # maximal merging


def test_top_segments_annotated_with_phases():
    _, _, cp = _run("EM3D", "static")
    top = cp.top_segments(5)
    assert len(top) == 5
    assert [s["cycles"] for s in top] == sorted((s["cycles"] for s in top), reverse=True)
    assert {s["phase"] for s in top} <= {"setup", "iterate", "collect", "(no phase)"}
    assert any(s["phase"] != "(no phase)" for s in top)
    # compute segments recover their node from the task name
    assert all(s["node"] >= 0 for s in top if s["category"] == "compute")


def test_to_dict_is_json_shaped():
    import json

    res, _, cp = _run("Water", "SC")
    d = cp.to_dict(top_k=3)
    json.dumps(d)  # no TraceEvent leaks
    assert d["length"] == cp.length and d["res_time"] == res.time
    assert len(d["top_segments"]) == 3
    assert set(d["what_if"]) == set(WHAT_IF_PRESETS)


def test_tolerates_wrapped_ring(wrapped_trace_run):
    # Satellite regression: with a wrapped ring causal parents are
    # evicted; extraction must skip those edges, count them, and still
    # return a bounded path over the surviving suffix.
    res, buf = wrapped_trace_run("TSP", "SC", n_procs=4)
    cp = critical_path(buf, res.time)
    assert cp.orphaned_edges > 0
    assert 0 <= cp.length <= res.time
    assert sum(cp.by_category.values()) == cp.length
