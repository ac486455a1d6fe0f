"""Cycle attribution tests (repro.obs.attrib): exactness and structure."""

import pytest

from repro.dsm.faults import FaultPlan
from repro.harness.experiments import run_app, trace_run
from repro.obs import TraceBuffer, attribute
from repro.obs.attrib import BUCKETS, classify_wait, phase_intervals
from repro.obs.critpath import critical_path

#: Every paper app in both protocol flavours — attribution must
#: reconcile exactly on all of them (the tentpole acceptance bar).
COMBOS = [
    ("Barnes-Hut", "SC"),
    ("Barnes-Hut", "custom"),
    ("BSC", "SC"),
    ("BSC", "custom"),
    ("EM3D", "static"),
    ("EM3D", "dynamic"),
    ("TSP", "SC"),
    ("TSP", "custom"),
    ("Water", "SC"),
    ("Water", "custom"),
]

_cache = {}


def _run(app, variant, n_procs=4):
    key = (app, variant, n_procs)
    if key not in _cache:
        res, buf = trace_run(app, variant, n_procs=n_procs, capacity=1 << 20)
        assert buf.dropped == 0, "attribution tests need the full event stream"
        _cache[key] = (res, buf, attribute(buf, res.time, n_procs))
    return _cache[key]


@pytest.mark.parametrize("app,variant", COMBOS)
def test_attribution_reconciles_exactly(app, variant):
    res, buf, attr = _run(app, variant)
    assert attr.exact
    assert attr.reconciles()
    assert sum(attr.buckets.values()) == res.time * 4


@pytest.mark.parametrize("app,variant", COMBOS)
def test_per_node_rows_each_sum_to_makespan(app, variant):
    res, _, attr = _run(app, variant)
    assert set(attr.per_node) == set(range(4))
    for nid, row in attr.per_node.items():
        assert sum(row.values()) == res.time, f"node {nid} row does not close"
        assert all(v >= 0 for v in row.values())
        assert set(row) <= set(BUCKETS)


def test_per_phase_partitions_every_cycle():
    res, _, attr = _run("EM3D", "static")
    assert set(attr.per_phase) >= {"setup", "iterate", "collect"}
    total = sum(sum(row.values()) for row in attr.per_phase.values())
    assert total == res.time * 4  # phases tile [0, T) on every node


def test_known_bucket_shapes():
    # The workloads have characteristic wait profiles; attribution
    # should recover them, not just balance the books.
    _, _, em3d = _run("EM3D", "static")
    assert em3d.buckets.get("msg", 0) > 0  # peer ghost-exchange waits
    assert em3d.buckets.get("barrier", 0) > 0
    _, _, tsp = _run("TSP", "SC")
    assert tsp.buckets.get("dir", 0) > 0  # SC read/write round trips
    _, _, bsc = _run("BSC", "SC")
    assert bsc.buckets.get("lock", 0) > 0  # lock-structured queue app


def test_per_region_waits_land_on_real_regions():
    _, buf, attr = _run("TSP", "SC")
    allocated = {ev.data["rid"] for ev in buf.events() if ev.kind == "region.alloc"}
    assert attr.per_region, "SC TSP blocks on region round trips"
    assert set(attr.per_region) <= allocated
    assert all(sum(row.values()) > 0 for row in attr.per_region.values())


def test_per_protocol_split_names_protocols():
    _, _, attr = _run("Water", "custom")
    names = set(attr.per_protocol) - {"-"}
    assert names, "custom Water waits should attribute to named protocols"


def test_classify_wait_buckets():
    assert classify_wait("rpc:ace.sc.read_req")[0] == "dir"
    assert classify_wait("rpc:proto.Migratory.mig_req") == ("msg", None, "Migratory")
    assert classify_wait("rel:ace.sc.write_req")[0] == "dir"
    assert classify_wait("lock:7@2") == ("lock", 7, None)
    assert classify_wait("read:3@1") == ("dir", 3, None)
    assert classify_wait("hw_barrier:5")[0] == "barrier"
    assert classify_wait("barrier:left@3")[0] == "barrier"
    assert classify_wait("done:proc2")[0] == "join"
    assert classify_wait("ctr:4@0") == ("msg", 4, None)
    assert classify_wait("bu:ship")[0] == "msg"
    assert classify_wait("unstructured")[0] == "other"
    assert classify_wait("rpc:barrier.notify")[0] == "barrier"


def test_phase_intervals_tile_and_nest():
    class Ev:
        def __init__(self, ts, kind, data):
            self.ts, self.kind, self.data = ts, kind, data

    evs = [
        Ev(10, "phase.begin", "outer"),
        Ev(20, "phase.begin", "inner"),
        Ev(30, "phase.end", "inner"),
        Ev(40, "phase.end", "outer"),
    ]
    got = phase_intervals(evs, 50)
    assert got == [
        (0, 10, None),
        (10, 20, "outer"),
        (20, 30, "inner"),
        (30, 40, "outer"),
        (40, 50, None),
    ]
    assert got[0][0] == 0 and got[-1][1] == 50
    assert all(a[1] == b[0] for a, b in zip(got, got[1:]))  # no gaps


def test_inexact_when_ring_wrapped():
    res, buf = trace_run("TSP", "SC", n_procs=2, capacity=256)
    assert buf.dropped > 0
    attr = attribute(buf, res.time, 2)  # must not raise despite evictions
    assert not attr.exact
    assert attr.dropped == buf.dropped


def _barrier_profile(**run_kw):
    """Traced EM3D/SC on 4 nodes: attribution buckets, ``barrier.*``
    event count and critical-path categories."""
    buf = TraceBuffer(capacity=1 << 20)
    res = run_app("EM3D", "SC", n_procs=4, tracer=buf, **run_kw)
    assert buf.dropped == 0
    n_barrier = sum(ev.kind.startswith("barrier.") for ev in buf.events())
    return (
        res.time,
        attribute(buf, res.time, 4).buckets,
        n_barrier,
        critical_path(buf, res.time).by_category,
    )


def test_armed_recovery_attributes_barrier_waits_like_a_plain_run():
    """Crash recovery shrinks the one hardware barrier's membership, so an
    armed run's barrier waits are ``barrier`` waits with a ``barrier``
    critical-path edge, exactly as on the plain fabric."""
    plain = _barrier_profile()
    armed = _barrier_profile(fault_plan=FaultPlan(), on_crash="recover")
    assert plain[1]["barrier"] > 0 and plain[2] > 0 and plain[3]["barrier"] > 0
    assert armed == plain
