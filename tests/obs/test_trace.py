"""Unit tests for the trace ring and histograms (repro.obs.trace)."""

import gc
import sys
from collections import Counter

import pytest

from repro.dsm import FaultPlan
from repro.facade import run_spmd
from repro.harness.experiments import trace_run
from repro.harness.recovery_workload import ring_program
from repro.obs import Histogram, MetricsWindow, TraceBuffer, orphaned_edges
from repro.obs.trace import FIELDS
from repro.serve import AdaptiveController, ServeWorkload, run_serve


def test_emit_assigns_monotonic_ids_and_orders_events():
    buf = TraceBuffer(capacity=8)
    a = buf.tracer("kernel").emit(0, "task.spawn", -1, -1, "t0")
    b = buf.tracer("machine").emit(5, "msg.send", 1)
    assert (a, b) == (0, 1)
    evs = buf.events()
    assert [ev.eid for ev in evs] == [0, 1]
    assert evs[0].layer == "kernel" and evs[0].kind == "task.spawn" and evs[0].data == "t0"
    assert evs[1].node == 1 and evs[1].parent == -1


def test_ring_drops_oldest_and_counts_drops():
    buf = TraceBuffer(capacity=3)
    emit = buf.tracer("l").emit
    for i in range(5):
        emit(i, "task.step")
    assert len(buf) == 3
    assert buf.dropped == 2
    assert [ev.eid for ev in buf.events()] == [2, 3, 4]  # oldest evicted
    # ids keep increasing across drops
    assert emit(9, "task.step") == 5


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TraceBuffer(capacity=0)


def test_tracer_handle_curries_layer():
    buf = TraceBuffer()
    t = buf.tracer("dsm.ace")
    eid = t.emit(42, "region.state", 2, -1, 7, "shared")
    t.emit(43, "region.state", 2, eid, 7, "invalid")
    evs = buf.events()
    assert all(ev.layer == "dsm.ace" for ev in evs)
    assert evs[0].data == {"rid": 7, "state": "shared"}
    assert evs[1].parent == eid


def test_clear_keeps_id_sequence():
    buf = TraceBuffer()
    emit = buf.tracer("l").emit
    emit(0, "task.step")
    buf.hist("h").add(1)
    buf.clear()
    assert len(buf) == 0 and buf.hists == {} and buf.dropped == 0
    assert emit(1, "task.step") == 1


def test_dropped_is_exact_across_wrap_and_clear():
    buf = TraceBuffer(capacity=3)
    emit = buf.tracer("l").emit
    parent = -1
    for i in range(5):
        parent = emit(i, "task.step", -1, parent, "t")
    assert (len(buf), buf.dropped) == (3, 2)
    # The oldest survivor's parent went with the evicted prefix.
    assert buf.events()[0].parent == 1
    assert orphaned_edges(buf) == 1
    buf.clear()
    assert (len(buf), buf.dropped, buf.events()) == (0, 0, [])
    for i in range(4):
        emit(i, "task.step")
    assert (len(buf), buf.dropped) == (3, 1)  # drops before the clear are forgotten
    assert [ev.eid for ev in buf.events()] == [6, 7, 8]


def test_variant_shapes_share_a_kind_and_lists_come_back_as_lists():
    buf = TraceBuffer()
    emit = buf.tracer("machine").emit
    emit(0, "msg.send", 1, -1, 2, "am.rpc", 4)
    emit(0, "msg.send/reply", -1, 0, "am.reply", 1)
    emit(0, "recovery.epoch", -1, -1, 1, (0, 2, 3))
    emit(0, "recovery.dead", 1, -1, 1, None)
    sends = buf.events()
    assert [ev.kind for ev in sends[:2]] == ["msg.send", "msg.send"]
    assert sends[0].data == {"dst": 2, "category": "am.rpc", "words": 4}
    assert sends[1].data == {"category": "am.reply", "words": 1}
    assert sends[2].data == {"epoch": 1, "live": [0, 2, 3]}
    assert sends[3].data == {"epoch": 1, "crash_at": None}  # None is a value, not "absent"


def test_undeclared_event_is_refused_at_the_emit_site():
    for buf in (TraceBuffer(), TraceBuffer(metrics=MetricsWindow())):
        with pytest.raises(ValueError, match="undeclared trace event 'no.such.kind'"):
            buf.tracer("l").emit(0, "no.such.kind", 1, -1, "x")
        assert len(buf) == 0


def test_stored_records_are_invisible_to_the_collector():
    _, buf = trace_run("EM3D", "SC", n_procs=4)
    assert len(buf) > 10_000
    gc.collect()
    assert not any(gc.is_tracked(value) for value in buf._ring)


def test_one_obs_call_per_emitted_event():
    calls: Counter = Counter()

    def profiler(frame, event, arg):  # the recording side: the traced wire is the machine's
        path = frame.f_code.co_filename
        if event == "call" and "/repro/obs/" in path and not path.endswith("wire.py"):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        _, buf = trace_run("TSP", "SC", n_procs=4)
    finally:
        sys.setprofile(None)
    emitted = len(buf) + buf.dropped
    assert emitted > 1000 and calls["emit"] == emitted
    # Beyond emit: histogram feeds (one per RPC return / lock release)
    # and construction — nothing else runs per event.
    del calls["emit"], calls["add"]
    assert sum(calls.values()) < 100, calls


def test_metered_and_unmetered_buffers_hold_the_same_events():
    metrics = MetricsWindow(width=2048)
    _, plain = trace_run("TSP", "SC", n_procs=4)
    _, metered = trace_run("TSP", "SC", n_procs=4, metrics=metrics)
    assert metered.events() == plain.events()
    # ...and the window saw, inline, exactly the payloads events() shows.
    replay = MetricsWindow(width=2048)
    for ev in plain.events():
        replay.observe(ev.ts, ev.kind, ev.data)
    assert metrics.rows() == replay.rows() and metrics.observed == replay.observed > 0


def test_every_emitted_event_is_declared_with_its_payload():
    """Every emit site the apps, a serve run and a crash recovery reach
    passes a declared shape (an undeclared one raises at the site, so
    finishing at all is the first check) whose fields are the payload."""
    bufs = [trace_run(app, variant, n_procs=4)[1]
            for app in ("Barnes-Hut", "BSC", "EM3D", "TSP", "Water") for variant in ("SC", "custom")]
    workload = ServeWorkload(n_requests=600, rate=8.0, read_frac=0.95, shift_read_frac=0.1)
    controller = AdaptiveController({s: "DynamicUpdate" for s in range(workload.n_shards)})
    res, _ = run_serve(workload, controller=controller, n_procs=4)
    bufs.append(res.machine.tracer)
    crash = TraceBuffer()
    run_spmd(ring_program("SC", rounds=4, size=8), n_procs=4, tracer=crash,
             fault_plan=FaultPlan.crash(1, at=1500, seed=3), on_crash="recover")
    bufs.append(crash)

    declared: dict = {}
    for shape, fields in FIELDS.items():
        # a bare-payload shape (its entry names the value) stores a plain string
        declared.setdefault(shape.partition("/")[0], []).append(str if isinstance(fields, str) else fields)
    seen = set()
    for buf in bufs:
        for ev in buf.events():
            seen.add(ev.kind)
            got = tuple(ev.data) if isinstance(ev.data, dict) else type(ev.data)
            assert got in declared[ev.kind], (ev.kind, got)
    assert {"task.step", "msg.send", "msg.recv", "rpc.return", "region.state", "lock.grant",
            "space.protocol", "phase.begin", "fault.crash", "recovery.rehome", "task.retire"} <= seen


def test_hist_is_created_once_per_name():
    buf = TraceBuffer()
    assert buf.hist("rpc.read") is buf.hist("rpc.read")
    assert buf.hist("rpc.read") is not buf.hist("rpc.write")


def test_histogram_exact_moments():
    h = Histogram()
    for v in (0, 1, 5, 100):
        h.add(v)
    assert h.count == 4
    assert h.total == 106
    assert h.min == 0 and h.max == 100
    s = h.summary()
    assert s["mean"] == 26.5
    assert s["min"] == 0 and s["max"] == 100


def test_histogram_percentiles_bucketed_and_clamped():
    h = Histogram()
    for _ in range(99):
        h.add(4)  # bucket 3: [4, 7]
    h.add(20)  # bucket 5: [16, 31]
    assert h.percentile(0.50) == 7  # bucket upper bound
    assert h.percentile(0.99) == 7
    assert h.percentile(1.0) == 20  # clamped to observed max, not 31


def test_histogram_of_zeros():
    h = Histogram()
    h.add(0)
    h.add(0)
    assert h.percentile(0.5) == 0
    assert h.summary()["p99"] == 0


def test_empty_histogram_summary():
    s = Histogram().summary()
    assert s["count"] == 0 and s["mean"] == 0 and s["p50"] == 0


def test_histogram_merge_preserves_percentiles():
    # Feeding two streams into separate histograms and merging must
    # give exactly the same digest as one histogram fed both streams —
    # the property run_summary relies on when it folds per-node RPC
    # hists cluster-wide.
    left, right, combined = Histogram(), Histogram(), Histogram()
    stream_a = [0, 1, 3, 9, 120, 4096]
    stream_b = [2, 2, 7, 513, 513]
    for v in stream_a:
        left.add(v)
        combined.add(v)
    for v in stream_b:
        right.add(v)
        combined.add(v)
    merged = left.copy().merge(right)
    assert merged.count == combined.count
    assert merged.total == combined.total
    assert merged.min == combined.min and merged.max == combined.max
    assert merged.buckets == combined.buckets
    for p in (0.1, 0.5, 0.9, 0.99, 1.0):
        assert merged.percentile(p) == combined.percentile(p)
    assert merged.summary() == combined.summary()


def test_histogram_merge_with_empty_sides():
    h = Histogram()
    h.add(5)
    assert h.copy().merge(Histogram()).summary() == h.summary()
    empty = Histogram()
    assert empty.merge(h).summary() == h.summary()
    # merge returns self, enabling fold chains
    assert (m := Histogram()).merge(h) is m


def test_histogram_copy_is_independent():
    h = Histogram()
    h.add(3)
    c = h.copy()
    c.add(1000)
    assert h.count == 1 and h.max == 3
    assert c.count == 2 and c.max == 1000


@pytest.mark.parametrize("values", [[], [0], [0, 1, 3, 9, 120, 4096, 2, 2, 7, 513, 513]])
def test_histogram_of_equals_adding_each(values):
    # serve records a latency as a list append and builds the Histogram
    # once: its report must be what add-ing each value gave.
    added = Histogram()
    for v in values:
        added.add(v)
    built = Histogram.of(values)
    assert (built.count, built.total, built.min, built.max) == (added.count, added.total, added.min, added.max)
    assert list(built.buckets.items()) == list(added.buckets.items())
    assert built.summary() == added.summary()
