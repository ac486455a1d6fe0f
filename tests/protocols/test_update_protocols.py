"""Behavioral tests for DynamicUpdate and StaticUpdate."""

import pytest

from repro.facade import run_spmd
from repro.protocols.base import ProtocolMisuse


def test_dynamic_update_propagates_to_sharers_immediately():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("DynamicUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])  # everyone becomes a sharer
        yield from ctx.barrier()
        if ctx.nid == 1:
            yield from ctx.start_write(h)
            h.data[:] = [10.0, 20.0]
            yield from ctx.end_write(h)
        yield from ctx.barrier()
        # No protocol action needed to read: local copies were updated.
        yield from ctx.start_read(h)
        out = list(h.data)
        yield from ctx.end_read(h)
        return out

    res = run_spmd(prog, backend="ace", n_procs=4)
    assert res.results == [[10.0, 20.0]] * 4
    assert res.stats.get("proto.DynamicUpdate.propagate") == 1
    # pushed to 2 sharers (nodes 2, 3): home applied directly, writer excluded
    assert res.stats.get("msg.proto.DynamicUpdate.push") == 2


def test_dynamic_update_home_writer_fans_out():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("DynamicUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        yield from ctx.barrier()
        if ctx.nid == 0:
            yield from ctx.start_write(h)
            h.data[0] = 5.0
            yield from ctx.end_write(h)
        yield from ctx.barrier()
        return h.data[0]

    res = run_spmd(prog, backend="ace", n_procs=3)
    assert res.results == [5.0, 5.0, 5.0]


def test_dynamic_update_reads_are_free_after_map():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("DynamicUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        for _ in range(100):
            yield from ctx.start_read(h)
            yield from ctx.end_read(h)
        yield from ctx.barrier()

    res = run_spmd(prog, backend="ace", n_procs=2)
    # only the initial fetch moved data; reads generated no traffic
    assert res.stats.get("msg.proto.DynamicUpdate.fetch") == 1


def test_static_update_pushes_at_barrier_not_at_write():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("StaticUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier(None)
        h = yield from ctx.map(boxes["rid"])
        yield from ctx.barrier(sid)
        if ctx.nid == 0:
            yield from ctx.start_write(h)
            h.data[:] = [1.0, 2.0]
            yield from ctx.end_write(h)
            # consumers must NOT see it yet (update waits for the barrier)
        yield from ctx.barrier(sid)
        yield from ctx.start_read(h)
        out = list(h.data)
        yield from ctx.end_read(h)
        return out

    res = run_spmd(prog, backend="ace", n_procs=3)
    assert res.results == [[1.0, 2.0]] * 3
    assert res.stats.get("proto.StaticUpdate.push") == 2  # two sharers


def test_static_update_only_dirty_regions_pushed():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("StaticUpdate")
        if ctx.nid == 0:
            boxes["r1"] = yield from ctx.gmalloc(sid, 1)
            boxes["r2"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier(None)
        h1 = yield from ctx.map(boxes["r1"])
        h2 = yield from ctx.map(boxes["r2"])
        yield from ctx.barrier(sid)
        if ctx.nid == 0:
            yield from ctx.start_write(h1)
            h1.data[0] = 9.0
            yield from ctx.end_write(h1)
        yield from ctx.barrier(sid)
        yield from ctx.barrier(sid)  # second barrier: nothing dirty now
        return (h1.data[0], h2.data[0])

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results == [(9.0, 0.0)] * 2
    assert res.stats.get("proto.StaticUpdate.push") == 1  # one dirty region, one sharer


def test_static_update_rejects_non_home_writer():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("StaticUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        if ctx.nid == 1:
            yield from ctx.start_write(h)
            h.data[0] = 1.0
            yield from ctx.end_write(h)
        yield from ctx.barrier()

    with pytest.raises(ProtocolMisuse, match="producers own their regions"):
        run_spmd(prog, backend="ace", n_procs=2)


def test_null_protocol_rejects_remote_write():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("Null")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        if ctx.nid == 1:
            yield from ctx.start_write(h)

    with pytest.raises(ProtocolMisuse, match="writes are home-local"):
        run_spmd(prog, backend="ace", n_procs=2)


def test_null_protocol_local_data_persists_and_costs_nothing():
    def prog(ctx):
        sid = yield from ctx.new_space("Null")
        rid = yield from ctx.gmalloc(sid, 4)
        h = yield from ctx.map(rid)
        for i in range(50):
            yield from ctx.start_write(h)
            h.data[0] += 1
            yield from ctx.end_write(h)
        yield from ctx.barrier()
        return h.data[0]

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results == [50.0, 50.0]
    assert res.stats.get("msg.proto.Null.fetch") == 0


def test_null_protocol_remote_read_gets_snapshot():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("Null")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
            h = yield from ctx.map(boxes["rid"])
            yield from ctx.start_write(h)
            h.data[0] = 123.0
            yield from ctx.end_write(h)
        yield from ctx.barrier()
        if ctx.nid == 1:
            h = yield from ctx.map(boxes["rid"])
            yield from ctx.start_read(h)
            out = h.data[0]
            yield from ctx.end_read(h)
            return out

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results[1] == 123.0


@pytest.mark.parametrize("protocol", ["StaticUpdate", "DynamicUpdate", "BufferedUpdate"])
def test_update_tables_share_one_sharer_record(protocol):
    """The three update tables keep one sharer record: a node that
    fetches a region registers at its home, a push skips the writer and
    the home, and a dead sharer is forgotten."""
    boxes = {}
    writer = 0 if protocol == "StaticUpdate" else 1  # StaticUpdate: homes write

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["sid"] = sid
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        yield from ctx.barrier(sid)
        if ctx.nid == writer:
            yield from ctx.start_write(h)
            h.data[0] = 7.0
            yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        return float(h.data[0])

    res = run_spmd(prog, backend="ace", n_procs=4)
    assert res.results == [7.0] * 4
    proto = res.backend.runtime.spaces[boxes["sid"]].protocol
    rid = boxes["rid"]
    assert proto._sharers == {rid: {1, 2, 3}}
    assert res.stats.get(f"msg.proto.{protocol}.push") == len({1, 2, 3} - {writer})
    proto.on_node_dead(2, None, {})
    assert proto._sharers == {rid: {1, 3}}
