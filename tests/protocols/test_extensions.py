"""Tests for the §6-extension protocols: RaceDetect, HwSC, BufferedUpdate,
and the epoch-writer check BufferedUpdate shares with SelfInvalidate."""

import pytest

from repro.facade import run_spmd
from repro.protocols.base import ProtocolMisuse


def _race_protocol(res, sid=0):
    return res.backend.runtime.spaces[sid].protocol


# ------------------------------------------------------------- RaceDetect
def test_race_free_program_reports_nothing():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("RaceDetect")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        for epoch in range(3):
            writer = epoch % ctx.n_procs
            if ctx.nid == writer:
                yield from ctx.start_write(h)
                h.data[0] = epoch
                yield from ctx.end_write(h)
            yield from ctx.barrier(sid)
            yield from ctx.start_read(h)
            assert h.data[0] == epoch
            yield from ctx.end_read(h)
            yield from ctx.barrier(sid)
        return True

    res = run_spmd(prog, backend="ace", n_procs=3)
    assert all(res.results)
    assert _race_protocol(res).races == []


def test_write_write_race_detected():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("RaceDetect")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        # both nodes write in the same epoch: a race
        yield from ctx.start_write(h)
        h.data[0] = ctx.nid
        yield from ctx.end_write(h)
        yield from ctx.barrier(sid)

    res = run_spmd(prog, backend="ace", n_procs=2)
    races = _race_protocol(res).races
    assert len(races) == 1
    epoch, rid, readers, writers = races[0]
    assert writers == (0, 1)


def test_read_write_race_detected_but_not_reader_of_own_write():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("RaceDetect")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        if ctx.nid == 0:
            yield from ctx.start_write(h)
            h.data[0] = 1
            yield from ctx.end_write(h)
            # node 0 also reads its own write: NOT a race by itself
            yield from ctx.start_read(h)
            yield from ctx.end_read(h)
        else:
            yield from ctx.start_read(h)  # concurrent foreign read: race
            yield from ctx.end_read(h)
        yield from ctx.barrier(sid)

    res = run_spmd(prog, backend="ace", n_procs=2)
    races = _race_protocol(res).races
    assert len(races) == 1
    _, _, readers, writers = races[0]
    assert writers == (0,)
    assert 1 in readers


def test_race_detect_updates_propagate_like_static_update():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("RaceDetect")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        if ctx.nid == 1:
            yield from ctx.start_write(h)
            h.data[:] = [1, 2, 3, 4]
            yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        yield from ctx.start_read(h)
        out = list(h.data)
        yield from ctx.end_read(h)
        yield from ctx.barrier(sid)
        return out

    res = run_spmd(prog, backend="ace", n_procs=3)
    assert res.results == [[1.0, 2.0, 3.0, 4.0]] * 3
    assert _race_protocol(res).races == []


# ------------------------------------------------------------------ HwSC
def test_hwsc_same_semantics_as_sc():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space(prog.proto)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        rid = boxes["rid"]
        h = yield from ctx.map(rid)
        for _ in range(6):
            yield from ctx.lock(rid)
            yield from ctx.start_write(h)
            h.data[0] += 1
            yield from ctx.end_write(h)
            yield from ctx.unlock(rid)
        yield from ctx.barrier()
        data = yield from ctx.read_region(h)
        return data[0]

    results = {}
    times = {}
    for proto in ("SC", "HwSC"):
        prog.proto = proto
        res = run_spmd(prog, backend="ace", n_procs=4)
        results[proto] = res.results
        times[proto] = res.time
    assert results["SC"] == results["HwSC"] == [24.0] * 4
    # hardware access checks beat the software fast path
    assert times["HwSC"] < times["SC"]


def test_hwsc_skips_software_dispatch_charge():
    def prog(ctx):
        sid = yield from ctx.new_space(prog.proto)
        rid = yield from ctx.gmalloc(sid, 1)
        h = yield from ctx.map(rid)
        for _ in range(200):
            yield from ctx.start_read(h)
            yield from ctx.end_read(h)

    prog.proto = "HwSC"
    t_hw = run_spmd(prog, backend="ace", n_procs=1).time
    prog.proto = "SC"
    t_sw = run_spmd(prog, backend="ace", n_procs=1).time
    # 200 read pairs: hw path ~3 cycles each vs sw ~46
    assert t_sw - t_hw > 200 * 30


# ---------------------------------------------------------- BufferedUpdate
def test_buffered_update_any_writer_per_epoch():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("BufferedUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        yield from ctx.barrier(sid)
        for epoch in range(3):
            writer = (epoch + 1) % ctx.n_procs  # non-home writers too
            if ctx.nid == writer:
                yield from ctx.start_write(h)
                h.data[:] = [epoch, epoch * 10]
                yield from ctx.end_write(h)
            yield from ctx.barrier(sid)
            yield from ctx.start_read(h)
            assert list(h.data) == [epoch, epoch * 10], (ctx.nid, epoch)
            yield from ctx.end_read(h)
        return True

    res = run_spmd(prog, backend="ace", n_procs=3)
    assert all(res.results)


def test_buffered_update_batches_multiple_writes():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("BufferedUpdate")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        yield from ctx.barrier(sid)
        if ctx.nid == 1:
            for _ in range(50):  # 50 writes -> ONE shipment at the barrier
                yield from ctx.start_write(h)
                h.data[0] += 1
                yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        yield from ctx.start_read(h)
        out = h.data[0]
        yield from ctx.end_read(h)
        return out

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results == [50.0, 50.0]
    assert res.stats.get("msg.proto.BufferedUpdate.update") == 1


@pytest.mark.parametrize("protocol", ["BufferedUpdate", "SelfInvalidate"])
def test_buffered_update_two_writers_same_epoch_raises(protocol):
    """Both epoch-writer tables go through the one home-side check."""
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(boxes["rid"])
        yield from ctx.barrier(sid)
        yield from ctx.start_write(h)  # everyone writes: assertion violated
        h.data[0] = ctx.nid
        yield from ctx.end_write(h)
        yield from ctx.barrier(sid)

    misuse = rf"^{protocol}: nodes \d and \d both wrote .* one writer per epoch$"
    with pytest.raises(ProtocolMisuse, match=misuse):
        run_spmd(prog, backend="ace", n_procs=2)
