"""Unit tests for the Ace runtime: spaces, dispatch, protocol changes."""

import inspect

import numpy as np
import pytest

from repro.core.runtime import AceRuntime
from repro.facade import run_spmd
from repro.protocols import default_registry
from repro.protocols.base import ProtocolMisuse

ACCESSES = ("start_read", "end_read", "start_write", "end_write")


def test_new_space_is_collective_and_shared():
    def prog(ctx):
        sid1 = yield from ctx.new_space("SC")
        sid2 = yield from ctx.new_space("DynamicUpdate")
        return (sid1, sid2)

    res = run_spmd(prog, backend="ace", n_procs=4)
    assert res.results == [(0, 1)] * 4


def test_spmd_divergence_on_new_space_detected():
    def prog(ctx):
        name = "SC" if ctx.nid == 0 else "Null"
        sid = yield from ctx.new_space(name)
        return sid

    with pytest.raises(ProtocolMisuse, match="SPMD divergence"):
        run_spmd(prog, backend="ace", n_procs=2)


def test_gmalloc_registers_region_with_space():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        rid = yield from ctx.gmalloc(sid, 8)
        h = yield from ctx.map(rid)
        yield from ctx.write_region(h, np.arange(8))
        data = yield from ctx.read_region(h)
        return list(data)

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results[0] == list(range(8))


def test_unallocated_region_rejected():
    def prog(ctx):
        yield from ctx.new_space("SC")
        h = yield from ctx.map(999)
        return h

    with pytest.raises(ProtocolMisuse, match="not allocated"):
        run_spmd(prog, backend="ace", n_procs=1)


def test_change_protocol_swaps_and_preserves_data():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            rid = yield from ctx.gmalloc(sid, 2)
            h = yield from ctx.map(rid)
            yield from ctx.write_region(h, [5.0, 6.0])
        yield from ctx.barrier()
        yield from ctx.change_protocol(sid, "DynamicUpdate")
        assert ctx.backend.runtime.space_protocol(sid) == "DynamicUpdate"
        if ctx.nid == 0:
            h2 = yield from ctx.map(rid)
            data = yield from ctx.read_region(h2)
            return list(data)
        return None

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results[0] == [5.0, 6.0]


def test_stale_handle_after_change_protocol_rejected():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        rid = yield from ctx.gmalloc(sid, 1)
        h = yield from ctx.map(rid)
        yield from ctx.change_protocol(sid, "Null")
        yield from ctx.start_read(h)  # stale: mapped under the old protocol

    with pytest.raises(ProtocolMisuse, match="stale handle"):
        run_spmd(prog, backend="ace", n_procs=1)


def _refuses_every_access(ctx, h):
    """Generator: every access primitive on ``h`` is refused as stale."""
    for access in ACCESSES:
        with pytest.raises(ProtocolMisuse, match="stale handle"):
            yield from getattr(ctx, access)(h)


@pytest.mark.parametrize("protocol", default_registry.names())
def test_stale_handle_rejected_whichever_protocol_mapped_it(protocol):
    """Each protocol's ``map`` stamps the handle it returns; after a
    change the home's and a remote node's old handles are both refused,
    and a re-map is accepted."""
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        assert (h.space.sid, h.gen) == (sid, 0)
        yield from ctx.change_protocol(sid, "Null" if protocol == "SC" else "SC")
        yield from _refuses_every_access(ctx, h)
        h = yield from ctx.map(boxes["rid"])
        return list((yield from ctx.read_region(h)))

    assert run_spmd(prog, backend="ace", n_procs=2).results == [[0.0, 0.0]] * 2


@pytest.mark.parametrize("partner", [p for p in default_registry.names() if p != "SC"])
def test_sc_round_trip_refuses_the_handle_it_hands_back(partner):
    """SC -> partner -> SC: the SC engine re-maps the *same* copy object,
    so only the handle's generation tells the old use from the new."""
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        for target in (partner, "SC"):
            yield from ctx.change_protocol(sid, target)
        yield from _refuses_every_access(ctx, h)
        again = yield from ctx.map(boxes["rid"])
        assert again is h and h.gen == 2
        if ctx.nid == 1:
            yield from ctx.write_region(h, [3.0])
        yield from ctx.barrier()
        return (yield from ctx.read_region(h))[0]

    assert run_spmd(prog, backend="ace", n_procs=2).results == [3.0, 3.0]


def test_map_returns_the_protocols_generator():
    # the stamp is the protocol's job, so the runtime adds no frame to a map
    assert not inspect.isgeneratorfunction(AceRuntime.map)


def test_change_protocol_to_same_is_cheap_noop():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        rid = yield from ctx.gmalloc(sid, 1)
        h = yield from ctx.map(rid)
        yield from ctx.change_protocol(sid, "SC")
        yield from ctx.start_read(h)  # handle still valid: no generation bump
        yield from ctx.end_read(h)

    run_spmd(prog, backend="ace", n_procs=1)


def test_change_protocol_flushes_dirty_remote_copy():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        if ctx.nid == 1:
            h = yield from ctx.map(boxes["rid"])
            yield from ctx.start_write(h)
            h.data[0] = 77
            yield from ctx.end_write(h)
        yield from ctx.barrier()
        yield from ctx.change_protocol(sid, "StaticUpdate")
        if ctx.nid == 0:
            h = yield from ctx.map(boxes["rid"])
            data = yield from ctx.read_region(h)
            return data[0]

    res = run_spmd(prog, backend="ace", n_procs=2)
    assert res.results[0] == 77.0


def test_dispatch_cost_charged_per_primitive():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        rid = yield from ctx.gmalloc(sid, 1)
        h = yield from ctx.map(rid)
        for _ in range(10):
            yield from ctx.start_read(h)
            yield from ctx.end_read(h)

    res = run_spmd(prog, backend="ace", n_procs=1)
    assert res.stats.get("ace.start_read") == 10
    assert res.stats.get("ace.end_read") == 10
    assert res.stats.get("ace.map") == 1


def test_space_barrier_dispatches_to_protocol():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        yield from ctx.barrier(sid)
        yield from ctx.barrier(sid)
        return "ok"

    res = run_spmd(prog, backend="ace", n_procs=4)
    assert res.results == ["ok"] * 4
    assert res.stats.get("ace.barrier") == 8


def test_ace_locks_via_region_protocol():
    boxes = {}

    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 1)
        yield from ctx.barrier()
        rid = boxes["rid"]
        h = yield from ctx.map(rid)
        for _ in range(5):
            yield from ctx.lock(rid)
            yield from ctx.start_write(h)
            h.data[0] += 1
            yield from ctx.end_write(h)
            yield from ctx.unlock(rid)
        yield from ctx.barrier()
        if ctx.nid == 0:
            data = yield from ctx.read_region(h)
            return data[0]

    res = run_spmd(prog, backend="ace", n_procs=4)
    assert res.results[0] == 20.0


def test_crl_backend_rejects_custom_protocols():
    def prog(ctx):
        yield from ctx.new_space("DynamicUpdate")

    with pytest.raises(NotImplementedError, match="single fixed protocol"):
        run_spmd(prog, backend="crl", n_procs=1)


def test_same_program_runs_on_both_backends():
    def prog(ctx):
        sid = yield from ctx.new_space("SC")
        rid = yield from ctx.gmalloc(sid, 4)
        h = yield from ctx.map(rid)
        yield from ctx.write_region(h, [1, 2, 3, 4])
        yield from ctx.barrier()
        data = yield from ctx.read_region(h)
        return sum(data)

    for backend in ("ace", "crl"):
        res = run_spmd(prog, backend=backend, n_procs=2)
        assert res.results == [10.0, 10.0]


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_spmd(lambda ctx: iter(()), backend="tempest")
