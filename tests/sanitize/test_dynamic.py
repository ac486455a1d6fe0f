"""Dynamic access validator: seeded races, clean runs, and the zero-cost gate."""

import pytest

from repro.facade.context import run_spmd
from repro.sanitize import DynamicChecker


# ---------------------------------------------------------------------------
# SPMD fixture programs (node 0 allocates; the rid is shared via `state`)
# ---------------------------------------------------------------------------
def _racy_writes(state):
    def program(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            state["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(state["rid"])
        yield from ctx.start_write(h)
        h.data[:] = ctx.nid
        yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        yield from ctx.unmap(h)

    return program


def _barrier_separated(state):
    def program(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            state["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(state["rid"])
        if ctx.nid == 0:
            yield from ctx.start_write(h)
            h.data[:] = 7
            yield from ctx.end_write(h)
        yield from ctx.barrier(sid)
        yield from ctx.start_read(h)
        value = h.data[0]
        yield from ctx.end_read(h)
        yield from ctx.barrier(sid)
        yield from ctx.unmap(h)
        return value

    return program


def _lock_ordered(state):
    def program(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            state["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        rid = state["rid"]
        h = yield from ctx.map(rid)
        yield from ctx.lock(rid)
        yield from ctx.start_write(h)
        h.data[0] = h.data[0] + 1
        yield from ctx.end_write(h)
        yield from ctx.unlock(rid)
        yield from ctx.barrier(sid)
        yield from ctx.unmap(h)

    return program


def _use_after_unmap(state):
    def program(ctx):
        sid = yield from ctx.new_space("SC")
        if ctx.nid == 0:
            state["rid"] = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(state["rid"])
        yield from ctx.unmap(h)
        if ctx.nid == 0:
            yield from ctx.start_read(h)
            yield from ctx.end_read(h)
        yield from ctx.barrier(sid)

    return program


# ---------------------------------------------------------------------------
# integration through run_spmd(check=True)
# ---------------------------------------------------------------------------
def test_seeded_two_node_race_is_detected():
    res = run_spmd(_racy_writes({}), n_procs=2, check=True)
    ck = res.checker
    assert not ck.clean
    races = [r for r in ck.races if r.kind == "ww"]
    assert races and races[0].nodes == (0, 1)
    assert "region" in str(races[0])


def test_barrier_separated_program_is_clean():
    res = run_spmd(_barrier_separated({}), n_procs=4, check=True)
    assert res.checker.clean
    assert res.results == [7.0] * 4
    assert res.checker.accesses_checked > 0
    assert res.checker.sync_rounds >= 3


def test_lock_ordered_writes_are_clean():
    res = run_spmd(_lock_ordered({}), n_procs=4, check=True)
    assert res.checker.clean, res.checker.summary()


def test_use_after_unmap_is_flagged():
    res = run_spmd(_use_after_unmap({}), n_procs=2, check=True)
    kinds = {v.kind for v in res.checker.violations}
    assert "use-after-unmap" in kinds


def test_checked_run_keeps_simulated_cycles_identical():
    for factory in (_racy_writes, _barrier_separated, _lock_ordered):
        base = run_spmd(factory({}), n_procs=4)
        checked = run_spmd(factory({}), n_procs=4, check=True)
        assert checked.time == base.time, factory.__name__


def test_checker_absent_when_off():
    res = run_spmd(_barrier_separated({}), n_procs=2)
    assert res.checker is None


def test_check_requires_ace_backend():
    with pytest.raises(ValueError, match="ace"):
        run_spmd(_barrier_separated({}), backend="crl", n_procs=2, check=True)


def test_race_detect_protocol_reports_are_adopted():
    def program(ctx):
        sid = yield from ctx.new_space("RaceDetect")
        if ctx.nid == 0:
            program.rid = yield from ctx.gmalloc(sid, 4)
        yield from ctx.barrier(sid)
        h = yield from ctx.map(program.rid)
        yield from ctx.start_write(h)
        h.data[:] = ctx.nid
        yield from ctx.end_write(h)
        yield from ctx.barrier(sid)  # space barrier -> epoch close
        yield from ctx.unmap(h)
        yield from ctx.barrier(sid)

    res = run_spmd(program, n_procs=2, check=True)
    kinds = {r.kind for r in res.checker.races}
    assert "protocol" in kinds  # RaceDetect's epoch verdict, folded in
    assert "ww" in kinds  # the checker's own happens-before verdict


def test_report_and_summary_render():
    res = run_spmd(_racy_writes({}), n_procs=2, check=True)
    text = res.checker.summary()
    assert "race(s)" in text
    assert all(str(item) for item in res.checker.report())


# ---------------------------------------------------------------------------
# checker unit tests (no simulation)
# ---------------------------------------------------------------------------
def test_vector_clock_barrier_orders_accesses():
    ck = DynamicChecker(2)
    ck.access(0, 5, write=True)
    ck.barrier_release(0)
    ck.barrier_release(1)
    ck.barrier_acquire(0)
    ck.barrier_acquire(1)
    ck.access(1, 5, write=True)
    assert ck.clean


def test_unordered_writes_race_and_dedupe():
    ck = DynamicChecker(2)
    ck.access(0, 5, write=True)
    ck.access(1, 5, write=True)
    ck.access(1, 5, write=True)  # duplicate pair: one record
    assert len(ck.races) == 1
    assert ck.races[0].kind == "ww"


def test_lock_transfer_establishes_order():
    ck = DynamicChecker(2)
    ck.lock_acquired(0, 9)
    ck.access(0, 5, write=True)
    ck.lock_released(0, 9)
    ck.lock_acquired(1, 9)
    ck.access(1, 5, write=True)
    assert ck.clean


def test_read_write_race_direction_kinds():
    ck = DynamicChecker(2)
    ck.access(0, 5, write=False)
    ck.access(1, 5, write=True)
    assert [r.kind for r in ck.races] == ["rw"]
    ck2 = DynamicChecker(2)
    ck2.access(0, 5, write=True)
    ck2.access(1, 5, write=False)
    assert [r.kind for r in ck2.races] == ["wr"]


def test_map_count_tracking():
    ck = DynamicChecker(1)
    ck.map_acquired(0, 3)
    ck.access(0, 3, write=False)
    ck.unmapped(0, 3)
    ck.access(0, 3, write=False)
    assert [v.kind for v in ck.violations] == ["use-after-unmap"]
