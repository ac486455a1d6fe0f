"""Tests for the schedule fuzzer: shipped protocols survive the sweep,
a deliberately broken protocol is caught, and seeds are replayable."""

import numpy as np
import pytest

from repro.facade import run_spmd
from repro.protocols import ProtocolRegistry, ProtocolSpec, default_registry
from repro.protocols.caching import CachedCopyProtocol
from repro.sim import Delay
from repro.verify import fuzz_schedules

SEEDS = range(1, 13)


def _counter_program_factory(protocol="SC"):
    def factory():
        boxes = {}

        def prog(ctx):
            sid = yield from ctx.new_space(protocol)
            if ctx.nid == 0:
                boxes["rid"] = yield from ctx.gmalloc(sid, 1)
            yield from ctx.barrier()
            rid = boxes["rid"]
            h = yield from ctx.map(rid)
            seen = []
            for _ in range(4):
                yield from ctx.lock(rid)
                yield from ctx.start_write(h)
                h.data[0] += 1
                seen.append(h.data[0])
                yield from ctx.end_write(h)
                yield from ctx.unlock(rid)
            yield from ctx.barrier()
            data = yield from ctx.read_region(h)
            return (data[0], tuple(seen))

        return prog

    return factory


def _expect_total(n_procs, schedules=None):
    expected = float(n_procs * 4)

    def invariant(result):
        if schedules is not None:
            schedules.append(tuple(seen for _, seen in result.results))
        if any(total != expected for total, _ in result.results):
            return f"lost update: nodes saw {result.results}, expected {expected}"
        return None

    return invariant


@pytest.mark.parametrize("protocol", ["SC", "Counter", "HwSC"])
def test_shipped_protocols_survive_schedule_fuzzing(protocol):
    schedules = []
    report = fuzz_schedules(
        _counter_program_factory(protocol),
        _expect_total(4, schedules),
        n_procs=4,
        seeds=SEEDS,
    )
    assert report.ok, report.summary()
    assert report.seeds_run == len(list(SEEDS))
    # the fuzzer genuinely explored different interleavings: the order in
    # which nodes won the lock differs across seeds
    assert len(set(schedules)) > 1


def test_fuzzer_catches_a_broken_protocol():
    """An update protocol that 'forgets' to wait for propagation acks
    is exactly the bug schedule fuzzing exists to catch."""
    registry = ProtocolRegistry()
    for name in default_registry.names():
        registry.register(default_registry.get(name))

    @registry.register
    class BrokenUpdate(CachedCopyProtocol):
        spec = ProtocolSpec(
            name="BrokenUpdate",
            optimizable=True,
            null_hooks=frozenset({"start_read", "end_read", "start_write"}),
            description="deliberately broken: fire-and-forget updates, no drain",
        )

        def end_write(self, nid, handle):
            region = handle.region
            yield Delay(4)
            data = np.array(handle.data, copy=True)
            targets = [n for n in range(self.machine.n_procs) if n != nid]
            for t in targets:
                self.machine.post(
                    nid, t, self._on_push, region.rid, data,
                    payload_words=region.size, category="proto.BrokenUpdate.push",
                )
            # BUG: returns immediately; the barrier won't wait for pushes

        def _on_push(self, node, src, rid, data):
            copy = self._copies[node.nid].get(rid)
            if copy is not None:
                np.copyto(copy.data, data)
                copy.state = "valid"
            region = self.regions.get(rid)
            if node.nid == region.home:
                np.copyto(region.home_data, data)

    def factory():
        boxes = {}

        def prog(ctx):
            sid = yield from ctx.new_space("BrokenUpdate")
            if ctx.nid == 0:
                boxes["rid"] = yield from ctx.gmalloc(sid, 1)
            yield from ctx.barrier()
            h = yield from ctx.map(boxes["rid"])
            yield from ctx.barrier()
            if ctx.nid == 1:
                yield from ctx.start_write(h)
                h.data[0] = 42.0
                yield from ctx.end_write(h)
            yield from ctx.barrier()  # does NOT drain the broken pushes
            yield from ctx.start_read(h)
            out = h.data[0]
            yield from ctx.end_read(h)
            return out

        return prog

    def invariant(result):
        if any(r != 42.0 for r in result.results):
            return f"stale read after barrier: {result.results}"
        return None

    report = fuzz_schedules(
        factory, invariant, n_procs=4, seeds=range(1, 25), registry=registry
    )
    assert not report.ok
    assert "stale read" in report.summary()


def test_violating_seed_is_replayable():
    """Any reported seed reproduces its schedule exactly."""
    factory = _counter_program_factory("SC")
    r1 = run_spmd(factory(), backend="ace", n_procs=4, jitter_seed=7)
    r2 = run_spmd(factory(), backend="ace", n_procs=4, jitter_seed=7)
    assert r1.time == r2.time
    assert r1.results == r2.results
    r3 = run_spmd(factory(), backend="ace", n_procs=4, jitter_seed=8)
    # different seed: same answer (the protocol is correct), often a
    # different schedule — each node's ``seen`` tuple is the order it
    # won the lock in, so only the totals are comparable across seeds
    assert [total for total, _ in r3.results] == [total for total, _ in r1.results]


def test_report_summary_strings():
    factory = _counter_program_factory("SC")
    ok = fuzz_schedules(factory, _expect_total(2), n_procs=2, seeds=[1, 2, 3])
    assert "no violations" in ok.summary()
    bad = fuzz_schedules(factory, lambda r: "nope", n_procs=2, seeds=[1, 2])
    assert "2/2 schedules" in bad.summary()
    assert bad.violations[0].seed == 1


def test_failing_seeds_deduped_and_sorted():
    from repro.verify.fuzz import FuzzReport, Violation

    report = FuzzReport(seeds_run=5)
    for seed in (9, 3, 9, 1, 3):
        report.violations.append(Violation(seed, "boom"))
    assert report.failing_seeds == [1, 3, 9]
    # summary uses the canonical list, so two reports with the same
    # failing set render identically whatever the sweep order was.
    assert "failing seeds [1, 3, 9]" in report.summary()
