"""Conformance under faults: the round trip survives a lossy fabric.

A protocol's reliability machinery (retry, dedup, ack'd pushes) must
not just keep steady-state accesses correct — protocol *switches* are
where the state space is widest (flush + re-init while requests may
still be retrying).  This re-runs the §3.1 change-protocol round trip
from ``test_conformance_matrix`` for every coherence-providing
protocol under the small canonical drop+retry plan.  The three paper
protocols whose reliable variants differ:

* ``SC`` — request retry with home-side dedup (directory/regioncache);
* ``DynamicUpdate`` — ack'd update + multicast push with per-seq dedup;
* ``StaticUpdate`` — ack'd barrier pushes with per-seq dedup;

plus the two table-native additions, whose handshakes are the widest:

* ``SelfInvalidate`` — synchronous write-back with epoch-keyed dedup
  (a replayed old-epoch write-back must not clobber newer data);
* ``Owned`` — forwarded reads and recall fan-outs where the *ack* is
  the payload, so retries must replay recorded grants, not re-run them;

and the rest, whose own messages reach the wire through the same port
(six of them sent raw and deadlocked here before they did).

Region contents must survive both switches bit-exactly and the run
must actually have injected faults (otherwise the test proves
nothing — see the assertion on ``fault.drop``).
"""

from __future__ import annotations

import pytest

from repro.cli.chaos import APPROX_APPS, canon, equal
from repro.dsm import FaultPlan, OneShot, StallError
from repro.facade import run_spmd
from repro.harness.experiments import run_app

N_PROCS = 2
VALUES = [4.0, 2.0]
SEEDS = [0, 1]

#: (protocol, partner, writer): StaticUpdate asserts producers own
#: their regions, so its writer is the home node 0.
CASES = [
    ("SC", "StaticUpdate", 1),
    ("DynamicUpdate", "SC", 1),
    ("StaticUpdate", "SC", 0),
    ("SelfInvalidate", "SC", 1),
    ("Owned", "SC", 1),
    ("BufferedUpdate", "SC", 1),
    ("Counter", "SC", 1),
    ("Migratory", "SC", 1),
    ("PipelinedWrite", "SC", 1),
    ("RaceDetect", "SC", 1),
    ("HwSC", "SC", 1),
    ("HomeWrite", "SC", 0),
]


@pytest.mark.parametrize("protocol,partner,writer", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip_under_drop_retry(protocol, partner, writer, seed):
    boxes: dict = {}

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, len(VALUES))
        yield from ctx.barrier()
        rid = boxes["rid"]
        h = yield from ctx.map(rid)
        if ctx.nid == writer:
            yield from ctx.start_write(h)
            h.data[:] = VALUES
            yield from ctx.end_write(h)
        yield from ctx.barrier(sid)

        yield from ctx.change_protocol(sid, partner)  # P flushes to base
        h2 = yield from ctx.map(rid)
        mid = yield from ctx.read_region(h2)
        yield from ctx.unmap(h2)
        yield from ctx.barrier(sid)

        yield from ctx.change_protocol(sid, protocol)  # partner flushes back
        h3 = yield from ctx.map(rid)
        back = yield from ctx.read_region(h3)
        return list(mid), list(back)

    # The round trip is only ~a dozen messages; a hefty drop rate is
    # needed for every seed to actually injure the run.
    plan = FaultPlan.drop_retry(seed, drop=0.35)
    res = run_spmd(prog, backend="ace", n_procs=N_PROCS, fault_plan=plan)
    for nid, (mid, back) in enumerate(res.results):
        assert mid == VALUES, f"node {nid} read {mid} under {partner} after {protocol} flush"
        assert back == VALUES, f"node {nid} read {back} back under {protocol}"
    region = res.backend.runtime.regions.get(boxes["rid"])
    assert list(region.home_data) == VALUES
    assert res.stats.get("fault.drop") > 0, "plan injected nothing; test proves nothing"


@pytest.mark.parametrize("app", ["TSP", "Water"])
def test_custom_protocol_apps_survive_the_canonical_plan(app):
    """The two Fig. 7b configurations whose protocols (Counter,
    PipelinedWrite) used to send outside the retrying port."""
    base = run_app(app, "custom", n_procs=4)
    res = run_app(app, "custom", n_procs=4, fault_plan=FaultPlan.canonical(0))
    assert equal(canon(app, base.results), canon(app, res.results), app in APPROX_APPS)
    assert res.stats.get("fault.drop") > 0


@pytest.mark.parametrize(
    "protocol,category", [("Migratory", "proto.Migratory.req"), ("Counter", "proto.Counter.fetch")]
)
def test_a_stall_in_a_protocol_names_its_region(protocol, category):
    """A link the protocol cannot mask ends in a report, not a bare
    deadlock: node 1's first message about the region never reaches its
    home, and the report says which region and which silent node."""
    boxes: dict = {}

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, 2)
        yield from ctx.barrier()
        yield from ctx.read_region((yield from ctx.map(boxes["rid"])))

    with pytest.raises(StallError) as exc:
        run_spmd(prog, n_procs=N_PROCS, fault_plan=FaultPlan.dead_link(1, 0))
    report = exc.value.report
    assert report.reason.startswith(f"{category} for region {boxes['rid']} from node 1 to node 0")
    assert report.suspects == [0]
    stuck = report.in_flight[0]
    assert (stuck["category"], stuck["region"]) == (category, boxes["rid"])


@pytest.mark.parametrize("protocol", ["DynamicUpdate", "BufferedUpdate"])
def test_a_push_that_overtakes_the_fetch_reply_is_not_overwritten(protocol):
    """Node 2's fetch is answered with the old contents, and the reply is
    delayed past the push of node 1's write: the copy must keep the push."""
    boxes: dict = {}

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, len(VALUES))
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        if ctx.nid == 1:
            yield from ctx.write_region(h, VALUES)
        yield from ctx.barrier(sid)
        return list((yield from ctx.read_region(h)))

    late = OneShot("delay", category=f"proto.{protocol}.fetch_data", nth=2, delay_cycles=4000)
    res = run_spmd(prog, n_procs=3, fault_plan=FaultPlan(one_shots=[late]))
    assert res.stats.get("fault.delay") == 1
    assert res.results == [VALUES] * 3
