"""Protocol conformance matrix: flush-to-base round trips for EVERY
registered protocol.

§3.1 defines ``Ace_ChangeProtocol`` in terms of a base state — the old
protocol flushes so "all cached regions [are] flushed back to their
home processors" — and any protocol must be able both to *reach* that
state (flush) and to *start from* it (init after adoption).  The
matrix drives each registered protocol through a full round trip

    P  →  partner  →  P

with a remote write under ``P`` before the first switch, and checks

* region contents survive both switches (every node reads the written
  values under the partner *and* again after returning to ``P``), and
* the shared SC coherence core is left in the directory base state
  whenever a switch flushes it: no owner, no sharers, no home access
  in progress, no busy grant window, empty request queue, and no
  node-side copy left valid (home aside).

The directory check uses the layered core's introspection surface
(:meth:`~repro.dsm.directory.DirectoryService.entry_at`,
:meth:`~repro.dsm.regioncache.RegionCache.copy_of`) — non-creating
lookups, so the probe itself cannot disturb the state it inspects.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import repro.protocols
from repro.facade import run_spmd
from repro.machine import Machine
from repro.protocols.registry import default_registry

# Import every module in the protocols package before enumerating the
# registry: registration is an import side effect, so a protocol module
# the package __init__ forgot to list would otherwise never register —
# and silently never be tested.  After this sweep, the parametrization
# below is exhaustive by construction.
for _mod in pkgutil.iter_modules(repro.protocols.__path__):
    importlib.import_module(f"repro.protocols.{_mod.name}")

N_PROCS = 2
VALUES = [4.0, 2.0]


def test_registry_covers_every_shipped_protocol():
    """The matrix below runs once per registered protocol; guard that
    the registry itself is not quietly shrinking."""
    names = default_registry.names()
    assert len(names) >= 13, names
    # The paper's core trio must always be present.
    assert {"SC", "StaticUpdate", "DynamicUpdate"} <= set(names)


def _writer(protocol: str) -> int:
    # Derived from the registration record (ProtocolSpec.home_writer),
    # not a hand-maintained list: a new protocol declares its own
    # write-path constraint and is matrixed correctly from day one.
    return 0 if default_registry.spec(protocol).home_writer else 1


def _partner(protocol: str) -> str:
    # The round trip pivots through the default SC protocol; SC itself
    # pivots through StaticUpdate (a same-name change is a no-op).
    return "SC" if protocol != "SC" else "StaticUpdate"


def _base_state_violations(engine, rid: int, n_procs: int, label: str) -> list:
    """Non-creating probe of one coherence engine's state for ``rid``."""
    bad = []
    directory = engine.directory
    ent = directory.entry_at(directory.shard_of(rid), rid)
    if ent is not None:
        if ent.owner is not None:
            bad.append((label, "owner", ent.owner))
        if ent.sharers:
            bad.append((label, "sharers", sorted(ent.sharers)))
        if ent.home_readers or ent.home_writing:
            bad.append((label, "home access open", (ent.home_readers, ent.home_writing)))
        if ent.busy or ent.pending is not None:
            bad.append((label, "grant/recall in flight", (ent.busy, ent.pending)))
        if ent.queue:
            bad.append((label, "queued requests", len(ent.queue)))
    home = engine.regions.get(rid).home
    for nid in range(n_procs):
        copy = engine.cache.copy_of(nid, rid)
        if copy is not None and nid != home and copy.state != "invalid":
            bad.append((label, f"copy live at node {nid}", copy.state))
    return bad


def _round_trip(protocol: str):
    """Run ``P → partner → P``; returns the run, the region and the
    directory base-state violations seen after each SC flush."""
    partner = _partner(protocol)
    writer = _writer(protocol)
    boxes: dict = {}
    violations: list = []

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
        if ctx.nid == 0 and protocol == "SC":
            rt = ctx.backend.runtime
            violations.extend(
                _base_state_violations(rt.sc_engine, rid, ctx.n_procs, "after SC flush")
            )
        h2 = yield from ctx.map(rid)
        mid = yield from ctx.read_region(h2)
        yield from ctx.unmap(h2)
        yield from ctx.barrier(sid)

        yield from ctx.change_protocol(sid, protocol)  # partner flushes back
        if ctx.nid == 0 and partner == "SC":
            rt = ctx.backend.runtime
            violations.extend(
                _base_state_violations(rt.sc_engine, rid, ctx.n_procs, "after partner flush")
            )
        h3 = yield from ctx.map(rid)
        back = yield from ctx.read_region(h3)
        return list(mid), list(back)

    return run_spmd(prog, backend="ace", n_procs=N_PROCS), boxes["rid"], violations


@pytest.mark.parametrize("protocol", default_registry.names())
def test_change_protocol_round_trip(protocol):
    partner = _partner(protocol)
    res, rid, violations = _round_trip(protocol)
    assert violations == []
    for nid, (mid, back) in enumerate(res.results):
        assert mid == VALUES, f"node {nid} read {mid} under {partner} after {protocol} flush"
        assert back == VALUES, f"node {nid} read {back} back under {protocol}"
    # After both flushes the home copy is the region's base data.
    region = res.backend.runtime.regions.get(rid)
    assert list(region.home_data) == VALUES


@pytest.mark.parametrize("protocol", default_registry.names())
def test_every_message_category_is_interned(protocol, monkeypatch):
    """Each send's category is the one interned object built at setup,
    so the fabric's route lookup is an identity check, never a string
    built and hashed per send."""
    sent = []  # held alive: a second equal string cannot intern to itself
    deliver, reply = Machine._deliver, Machine.reply

    def spy_deliver(self, src, dst, handler, args, payload_words, category, *rest):
        sent.append(category)
        deliver(self, src, dst, handler, args, payload_words, category, *rest)

    def spy_reply(self, fut, value=None, payload_words=0, category="am.reply"):
        sent.append(category)
        reply(self, fut, value, payload_words=payload_words, category=category)

    monkeypatch.setattr(Machine, "_deliver", spy_deliver)
    monkeypatch.setattr(Machine, "reply", spy_reply)
    _round_trip(protocol)
    assert sent
    bad = sorted({c for c in sent if sys.intern(c) is not c})
    assert bad == [], f"{protocol} sends categories built per send: {bad}"


@pytest.mark.parametrize(
    "protocol, fill",
    [("SC", "remote read miss"), ("DynamicUpdate", "push"), ("Migratory", "hand-off")],
)
def test_a_fill_writes_the_copy_in_place(protocol, fill):
    """A fill stores into the copy's own buffer: ``handle.data`` is the
    array the node held before it, now holding the writer's values."""
    boxes: dict = {}
    seen = []

    def prog(ctx):
        sid = yield from ctx.new_space(protocol)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, len(VALUES))
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])  # node 1 fetches: a DynamicUpdate sharer
        before = h.data
        yield from ctx.barrier()
        if ctx.nid == 0:
            yield from ctx.start_write(h)
            h.data[:] = VALUES
            yield from ctx.end_write(h)  # a DynamicUpdate home pushes to node 1
        yield from ctx.barrier()
        if ctx.nid == 1:
            migrate = protocol == "Migratory"
            yield from (ctx.start_write if migrate else ctx.start_read)(h)
            seen.append((h.data is before, list(h.data)))
            yield from (ctx.end_write if migrate else ctx.end_read)(h)
        yield from ctx.barrier()

    res = run_spmd(prog, backend="ace", n_procs=N_PROCS)
    assert seen == [(True, VALUES)], f"{protocol} {fill}: rebound or wrong"
    category = {"SC": "msg.ace.sc.read_req", "DynamicUpdate": "msg.proto.DynamicUpdate.push",
                "Migratory": "msg.proto.Migratory.req"}[protocol]
    assert res.stats.get(category) > 0, f"no {fill} happened"
