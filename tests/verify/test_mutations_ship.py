"""A mutation the model checker refutes also breaks the shipped run.

The checker runs the access hooks each table generates, and the
invalidation family's shipped home and recall code
(:class:`~repro.dsm.directory.HomeMachine`,
:class:`~repro.dsm.regioncache.RecallReceiver`), so each seeded
mutation of SC's, Owned's or DynamicUpdate's table must change what the
runtime does too.  Each one is built into a real protocol — the SC
engine, or an :class:`~repro.protocols.owned.OwnedProtocol` or
:class:`~repro.protocols.dynamic_update.DynamicUpdateProtocol` subclass
— and run on one fixed 3-node program: two sharers read, the home's
write invalidates (or updates) them, two more writes follow from the
other nodes, and every node reads last.  The mutated run must give wrong answers, stall, deadlock or refuse an
access (:class:`~repro.dsm.errors.ProtocolError`).

A broken *effect* — the text a hook splices in place of a call — must
break the shipped run the same way.  The home alias's effects are also
what the checker calls, so it refutes their breakage too.
"""

from __future__ import annotations

import pytest

from repro.dsm.coherence import CoherenceEngine
from repro.dsm.costs import ACE_SC_COSTS
from repro.dsm.directory import HomeMachine
from repro.dsm.errors import ProtocolError
from repro.dsm.faults import StallError
from repro.dsm.hooks import ProtocolHooks
from repro.dsm.msi import MSI_TABLE
from repro.facade import run_spmd
from repro.protocols.base import Protocol
from repro.protocols.dynamic_update import DYNAMIC_UPDATE_TABLE, DynamicUpdateProtocol
from repro.protocols.owned import OWNED_TABLE, OwnedProtocol
from repro.protocols.registry import ProtocolRegistry
from repro.protocols.sc_invalidate import SCProtocol
from repro.sim import DeadlockError
from repro.verify.modelcheck import Scope, check_table, seeded_mutations

SIZE = 4


def _program(name: str, boxes: dict):
    def prog(ctx):
        sid = yield from ctx.new_space(name)
        if ctx.nid == 0:
            boxes["rid"] = yield from ctx.gmalloc(sid, SIZE)
        yield from ctx.barrier()
        h = yield from ctx.map(boxes["rid"])
        if ctx.nid in (1, 2):  # two sharers
            yield from ctx.read_region(h)
        yield from ctx.barrier(sid)
        # the home's write invalidates both sharers; node 1's fetches the
        # region and node 2's then migrates the dirty copy
        for writer, (i, add) in ((0, (2, 5.0)), (1, (0, 10.0)), (2, (1, 20.0))):
            if ctx.nid == writer:
                yield from ctx.start_write(h)
                h.data[i] += add
                h.data[SIZE - 1] += 1
                yield from ctx.end_write(h)
            yield from ctx.barrier(sid)
        final = [float(x) for x in (yield from ctx.read_region(h))]
        yield from ctx.barrier(sid)
        return final

    return prog


def _run(protocol: str, table):
    """Node results of the program under ``table`` built into ``protocol``."""
    if protocol == "SC":

        class Mutated(SCProtocol):
            def __init__(self, runtime, space):
                Protocol.__init__(self, runtime, space)
                engine = CoherenceEngine(
                    runtime.transport, runtime.regions, ACE_SC_COSTS, "ace.sc", table=table
                )
                self._bind_engine(engine)

    else:

        class Mutated(SHIPPED[protocol][1]):
            pass

    Mutated.table = table
    registry = ProtocolRegistry()
    registry.register(Mutated)
    return run_spmd(_program(table.name, {}), n_procs=3, registry=registry).results


#: protocol -> (its table, the class a mutated table is built into)
SHIPPED = {
    "SC": (MSI_TABLE, SCProtocol),
    "Owned": (OWNED_TABLE, OwnedProtocol),
    "DynamicUpdate": (DYNAMIC_UPDATE_TABLE, DynamicUpdateProtocol),
}

CASES = [(name, label) for name, (table, _) in SHIPPED.items() for label, _ in seeded_mutations(table)]


def test_every_invalidation_and_update_mutation_is_covered():
    assert len(CASES) == 14


@pytest.mark.parametrize("protocol,label", CASES)
def test_refuted_mutation_changes_the_shipped_run(protocol, label):
    table = SHIPPED[protocol][0]
    clean = _run(protocol, table)
    assert clean == [[10.0, 20.0, 5.0, 3.0]] * 3  # the unmutated table is right
    mutated = dict(seeded_mutations(table))[label]
    try:
        got = _run(protocol, mutated)
    except (StallError, DeadlockError, ProtocolError):
        return
    assert got != clean, f"{protocol}/{label}: the shipped run ignored the mutation"


#: effects broken by deleting one clause: (label, declared in, effect, clause)
EFFECT_MUTATIONS = (
    # the home writes in place over remote sharers' copies
    ("home-sole-ignores-sharers", HomeMachine.ALIAS_EFFECTS, "g_home_sole", " and not ent.sharers"),
    # a home write's end leaves the entry writing: remote requests queue forever
    ("close-write-keeps-writing", HomeMachine.ALIAS_EFFECTS, "act_close_home_write",
     "  ent.home_writing = False\n"),
    # a read hit opens no use, so its end is refused
    ("hit-read-uncounted", ProtocolHooks.EFFECTS, "act_hit_read", "handle.reads += 1\n"),
)


def _break(monkeypatch, effects: dict, name: str, clause: str) -> None:
    assert clause in effects[name]
    monkeypatch.setitem(effects, name, effects[name].replace(clause, "", 1))


#: the alias's effects ship in SC and Owned, the engine's in SC alone
EFFECT_CASES = [
    (protocol, *mutation)
    for mutation in EFFECT_MUTATIONS
    for protocol in (("SC", "Owned") if mutation[1] is HomeMachine.ALIAS_EFFECTS else ("SC",))
]
ALIAS_CASES = [case for case in EFFECT_CASES if case[2] is HomeMachine.ALIAS_EFFECTS]


def _ids(cases) -> list[str]:
    return [f"{protocol}-{label}" for protocol, label, *_ in cases]


@pytest.mark.parametrize("protocol,label,effects,name,clause", EFFECT_CASES, ids=_ids(EFFECT_CASES))
def test_broken_effect_changes_the_shipped_run(protocol, label, effects, name, clause, monkeypatch):
    table = SHIPPED[protocol][0]
    clean = _run(protocol, table)
    _break(monkeypatch, effects, name, clause)
    try:
        got = _run(protocol, table)
    except (StallError, DeadlockError, ProtocolError):
        return
    assert got != clean, f"{protocol}/{label}: the shipped run ignored the broken effect"


@pytest.mark.parametrize("protocol,label,effects,name,clause", ALIAS_CASES, ids=_ids(ALIAS_CASES))
def test_broken_alias_effect_is_refuted(protocol, label, effects, name, clause, monkeypatch):
    """The checker calls the alias effects the shipped hooks splice (its
    requester keeps its own hit and release, so a broken engine effect is
    the shipped run's to catch)."""
    table = SHIPPED[protocol][0]
    assert check_table(table, Scope()).ok
    _break(monkeypatch, effects, name, clause)
    assert not check_table(table, Scope()).ok, f"{protocol}/{label}: the checker certified a broken effect"
