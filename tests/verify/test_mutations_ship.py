"""A mutation the model checker refutes also breaks the shipped run.

The checker runs the invalidation family's shipped home and recall code
(:class:`~repro.dsm.directory.HomeMachine`,
:class:`~repro.dsm.regioncache.RecallReceiver`), so each seeded
mutation of SC's or Owned's table must change what the runtime does
too.  Each one is built into a real protocol — the SC engine or an
:class:`~repro.protocols.owned.OwnedProtocol` subclass — and run on one
fixed 3-node program: two sharers read, the home's write invalidates
them, a write-write migration moves the dirty copy, and every node reads
last.
The mutated run must give wrong answers or stall.
"""

from __future__ import annotations

import pytest

from repro.dsm.coherence import CoherenceEngine
from repro.dsm.costs import ACE_SC_COSTS
from repro.dsm.faults import StallError
from repro.dsm.msi import MSI_TABLE
from repro.facade import run_spmd
from repro.protocols.base import Protocol
from repro.protocols.owned import OWNED_TABLE, OwnedProtocol
from repro.protocols.registry import ProtocolRegistry
from repro.protocols.sc_invalidate import SCProtocol
from repro.verify.modelcheck import seeded_mutations

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

        class Mutated(OwnedProtocol):
            pass

    Mutated.table = table
    registry = ProtocolRegistry()
    registry.register(Mutated)
    return run_spmd(_program(table.name, {}), n_procs=3, registry=registry).results


CASES = [
    (name, label)
    for name, table in (("SC", MSI_TABLE), ("Owned", OWNED_TABLE))
    for label, _ in seeded_mutations(table)
]


def test_every_invalidation_mutation_is_covered():
    assert len(CASES) == 8


@pytest.mark.parametrize("protocol,label", CASES)
def test_refuted_mutation_changes_the_shipped_run(protocol, label):
    table = MSI_TABLE if protocol == "SC" else OWNED_TABLE
    clean = _run(protocol, table)
    assert clean == [[10.0, 20.0, 5.0, 3.0]] * 3  # the unmutated table is right
    mutated = dict(seeded_mutations(table))[label]
    try:
        got = _run(protocol, mutated)
    except StallError:
        return
    assert got != clean, f"{protocol}/{label}: the shipped run ignored the mutation"
