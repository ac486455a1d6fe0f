"""Extensibility (§2.4): write and register a brand-new protocol.

Implements a *write-once / freeze* protocol ("WriteOnce") against the
full-access-control interface: the home writes a region exactly once,
then readers cache it forever with no coherence traffic.  Registering
it takes one class with a `ProtocolSpec` — the Python analog of the
paper's Figure 1 Tcl script — after which applications select it by
name like any shipped protocol.  A protocol keeps its own per-copy
extras on itself (here: the ids of regions already written), since a
`RegionCopy` only carries the state the shipped protocols declare.

    python examples/custom_protocol.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.facade import run_spmd  # noqa: E402
from repro.protocols import ProtocolRegistry, ProtocolSpec  # noqa: E402
from repro.protocols.base import ProtocolMisuse  # noqa: E402
from repro.protocols.caching import CachedCopyProtocol  # noqa: E402
from repro.protocols.registry import default_registry  # noqa: E402
from repro.sim import Delay  # noqa: E402

# A fresh registry: the shipped protocols plus ours.
registry = ProtocolRegistry()
for name in default_registry.names():
    registry.register(default_registry.get(name))


@registry.register
class WriteOnceProtocol(CachedCopyProtocol):
    """Home writes once; readers snapshot at map time, then never revalidate."""

    spec = ProtocolSpec(
        name="WriteOnce",
        optimizable=True,
        null_hooks=frozenset({"start_read", "end_read"}),
        description="freeze after first write; reads are free forever",
    )

    def __init__(self, runtime, space):
        super().__init__(runtime, space)
        self.frozen: set[int] = set()  # rids written once; only homes write

    def start_write(self, nid, handle):
        if handle.region.home != nid:
            raise ProtocolMisuse("WriteOnce: only the creator may write")
        if handle.rid in self.frozen:
            raise ProtocolMisuse("WriteOnce: region already written once")
        yield Delay(4)

    def end_write(self, nid, handle):
        yield Delay(4)
        self.frozen.add(handle.rid)


def program(ctx):
    space = yield from ctx.new_space("WriteOnce")
    if ctx.nid == 0:
        rid = yield from ctx.gmalloc(space, 16)
        h = yield from ctx.map(rid)
        yield from ctx.start_write(h)
        h.data[:] = range(16)
        yield from ctx.end_write(h)
        program.rid = rid
    yield from ctx.barrier()
    h = yield from ctx.map(program.rid)
    total = 0.0
    for _ in range(100):  # hot read loop: zero coherence traffic
        yield from ctx.start_read(h)
        total += float(h.data.sum())
        yield from ctx.end_read(h)
    return total


def main():
    result = run_spmd(program, backend="ace", n_procs=4, registry=registry)
    print(f"registered protocols: {', '.join(registry.names())}")
    print(f"simulated time: {result.time} cycles")
    print(f"per-node totals: {[r for r in result.results]}")
    fetches = result.stats.get("msg.proto.WriteOnce.fetch")
    print(f"data fetches: {fetches} (one per remote reader, "
          f"then {4 * 100} reads at zero message cost)")
    config = registry.config_table()["WriteOnce"]
    print(f"compiler sees: optimizable={config['optimizable']}, "
          f"null hooks={config['null_hooks']}")


if __name__ == "__main__":
    main()
