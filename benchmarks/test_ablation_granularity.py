"""Ablation: user-specified granularity vs fixed coherence units (§2.3).

The paper's "false sharing of protocols": when independently-written
data share a fixed-size coherence unit, per-datum assertions (here:
"each counter has a single writer") become false for the unit, and an
SC protocol ping-pongs ownership.  With user-specified granularity
each counter is its own region and writes are home-local.
"""

from repro.facade import run_spmd
from repro.harness import format_table

N_COUNTERS = 32
WRITES = 6
PACK = 8  # counters per fixed-size coherence unit


def _counters_program(pack: int):
    """Each counter is written by proc (counter % P); regions hold
    ``pack`` counters — pack=1 is user-specified granularity."""
    shared = {}

    def program(ctx):
        sid = yield from ctx.new_space("SC")
        n_regions = N_COUNTERS // pack
        if ctx.nid == 0:
            shared["rids"] = []
            for _ in range(n_regions):
                rid = yield from ctx.gmalloc(sid, pack)
                shared["rids"].append(rid)
        yield from ctx.barrier()
        handles = []
        for rid in shared["rids"]:
            h = yield from ctx.map(rid)
            handles.append(h)
        yield from ctx.barrier()
        for _ in range(WRITES):
            for c in range(N_COUNTERS):
                if c % ctx.n_procs != ctx.nid:
                    continue
                h = handles[c // pack]
                yield from ctx.start_write(h)
                h.data[c % pack] += 1
                yield from ctx.end_write(h)
        yield from ctx.barrier()
        return True

    return program


def _experiment():
    fine = run_spmd(_counters_program(1), backend="ace", n_procs=8).time
    coarse = run_spmd(_counters_program(PACK), backend="ace", n_procs=8).time
    return fine, coarse


def test_user_granularity_avoids_protocol_false_sharing():
    fine, coarse = _experiment()
    print()
    print(
        format_table(
            "Ablation — granularity and false sharing of protocols (cycles)",
            ["granularity", "cycles"],
            [("one region per counter (user-specified)", fine),
             (f"{PACK} counters per region (fixed unit)", coarse)],
        )
    )
    print(f"false-sharing slowdown: {coarse / fine:.2f}x")
    # packing independently-written counters into one unit must cost
    # dearly (ownership ping-pong between the 8 writers)
    assert coarse > 2.0 * fine
