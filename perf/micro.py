"""Micro workloads: one layer does the work, counts are closed-form.

Each pattern is one row of the timed region, so the harness times it on
its own; host seconds over the pattern's exact operation count is where
the per-layer probes (``sim.ns_per_event_heap`` ...
``protocols.dispatch_overhead_x``) come from.  Every pattern's event /
message / hit / miss count is known in advance from the generated
inputs, and that is what ``verify`` checks.
"""

from __future__ import annotations

import numpy as np

from harness import Outcome, digest
from repro.dsm import as_transport
from repro.facade import run_spmd
from repro.machine import Machine, MachineConfig
from repro.sim import Delay, Future, Simulator

N_PROCS = 8


def _ns_per_op(out: Outcome, inputs: dict, span: str) -> float:
    return out.spans[span] / inputs["ops"][span] * 1e9


# ------------------------------------------------------------ kernel_storm
class KernelStorm:
    """``repro.sim`` alone: no Machine, no DSM.

    Delays are built in set-up (pooled singletons), so a task step is
    one bare ``yield`` and the kernel's scheduling is what is timed."""

    name = "kernel_storm"

    def setup(self, seed: int, quick: bool) -> dict:
        rng = np.random.default_rng(seed)
        tasks, steps = (20, 10) if quick else (300, 160)
        pairs, rounds = (4, 10) if quick else (40, 500)
        waves, fanout = (4, 5) if quick else (100, 150)
        heap = rng.integers(1, 8, size=(tasks, steps))
        gaps = rng.integers(1, 6, size=(pairs, rounds))
        life = rng.integers(1, 9, size=(waves, fanout))
        return {
            "heap": [[Delay(d) for d in row] for row in heap.tolist()],
            "ring": [[Delay(0)] * steps for _ in range(tasks)],
            "future": [[Delay(d) for d in row] for row in gaps.tolist()],
            "spawn": [[Delay(d) for d in row] for row in life.tolist()],
            # closed forms (events, final cycle): every yield and every
            # task start is one event
            "expect": {
                "heap": (tasks * (steps + 1), int(heap.sum(axis=1).max())),
                "ring": (tasks * (steps + 1), 0),
                "future": (2 * pairs * (rounds + 1), int(gaps.sum(axis=1).max())),
                "spawn": (1 + 3 * waves * fanout, int(life.max(axis=1).sum())),
            },
            # what a span's seconds are divided by: events, resolve→wake
            # hand-offs, spawned-and-joined tasks
            "ops": {"heap": tasks * (steps + 1), "ring": tasks * (steps + 1),
                    "future": pairs * rounds, "spawn": waves * fanout},
            "digest": digest(heap, gaps, life),
        }

    @staticmethod
    def delays(rows) -> Simulator:
        def task(row):
            for d in row:
                yield d

        sim = Simulator()
        for i, row in enumerate(rows):
            sim.spawn(task(row), name=f"t{i}")
        sim.run()
        return sim

    @staticmethod
    def futures(all_gaps) -> Simulator:
        def producer(gaps, chain):
            for gap, fut in zip(gaps, chain):
                yield gap
                fut.resolve(None)

        def consumer(chain):
            for fut in chain:
                yield fut

        sim = Simulator()
        for i, gaps in enumerate(all_gaps):
            chain = [Future() for _ in gaps]
            sim.spawn(producer(gaps, chain), name=f"p{i}")
            sim.spawn(consumer(chain), name=f"c{i}")
        sim.run()
        return sim

    @staticmethod
    def churn(waves) -> Simulator:
        def child(d):
            yield d

        def spawner(sim):
            for w, wave in enumerate(waves):
                kids = [sim.spawn(child(d), name=f"k{w}.{i}") for i, d in enumerate(wave)]
                for kid in kids:
                    yield kid.done

        sim = Simulator()
        sim.spawn(spawner(sim), name="spawner")
        sim.run()
        return sim

    def rows(self, inputs: dict, out: Outcome):
        patterns = {"heap": self.delays, "ring": self.delays, "future": self.futures, "spawn": self.churn}
        for span, pattern in patterns.items():
            def row(span=span, pattern=pattern):
                sim = pattern(inputs[span])
                out.add_sim(span, sim)
                out.payload.append((span, sim.events, sim.now))

            yield span, row

    def verify(self, inputs: dict, out: Outcome) -> None:
        for span, events, now in out.payload:
            want_events, want_now = inputs["expect"][span]
            out.check(f"{span} events", events == want_events, f"{events} != {want_events}")
            out.check(f"{span} cycles", now == want_now, f"{now} != {want_now}")

    def probes(self, out: Outcome, inputs: dict) -> dict:
        return {
            "sim.ns_per_event_heap": _ns_per_op(out, inputs, "heap"),
            "sim.ns_per_event_ring": _ns_per_op(out, inputs, "ring"),
            "sim.ns_per_future_wake": _ns_per_op(out, inputs, "future"),
            "sim.ns_per_spawn": _ns_per_op(out, inputs, "spawn"),
        }


# --------------------------------------------------------- fabric_pingpong
class FabricPingPong:
    """``Machine`` active messages, raw and through ``SimTransport``."""

    name = "fabric_pingpong"
    MSGS_PER_OP = {"post": 1, "request": 1, "rpc": 2}

    def setup(self, seed: int, quick: bool) -> dict:
        rng = np.random.default_rng(seed)
        chains, hops = (4, 10) if quick else (64, 250)
        sends = 20 if quick else 2500
        calls = 10 if quick else 1200
        routes = rng.integers(0, N_PROCS, size=(chains, hops))
        req = rng.integers(0, N_PROCS, size=(N_PROCS, sends))
        rpc = rng.integers(0, N_PROCS, size=(N_PROCS, calls))
        ops = {"post": chains * hops, "request": N_PROCS * sends, "rpc": N_PROCS * calls}
        return {
            "post": routes.tolist(), "request": req.tolist(), "rpc": rpc.tolist(),
            "ops": {f"{via}.{kind}": n for via in ("raw", "transport") for kind, n in ops.items()},
            "digest": digest(routes, req, rpc),
        }

    @staticmethod
    def fabric(via_transport: bool):
        machine = Machine(Simulator(), MachineConfig(n_procs=N_PROCS))
        if via_transport:
            fab = as_transport(machine)
            return machine, fab.post, fab.request, fab.rpc, fab.reply
        return machine, machine.post, machine.am_request, machine.rpc, machine.reply

    def post(self, routes, via: bool):
        """Handler-context ``post`` chains: each hop's handler forwards the token."""
        machine, post, _, _, _ = self.fabric(via)
        hops = len(routes[0])
        landed = [0]

        def hop(node, src, chain, i):
            landed[0] += 1
            if i < hops:
                post(node.nid, routes[chain][i], hop, chain, i + 1)

        for chain, route in enumerate(routes):
            post(chain % N_PROCS, route[0], hop, chain, 1)
        machine.sim.run()
        return machine, len(routes) * hops - landed[0]

    def request(self, dsts, via: bool):
        """Task-context one-way sends."""
        machine, _, request, _, _ = self.fabric(via)
        landed = [0]

        def sink(node, src):
            landed[0] += 1

        def sender(nid):
            for dst in dsts[nid]:
                yield from request(nid, dst, sink)

        machine.sim.run_all(sender(nid) for nid in range(N_PROCS))
        return machine, sum(map(len, dsts)) - landed[0]

    def rpc(self, dsts, via: bool):
        """``rpc`` + ``reply`` echo; counts wrong reply values."""
        machine, _, _, call, reply = self.fabric(via)

        def echo(node, src, fut, x):
            reply(fut, x + 1)

        def caller(nid):
            wrong = 0
            for i, dst in enumerate(dsts[nid]):
                wrong += (yield from call(nid, dst, echo, i)) != i + 1
            return wrong

        return machine, sum(machine.sim.run_all(caller(nid) for nid in range(N_PROCS)))

    def rows(self, inputs: dict, out: Outcome):
        for via, tag in ((False, "raw"), (True, "transport")):
            for kind in ("post", "request", "rpc"):
                span = f"{tag}.{kind}"

                def row(span=span, kind=kind, via=via):
                    machine, wrong = getattr(self, kind)(inputs[kind], via)
                    out.add_sim(span, machine.sim, machine.stats.snapshot())
                    out.payload.append((span, kind, machine.stats.get("msg.total"), wrong))

                yield span, row

    def verify(self, inputs: dict, out: Outcome) -> None:
        for span, kind, msgs, wrong in out.payload:
            want = inputs["ops"][span] * self.MSGS_PER_OP[kind]
            out.check(f"{span} messages", msgs == want, f"{msgs} != {want}")
            out.check(f"{span} deliveries", wrong == 0, f"{wrong} lost or wrong")

    def probes(self, out: Outcome, inputs: dict) -> dict:
        raw, via = _ns_per_op(out, inputs, "raw.rpc"), _ns_per_op(out, inputs, "transport.rpc")
        return {
            "machine.ns_per_post": _ns_per_op(out, inputs, "raw.post"),
            "machine.ns_per_am_request": _ns_per_op(out, inputs, "raw.request"),
            "machine.ns_per_rpc": raw,
            "dsm.transport.ns_per_rpc": via,
            "dsm.transport.overhead_x": via / raw,
        }


# -------------------------------------------------------------- dsm_access
class DsmAccess:
    """Synthetic SPMD programs on the ``ace`` backend, one per pattern.

    ``read_miss`` is a single-sharer fetch→invalidate ping-pong (one
    read miss and one one-sharer recall per region per round);
    ``write_miss`` is the same with all seven other nodes sharing, so
    each write miss recalls seven copies, which then refetch."""

    name = "dsm_access"
    #: pattern -> the counter it is about
    PATTERNS = {
        "read_hit": "ace.sc.read_hit", "write_hit": "ace.sc.write_hit",
        "read_miss": "ace.sc.read_miss", "write_miss": "ace.sc.write_miss",
        "map_hit": "ace.sc.map_hit", "null_access": "ace.start_read",
    }

    def setup(self, seed: int, quick: bool) -> dict:
        rng = np.random.default_rng(seed)
        regions = 4 if quick else 16
        hits = 40 if quick else 2500
        rounds = 3 if quick else 12
        order = rng.integers(0, regions, size=(N_PROCS, hits))
        values = rng.random(size=(N_PROCS, regions))
        return {
            "regions": regions, "rounds": rounds,
            "order": order.tolist(), "values": values.tolist(),
            # closed-form value of each pattern's counter; each region's
            # initial write_region / map is one more write / map hit
            "ops": {
                "read_hit": N_PROCS * hits, "null_access": N_PROCS * hits,
                "write_hit": N_PROCS * (hits + regions), "map_hit": N_PROCS * (hits + regions),
                "read_miss": N_PROCS * regions * rounds, "write_miss": N_PROCS * regions * rounds,
            },
            "digest": digest(order, values),
        }

    def program(self, pattern: str, inputs: dict):
        regions, rounds = inputs["regions"], inputs["rounds"]
        shared: dict = {}

        def program(ctx):
            nid, n = ctx.nid, ctx.n_procs
            order, values = inputs["order"][nid], inputs["values"][nid]
            start_read, end_read = ctx.start_read, ctx.end_read
            start_write, end_write = ctx.start_write, ctx.end_write
            sid = yield from ctx.new_space("Null" if pattern == "null_access" else "SC")
            rids = []
            for _ in range(regions):
                rids.append((yield from ctx.gmalloc(sid, 1)))
            shared[nid] = rids
            mine = []
            for rid, v in zip(rids, values):
                h = yield from ctx.map(rid)
                yield from ctx.write_region(h, [v])
                mine.append(h)
            yield from ctx.barrier()
            wrong = 0
            if pattern in ("read_hit", "null_access"):
                for i in order:
                    h = mine[i]
                    yield from start_read(h)
                    wrong += h.data[0] != values[i]
                    yield from end_read(h)
            elif pattern == "write_hit":
                for i in order:
                    h = mine[i]
                    yield from start_write(h)
                    h.data[0] = values[i]
                    yield from end_write(h)
            elif pattern == "map_hit":
                for i in order:
                    h = yield from ctx.map(rids[i])
                    yield from ctx.unmap(h)
            else:  # read_miss / write_miss: sharers fetch, then home invalidates them
                homes = [(nid + 1) % n] if pattern == "read_miss" else [
                    p for p in range(n) if p != nid
                ]
                theirs = []
                for home in homes:
                    for i, rid in enumerate(shared[home]):
                        theirs.append((inputs["values"][home][i], (yield from ctx.map(rid))))
                for r in range(rounds):
                    for v, h in theirs:
                        yield from start_read(h)
                        wrong += h.data[0] != v + r
                        yield from end_read(h)
                    yield from ctx.barrier()
                    for v, h in zip(values, mine):
                        yield from start_write(h)
                        h.data[0] = v + (r + 1)
                        yield from end_write(h)
                    yield from ctx.barrier()
            return wrong

        return program

    def rows(self, inputs: dict, out: Outcome):
        for pattern in self.PATTERNS:
            def row(pattern=pattern):
                res = run_spmd(self.program(pattern, inputs), backend="ace", n_procs=N_PROCS)
                out.add_run(pattern, res)
                out.payload.append((pattern, res.stats.get(self.PATTERNS[pattern]), sum(res.results)))

            yield pattern, row

    def verify(self, inputs: dict, out: Outcome) -> None:
        for pattern, got, wrong in out.payload:
            want = inputs["ops"][pattern]
            out.check(f"{pattern} {self.PATTERNS[pattern]}", got == want, f"{got} != {want}")
            out.check(f"{pattern} values read", wrong == 0, f"{wrong} stale or wrong")

    def probes(self, out: Outcome, inputs: dict) -> dict:
        hit, null = _ns_per_op(out, inputs, "read_hit"), _ns_per_op(out, inputs, "null_access")
        return {
            "dsm.ns_per_read_hit": hit,
            "dsm.ns_per_write_hit": _ns_per_op(out, inputs, "write_hit"),
            "dsm.ns_per_read_miss": _ns_per_op(out, inputs, "read_miss"),
            "dsm.ns_per_write_miss": _ns_per_op(out, inputs, "write_miss"),
            "dsm.ns_per_map_hit": _ns_per_op(out, inputs, "map_hit"),
            "protocols.ns_per_null_access": null,
            "protocols.dispatch_overhead_x": hit / null,
        }


WORKLOADS = [KernelStorm(), FabricPingPong(), DsmAccess()]
