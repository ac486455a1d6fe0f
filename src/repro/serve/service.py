"""Sharded KV service on spaces, with online protocol switching.

The tentpole serving harness: every shard of the key space is one Ace
*space* (so the shard's coherence protocol is a named, per-shard,
revisitable choice), every node is both a front-end (serving an
interleaved slice of the open-loop request stream) and a storage
backend (home for ``key % n_procs`` keys), and the whole thing runs as
a plain SPMD program through :func:`repro.facade.run_spmd` — the same
kernel, runtime, fault plans, and observability as every benchmark in
the suite.

Structure of the program each node runs:

1. **Setup** (collective): one ``new_space`` per shard under the
   launch protocol; each home ``gmalloc``-s and zero-initializes its
   keys; region ids are published host-side; barrier.
2. **Serving epochs**: each node works through its request slice in
   batches of ``workload.batch``.  A request waits for its open-loop
   arrival cycle, charges ``think_cycles`` of handler compute, lazily
   maps the key's region (first touch per node), performs the
   annotated read or write, bumps the per-shard ``serve.shard<s>.*``
   counters, and records completion latency.
3. **Control epoch** (the paper's payoff): barrier → node 0 runs the
   controller host-side over the live counters (zero cycles) → barrier
   → every node applies the decided ``change_protocol`` collectives in
   shard order and drops its now-stale handles for switched shards.
   Static and adaptive runs execute the *identical* skeleton — two
   barriers per batch either way — so the measured difference between
   them is purely the decisions and the switch collectives they issue.

Determinism: traffic is a pure function of the workload seed
(:mod:`repro.serve.workload`), controller decisions are pure functions
of sampled counters, and the kernel is deterministic — identical seeds
reproduce identical cycle counts, switch schedules, and final values.
"""

from __future__ import annotations

from repro.facade import run_spmd
from repro.obs import Histogram, MetricsWindow, TraceBuffer
from repro.machine.stats import intern_key
from repro.serve.controller import AdaptiveController, StaticController
from repro.serve.workload import ServeWorkload, build_traffic, traffic_digest
from repro.sim import Delay
from repro.sim.kernel import _DELAY_POOL as _POOL, _DELAY_POOL_SIZE as _POOL_SIZE


def serve_program(workload: ServeWorkload, traffic: dict, controller, shared: dict,
                  metrics: MetricsWindow | None = None):
    """Build the per-node SPMD generator for one serving run.

    ``shared`` is the host-side exchange dict (region ids, per-epoch
    switch decisions) — the standard node-0-publishes idiom from the
    app suite.  The returned closure is what ``run_spmd`` calls once
    per node.
    """
    wl = workload
    keys, is_read = traffic["keys"], traffic["is_read"]
    arrival, value, shard = traffic["arrival"], traffic["value"], traffic["shard"]

    def program(ctx):
        nid, n_procs = ctx.nid, ctx.n_procs
        sim = ctx.machine.sim
        counters = ctx.machine.stats.counter_ref()
        read_key = [intern_key("serve", f"shard{s}", "reads") for s in range(wl.n_shards)]
        write_key = [intern_key("serve", f"shard{s}", "writes") for s in range(wl.n_shards)]

        # -- setup: one space per shard, homes allocate their keys ------
        sids = []
        for s in range(wl.n_shards):
            sid = yield from ctx.new_space(controller.protocols[s])
            sids.append(sid)
        rids = shared["rids"]
        for k in range(wl.n_keys):
            if k % n_procs == nid:
                rid = yield from ctx.gmalloc(sids[wl.shard_of_key(k)], wl.region_words)
                rids[k] = rid
        yield from ctx.barrier()
        handles: dict[int, object] = {}
        for k in range(wl.n_keys):
            if k % n_procs == nid:
                h = yield from ctx.map(rids[k])
                yield from ctx.write_region(h, [0.0] * wl.region_words)
                handles[k] = h
        yield from ctx.barrier()

        # -- serving epochs --------------------------------------------
        span = wl.batch * n_procs  # one epoch of requests, all front ends
        per_node = -(-wl.n_requests // n_procs)  # ceil: max slice length
        n_epochs = -(-per_node // wl.batch)
        think = wl.think_cycles
        start_read, end_read = ctx.start_read, ctx.end_read
        start_write, end_write = ctx.start_write, ctx.end_write
        latency = []  # one Histogram at return: an append per request
        record = latency.append
        served = 0
        for e in range(n_epochs):
            # this node's batch as Python scalars: no numpy scalar per field per request
            sl = slice(nid + e * span, nid + (e + 1) * span, n_procs)
            for arr, k, rd, s, v in zip(arrival[sl].tolist(), keys[sl].tolist(),
                                        is_read[sl].tolist(), shard[sl].tolist(),
                                        value[sl].tolist()):
                # arrival wait + think time, one charge: nothing is read between them
                if wait := arr - sim.now + think if arr > sim.now else think:
                    yield _POOL[wait] if wait < _POOL_SIZE else Delay(wait)
                h = handles.get(k)
                if h is None:
                    h = yield from ctx.map(rids[k])
                    handles[k] = h
                if rd:
                    yield from start_read(h)
                    _ = h.data[0]
                    yield from end_read(h)
                    counters[read_key[s]] += 1
                else:
                    yield from start_write(h)
                    h.data[0] = v
                    yield from end_write(h)
                    counters[write_key[s]] += 1
                record(sim.now - arr)
                served += 1
            # Control epoch: sample → decide (host-side, zero cycles) →
            # apply.  Both barriers run in every mode, every epoch.
            yield from ctx.barrier()
            if nid == 0:
                shared["changes"] = sorted(
                    controller.epoch(e, ctx.machine.stats, metrics).items()
                )
            yield from ctx.barrier()
            for s, proto in shared["changes"]:
                yield from ctx.change_protocol(sids[s], proto)
                for k in wl.keys_of_shard(s):
                    handles.pop(k, None)  # generation bumped: stale
        yield from ctx.barrier()
        return {"served": served, "latency": Histogram.of(latency)}

    return program


def run_serve(
    workload: ServeWorkload,
    *,
    protocol: str | None = None,
    protocols: dict[int, str] | None = None,
    controller=None,
    n_procs: int = 8,
    metrics_width: int | None = None,
    fault_plan=None,
    n_dir_shards: int = 1,
    **spmd_kwargs,
):
    """Run one serving scenario; returns ``(RunResult, report)``.

    Exactly one protocol choice mechanism applies: a ``controller``
    (e.g. :class:`~repro.serve.controller.AdaptiveController`), an
    explicit per-shard ``protocols`` dict, or a uniform ``protocol``
    name (default ``"SC"``).  ``metrics_width`` attaches a
    :class:`~repro.obs.MetricsWindow` through a small
    :class:`~repro.obs.TraceBuffer` — cycle-neutral, and on by default
    for adaptive runs so the controller's audit trail has the message
    mix and stall series an operator would be watching.
    """
    if controller is None:
        if protocols is None:
            protocols = {s: protocol or "SC" for s in range(workload.n_shards)}
        elif protocol is not None:
            raise ValueError("pass either protocol= or protocols=, not both")
        if sorted(protocols) != list(range(workload.n_shards)):
            raise ValueError(f"protocols must cover shards 0..{workload.n_shards - 1}")
        controller = StaticController(protocols)
    elif protocol is not None or protocols is not None:
        raise ValueError("pass either controller= or protocol(s)=, not both")
    if metrics_width is None and controller.adaptive:
        metrics_width = 4096
    metrics = MetricsWindow(width=metrics_width) if metrics_width else None
    tracer = TraceBuffer(capacity=1 << 12, metrics=metrics) if metrics else None

    initial = dict(controller.protocols)
    traffic = build_traffic(workload, n_procs)
    shared: dict = {"rids": {}, "changes": []}
    program = serve_program(workload, traffic, controller, shared, metrics)
    res = run_spmd(
        program, backend="ace", n_procs=n_procs, tracer=tracer,
        fault_plan=fault_plan, n_dir_shards=n_dir_shards, **spmd_kwargs,
    )

    latency = Histogram()
    served = 0
    for node in res.results:
        latency.merge(node["latency"])
        served += node["served"]
    stats = res.stats
    shard_mix = {
        s: {"reads": stats.get(f"serve.shard{s}.reads"),
            "writes": stats.get(f"serve.shard{s}.writes")}
        for s in range(workload.n_shards)
    }
    report = {
        "mode": "adaptive" if controller.adaptive else "static",
        "workload": workload.to_dict(),
        "traffic": traffic_digest(traffic),
        "n_procs": n_procs,
        "n_dir_shards": n_dir_shards,
        "protocols_initial": initial,
        "protocols_final": dict(controller.protocols),
        "switches": controller.switches,
        "requests": served,
        "cycles": res.time,
        "events": res.machine.sim.events,
        "req_per_kcycle": round(served / res.time * 1000, 3) if res.time else None,
        "latency": latency.summary(),
        "msgs": stats.get("msg.total"),
        "words": stats.get("msg.words"),
        "shard_mix": shard_mix,
    }
    if metrics is not None:
        report["metrics"] = metrics.summary(res.time, n_procs)
    if controller.adaptive:
        report["decisions"] = controller.audit()
    return res, report
