"""Exporters and summarizers for :class:`~repro.obs.trace.TraceBuffer`.

Three consumers, three formats:

* :func:`to_jsonl` — one JSON object per event, for grep/jq/pandas;
* :func:`to_perfetto` — Chrome ``trace_event`` JSON that loads in
  https://ui.perfetto.dev (or ``chrome://tracing``): one track per
  node, instant events for messages and state transitions, flow
  arrows for the causal send→receive edges, complete slices for RPC
  round trips, and B/E slices for application phases.  Simulated
  cycles map 1:1 to the viewer's microseconds;
* :func:`run_summary` — the per-(app, protocol) breakdown ``repro
  trace`` prints: message counts by category, stall cycles spent
  blocked on RPC round trips, and latency-histogram digests.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.trace import Histogram, TraceBuffer, TraceEvent

#: A node id of -1 means "no single node"; Perfetto still needs a track.
GLOBAL_TRACK = "global"


def event_dict(ev: TraceEvent) -> dict:
    """JSON-friendly view of one event (omits empty parent/data)."""
    d = {"id": ev.eid, "ts": ev.ts, "layer": ev.layer, "kind": ev.kind, "node": ev.node}
    if ev.parent != -1:
        d["parent"] = ev.parent
    if ev.data is not None:
        d["data"] = ev.data
    return d


def to_jsonl(buf: TraceBuffer, path) -> int:
    """Write the buffer as JSON Lines; returns the number of events written.

    The first line is a header record (``{"trace": ...}``) carrying the
    drop count and histogram digests, so a ``.trace.jsonl`` file is
    self-describing.
    """
    events = buf.events()
    header = {
        "trace": {
            "events": len(events),
            "dropped": buf.dropped,
            "hists": {name: h.summary() for name, h in sorted(buf.hists.items()) if h.count},
        }
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for ev in events:
            fh.write(json.dumps(event_dict(ev)) + "\n")
    return len(events)


# ---------------------------------------------------------------- perfetto
def _tid(node: int, n_tracks: int) -> int:
    return node if node >= 0 else n_tracks


def to_perfetto(buf: TraceBuffer, path) -> int:
    """Write Chrome/Perfetto ``trace_event`` JSON; returns event count.

    Mapping (1 simulated cycle = 1 viewer microsecond):

    * every event → an instant (``ph: "i"``) on its node's track;
    * ``msg.send`` → matching ``msg.recv`` (by causal parent) → a flow
      arrow (``ph: "s"`` / ``"f"``) between the two tracks;
    * ``rpc.call``/``rpc.return`` pairs → a complete slice
      (``ph: "X"``) whose duration is the round-trip latency;
    * ``phase.begin``/``phase.end`` → B/E slices on the global track;
    * an attached :class:`~repro.obs.metrics.MetricsWindow` → counter
      tracks (``ph: "C"``), one per windowed series.

    A ``msg.recv`` whose send was evicted by the ring gets no flow
    arrow; such orphaned edges are counted in ``otherData`` rather than
    silently dropped.
    """
    events = buf.events()
    n_tracks = max((ev.node for ev in events), default=-1) + 1
    out: list[dict] = []
    for tid in range(n_tracks):
        out.append(
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
             "args": {"name": f"node{tid}"}}
        )
    out.append(
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": n_tracks,
         "args": {"name": GLOBAL_TRACK}}
    )

    sends: dict[int, TraceEvent] = {}
    calls: dict[int, TraceEvent] = {}
    for ev in events:
        if ev.kind == "msg.send":
            sends[ev.eid] = ev
        elif ev.kind == "rpc.call":
            calls[ev.eid] = ev

    orphaned = 0
    for ev in events:
        tid = _tid(ev.node, n_tracks)
        args = ev.data if isinstance(ev.data, dict) else ({"data": ev.data} if ev.data is not None else {})
        kind = ev.kind
        if kind == "phase.begin":
            out.append({"ph": "B", "name": str(ev.data), "cat": ev.layer,
                        "ts": ev.ts, "pid": 0, "tid": n_tracks})
            continue
        if kind == "phase.end":
            out.append({"ph": "E", "name": str(ev.data), "cat": ev.layer,
                        "ts": ev.ts, "pid": 0, "tid": n_tracks})
            continue
        if kind == "rpc.return":
            call = calls.get(ev.parent)
            if call is None:
                # Evicted call: render the return as a plain instant
                # below instead of a slice of unknowable start.
                orphaned += 1
            else:
                out.append({
                    "ph": "X", "name": f"rpc:{call.data.get('category', 'rpc')}",
                    "cat": call.layer, "ts": call.ts, "dur": max(ev.ts - call.ts, 1),
                    "pid": 0, "tid": _tid(call.node, n_tracks), "args": dict(call.data),
                })
                continue
        name = kind
        if isinstance(ev.data, dict) and "category" in ev.data:
            name = f"{kind}:{ev.data['category']}"
        out.append({"ph": "i", "name": name, "cat": ev.layer, "ts": ev.ts,
                    "pid": 0, "tid": tid, "s": "t", "args": args})
        if kind == "msg.recv":
            send = sends.get(ev.parent)
            if send is None:
                # The causal parent was evicted from the ring (or the
                # event is a synthetic root): no flow arrow to draw.
                if ev.parent != -1:
                    orphaned += 1
                continue
            flow = {"cat": ev.layer, "name": name, "id": ev.parent, "pid": 0}
            out.append({**flow, "ph": "s", "ts": send.ts, "tid": _tid(send.node, n_tracks)})
            out.append({**flow, "ph": "f", "bp": "e", "ts": ev.ts, "tid": tid})

    if buf.metrics is not None:
        out.extend(buf.metrics.perfetto_counters())

    doc = {"traceEvents": out, "displayTimeUnit": "ms",
           "otherData": {"dropped": buf.dropped, "orphaned_edges": orphaned,
                         "clock": "simulated cycles (as us)"}}
    Path(path).write_text(json.dumps(doc) + "\n")
    return len(events)


# ---------------------------------------------------------------- summaries
def cluster_hists(buf: TraceBuffer) -> dict:
    """Buffer histograms with per-node RPC hists folded cluster-wide.

    The traced machine records RPC round-trip latencies per source node
    (``node<i>.rpc.<category>``); this view merges each category's
    per-node histograms into one ``rpc.<category>`` histogram via
    :meth:`~repro.obs.trace.Histogram.merge` — percentile-exact, since
    bucket counts simply add.  Non-RPC histograms (lock hold times,
    etc.) pass through by reference.
    """
    merged: dict[str, Histogram] = {}
    for name in sorted(buf.hists):
        h = buf.hists[name]
        head, _, rest = name.partition(".")
        if head.startswith("node") and head[4:].isdigit() and rest.startswith("rpc."):
            tgt = merged.get(rest)
            merged[rest] = h.copy() if tgt is None else tgt.merge(h)
        else:
            merged[name] = h
    return merged


def stall_cycles(buf: TraceBuffer) -> dict:
    """Cycles tasks spent blocked on RPC round trips, by category.

    Fed from the per-node ``node<i>.rpc.<category>`` histograms the
    traced machine records (merged cluster-wide); the total is the
    trace-level analogue of the paper's "stall time".
    """
    return {
        name[len("rpc."):]: h.total
        for name, h in cluster_hists(buf).items()
        if name.startswith("rpc.")
    }


def orphaned_edges(buf: TraceBuffer) -> int:
    """Surviving events whose causal parent was evicted from the ring.

    Zero whenever ``buf.dropped`` is zero; exporters use this to
    report "N edges lost to eviction" instead of silently omitting
    flow arrows.
    """
    if buf.dropped == 0:
        return 0
    events = buf.events()
    if not events:
        return 0
    oldest = events[0].eid
    return sum(1 for ev in events if ev.parent != -1 and ev.parent < oldest)


def per_node_messages(stats) -> dict:
    """Per-node sent/received message counts from the traced counters.

    The traced delivery path bumps ``node<i>.msg.sent`` /
    ``node<i>.msg.recv`` (see :class:`~repro.machine.machine.Machine`);
    returns ``{nid: {"sent": s, "recv": r}}`` for nodes that appear.
    """
    out: dict[int, dict] = {}
    for nid, counters in stats.by_node("msg").items():
        slot = out[nid] = {"sent": 0, "recv": 0}
        for rest, v in counters.items():
            slot[rest[4:]] = v
    return out


def run_summary(result, buf: TraceBuffer) -> dict:
    """The full per-run digest ``repro trace`` renders.

    ``result`` is a :class:`~repro.facade.context.RunResult` from a run
    with ``tracer=buf``.
    """
    stats = result.stats
    msg = {k[len("msg."):]: v for k, v in stats.with_prefix("msg").items()
           if k not in ("msg.total", "msg.words")}
    stalls = stall_cycles(buf)
    out = {
        "cycles": result.time,
        "msg_total": stats.get("msg.total"),
        "msg_words": stats.get("msg.words"),
        "mix": dict(sorted(msg.items(), key=lambda kv: -kv[1])),
        "stall_cycles": stalls,
        "stall_total": sum(stalls.values()),
        "per_node": {str(nid): slot for nid, slot in per_node_messages(stats).items()},
        "hists": {name: h.summary() for name, h in sorted(cluster_hists(buf).items()) if h.count},
        "events": len(buf),
        "dropped": buf.dropped,
        "orphaned_edges": orphaned_edges(buf),
        "phases": {name: dict(delta) for name, delta in stats.phases.items()},
    }
    if buf.metrics is not None:
        out["metrics"] = buf.metrics.summary(result.time, result.machine.n_procs)
    return out

