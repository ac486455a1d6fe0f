"""Exact cycle attribution over the causal trace.

Every node's timeline ``[0, res.time)`` is decomposed into disjoint
buckets — compute, message-round waits, lock waits, barrier waits,
directory service, retry overhead, join waits, and post-finish idle —
by pairing each kernel ``task.block`` event with the task's next
``task.step``.  Between those two events the node's main task is
provably off-CPU waiting on exactly the future named in the block
event, so the decomposition *reconciles exactly*::

    sum(all buckets over all nodes) == res.time * n_nodes

:func:`attribute` asserts that identity (when no ring evictions
occurred) and additionally splits every wait span per phase (from
``phase.begin``/``phase.end`` marks), per region (from ``dsm.miss`` /
``lock.request`` context and rids embedded in future names), and per
protocol (joining ``region.alloc`` with the ``space.new`` /
``space.protocol`` timeline).

The *compute* bucket is the residual on-CPU time and therefore
includes local protocol software overhead (hit checks, miss-path
set-up costs) — the per-op ``Stats`` counters refine that further if
needed.  Handler dispatches model the coprocessor and are not charged
to the node timeline (the main task keeps computing through them
unless it blocks).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict

__all__ = [
    "BUCKETS",
    "WAIT_BUCKETS",
    "AttributionError",
    "Attribution",
    "attribute",
    "classify_wait",
    "classify_category",
    "phase_intervals",
]

#: Wait buckets a blocked span can land in (plus the residuals).
WAIT_BUCKETS = ("msg", "lock", "barrier", "dir", "retry", "join", "other")
BUCKETS = ("compute",) + WAIT_BUCKETS + ("idle",)

#: RPC-category suffixes served by the directory (home-side metadata
#: service) rather than by a peer protocol round.
_DIR_SUFFIXES = frozenset({"read_req", "write_req", "map_lookup", "flush", "grant_ack"})

#: Future-name tags of the form ``tag:<rid>@<node>`` whose rid we can
#: recover directly from the name.
_RID_TAGS = frozenset({"lock", "read", "write", "ctr", "mig", "du"})


class AttributionError(AssertionError):
    """The decomposition failed to reconcile (overlapping or negative spans)."""


def classify_category(cat: str) -> str:
    """Bucket for an RPC/retry category string (e.g. ``ace.sc.read_req``)."""
    if cat == "barrier.notify":
        return "barrier"
    if ".lock." in f".{cat}.":
        return "lock"
    if cat.rpartition(".")[2] in _DIR_SUFFIXES:
        return "dir"
    return "msg"


def _rid_of(rest: str):
    head = rest.partition("@")[0]
    return int(head) if head.isdigit() else None


def classify_wait(name: str):
    """Classify a future name → ``(bucket, rid_or_None, proto_or_None)``.

    Future names double as structured wait reasons: ``rpc:<category>``
    and ``rel:<category>`` carry the message category, local waits like
    ``lock:<rid>@<node>`` carry the region id, protocol-internal
    rounds (``ctr:``/``mig:``/``bu:``/``su:``/``pw:``/``rd:``/``du:``/
    fanouts) are message waits.
    """
    tag, sep, rest = name.partition(":")
    if not sep:
        return ("other", None, None)
    if tag in ("rpc", "rel"):
        proto = rest.split(".")[1] if rest.startswith("proto.") else None
        return (classify_category(rest), None, proto)
    if tag == "lock":
        return ("lock", _rid_of(rest), None)
    if tag in ("read", "write"):
        return ("dir", _rid_of(rest), None)
    if tag in ("hw_barrier", "barrier"):
        return ("barrier", None, None)
    if tag == "done":
        return ("join", None, None)
    if tag in _RID_TAGS:
        return ("msg", _rid_of(rest), None)
    # Remaining protocol rounds (bu:ship, su:barrier, pw:drain,
    # rd:push, <coll>:fanout, ...) are peer message waits.
    return ("msg", None, None)


def phase_intervals(events, total: int):
    """Flatten ``phase.begin``/``phase.end`` marks into a disjoint,
    complete partition of ``[0, total)`` as ``[(t0, t1, name), ...]``
    (``name`` is ``None`` outside any phase; nesting shows the
    innermost phase)."""
    intervals = []
    stack = []  # phase names
    cur_start = 0
    cur_name = None

    def close(ts):
        nonlocal cur_start
        if ts > cur_start:
            intervals.append((cur_start, ts, cur_name))
        cur_start = ts

    for ev in events:
        if ev.kind == "phase.begin":
            close(ev.ts)
            stack.append(ev.data)
            cur_name = ev.data
        elif ev.kind == "phase.end":
            close(ev.ts)
            if stack:
                stack.pop()
            cur_name = stack[-1] if stack else None
    close(total)
    return intervals


class Attribution:
    """Result of :func:`attribute`: exact per-node cycle decomposition."""

    __slots__ = (
        "total",
        "n_nodes",
        "res_time",
        "buckets",
        "per_node",
        "per_phase",
        "per_region",
        "per_protocol",
        "spans",
        "dropped",
        "exact",
    )

    def __init__(self):
        self.buckets: dict = {}
        self.per_node: dict = {}
        self.per_phase: dict = {}
        self.per_region: dict = {}
        self.per_protocol: dict = {}
        self.spans: dict = {}
        self.dropped = 0
        self.exact = True
        self.total = 0
        self.n_nodes = 0
        self.res_time = 0

    def reconciles(self) -> bool:
        """True iff the bucket sum equals ``res_time * n_nodes`` exactly."""
        return sum(self.buckets.values()) == self.total

    def to_dict(self) -> dict:
        """JSON-friendly form (what ``repro profile`` writes)."""
        return {
            "res_time": self.res_time,
            "n_nodes": self.n_nodes,
            "total": self.total,
            "exact": self.exact,
            "dropped": self.dropped,
            "reconciles": self.reconciles(),
            "buckets": dict(self.buckets),
            "per_node": {str(n): dict(b) for n, b in sorted(self.per_node.items())},
            "per_phase": {str(p): dict(b) for p, b in self.per_phase.items()},
            "per_region": {str(r): dict(b) for r, b in sorted(self.per_region.items())},
            "per_protocol": {str(p): dict(b) for p, b in sorted(self.per_protocol.items())},
        }


def _proto_at(timeline, ts):
    """Protocol name active at ``ts`` given ``[(ts, name), ...]`` sorted."""
    name = None
    for t, n in timeline:
        if t > ts:
            break
        name = n
    return name


def attribute(buf, res_time: int, n_nodes: int, strict: bool = True) -> Attribution:
    """Decompose node timelines into cycle buckets; see module docstring.

    ``buf`` is a :class:`~repro.obs.trace.TraceBuffer` (or a plain
    event list).  With ``strict`` (default) an
    :class:`AttributionError` is raised if the sum check fails while
    the ring recorded every event; with evictions (``dropped > 0``)
    the result is still produced but flagged ``exact=False`` — evicted
    block events silently fold their spans into *compute*.
    """
    events = buf.events() if hasattr(buf, "events") else list(buf)
    dropped = getattr(buf, "dropped", 0)

    T = res_time
    open_block: dict[int, tuple] = {}  # node -> (t0, wait_name, rid_ctx)
    spans = defaultdict(list)  # node -> [(t0, t1, bucket, rid, proto)]
    finish: dict[int, int] = {}
    pending_rid: dict[int, int] = {}  # node -> region id of the imminent wait
    retry_ts = defaultdict(list)  # node -> [ts, ...] of rel.retry fires
    region_space: dict[int, int] = {}  # rid -> sid
    space_proto = defaultdict(list)  # sid -> [(ts, proto)]

    def node_of(task_name):
        if task_name.startswith("proc"):
            rest = task_name[4:]
            if rest.isdigit():
                return int(rest)
        return None

    for ev in events:
        kind = ev.kind
        if kind == "task.block":
            nid = node_of(ev.data["task"])
            if nid is not None:
                open_block[nid] = (ev.ts, ev.data["on"], pending_rid.pop(nid, None))
        elif kind == "task.step":
            nid = node_of(ev.data)
            if nid is not None and nid in open_block:
                t0, wait_name, rid_ctx = open_block.pop(nid)
                spans[nid].append((t0, ev.ts, wait_name, rid_ctx))
        elif kind == "task.finish":
            nid = node_of(ev.data)
            if nid is not None:
                finish[nid] = ev.ts
        elif kind == "dsm.miss" or kind == "lock.request":
            if ev.node >= 0:
                pending_rid[ev.node] = ev.data["rid"]
        elif kind == "rel.retry":
            if ev.node >= 0:
                retry_ts[ev.node].append(ev.ts)
        elif kind == "region.alloc":
            region_space[ev.data["rid"]] = ev.data["sid"]
            space_proto[ev.data["sid"]].append((ev.ts, ev.data["proto"]))
        elif kind == "space.new" or kind == "space.protocol":
            space_proto[ev.data["sid"]].append((ev.ts, ev.data["protocol"]))

    # A block with no subsequent step (crash/deadlock) waits to the end.
    for nid, (t0, wait_name, rid_ctx) in open_block.items():
        spans[nid].append((t0, T, wait_name, rid_ctx))

    for timeline in space_proto.values():
        timeline.sort()

    phases = phase_intervals(events, T)
    phase_starts = [p[0] for p in phases]

    out = Attribution()
    out.res_time = T
    out.n_nodes = n_nodes
    out.total = T * n_nodes
    out.dropped = dropped
    out.exact = dropped == 0

    buckets = defaultdict(int)
    per_node = {n: defaultdict(int) for n in range(n_nodes)}
    per_phase = defaultdict(lambda: defaultdict(int))
    per_region = defaultdict(lambda: defaultdict(int))
    per_protocol = defaultdict(lambda: defaultdict(int))

    def split_by_phase(t0, t1, bucket):
        """Charge [t0, t1) to ``bucket`` within each overlapping phase."""
        if t1 <= t0:
            return
        i = max(bisect_right(phase_starts, t0) - 1, 0)
        while i < len(phases) and phases[i][0] < t1:
            p0, p1, name = phases[i]
            ov = min(t1, p1) - max(t0, p0)
            if ov > 0:
                per_phase[name if name is not None else "(no phase)"][bucket] += ov
            i += 1

    for nid in range(n_nodes):
        node_spans = sorted(spans.get(nid, ()))
        fin = finish.get(nid, T)
        idle = T - fin
        classified = []  # (t0, t1, bucket, rid, proto)
        retries = retry_ts.get(nid, ())
        for t0, t1, wait_name, rid_ctx in node_spans:
            bucket, rid, proto = classify_wait(wait_name)
            if rid is None:
                rid = rid_ctx
            if proto is None and rid is not None and rid in region_space:
                proto = _proto_at(space_proto[region_space[rid]], t0)
            if wait_name.startswith("rel:") and retries:
                # Retry overhead: the tail of a retried wait, from the
                # first retransmission on, is protocol recovery cost
                # rather than first-attempt latency.
                i = bisect_left(retries, t0)
                if i < len(retries) and retries[i] < t1:
                    rt = retries[i]
                    if rt > t0:
                        classified.append((t0, rt, bucket, rid, proto))
                    classified.append((rt, t1, "retry", rid, proto))
                    continue
            classified.append((t0, t1, bucket, rid, proto))

        wait_total = 0
        prev_end = 0
        for t0, t1, bucket, rid, proto in classified:
            if t0 < prev_end or t1 > fin:
                raise AttributionError(
                    f"node {nid}: wait span [{t0},{t1}) overlaps or exceeds "
                    f"finish {fin} — trace stream inconsistent"
                )
            prev_end = t1
            length = t1 - t0
            wait_total += length
            buckets[bucket] += length
            per_node[nid][bucket] += length
            split_by_phase(t0, t1, bucket)
            if rid is not None:
                per_region[rid][bucket] += length
            per_protocol[proto if proto is not None else "-"][bucket] += length
            # Compute between consecutive waits is charged per phase via
            # the gap [prev span end, this span start).
        # Phase-split the on-CPU gaps and the idle tail.
        gap_start = 0
        for t0, t1, _, _, _ in classified:
            split_by_phase(gap_start, t0, "compute")
            gap_start = t1
        split_by_phase(gap_start, fin, "compute")
        split_by_phase(fin, T, "idle")

        compute = T - idle - wait_total
        if compute < 0:
            raise AttributionError(
                f"node {nid}: wait spans ({wait_total}) exceed active time "
                f"({T - idle}) — trace stream inconsistent"
            )
        buckets["compute"] += compute
        buckets["idle"] += idle
        per_node[nid]["compute"] = compute
        per_node[nid]["idle"] = idle
        out.spans[nid] = classified

    out.buckets = dict(buckets)
    out.per_node = {n: dict(b) for n, b in per_node.items()}
    out.per_phase = {p: dict(b) for p, b in per_phase.items()}
    out.per_region = {r: dict(b) for r, b in per_region.items()}
    out.per_protocol = {p: dict(b) for p, b in per_protocol.items()}

    if strict and out.exact and not out.reconciles():
        raise AttributionError(
            f"attribution does not reconcile: bucket sum "
            f"{sum(out.buckets.values())} != {out.total} (= {T} x {n_nodes})"
        )
    return out
