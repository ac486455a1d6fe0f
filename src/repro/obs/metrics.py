"""Windowed time-series metrics: cheap enough to leave on.

A :class:`MetricsWindow` divides simulated time into fixed-width
windows and keeps a handful of counters per window — message mix,
words moved, RPC stall cycles, task blocks, and region state
transitions (per state and per region).  It attaches to a
:class:`~repro.obs.trace.TraceBuffer` at construction
(``TraceBuffer(metrics=...)``) and is fed **inline at emit time**, so
it sees every event exactly once even after the ring has evicted it.
A small ring plus a metrics window is the "leave it on" configuration:
bounded memory, full-run time series.

The cost model matters: :meth:`observe` runs for *every* traced event,
so the first line is a frozenset membership test that rejects the
~80 % of events it does not track, and the window row is cached across
consecutive observations (simulated time is monotone, so the cache
almost always hits).  With observability off the window is never
constructed and costs literally nothing — the usual construction-time
resolution discipline.

Exports: :meth:`MetricsWindow.rows` (sparse, sorted, JSON-friendly),
:meth:`MetricsWindow.to_jsonl`, and
:meth:`MetricsWindow.perfetto_counters` (Chrome ``ph: "C"`` counter
tracks that render as area charts under the event tracks in the
Perfetto UI — :func:`repro.obs.export.to_perfetto` appends them
automatically when the buffer has a window attached).
"""

from __future__ import annotations

import json
from collections import Counter

from repro.machine.stats import Counts

#: Event kinds a MetricsWindow accumulates; everything else is rejected
#: by one frozenset probe.
TRACKED_KINDS = frozenset({"msg.send", "rpc.return", "region.state", "task.block"})


class MetricsWindow:
    """Fixed-width windowed counters over the trace event stream.

    ``width`` is the window size in simulated cycles.  Rows are sparse:
    a window with no tracked events allocates nothing.
    """

    __slots__ = ("width", "_rows", "_cur", "_cur_w", "observed")

    def __init__(self, width: int = 4096):
        if width <= 0:
            raise ValueError(f"window width must be positive: {width}")
        self.width = width
        #: window index -> mutable row dict (see _new_row for the shape)
        self._rows: dict[int, dict] = {}
        self._cur: dict | None = None
        self._cur_w = -1
        #: total tracked events observed (drop-proof, unlike len(buf))
        self.observed = 0

    @staticmethod
    def _new_row() -> dict:
        return {
            "msgs": 0,
            "words": 0,
            "rpcs": 0,
            "stall": 0,
            "blocks": 0,
            "transitions": 0,
            "mix": Counts(),
            "states": Counts(),
            "rids": Counts(),
        }

    # -- the hot path ----------------------------------------------------
    def observe(self, ts: int, kind: str, data) -> None:
        """Accumulate one event; called inline by a metered buffer's emit closures."""
        if kind not in TRACKED_KINDS:
            return
        w = ts // self.width
        row = self._cur
        if w != self._cur_w:
            row = self._rows.get(w)
            if row is None:
                row = self._rows[w] = self._new_row()
            self._cur = row
            self._cur_w = w
        self.observed += 1
        if kind == "msg.send":
            row["msgs"] += 1
            if isinstance(data, dict):
                row["words"] += data.get("words", 0)
                row["mix"][data.get("category", "?")] += 1
        elif kind == "rpc.return":
            row["rpcs"] += 1
            if isinstance(data, dict):
                row["stall"] += data.get("lat", 0)
        elif kind == "task.block":
            row["blocks"] += 1
        elif kind == "region.state":
            row["transitions"] += 1
            if isinstance(data, dict):
                row["states"][data.get("state", "?")] += 1
                row["rids"][data.get("rid", -1)] += 1
        else:
            # Every member of TRACKED_KINDS must have an explicit branch
            # above: a kind that passes the frozenset gate but reaches
            # here means someone extended TRACKED_KINDS without teaching
            # the dispatch, and silently folding it into another bucket
            # would corrupt the series.
            raise ValueError(f"tracked event kind {kind!r} has no dispatch branch")

    # -- reading ---------------------------------------------------------
    def rows(self) -> list[dict]:
        """Sparse rows, sorted by window, with start/end cycle stamps."""
        out = []
        for w in sorted(self._rows):
            row = self._rows[w]
            out.append({
                "window": w,
                "start": w * self.width,
                "end": (w + 1) * self.width,
                "msgs": row["msgs"],
                "words": row["words"],
                "rpcs": row["rpcs"],
                "stall": row["stall"],
                "blocks": row["blocks"],
                "transitions": row["transitions"],
                "mix": dict(sorted(row["mix"].items())),
                "states": dict(sorted(row["states"].items())),
                "rids": {str(k): v for k, v in sorted(row["rids"].items())},
            })
        return out

    def summary(self, total_cycles: int | None = None, n_nodes: int | None = None) -> dict:
        """Whole-run totals; adds ``stall_fraction`` when the run shape is known.

        ``stall_fraction`` is total RPC stall cycles over total node-cycles
        (``total_cycles * n_nodes``) — the fraction of aggregate capacity
        spent blocked on round trips.  A degenerate shape (zero cycles or
        zero nodes — an empty run) reports ``stall_fraction: None`` rather
        than dividing by zero or silently omitting the key.
        """
        totals = Counter()
        mix: Counter = Counter()
        states: Counter = Counter()
        for row in self._rows.values():
            for k in ("msgs", "words", "rpcs", "stall", "blocks", "transitions"):
                totals[k] += row[k]
            mix.update(row["mix"])
            states.update(row["states"])
        out = {
            "width": self.width,
            "windows": len(self._rows),
            "observed": self.observed,
            **{k: totals[k] for k in ("msgs", "words", "rpcs", "stall", "blocks", "transitions")},
            "mix": dict(sorted(mix.items(), key=lambda kv: -kv[1])),
            "states": dict(sorted(states.items())),
        }
        if total_cycles is not None and n_nodes is not None:
            capacity = total_cycles * n_nodes
            out["stall_fraction"] = round(totals["stall"] / capacity, 4) if capacity else None
        return out

    # -- exports ---------------------------------------------------------
    def to_jsonl(self, path) -> int:
        """One JSON row per window (header first); returns rows written."""
        rows = self.rows()
        with open(path, "w") as fh:
            fh.write(json.dumps({"metrics": self.summary()}) + "\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return len(rows)

    def perfetto_counters(self, pid: int = 0) -> list[dict]:
        """Chrome ``trace_event`` counter records (``ph: "C"``).

        One counter track per scalar series, stamped at each window's
        start cycle; Perfetto renders them as step charts.  Windows with
        no events between two populated ones get explicit zero samples
        so the chart drops to the baseline instead of interpolating.
        """
        out: list[dict] = []
        series = ("msgs", "words", "rpcs", "stall", "blocks", "transitions")
        prev_w = None
        for w in sorted(self._rows):
            if prev_w is not None and w > prev_w + 1:
                ts = (prev_w + 1) * self.width
                for name in series:
                    out.append({"ph": "C", "name": f"{name}/window", "pid": pid,
                                "ts": ts, "args": {name: 0}})
            row = self._rows[w]
            ts = w * self.width
            for name in series:
                out.append({"ph": "C", "name": f"{name}/window", "pid": pid,
                            "ts": ts, "args": {name: row[name]}})
            prev_w = w
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsWindow(width={self.width}, windows={len(self._rows)}, observed={self.observed})"
