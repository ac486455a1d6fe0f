"""The one report every ``python -m repro`` subcommand writes.

A report is one JSON document:

* a header: ``schema`` (:data:`SCHEMA`), ``command``, ``stamp`` and ``host``;
* ``runs``: one record per simulated run, each built by :func:`run_record`;
* ``checks``: the verdicts the exit code is made of, each built by
  :func:`check`.

:func:`validate` holds a document to that shape and to plain JSON; it
runs on every report written and on every report read back.
:func:`compare` is the one comparator: it pairs two reports' runs by
cell.
"""

from __future__ import annotations

import math

SCHEMA = 1

#: what identifies a run: the comparator pairs runs on these
CELL_KEYS = ("suite", "app", "variant", "procs", "plan", "seed")

#: a record's fault and retry counters, by the stats key each reads
FAULT_COUNTERS = {"drop": "fault.drop", "dup": "fault.dup", "delay": "fault.delay",
                  "retries": "rel.retry"}

#: what every record carries, then the optional sections, one per kind of run
RECORD_KEYS = ("cell", "cycles", "events", "faults", "stall", "fault_plan")
SECTIONS = ("trace", "attribution", "critical_path", "metrics", "recovery", "serve", "sanitize")

REPORT_KEYS = ("schema", "command", "stamp", "host", "runs", "checks")
CHECK_KEYS = ("name", "ok", "detail")


def run_record(cell: dict, result=None, *, stall=None, fault_plan=None, **sections) -> dict:
    """One run: its ``cell``, what its :class:`~repro.facade.context.RunResult`
    measured, and its ``sections``.  A run that stalled has no result;
    its ``stall`` is the :class:`~repro.dsm.StallReport` as a dict, and
    ``fault_plan`` is the plan a run was armed with."""
    return {
        "cell": {key: cell.get(key) for key in CELL_KEYS},
        "cycles": None if result is None else result.time,
        "events": None if result is None else result.machine.sim.events,
        "faults": None if result is None else {
            name: result.stats.get(key) for name, key in FAULT_COUNTERS.items()
        },
        "stall": stall,
        "fault_plan": fault_plan,
        **sections,
    }


def check(name: str, ok: bool, detail: str = "") -> dict:
    """One verdict: what was checked, whether it held, and what was seen."""
    return {"name": name, "ok": bool(ok), "detail": detail}


def cell_tag(cell: dict) -> str:
    """``TSP-SC-2-canonical-0``: a cell's set keys but its suite."""
    return "-".join(str(cell[k]) for k in CELL_KEYS[1:] if cell.get(k) is not None)


def suite_events(runs: list[dict]) -> dict:
    """Kernel events summed per suite, in first-seen suite order."""
    totals: dict = {}
    for rec in runs:
        suite = rec["cell"]["suite"]
        totals[suite] = totals.get(suite, 0) + (rec["events"] or 0)
    return totals


# ---------------------------------------------------------------- validation
def _plain(value, where: str) -> None:
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise ValueError(f"{where}: key {key!r} is not a string")
            _plain(item, f"{where}.{key}")
    elif kind is list:
        for i, item in enumerate(value):
            _plain(item, f"{where}[{i}]")
    elif kind is float:
        if not math.isfinite(value):
            raise ValueError(f"{where}: {value} is not a JSON number")
    elif kind not in (str, int, bool, type(None)):
        raise ValueError(f"{where}: a {kind.__name__} is not plain JSON")


def _fields(value, where: str, required: tuple, optional: tuple = ()) -> None:
    if type(value) is not dict:
        raise ValueError(f"{where}: expected an object")
    missing = [k for k in required if k not in value]
    extra = [k for k in value if k not in required + optional]
    if missing or extra:
        raise ValueError(f"{where}: missing {missing}, unknown {extra}")


def validate(doc) -> dict:
    """``doc``, if it is a schema-:data:`SCHEMA` report of plain JSON;
    otherwise ``ValueError`` naming the first offending field.  Plain
    JSON is what reads back unchanged: string keys, lists, finite
    numbers; an int key or a tuple, which ``json`` would quietly turn
    into a string or a list, is refused."""
    if type(doc) is dict and doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown report schema {doc.get('schema')!r} (expected {SCHEMA})")
    _fields(doc, "report", REPORT_KEYS)
    _plain(doc, "report")
    if type(doc["runs"]) is not list or type(doc["checks"]) is not list:
        raise ValueError("report: runs and checks must be lists")
    for i, rec in enumerate(doc["runs"]):
        where = f"runs[{i}]"
        _fields(rec, where, RECORD_KEYS, SECTIONS)
        _fields(rec["cell"], f"{where}.cell", CELL_KEYS)
        for key in ("cycles", "events"):
            if rec[key] is None and rec["stall"] is None:
                raise ValueError(f"{where}: no {key} and no stall")
    for i, verdict in enumerate(doc["checks"]):
        _fields(verdict, f"checks[{i}]", CHECK_KEYS)
        if type(verdict["ok"]) is not bool:
            raise ValueError(f"checks[{i}].ok: expected true or false")
    return doc


# ---------------------------------------------------------------- comparison
def compare(report: dict, baseline: dict, gate: bool = False) -> list[dict]:
    """One check per suite of ``report``, holding its runs to ``baseline``'s.

    Runs pair by cell, and each must have its twin's cycles (a stall's
    are ``None``; a run either side lacks differs, so a suite that stops
    running a cell fails): simulated cycles that move are a correctness
    bug, and the check says so.  Kernel events are summed per suite and
    shown against the baseline's sum.

    With ``gate=True`` a suite also fails (``REGRESSED``) when the
    baseline has nothing to hold it to (no run of the suite, or no
    event count: a gate that skips what it cannot compare checks
    nothing), or when its events exceed the baseline's.  Without it a
    suite the baseline lacks is skipped.
    """
    def cycles(runs, suite):
        return {tuple(r["cell"][k] for k in CELL_KEYS): r["cycles"] for r in runs if r["cell"]["suite"] == suite}

    base_events = suite_events(baseline["runs"])
    checks = []
    for suite, events in suite_events(report["runs"]).items():
        if suite not in base_events:
            if gate:
                checks.append(check(suite, False, "not in baseline: REGRESSED (gate has nothing to compare)"))
            continue
        now, then = cycles(report["runs"], suite), cycles(baseline["runs"], suite)
        differ = [
            f"{cell_tag(dict(zip(CELL_KEYS, cell)))} {then.get(cell, 'absent')} -> {now.get(cell, 'absent')}"
            for cell in {**now, **then} if then.get(cell, "absent") != now.get(cell, "absent")
        ]
        detail = "cycles DIFFER (BUG): " + ", ".join(differ) if differ else "cycles identical"
        ok = not differ
        base = base_events[suite]
        if not base:
            detail += "  events not in baseline"
            if gate:
                detail += ": REGRESSED (gate has nothing to compare)"
                ok = False
        else:
            detail += f"  events {base} -> {events} ({(events - base) / base * 100:+.1f}%)"
            if gate and events > base:
                detail += " REGRESSED"
                ok = False
        checks.append(check(suite, ok, detail))
    return checks
