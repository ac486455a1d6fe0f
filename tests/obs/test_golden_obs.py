"""Golden pin for the observability event stream.

The trace layer promises two things at once:

* **pure observation** — simulated cycles are bit-identical with the
  tracer on and off;
* **deterministic content** — same run, same trace: event count and an
  order-sensitive digest of the full event stream reproduce exactly.

``golden_obs_trace.json`` stores the fingerprint for a small traced
run per case.  A change that moves either the cycles or the digest
altered observable behavior — of the simulation or of the trace
schema — and must be deliberate.  Regenerate only then::

    PYTHONPATH=src python tests/obs/test_golden_obs.py --regen
"""

import hashlib
import json
from pathlib import Path

import pytest

_GOLDEN_PATH = Path(__file__).parent / "golden_obs_trace.json"

CASES = {
    "tsp_sc_4p": ("TSP", "SC", 4),
    "em3d_static_4p": ("EM3D", "static", 4),
}


def _trace_digest(buf) -> str:
    """Order-sensitive sha256 over the canonical event lines."""
    h = hashlib.sha256()
    for ev in buf.events():
        data = json.dumps(ev.data, sort_keys=True)
        h.update(f"{ev.ts} {ev.layer} {ev.kind} {ev.node} {ev.parent} {data}\n".encode())
    return h.hexdigest()


def _capture(case: str) -> dict:
    from repro.harness.experiments import trace_run
    from repro.obs import run_summary

    app, variant, n_procs = CASES[case]
    res, buf = trace_run(app, variant, n_procs=n_procs)
    summary = run_summary(res, buf)
    return {
        "cycles": res.time,
        "events": len(buf),
        "dropped": buf.dropped,
        "trace_sha256": _trace_digest(buf),
        "msg_total": summary["msg_total"],
        "stall_total": summary["stall_total"],
        "phases": sorted(summary["phases"]),
    }


def _untraced_cycles(case: str) -> int:
    from repro.harness.experiments import run_app

    app, variant, n_procs = CASES[case]
    return run_app(app, variant, n_procs=n_procs).time


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_obs_trace(case):
    stored = json.loads(_GOLDEN_PATH.read_text())
    assert case in stored, f"no stored fingerprint for {case!r}; regenerate deliberately"
    got = _capture(case)
    want = stored[case]
    if got != want:
        diff = {k: (want.get(k), got.get(k)) for k in set(want) | set(got)
                if want.get(k) != got.get(k)}
        pytest.fail(f"golden obs mismatch in {case}: {diff}")
    assert got["cycles"] == _untraced_cycles(case)  # tracing is pure observation


def test_no_stale_stored_cases():
    assert set(json.loads(_GOLDEN_PATH.read_text())) == set(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen (see module docstring)")
    data = {case: _capture(case) for case in sorted(CASES)}
    _GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN_PATH}: {', '.join(sorted(data))}")
