"""Golden-trace pin for the kernel fast path.

``tests/verify/golden_traces.json`` was captured from the *pre-fast-path*
kernel (the single-heap, closure-per-yield implementation).  Every case
in :mod:`repro.verify.golden` re-runs a workload on the current kernel
and must reproduce the stored fingerprint bit for bit: final simulated
time, event-trace digest, and the full stats snapshot — for the
canonical schedule and for a fixed ``jitter_seed``.

If an optimization changes any of these, it changed observable
simulation behavior and is a bug, not a speedup.  Do NOT regenerate the
JSON to make a failure pass; fix the kernel instead.  (Regeneration —
``python -m repro.verify.golden`` — is only legitimate when a paper-
model change deliberately alters the simulation itself.)
"""

import json
from pathlib import Path

import pytest

from repro.protocols import default_registry
from repro.verify import golden

_STORED = json.loads((Path(__file__).parent / "golden_traces.json").read_text())


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_golden_case_matches_seed_kernel(case):
    assert case in _STORED, f"no stored fingerprint for {case!r}; regenerate deliberately"
    got = golden.CASES[case]()
    want = _STORED[case]
    if got != want:
        diff = {k: (want.get(k), got.get(k)) for k in golden.changed_keys(want, got)}
        pytest.fail(f"golden mismatch in {case}: {diff}")


def test_changed_keys_names_what_a_regeneration_would_move():
    stored = {"time": 5, "n_trace": 9, "stats": {"a": 1}}
    assert golden.changed_keys(stored, dict(stored)) == []
    assert golden.changed_keys(stored, {**stored, "n_trace": 7, "extra": 0}) == ["extra", "n_trace"]
    assert golden.changed_keys(None, stored) == ["*"]


def test_no_stale_stored_cases():
    assert set(_STORED) == set(golden.CASES)


def test_every_registered_protocol_has_a_pinned_exercise():
    """The ``proto_<name>`` pins are the per-protocol oracle (they replaced
    the hand-written twins of protocols/legacy.py): none may be missing."""
    names = default_registry.names()
    assert len(names) == 13 and {f"proto_{name}" for name in names} <= set(_STORED)
