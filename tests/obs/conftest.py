"""Shared fixtures for the observability tests."""

import pytest

from repro.harness.experiments import trace_run


@pytest.fixture
def wrapped_trace_run():
    """``trace_run`` on a ring that has certainly lost a causal parent.

    The ring is sized from the run's own event stream, not from a tuned
    constant: about the last quarter of the run survives, cut so that
    the oldest surviving event is a ``msg.recv`` — whose ``msg.send``
    was emitted earlier and is therefore evicted.  However many events
    a run emits (the count moves whenever charges are coalesced), at
    least that one edge is orphaned.
    """

    def run(app, variant, n_procs):
        _, full = trace_run(app, variant, n_procs=n_procs)
        events = full.events()
        assert full.dropped == 0
        keep_from = max(
            i
            for i, ev in enumerate(events[: len(events) - len(events) // 4 + 1])
            if ev.kind == "msg.recv" and ev.parent != -1
        )
        res, buf = trace_run(app, variant, n_procs=n_procs, capacity=len(events) - keep_from)
        assert buf.dropped == keep_from
        return res, buf

    return run
