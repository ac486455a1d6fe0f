"""One-shot synchronization cells for simulated tasks.

A :class:`Future` is the only blocking primitive the kernel understands
besides :class:`~repro.sim.kernel.Delay`.  Tasks yield a future to
suspend; whoever resolves it wakes every waiter at the current simulated
time.  Futures may be resolved before anyone waits (the waiter then
resumes immediately), and may carry either a value or an exception.
"""

from __future__ import annotations

from heapq import heappush as _heappush

from repro.sim.errors import SimulationError

_UNSET = object()
#: :class:`repro.sim.kernel.Task`, set once by that module at import (no
#: import cycle).  A blocked task is its own entry in ``_callbacks``.
_Task = None


class Future:
    """A write-once cell that simulated tasks can block on.

    Parameters
    ----------
    name:
        Optional label used in deadlock reports and traces.
    """

    __slots__ = ("name", "_value", "_exc", "_callbacks", "_fail_hook", "_obs_eid")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = _UNSET
        self._exc: BaseException | None = None
        # None until the first waiter: most futures are resolved with
        # nobody (or only the kernel's inline path) waiting, and never
        # pay for the list.
        self._callbacks: list | None = None
        # Set by the kernel on task ``done`` futures: lets a crash be
        # reported fail-fast instead of scanning every task per event.
        self._fail_hook = None
        # Trace id of the event that resolved this future (reply
        # receive, barrier release, lock grant), set only by traced
        # resolvers just before resolve().  The kernel stamps it as the
        # causal parent of the woken task's ``task.step`` so critical
        # paths cross wakeups.  -1 = unknown/untraced.
        self._obs_eid = -1

    # -- inspection ---------------------------------------------------
    @property
    def resolved(self) -> bool:
        """True once :meth:`resolve` or :meth:`fail` has been called."""
        return self._value is not _UNSET or self._exc is not None

    def result(self):
        """Return the resolved value (raising the stored exception if any).

        Raises
        ------
        SimulationError
            If the future has not been resolved yet.
        """
        if self._exc is not None:
            raise self._exc
        if self._value is _UNSET:
            raise SimulationError(f"future {self.name!r} not resolved")
        return self._value

    # -- resolution ---------------------------------------------------
    def resolve(self, value=None) -> None:
        """Store ``value`` and invoke all registered callbacks once."""
        # ``resolved`` and ``_fire`` inlined: resolution is on the
        # critical path of every RPC round trip in the system.
        if self._value is not _UNSET or self._exc is not None:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for fn in callbacks:
                if fn.__class__ is not _Task:
                    fn(self)
                    continue
                # A blocked task: sim.schedule(0, task), inlined.
                fn._wait_fut = self
                sim = fn._sim
                now = sim.now
                bucket = sim._cal.get(now)
                if bucket is None:
                    sim._cal[now] = [fn]
                    _heappush(sim._times, now)
                else:
                    bucket.append(fn)

    def fail(self, exc: BaseException) -> None:
        """Store an exception; waiters will re-raise it when resumed."""
        if self.resolved:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._exc = exc
        hook = self._fail_hook
        if hook is not None:
            hook(exc)
        self._fire()

    def add_callback(self, fn) -> None:
        """Call ``fn(self)`` when resolved (immediately if already resolved)."""
        if self.resolved:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                if fn.__class__ is _Task:
                    fn._wait_fut = self
                    fn._sim.schedule(0, fn)
                else:
                    fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.resolved else "pending"
        return f"<Future {self.name!r} {state}>"
