"""Per-node programming context and SPMD launcher."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator

from repro.core import AceRuntime
from repro.crl import CRLRuntime
from repro.dsm import as_transport
from repro.machine import Machine, MachineConfig
from repro.sim import Delay, Simulator
from repro.sim.kernel import _DELAY_POOL as _POOL, _DELAY_POOL_SIZE as _POOL_SIZE

#: An SPMD program: called once per node with its context, returns a generator.
SPMDProgram = Callable[["NodeContext"], Generator]


class AceBackend:
    """Facade backend running the Ace runtime (spaces + protocols).

    Calls whose signature matches the runtime exactly are bound
    straight to the runtime generator in ``__init__`` — the facade
    adds zero generator frames on the per-access path.  Only
    ``barrier`` (which multiplexes on ``sid``) needs an adapter.

    ``check=True`` builds the dynamic sanitizer's
    :class:`~repro.sanitize.checked.CheckedRuntime` (which also takes a
    pre-built ``checker``) in place of the plain runtime.
    """

    name = "ace"

    def __init__(self, fabric, check: bool = False, **runtime_kwargs):
        transport = self.transport = as_transport(fabric)
        self.machine = transport.machine
        runtime = AceRuntime
        if check:
            from repro.sanitize.checked import CheckedRuntime as runtime
        rt = self.runtime = runtime(transport, **runtime_kwargs)
        self.new_space = rt.new_space
        self.gmalloc = rt.gmalloc
        self.change_protocol = rt.change_protocol
        self.map = rt.map
        self.unmap = rt.unmap
        self.start_read = rt.start_read
        self.end_read = rt.end_read
        self.start_write = rt.start_write
        self.end_write = rt.end_write
        self.lock = rt.lock
        self.unlock = rt.unlock

    def barrier(self, nid, sid=None):
        if sid is None:
            yield from self.runtime.rendezvous(nid)
        else:
            yield from self.runtime.barrier(nid, sid)


class CRLBackend:
    """Facade backend running the fixed-protocol CRL baseline.

    Accepts the space-flavoured calls so the same program text runs,
    but spaces are inert tokens and any attempt to leave the SC
    protocol raises — CRL has no customizable protocols.
    """

    name = "crl"

    def __init__(self, fabric, **runtime_kwargs):
        transport = self.transport = as_transport(fabric)
        self.machine = transport.machine
        rt = self.runtime = CRLRuntime(transport, **runtime_kwargs)
        self._space_ctr = [0] * transport.n_procs
        # Per-access calls bind straight to the CRL runtime (see
        # AceBackend): the facade frame disappears from the hot path.
        self.map = rt.rgn_map
        self.unmap = rt.rgn_unmap
        self.start_read = rt.rgn_start_read
        self.end_read = rt.rgn_end_read
        self.start_write = rt.rgn_start_write
        self.end_write = rt.rgn_end_write
        self.lock = rt.lock
        self.unlock = rt.unlock

    def new_space(self, nid, protocol):
        self._require_sc(protocol)
        sid = self._space_ctr[nid]
        self._space_ctr[nid] += 1
        yield Delay(1)
        return sid

    def gmalloc(self, nid, sid, size):
        rid = yield from self.runtime.rgn_create(nid, size)
        return rid

    def change_protocol(self, nid, sid, protocol):
        self._require_sc(protocol)
        return
        yield  # pragma: no cover - makes this a generator

    def _require_sc(self, protocol: str) -> None:
        if protocol != "SC":
            raise NotImplementedError(
                f"CRL has a single fixed protocol; cannot use {protocol!r}"
            )

    def barrier(self, nid, sid=None):
        yield from self.runtime.barrier(nid)


class NodeContext:
    """One node's view of the DSM: what a benchmark program codes against.

    The per-access calls (``map``/``unmap``/``start_*``/``end_*``,
    ``gmalloc``, ``change_protocol``, ``lock``/``unlock``) are bound in
    ``__init__`` as partials of the backend generators with this node's
    id pre-applied.  ``handle = yield from ctx.map(rid)`` therefore
    drives the runtime generator *directly* — the context adds no
    generator frame and no allocation beyond the one the runtime makes.
    Signatures and return values are exactly those of the class-level
    wrappers they replace (the backend generator's ``return`` value
    propagates through ``yield from`` unchanged).
    """

    def __init__(self, backend, nid: int):
        self.backend = backend
        self.nid = nid
        self.gmalloc = partial(backend.gmalloc, nid)  # (sid, size) -> rid
        self.change_protocol = partial(backend.change_protocol, nid)  # (sid, protocol)
        self.map = partial(backend.map, nid)  # (rid) -> handle
        self.unmap = partial(backend.unmap, nid)  # (handle)
        self.start_read = partial(backend.start_read, nid)  # (handle)
        self.end_read = partial(backend.end_read, nid)  # (handle)
        self.start_write = partial(backend.start_write, nid)  # (handle)
        self.end_write = partial(backend.end_write, nid)  # (handle)
        self.lock = partial(backend.lock, nid)  # (rid)
        self.unlock = partial(backend.unlock, nid)  # (rid)
        tracer = backend.machine.tracer
        self._obs = tracer.tracer("phase") if tracer is not None else None

    @property
    def n_procs(self) -> int:
        return self.backend.machine.n_procs

    @property
    def machine(self) -> Machine:
        return self.backend.machine

    def compute(self, cycles: int):
        """Generator: charge local computation time."""
        yield _POOL[cycles] if 0 <= cycles < _POOL_SIZE else Delay(cycles)

    # -- phase scoping (observability; DESIGN.md §7) --------------------
    # Phases are machine-global, so in an SPMD program only node 0's
    # calls take effect — every node can call these unconditionally at
    # the same program points (typically around barriers).  Both calls
    # are host-side only: they charge no cycles, bump no counters, and
    # are no-ops in the stats when nothing is counted inside them, so
    # adding them to an app never moves simulated time.
    def push_phase(self, name: str) -> None:
        """Begin a named stats/trace phase (node 0 only; others no-op)."""
        if self.nid != 0:
            return
        machine = self.backend.machine
        machine.stats.push_phase(name)
        if self._obs is not None:
            self._obs.emit(machine.sim.now, "phase.begin", -1, -1, name)

    def pop_phase(self) -> None:
        """End the innermost phase (node 0 only; others no-op)."""
        if self.nid != 0:
            return
        machine = self.backend.machine
        name = machine.stats.current_phase
        machine.stats.pop_phase()
        if self._obs is not None:
            self._obs.emit(machine.sim.now, "phase.end", -1, -1, name)

    # The remaining forwards keep an adapter frame: ``new_space`` and
    # ``barrier`` supply defaults the backend signature does not have.
    def new_space(self, protocol: str = "SC"):
        sid = yield from self.backend.new_space(self.nid, protocol)
        return sid

    def barrier(self, sid: int | None = None):
        yield from self.backend.barrier(self.nid, sid)

    # -- conveniences used all over the benchmarks ----------------------
    def read_region(self, handle):
        """Generator: start_read → snapshot → end_read; returns the snapshot."""
        yield from self.start_read(handle)
        data = handle.data.copy()
        yield from self.end_read(handle)
        return data

    def write_region(self, handle, values):
        """Generator: start_write → assign → end_write."""
        yield from self.start_write(handle)
        handle.data[:] = values
        yield from self.end_write(handle)


@dataclass
class RunResult:
    """Outcome of one SPMD run: simulated cycles, per-node returns, stats."""

    time: int
    results: list
    machine: Machine
    backend: object = None

    @property
    def stats(self):
        return self.machine.stats

    @property
    def checker(self):
        """The run's :class:`~repro.sanitize.dynamic.DynamicChecker`
        (None unless ``run_spmd(..., check=True)``)."""
        return getattr(getattr(self.backend, "runtime", None), "checker", None)

    @property
    def tracer(self):
        """The run's :class:`~repro.obs.TraceBuffer` (None when tracing off)."""
        return self.machine.tracer


def run_spmd(
    program: SPMDProgram,
    backend: str = "ace",
    n_procs: int = 8,
    machine_config: MachineConfig | None = None,
    jitter_seed: int | None = None,
    trace: Callable[[int, str], None] | None = None,
    tracer=None,
    fault_plan=None,
    retry_policy=None,
    on_crash: str | None = None,
    check: bool = False,
    **backend_kwargs,
) -> RunResult:
    """Run an SPMD program on a fresh simulated machine; returns :class:`RunResult`.

    ``backend`` is ``"ace"`` or ``"crl"``.  ``jitter_seed`` enables
    schedule fuzzing (see :mod:`repro.verify`).  ``trace`` is forwarded
    to the :class:`~repro.sim.Simulator` event trace hook.  ``tracer``
    is an optional :class:`repro.obs.TraceBuffer` wired through the
    kernel, machine, and every DSM layer; simulated cycles are
    bit-identical with and without it (see DESIGN.md §7).

    ``fault_plan`` (a :class:`~repro.dsm.faults.FaultPlan`) wraps the
    machine in a :class:`~repro.dsm.faults.FaultTransport`: the plan's
    seeded faults are injected and every protocol layer runs its
    retry/dedup variants (DESIGN.md §9).  ``retry_policy`` tunes the
    timeout/backoff schedule.  With ``fault_plan=None`` no fault
    machinery is constructed and cycles are bit-identical to earlier
    releases.

    ``on_crash`` (``"recover"`` or ``"abort"``; requires a
    ``fault_plan``) arms crash recovery (DESIGN.md §15): a
    :class:`~repro.dsm.recovery.RecoveryManager` heartbeats the nodes,
    and a crash-stop fault is *handled* — under ``"recover"`` the dead
    node's task retires with a :class:`~repro.dsm.recovery.Crashed`
    result marker, its regions re-home, and the survivors continue;
    under ``"abort"`` the run raises a prompt, suspect-attributed
    :class:`~repro.dsm.faults.StallError` at detection instead of
    stalling to retry exhaustion.

    ``check=True`` runs the dynamic sanitizer (Ace backend only): a
    :class:`~repro.sanitize.dynamic.DynamicChecker` observes every
    annotation call and reports races / use-after-unmap on
    ``result.checker``.  The checker charges no cycles, so
    ``result.time`` is identical with and without it; with
    ``check=False`` no checker code runs at all.
    """
    factories = {"ace": AceBackend, "crl": CRLBackend}
    try:
        factory = factories[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(factories)}") from None
    if check:
        if backend != "ace":
            raise ValueError("check=True requires the 'ace' backend (dynamic sanitizer)")
        backend_kwargs["check"] = True
    sim = Simulator(trace=trace, jitter_seed=jitter_seed, tracer=tracer)
    cfg = machine_config or MachineConfig(n_procs=n_procs)
    if cfg.n_procs != n_procs:
        cfg = cfg.with_(n_procs=n_procs)
    machine = Machine(sim, cfg, tracer=tracer)
    fabric = machine
    if on_crash is not None and fault_plan is None:
        raise ValueError("on_crash requires a fault_plan (crashes are plan faults)")
    if fault_plan is not None:
        from repro.dsm.faults import FaultTransport

        fabric = FaultTransport(machine, fault_plan, retry_policy=retry_policy, on_crash=on_crash)
    be = factory(fabric, **backend_kwargs)
    ctxs = [NodeContext(be, i) for i in range(n_procs)]
    tasks = [sim.spawn(program(ctx), name=f"proc{i}") for i, ctx in enumerate(ctxs)]
    if on_crash is not None:
        fabric.recovery.start(tasks)  # it retires a dead node's task with a Crashed result
    sim.run()
    results = [t.done.result() for t in tasks]
    # A leftover push_phase would misattribute everything counted after
    # it; surface the imbalance at the run boundary with the open stack
    # (machine.stats.PhaseScopeError) instead of silently mis-scoping.
    # A crashed node 0 dies mid-phase by design — skip the check then.
    if on_crash is None or not fabric.recovery.dead:
        machine.stats.require_balanced()
    return RunResult(time=sim.now, results=results, machine=machine, backend=be)
