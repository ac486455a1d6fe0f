"""Compilation driver: source → optimized IR → simulated execution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.analysis import analyze
from repro.compiler.annotate import insert_annotations
from repro.compiler.interp import Interp
from repro.compiler.ir import ProgramIR
from repro.compiler.lowering import lower_program
from repro.compiler.opt_direct import direct_dispatch
from repro.compiler.opt_loops import hoist_loop_invariant
from repro.compiler.opt_merge import merge_calls
from repro.compiler.parser_ import parse
from repro.facade import run_spmd
from repro.machine import MachineConfig
from repro.protocols.registry import ProtocolRegistry, default_registry


@dataclass(frozen=True)
class OptConfig:
    """Which of the §4.2 passes run (Table 4's rows)."""

    li: bool
    mc: bool
    dc: bool
    name: str


OPT_BASE = OptConfig(False, False, False, "base")
OPT_LI = OptConfig(True, False, False, "LI")
OPT_LI_MC = OptConfig(True, True, False, "LI+MC")
OPT_DIRECT = OptConfig(True, True, True, "LI+MC+DC")


#: execution backends for compiled programs: the closure codegen is the
#: default hot path; the tree-walking interpreter stays available as
#: the differential-testing oracle (DESIGN.md §12).
BACKENDS = ("closures", "interp")


#: memoized front end: benchmarks (and Table 4 itself) compile the same
#: source at all four optimization levels, and lexing + parsing
#: dominate compile time.  Lowering never mutates the AST — it builds
#: fresh IR structures — so one AST is safely shared across compiles
#: (the determinism tests pin dump-for-dump identical output).
_PARSE_CACHE: dict[str, object] = {}
_PARSE_CACHE_MAX = 128


def _parse_cached(source: str):
    ast = _PARSE_CACHE.get(source)
    if ast is None:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        ast = _PARSE_CACHE[source] = parse(source)
    return ast


@dataclass
class CompiledProgram:
    """Compiled AceC: IR plus what the passes did."""

    ir: ProgramIR
    opt: OptConfig
    registry: ProtocolRegistry
    pass_stats: dict = field(default_factory=dict)
    backend: str = "closures"
    _closures: object = field(default=None, repr=False, compare=False)

    def dump(self) -> str:
        return self.ir.dump()

    def emitted(self, func: str | None = None) -> str:
        """The Python the closures backend runs, for one function or all:
        ``dump()``'s listing, one stage later."""
        sources = self.closures().sources
        return sources[func] if func is not None else "\n".join(sources.values())

    def closures(self):
        """The closure-compiled form (built once, after the passes ran)."""
        if self._closures is None:
            from repro.compiler.codegen import compile_closures

            self._closures = compile_closures(self.ir)
        return self._closures


@dataclass
class CompiledRun:
    """Outcome of running a compiled program."""

    time: int
    results: list          # main()'s return value per node
    prints: list           # (nid, value) from print()
    bb: dict               # bulletin board contents
    run_result: object     # the underlying facade RunResult

    @property
    def stats(self):
        return self.run_result.stats

    def region_data(self, rid: int):
        """Canonical (home) contents of a region, for validation."""
        return self.run_result.backend.runtime.regions.get(int(rid)).home_data


def compile_source(
    source: str,
    opt: OptConfig = OPT_DIRECT,
    registry: ProtocolRegistry | None = None,
    sanitize: bool = False,
    backend: str = "closures",
) -> CompiledProgram:
    """Compile AceC source at the given optimization level.

    With ``sanitize=True`` the static annotation checker runs twice —
    on the analyzed IR straight after lowering (front-end bugs) and
    again after the optimization passes (pass bugs) — raising
    :class:`~repro.compiler.errors.AnnotationError` on any discipline
    violation.  ``pass_stats["sanitize"]`` records both clean phases.

    ``backend`` picks the execution engine ``run_compiled`` will use:
    ``"closures"`` (default) walks the optimized IR once and emits one
    Python generator per function; ``"interp"`` is the tree-walking
    interpreter, kept as the differential-testing oracle.  Both produce
    bit-identical results, simulated cycles, and kernel event streams.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    registry = registry or default_registry
    ast = _parse_cached(source)
    ir = lower_program(ast)
    insert_annotations(ir)
    analyze(ir, registry)
    stats = {}
    if sanitize:
        from repro.sanitize import check_or_raise

        check_or_raise(ir, registry, phase="post-lowering")
    if opt.li:
        stats["hoisted"] = hoist_loop_invariant(ir, registry)
    if opt.mc:
        stats["merged"] = merge_calls(ir, registry)
    if opt.dc:
        devirt, deleted = direct_dispatch(ir, registry)
        stats["devirtualized"] = devirt
        stats["deleted"] = deleted
    if sanitize:
        check_or_raise(ir, registry, phase=f"post-optimization ({opt.name})", strict=False)
        stats["sanitize"] = ["post-lowering", f"post-optimization ({opt.name})"]
    return CompiledProgram(ir=ir, opt=opt, registry=registry, pass_stats=stats, backend=backend)


def run_compiled(
    program: CompiledProgram,
    n_procs: int = 4,
    host_data: dict | None = None,
    machine_config: MachineConfig | None = None,
    backend: str | None = None,
) -> CompiledRun:
    """Execute a compiled program SPMD on a fresh simulated machine.

    ``backend`` overrides the one recorded at :func:`compile_source`
    time (``"closures"`` or ``"interp"``); the two are bit-identical in
    results, cycles, and kernel events (the oracle tests pin this).
    """
    which = backend if backend is not None else program.backend
    bb: dict = {}
    prints: list = []

    if which == "closures":
        from repro.compiler.codegen import bind_node

        closures = program.closures()

        def spmd(ctx):
            return bind_node(closures, ctx, bb, prints, host_data)

    elif which == "interp":

        def spmd(ctx):
            return Interp(program.ir, ctx, bb, prints, host_data).run()

    else:
        raise ValueError(f"unknown backend {which!r}; choose from {sorted(BACKENDS)}")

    res = run_spmd(
        spmd,
        backend="ace",
        n_procs=n_procs,
        machine_config=machine_config,
        registry=program.registry,
    )
    return CompiledRun(time=res.time, results=res.results, prints=prints, bb=bb, run_result=res)
