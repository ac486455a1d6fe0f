"""What the whole-function emitter relies on, refuses, caches and shows.

``codegen.py`` rebuilds Python control flow from the structure lowering
recorded (``FuncIR.loops`` / ``FuncIR.ifs``), so the optimization passes
must leave that structure alone, anything else must be refused rather
than miscompiled, and the emitted text — the cache key — has to be
there to read when something goes wrong.
"""

import traceback

import pytest

from repro.compiler import (
    OPT_BASE,
    AceCompileError,
    AceRuntimeErr,
    codegen,
    compile_source,
    run_compiled,
)
from repro.compiler.errors import AceInternalError
from repro.compiler.interp import Interp
from repro.compiler.ir import Block, Const, FuncIR, IfInfo, Instr, LoopInfo, ProgramIR
from repro.facade import run_spmd
from repro.harness.experiments import TABLE4_KERNELS, TABLE4_LEVELS


# ------------------------------------------------- structure the passes keep
def _structure(ir):
    """Block set, terminators, loops and ifs of every function."""
    return {
        name: (
            {b: repr(block.terminator) for b, block in fn.blocks.items()},
            fn.loops,
            fn.ifs,
        )
        for name, fn in ir.funcs.items()
    }


@pytest.mark.parametrize("app", sorted(TABLE4_KERNELS))
def test_passes_move_and_delete_instructions_only(app):
    """``hoist_loop_invariant``, ``merge_calls`` and ``direct_dispatch``
    leave every block, terminator, loop and if exactly as lowering made
    them — the emitter reads all four after the passes ran."""
    spec = TABLE4_KERNELS[app]
    src = spec["source"](spec["wl"])
    lowered = _structure(compile_source(src, opt=OPT_BASE).ir)
    for level in TABLE4_LEVELS:
        assert _structure(compile_source(src, opt=level).ir) == lowered, level.name


# ------------------------------------------------------------ what is refused
def _jump_into_a_loop() -> ProgramIR:
    """``side`` enters the loop at ``body``, past its header."""
    def block(name, *instrs):
        return Block(name, list(instrs))

    fn = FuncIR(name="main", params=[], entry="entry")
    for b in (
        block("entry", Instr("const", dst="n$1", args=[Const(0.0)]),
              Instr("br", args=["n$1", Const("side"), Const("pre")])),
        block("side", Instr("jmp", args=[Const("body")])),
        block("pre", Instr("jmp", args=[Const("head")])),
        block("head", Instr("br", args=["n$1", Const("body"), Const("exit")])),
        block("body", Instr("jmp", args=[Const("head")])),
        block("exit", Instr("ret", args=[Const(0.0)])),
    ):
        fn.blocks[b.name] = b
    fn.ifs.append(IfInfo("entry", "side", None, "pre"))
    fn.loops.append(LoopInfo("pre", "head", {"head", "body"}, "exit"))
    return ProgramIR({"main": fn})


def test_jump_into_the_middle_of_a_loop_is_refused_not_miscompiled():
    ir = _jump_into_a_loop()
    # the interpreter runs any CFG; this one is a fine program
    res = run_spmd(lambda ctx: Interp(ir, ctx, {}, [], None).run(), backend="ace", n_procs=1)
    assert res.results == [0.0]
    with pytest.raises(AceInternalError, match="'side' -> 'body' is not structured"):
        codegen.compile_closures(ir)


def _nest(depth: int) -> str:
    loops = "".join(f"for (int i{d} = 0; i{d} < 1; i{d}++) {{ " for d in range(depth))
    return f"void main() {{ double n = 0; {loops} n += 1; {'}' * depth} print(n); }}"


def test_loop_nest_deeper_than_cpython_allows_is_a_compile_error():
    assert run_compiled(compile_source(_nest(20)), n_procs=1).prints == [(0, 1.0)]
    too_deep = compile_source(_nest(21))
    with pytest.raises(AceCompileError, match="main: too many statically nested blocks.*20"):
        too_deep.closures()
    assert run_compiled(too_deep, n_procs=1, backend="interp").prints == [(0, 1.0)]


# ------------------------------------------------------------------ the cache
_TWO_FUNCS = """
double twice(double x) { return x * %d; }
void main() { print(twice(21)); }
"""


def test_eviction_cannot_take_a_function_of_the_program_being_built(monkeypatch):
    """The parent's cache skipped segments it already held, then cleared
    itself to make room for the rest and died patching the evicted hits."""
    monkeypatch.setattr(codegen, "_CODE_CACHE_MAX", 1)
    programs = [compile_source(_TWO_FUNCS % k) for k in (2, 3, 2)]
    built = [p.closures() for p in programs]  # every build overflows the bound
    assert built[0].funcs.keys() == {"twice", "main"}
    assert len(codegen._CODE_CACHE) == 2  # one program's worth survives
    assert [run_compiled(p, n_procs=1).prints for p in programs] == [
        [(0, 42.0)], [(0, 63.0)], [(0, 42.0)],
    ]


def test_levels_share_the_functions_the_passes_left_alone():
    spec = TABLE4_KERNELS["TSP"]
    src = spec["source"](spec["wl"])
    mains = {compile_source(src, opt=level).closures().funcs["main"] for level in TABLE4_LEVELS}
    assert len(mains) < len(TABLE4_LEVELS)


# ------------------------------------------------------------- debuggability
_FAILS_IN_A_HELPER = """
double pick(double i) {
    double x[4];
    work(5);
    return x[i];
}
void main() { print(pick(2)); print(pick(9)); }
"""


def test_emitted_python_is_printable_next_to_the_ir_listing():
    prog = compile_source(_FAILS_IN_A_HELPER)
    pick = prog.emitted("pick")
    assert "def f_pick(i_1, p):" in pick and "# line 5" in pick
    assert prog.emitted() == pick + "\n" + prog.emitted("main")
    assert pick in codegen._CODE_CACHE  # the text is the cache key
    assert "func pick(i$1):" in prog.dump()


def test_traceback_through_emitted_code_shows_its_lines():
    compile_source(_TWO_FUNCS % 5).closures()  # not the first text in the pseudo-file
    with pytest.raises(AceRuntimeErr, match=r"line 5: index 9 out of bounds \(size 4\)") as exc:
        run_compiled(compile_source(_FAILS_IN_A_HELPER), n_procs=1)
    shown = "".join(traceback.format_exception(exc.type, exc.value, exc.tb))
    assert 'File "<acec-codegen>"' in shown
    assert "_oob(5, j, x_2)  # line 5" in shown                     # the line that raised
    assert "yield from F['pick'](9.0, p)  # line 7" in shown        # and the call above it
