"""Closures backend: lowered, optimized IR → one Python generator per AceC function.

The tree-walking interpreter (:mod:`repro.compiler.interp`) pays, per
IR instruction, a string-compare dispatch chain, an ``OP_COST`` dict
probe, and one ``isinstance`` + dict hash per operand.  This backend
walks the IR exactly **once per compile** and emits each ``FuncIR`` as
the source text of one Python generator function (DESIGN.md §12):

* IR variables and arrays are Python locals; the must-assign dataflow
  decides where a read still needs its ``_UNSET`` check;
* control flow is Python's own — lowering records every loop
  (``FuncIR.loops``) and conditional (``FuncIR.ifs``), so a loop is a
  ``while True:``, a conditional an ``if``/``else``, and ``break`` /
  ``continue`` / ``return`` are themselves.  The emitter checks the
  shape it relies on and refuses anything else (``AceInternalError``);
* pending cycles are one local integer ``p``: a straight-line run bumps
  it once by its pre-summed static cost, ``work(n)`` adds its operand,
  a call hands ``p`` to the callee and takes it back with the result;
* annotation ops and library builtins are inline ``yield from`` with
  the interpreter's flush rule written out: before an annotation op
  ``p <= lead_room`` rides the access as its ``lead``, anything longer
  (``work(n)`` is unbounded) and everything before a library builtin
  is one pooled ``Delay`` of its own (see ``interp.py``);
* the function sits inside a **bind-time factory** whose free variables
  are what one node of one run resolves once — its id, the bulletin
  board, the runtime's ``map``/``start_read``/..., the context's
  ``barrier``/``lock``/... — so the hot loop never looks anything up.

The emitted program reproduces the interpreter *bit-for-bit*: the same
``Delay`` values flushed at the same points, the same runtime calls in
the same order, the same error messages on the same inputs.  The
interpreter stays as the differential-testing oracle
(``tests/compiler/test_codegen_oracle.py`` and
``tests/compiler/test_codegen_control_flow.py`` pin the equivalence).

Pre-summing a run's static cost cannot move a flush: nothing yields
*inside* a run, so the total pending at every flush point — and with it
the yielded ``Delay`` stream, simulated cycles and golden traces — is
what the interpreter's op-by-op accumulation gives.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiler.errors import AceCompileError, AceInternalError, AceRuntimeErr
from repro.compiler.interp import _BIG, _MATH_COST, OP_COST
from repro.compiler.ir import ANNOTATION_OPS, Const, FuncIR, ProgramIR
from repro.sim import Delay
from repro.sim.kernel import _DELAY_POOL, _DELAY_POOL_SIZE
from repro.spec.emit import CodeFile

#: what an emitted local holds before its first assignment (reads
#: raise, like the interpreter's env KeyError path)
_UNSET = object()

#: every emitted function is a line range of this one pseudo-file, which
#: ``linecache`` serves to tracebacks and ``perf/`` buckets as "compiler"
_FILENAME = "<acec-codegen>"

#: what CPython's own compiler refuses, whatever the program means
_CPYTHON_LIMITS = "CPython allows 20 statically nested loops and 100 levels of indentation"

#: binary operators emitted verbatim
_ARITH = frozenset(("+", "-", "*"))
_CMP = frozenset(("==", "!=", "<", ">", "<=", ">="))

#: math builtins, given their argument atoms
_MATH = {
    "sqrt": "sqrt({0})",
    "fabs": "abs({0})",
    "floor": "float(floor({0}))",
    "min": "min({0}, {1})",
    "max": "max({0}, {1})",
    "idiv": "float(int({0}) // int({1}))",
    "imod": "float(int({0}) % int({1}))",
    "inf": "_BIG",
}

#: runtime-library builtins → (per argument: ``i``nt-converted or as
#: ``v``alue; result conversion): flush pending, then drive the node
#: context's generator
_LIB = {
    "ace_new_space": ("v", "float"),
    "ace_gmalloc": ("ii", "float"),
    "ace_change_protocol": ("iv", None),
    "ace_barrier": ("i", None),
    "ace_lock": ("i", None),
    "ace_unlock": ("i", None),
}

#: settle ``p`` as a ``Delay`` of its own, straight from the kernel's pool
_FLUSH = f"yield pool[p] if p < {_DELAY_POOL_SIZE} else Delay(p)"


# Error helpers the emitted code calls instead of carrying its own
# f-string raise sites: one short call per check keeps the per-program
# ``compile()`` bill proportional to logic, not message text.  Messages
# match the interpreter's character for character.
def _oob(line, j, a):
    raise AceRuntimeErr(f"line {line}: index {j} out of bounds (size {len(a)})")


def _unset(fname, operand):
    raise AceRuntimeErr(f"{fname}: read of unset variable {operand}")


def _no_host(key, idx):
    raise AceRuntimeErr(f"host_data({key!r}, {idx}) missing") from None


def _no_bb(name, idx):
    raise AceRuntimeErr(f"bb_get{(name, idx)!r}: not published yet (missing barrier?)") from None


#: the globals of every emitted function
_NAMESPACE = {
    "_UNSET": _UNSET, "AceRuntimeErr": AceRuntimeErr, "_BIG": _BIG, "inf": math.inf,
    "nan": math.nan, "sqrt": math.sqrt, "floor": math.floor, "zeros": np.zeros,
    "Delay": Delay, "pool": _DELAY_POOL, "_oob": _oob, "_unset": _unset,
    "_no_host": _no_host, "_no_bb": _no_bb,
}


def _local(name: str) -> str:
    """The Python local for an IR name (``x$3`` → ``x_3``, ``%t7`` → ``t7``)."""
    return name.replace("$", "_").replace("%", "")


def _must_assigned(fn: FuncIR) -> dict:
    """Per-block must-assign sets: names set on *every* path to entry.

    Names never revert to unset, so this is a plain forward dataflow
    with intersection at joins; params are bound on function entry
    (lowering rejects arity mismatches at call sites) — except in the
    run's own activation of ``main``, which nobody called.  An
    unreachable block keeps ``None``.
    """
    order = fn.block_order()
    preds = fn.predecessors()
    gen = {
        b: {ins.dst for ins in fn.blocks[b].instrs if ins.dst is not None} for b in order
    }
    ins_: dict = dict.fromkeys(order)  # None = not yet reached
    ins_[fn.entry] = set() if fn.name == "main" else set(fn.params)
    changed = True
    while changed:
        changed = False
        for b in order:
            if b == fn.entry:
                continue  # always reached with exactly its params bound
            outs = [ins_[p] | gen[p] for p in preds[b] if ins_[p] is not None]
            if outs and (new := set.intersection(*outs)) != ins_[b]:
                ins_[b] = new
                changed = True
    return ins_


# ------------------------------------------------------------- emission
# Statement order tracks the interpreter exactly — including Python's
# own right-hand-side-first evaluation inside subscript stores, and
# operand reads placed after the flush they follow there — so error
# ordering is preserved too.

class _Emitter:
    """Emits one ``FuncIR`` as a bind-time factory around one generator."""

    def __init__(self, fn: FuncIR):
        self.fn = fn
        self.must = _must_assigned(fn)
        self.ifs = {i.head: i for i in fn.ifs}
        self.preheaders = {loop.preheader: loop for loop in fn.loops}
        self.lines: list = []
        self.depth = 2          # inside the factory, inside the generator
        self.cost = 0           # static cycles of the open straight-line run
        self.spent = False      # a runtime call just took ``p``: it is owed a reset
        self.assigned: set = set()  # running must-assign set of the open block
        self.env: set = set()   # bind-time names the body uses
        self.unset: list = []   # locals a read may find unassigned
        self.yields = False     # else the body gets a dead ``yield`` of its own
        self.note = ""          # the AceC line of the instruction being emitted

    def bad(self, why: str):
        raise AceInternalError(f"{self.fn.name}: cannot emit structured code: {why}")

    # -- text --------------------------------------------------------------
    def line(self, text: str) -> None:
        self.lines.append("  " * self.depth + text + self.note)

    def use(self, name: str) -> str:
        self.env.add(name)
        return name

    def read(self, operand) -> str:
        """Emit the unset check, if one is needed; return an atom."""
        if isinstance(operand, Const):
            return repr(operand.value)
        name = _local(operand)
        if operand not in self.assigned:
            if name not in self.unset:
                self.unset.append(name)
            self.line(f"if {name} is _UNSET: _unset({self.fn.name!r}, {operand!r})")
            self.assigned.add(operand)  # proven for the rest of the block
        return name

    def as_int(self, operand) -> str:
        """``int(operand)``, folded when the operand is a number literal."""
        value = operand.value if isinstance(operand, Const) else None
        if isinstance(value, float) and math.isfinite(value):
            return repr(int(value))
        return f"int({self.read(operand)})"

    def target(self, dst) -> str:
        """The ``dst = `` an expression statement starts with, if it has a dst."""
        if dst is None:
            return ""
        self.assigned.add(dst)
        return f"{_local(dst)} = "

    def write(self, dst, expr: str) -> None:
        self.line(self.target(dst) + expr)

    def index(self, arr: str, size, operand, line: int) -> None:
        """Emit ``j = int(...)`` plus the interpreter's bounds check."""
        self.line(f"j = {self.as_int(operand)}")
        self.line(f"if not 0 <= j < {size}: _oob({line}, j, {arr})")

    # -- pending cycles ----------------------------------------------------
    def settle(self) -> None:
        """Close the open run: one bump by its pre-summed static cost.

        Every transfer of control settles first, so ``p`` is never owed
        its reset where two paths meet."""
        if self.spent:
            self.line(f"p = {self.cost}")
        elif self.cost:
            self.line(f"p += {self.cost}")
        self.cost = 0
        self.spent = False

    def flush(self, room: str) -> None:
        """Settle ``p`` before a runtime interaction: more than ``room``
        cycles are a ``Delay`` of their own, fewer ride as its lead."""
        self.settle()
        self.yields = True
        self.line(f"if p > {room}:")
        self.line(f"  {_FLUSH}")
        self.line("  p = 0")
        self.spent = True  # ... once the interaction the caller emits has them

    # -- instructions --------------------------------------------------------
    def instr(self, ins) -> None:
        op, args, read, write = ins.op, ins.args, self.read, self.write
        self.note = f"  # line {ins.line}" if ins.line else ""
        self.cost += OP_COST.get(op, 1)
        if op in ("jmp", "br", "ret"):
            return  # whoever asked for the block emits its transfer
        if op == "mov" or op == "const":
            write(ins.dst, read(args[0]))
        elif op == "bin":
            o, a, b = args[0].value, read(args[1]), read(args[2])
            if o in _ARITH:
                write(ins.dst, f"{a} {o} {b}")
            elif o in _CMP:
                write(ins.dst, f"float({a} {o} {b})")
            elif o == "/":
                self.line(f"if {b} == 0: raise AceRuntimeErr('division by zero')")
                write(ins.dst, f"{a} / {b}")
            elif o == "%":
                self.line(f"if int({b}) == 0: raise AceRuntimeErr('modulo by zero')")
                write(ins.dst, f"float(int({a}) % int({b}))")
            else:  # "&&" / "||": both sides are already evaluated
                write(ins.dst, f"float(bool({a}) {'and' if o == '&&' else 'or'} bool({b}))")
        elif op == "un":
            x = read(args[1])
            write(ins.dst, f"-{x}" if args[0].value == "-" else f"float(not {x})")
        elif op == "idx_load":
            a = _local(args[0])
            self.index(a, self.fn.arrays[args[0]], args[1], ins.line)
            numeric = not self.fn.var_types[args[0]].is_handle
            write(ins.dst, f"float({a}[j])" if numeric else f"{a}[j]")
        elif op == "idx_store":
            a = _local(args[0])
            v = read(args[2])  # RHS first, as in the interpreter's store
            self.index(a, self.fn.arrays[args[0]], args[1], ins.line)
            self.line(f"{a}[j] = {v}")
        elif op == "deref_load":
            self.line(f"d = {read(args[0])}.data")
            self.index("d", "len(d)", args[1], ins.line)
            write(ins.dst, "float(d[j])")
        elif op == "deref_store":
            self.line(f"d = {read(args[0])}.data")
            v = read(args[2])  # RHS first, as in the interpreter's store
            self.index("d", "len(d)", args[1], ins.line)
            self.line(f"d[j] = {v}")
        elif op == "builtin":
            self.builtin(ins, args[0].value, args[1:])
        elif op in ANNOTATION_OPS:
            self.flush(self.use("room"))
            arg = self.as_int(args[0]) if op == "map" else read(args[0])
            call = f"yield from {self.use('rt_' + op)}({self.use('nid')}, {arg}, {ins.direct}, p)"
            write(ins.dst if op == "map" else None, call)
        elif op == "call":
            self.settle()
            self.yields = True
            callee = args[0].value
            actuals = [read(a) for a in args[1:]] + ["p"] + ["False"] * (callee == "main")
            call = f"yield from {self.use('F')}[{callee!r}]({', '.join(actuals)})"
            self.line(f"{_local(ins.dst)}, p = {call}")
            self.assigned.add(ins.dst)
        else:
            self.bad(f"unknown IR op {op!r}")

    def builtin(self, ins, name: str, args: list) -> None:
        read, as_int = self.read, self.as_int
        value = None  # statement-like builtins store None when given a dst
        if name in _MATH_COST:
            self.cost += _MATH_COST[name]
            value = _MATH[name].format(*[read(a) for a in args])
            if ins.dst is None:  # evaluate for effect (exceptions), as the interpreter does
                self.line(value)
        elif name == "work":
            if self.spent:
                self.settle()
            self.line(f"p += {as_int(args[0])}")
        elif name == "my_proc" or name == "num_procs":
            self.cost += 2
            value = self.use("me" if name == "my_proc" else "nprocs")
        elif name == "print":
            self.line(f"{self.use('prints')}.append(({self.use('nid')}, {read(args[0])}))")
        elif name == "host_data":
            self.cost += 4
            key, idx = read(args[0]), as_int(args[1])
            self.line(f"try: {self.target(ins.dst)}float({self.use('host_data')}[{key}][{idx}])")
            self.line(f"except (KeyError, IndexError): _no_host({key}, {idx})")
            return
        elif name == "bb_put":
            self.cost += 4
            self.line(f"{self.use('bb')}[({read(args[0])}, {as_int(args[1])})] = {read(args[2])}")
        elif name == "bb_get":
            self.cost += 4
            key, idx = read(args[0]), as_int(args[1])
            self.line(f"try: {self.target(ins.dst)}{self.use('bb')}[({key}, {idx})]")
            self.line(f"except KeyError: _no_bb({key}, {idx})")
            return
        elif name in _LIB:
            self.flush("0")
            kinds, convert = _LIB[name]
            actuals = [as_int(a) if kind == "i" else read(a) for kind, a in zip(kinds, args)]
            call = f"yield from {self.use(name)}({', '.join(actuals)})"
            if convert is None:
                self.line(call)
            else:
                value = f"{convert}(({call}))"
        else:
            self.bad(f"unimplemented builtin {name!r}")
        if ins.dst is not None:
            self.write(ins.dst, str(value))

    # -- control flow --------------------------------------------------------
    def block(self, b: str):
        """Emit ``b``'s straight-line body; returns its terminator, charged."""
        self.assigned = set(self.must[b])
        instrs = self.fn.blocks[b].instrs
        if not instrs or instrs[-1].op not in ("jmp", "br", "ret"):
            self.bad(f"block {b!r} has no terminator")
        for ins in instrs:
            self.instr(ins)
        return ins

    def chain(self, b: str, stop, loop) -> bool:
        """Emit from block ``b`` until control leaves this suite.

        True when it left by falling through to ``stop`` (an ``if``'s
        join, a loop body's natural end); ``break``, ``continue`` and
        ``return`` have been written out as themselves.
        """
        while True:
            term = self.block(b)
            if term.op == "ret":
                value = self.read(term.args[0])
                self.settle()
                if self.fn.name == "main":
                    # only the outermost activation settles the last
                    # pending cycles, as Interp.run() does after _exec
                    self.yields = True
                    self.line("if top:")
                    self.line(f"  if p > 0: {_FLUSH}")
                    self.line(f"  return {value}")
                self.line(f"return {value}, p")
                return False
            if term.op == "br":
                info = self.ifs.get(b)
                targets = [term.args[1].value, term.args[2].value]
                if info is None or targets != [info.then, info.els or info.join]:
                    self.bad(f"the br ending {b!r} is not a recorded if")
                cond = self.read(term.args[0])
                self.settle()
                self.line(f"if {cond}:")
                self.suite(info.then, info.join, loop)
                if info.els is not None:
                    self.line("else:")
                    self.suite(info.els, info.join, loop)
                after = info.join
            else:  # jmp
                target = term.args[0].value
                inner = self.preheaders.get(b)
                if inner is not None and target == inner.header:
                    self.settle()
                    self.loop(inner)
                    after = inner.exit
                elif target == stop:
                    self.settle()
                    return True
                elif loop is not None and target == loop.exit:
                    self.settle()
                    self.line("break")
                    return False
                elif loop is not None and target == (loop.step or loop.header):
                    self.step(loop)
                    self.line("continue")
                    return False
                else:
                    self.bad(f"the jmp {b!r} -> {target!r} is not structured")
            if self.must[after] is None:
                return False  # both arms left / the loop is never broken out of
            b = after

    def suite(self, b: str, stop, loop) -> None:
        self.depth += 1
        self.chain(b, stop, loop)  # never empty: every transfer costs cycles
        self.depth -= 1

    def loop(self, loop) -> None:
        self.line("while True:")
        self.depth += 1
        term = self.block(loop.header)
        if term.op == "br" and term.args[2].value == loop.exit:
            body = term.args[1].value
            cond = self.read(term.args[0])
            self.settle()
            self.line(f"if not {cond}: break")
        elif term.op == "jmp":  # ``for (;;)``: left only by break
            body = term.args[0].value
        else:
            self.bad(f"loop header {loop.header!r} does not choose between body and exit")
        if self.chain(body, loop.step or loop.header, loop):
            self.step(loop)
        self.depth -= 1

    def step(self, loop) -> None:
        """What precedes the next iteration: a ``for``'s step, the back edge's cost."""
        if loop.step is not None:
            term = self.block(loop.step)
            if term.op != "jmp" or term.args[0].value != loop.header:
                self.bad(f"for-step {loop.step!r} does not return to its header")
        self.settle()

    def source(self) -> str:
        """The factory's source text (which is also its cache key)."""
        fn = self.fn
        self.chain(fn.entry, None, None)
        name = "f_" + fn.name
        params = [_local(p) for p in fn.params]
        unset = [n for n in self.unset if n not in params]
        if fn.name == "main":  # the signature of the run's own activation
            params = [f"{p}=_UNSET" for p in params] + ["p=0", "top=True"]
        else:
            params.append("p")
        head = [f"  {n} = E[{n!r}]" for n in sorted(self.env)]
        head.append(f"  def {name}({', '.join(params)}):")
        if not self.yields:
            head.append("    if 0: yield  # a generator, like every AceC function")
        if unset:
            head.append(f"    {' = '.join(unset)} = _UNSET")
        for arr, size in fn.arrays.items():
            init = f"[None] * {size}" if fn.var_types[arr].is_handle else f"zeros({size})"
            head.append(f"    {_local(arr)} = {init}")
        return "\n".join(["def _make(E):", *head, *self.lines, f"  return {name}", ""])


# ------------------------------------------------------------ compilation
#: compiled factories, one per exact source text: a program compiled at
#: the four optimization levels shares every function the passes left
#: alone, and equal text means equal behaviour.  Bounded like the parse
#: cache so property tests compiling arbitrary programs can't grow it
#: without limit.
_CODE = CodeFile(_FILENAME, _NAMESPACE, limit=1024)


class ClosureProgram:
    """One bind-time factory per function — ready to bind to a node."""

    __slots__ = ("funcs", "sources")

    def __init__(self, funcs, sources):
        self.funcs = funcs      # name -> factory(env) -> generator function
        self.sources = sources  # name -> the Python text it was compiled from


def compile_closures(ir: ProgramIR) -> ClosureProgram:
    """One walk over lowered, optimized IR → a bindable closure program.

    A full cache is emptied *before* any of this program's functions is
    looked up, and the program holds its own factories, so nothing a
    built program needs can be evicted under it.
    """
    sources = {name: _Emitter(fn).source() for name, fn in ir.funcs.items()}
    _CODE.reserve(sources.values())
    funcs = {}
    for name, text in sources.items():
        try:
            funcs[name] = _CODE.factory(text)
        except SyntaxError as err:
            raise AceCompileError(f"{name}: {err.msg} ({_CPYTHON_LIMITS})") from err
    return ClosureProgram(funcs, sources)


# ----------------------------------------------------------------- bind
def bind_node(program: ClosureProgram, ctx, bb, prints, host_data):
    """Bind a compiled program to one node; returns the SPMD generator.

    Resolution mirrors the interpreter: runtime-library builtins go
    through the node context (``ctx.barrier`` handles the default-space
    multiplexing), annotation ops through the backend runtime — looked
    up here, once, so a ``CheckedRuntime``'s observing methods are what
    gets bound.  Each factory takes from ``env`` what its function uses.
    """
    runtime = ctx.backend.runtime
    funcs: dict = {}
    env = {
        "nid": ctx.nid, "me": float(ctx.nid), "nprocs": float(ctx.n_procs), "bb": bb,
        "prints": prints, "host_data": host_data or {}, "room": runtime.lead_room, "F": funcs,
    }
    env.update(("rt_" + op, getattr(runtime, op)) for op in ANNOTATION_OPS)
    env.update((name, getattr(ctx, name[len("ace_"):])) for name in _LIB)
    for name, make in program.funcs.items():
        funcs[name] = make(env)
    # the top-level activation of main() settles the final pending cycles
    # itself, so no wrapper generator sits under every kernel resume
    return funcs["main"]()
