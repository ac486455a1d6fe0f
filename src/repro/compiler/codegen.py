"""Closure-compilation backend: lowered, optimized IR → pre-bound Python closures.

The tree-walking interpreter (:mod:`repro.compiler.interp`) pays, per
IR instruction, a string-compare dispatch chain, an ``OP_COST`` dict
probe, and one ``isinstance`` + dict hash per operand.  This backend
walks the IR exactly **once per compile** and emits, per instruction, a
small Python closure with everything pre-resolved:

* variables live in a flat register file (a plain list); operand slots
  are bound into the closure at compile time, so a read is one list
  index plus an ``is``-check against the unset sentinel;
* runs of computation-only instructions are fused per basic block into
  *segments*: each segment is emitted as straight-line Python source
  (operand slots and literals baked in, registers mirrored in locals)
  and compiled to one function — one dispatch and one call per
  segment instead of per instruction, with the segment's static cycle
  cost pre-summed into a single constant;
* builtins, runtime entry points, and region-handle plumbing are
  resolved at **bind time** (once per node per run): ``ace_barrier``
  becomes the node context's bound ``barrier``, ``map`` the runtime's
  bound ``map`` with the node id pre-applied, and so on — the hot loop
  never does an attribute lookup.  Node-dependent builtins inside a
  segment (``my_proc``, ``bb_put``, ...) are the one exception: the
  generated code calls them through a bind-time table ``S``.

The emitted program is still a generator over the simulation kernel
and reproduces the interpreter's behaviour *bit-for-bit*: the same
``Delay`` values flushed at the same points, the same runtime calls in
the same order, the same error messages on the same inputs.  The
interpreter stays as the differential-testing oracle
(``tests/compiler/test_codegen_oracle.py`` pins the equivalence).

Cost accounting invariant: the interpreter accumulates per-op costs
into ``pending`` and settles them right before each runtime
interaction.  Fusing static costs to segment granularity is safe
because no flush can occur *inside* a segment — the total pending at
every flush point is identical, so the yielded ``Delay`` stream (and
therefore simulated cycles and golden traces) is too.  As there, one
rule settles the pending cycles ``p`` of an annotation op: ``p <=
runtime.lead_room`` rides the access as its ``lead``, anything longer
(``work(n)`` is unbounded) and every library builtin is flushed as a
``Delay`` of its own (see ``interp.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiler.errors import AceRuntimeErr
from repro.compiler.ir import Const, ProgramIR
from repro.compiler.interp import _BIG, _MATH_COST, OP_COST
from repro.sim import Delay
from repro.sim.kernel import _DELAY_POOL, _DELAY_POOL_SIZE

#: register-file sentinel for "never assigned" (reads raise, like the
#: interpreter's env KeyError path)
_UNSET = object()

#: ops with no kernel interaction: fused into segments
_PURE_OPS = frozenset(
    ("const", "mov", "bin", "un", "idx_load", "idx_store", "deref_load", "deref_store")
)

#: builtins with no kernel interaction (host-side work; cost only)
_PURE_BUILTINS = frozenset(_MATH_COST) | frozenset(
    ("work", "my_proc", "num_procs", "print", "host_data", "bb_put", "bb_get")
)

#: runtime-library builtins: flush pending, then drive a context generator
_LIB_BUILTINS = frozenset(
    ("ace_new_space", "ace_gmalloc", "ace_change_protocol", "ace_barrier",
     "ace_lock", "ace_unlock")
)

# action tags (driver dispatch)
_SEG, _JMP, _BR, _RET, _MAP, _RT, _LIB, _CALL = range(8)

#: binary operators emitted verbatim into generated segment code
_ARITH = frozenset(("+", "-", "*"))
_CMP = frozenset(("==", "!=", "<", ">", "<=", ">="))


# Error helpers the generated code calls instead of carrying its own
# f-string raise sites: one short call per check keeps the per-program
# ``compile()`` bill (the dominant codegen cost) proportional to logic,
# not message text.  Messages match the interpreter's character-for-
# character.
def _oob(line, j, a):
    raise AceRuntimeErr(f"line {line}: index {j} out of bounds (size {len(a)})")


def _unset(fname, operand):
    raise AceRuntimeErr(f"{fname}: read of unset variable {operand}")


class _BindEnv:
    """Everything a node-bound program needs, resolved once per run."""

    __slots__ = ("ctx", "nid", "n_procs", "runtime", "bb", "prints", "host_data")

    def __init__(self, ctx, bb, prints, host_data):
        self.ctx = ctx
        self.nid = ctx.nid
        self.n_procs = ctx.n_procs
        self.runtime = ctx.backend.runtime
        self.bb = bb
        self.prints = prints
        self.host_data = host_data or {}


# ------------------------------------------------------------------ getters
def _getter(operand, fname, slots, safe=()):
    """Compile an operand into ``get(regs) -> value``.

    ``safe`` holds the slots definitely assigned at this program point
    (the must-assign dataflow result): reads of those skip the unset
    check entirely — the interpreter's KeyError path is unreachable.
    """
    if isinstance(operand, Const):
        v = operand.value
        return lambda regs: v
    i = slots[operand]
    if i in safe:
        return lambda regs: regs[i]
    msg = f"{fname}: read of unset variable {operand}"

    def get(regs):
        x = regs[i]
        if x is _UNSET:
            raise AceRuntimeErr(msg)
        return x

    return get


def _must_assigned(fn, slots) -> dict:
    """Per-block must-assign sets: slots set on *every* path to entry.

    Slots never revert to unset, so this is a plain forward dataflow
    with intersection at joins; params are bound on function entry
    (lowering rejects arity mismatches at call sites).
    """
    order = fn.block_order()
    preds = fn.predecessors()
    gen: dict = {}
    for bname in order:
        g = set()
        for ins in fn.blocks[bname].instrs:
            if ins.dst is not None:
                g.add(slots[ins.dst])
        gen[bname] = g
    params = {slots[p] for p in fn.params}
    ins_: dict = {b: None for b in order}  # None = not yet reached
    ins_[fn.entry] = set(params)
    changed = True
    while changed:
        changed = False
        for b in order:
            if b == fn.entry:
                continue  # always reached with exactly the params bound
            outs = [ins_[p] | gen[p] for p in preds[b] if ins_[p] is not None]
            new = set.intersection(*outs) if outs else set(params)
            if new != ins_[b]:
                ins_[b] = new
                changed = True
    return ins_


# ------------------------------------------------------ segment emission
# A segment — a run of computation-only instructions — is emitted as
# straight-line Python source and compiled once per program (one exec
# of the joined module, not one per segment).  Register slots and
# literals are baked into the text; registers the segment touches are
# mirrored in locals (``v<slot>``), written through to ``regs`` so the
# driver's branch/return getters and later segments observe them.
# Statement order tracks the interpreter exactly — including Python's
# own right-hand-side-first evaluation inside subscript stores — so
# error ordering is preserved too.

class _SegEmitter:
    """Accumulates source lines for one segment.

    ``assigned`` is the running must-assign set for the surrounding
    block walk (shared, mutated in place): reads of assigned slots
    skip the unset check; a read that *does* pass its check proves the
    slot set for the rest of the block.
    """

    __slots__ = (
        "fname", "slots", "aslots", "assigned", "lines", "loaded", "acache",
        "env_facs", "cost",
    )

    def __init__(self, fname, slots, aslots, assigned):
        self.fname = fname
        self.slots = slots
        self.aslots = aslots
        self.assigned = assigned
        self.lines: list = []
        self.loaded: set = set()   # slots whose local mirror v<i> is loaded
        self.acache: set = set()   # array slots with a local a<i>
        self.env_facs: list = []   # bind-time step factories, called via S[k]
        self.cost = 0

    def read(self, operand) -> str:
        """Emit the load (and unset check, if needed); return an atom."""
        if isinstance(operand, Const):
            return repr(operand.value)
        i = self.slots[operand]
        name = f"v{i}"
        if i not in self.loaded:
            self.lines.append(f"{name} = regs[{i}]")
            if i not in self.assigned:
                self.lines.append(
                    f"if {name} is _UNSET: _unset({self.fname!r}, {operand!r})"
                )
                self.assigned.add(i)
            self.loaded.add(i)
        return name

    def write(self, dst, expr) -> None:
        i = self.slots[dst]
        self.lines.append(f"v{i} = regs[{i}] = {expr}")
        self.loaded.add(i)
        self.assigned.add(i)

    def array(self, name) -> str:
        i = self.aslots[name]
        a = f"a{i}"
        if i not in self.acache:
            self.lines.append(f"{a} = arrays[{i}]")
            self.acache.add(i)
        return a

    def index(self, arr, idx_expr, line) -> None:
        """Emit ``j = int(...)`` plus the interpreter's bounds check."""
        self.lines.append(f"j = int({idx_expr})")
        self.lines.append(f"if not 0 <= j < len({arr}): _oob({line}, j, {arr})")

    def env_step(self, fac, dst) -> None:
        """Defer one node-dependent builtin to a bind-time step table."""
        k = len(self.env_facs)
        self.env_facs.append(fac)
        self.lines.append(f"S[{k}](regs, arrays, st)")
        if dst is not None:
            # the step writes regs[dst] behind the local mirror's back
            i = self.slots[dst]
            self.loaded.discard(i)
            self.assigned.add(i)


def _emit_pure(em: _SegEmitter, ins, fn) -> None:
    """Emit one computation-only instruction into the segment."""
    op = ins.op
    if op == "mov" or op == "const":
        em.write(ins.dst, em.read(ins.args[0]))
    elif op == "bin":
        o = ins.args[0].value
        a = em.read(ins.args[1])
        b = em.read(ins.args[2])
        if o in _ARITH:
            em.write(ins.dst, f"{a} {o} {b}")
        elif o in _CMP:
            em.write(ins.dst, f"float({a} {o} {b})")
        elif o == "/":
            em.lines.append(f"if {b} == 0: raise AceRuntimeErr('division by zero')")
            em.write(ins.dst, f"{a} / {b}")
        elif o == "%":
            em.lines.append(f"if int({b}) == 0: raise AceRuntimeErr('modulo by zero')")
            em.write(ins.dst, f"float(int({a}) % int({b}))")
        elif o == "&&":
            em.write(ins.dst, f"float(bool({a}) and bool({b}))")
        else:  # "||"
            em.write(ins.dst, f"float(bool({a}) or bool({b}))")
    elif op == "un":
        x = em.read(ins.args[1])
        em.write(ins.dst, f"-{x}" if ins.args[0].value == "-" else f"float(not {x})")
    elif op == "idx_load":
        a = em.array(ins.args[0])
        em.index(a, em.read(ins.args[1]), ins.line)
        numeric = not fn.var_types[ins.args[0]].is_handle
        em.write(ins.dst, f"float({a}[j])" if numeric else f"{a}[j]")
    elif op == "idx_store":
        a = em.array(ins.args[0])
        v = em.read(ins.args[2])  # RHS first, as in the interpreter's store
        em.index(a, em.read(ins.args[1]), ins.line)
        em.lines.append(f"{a}[j] = {v}")
    elif op == "deref_load":
        h = em.read(ins.args[0])
        em.lines.append(f"d = {h}.data")
        em.index("d", em.read(ins.args[1]), ins.line)
        em.write(ins.dst, "float(d[j])")
    else:  # deref_store
        h = em.read(ins.args[0])
        em.lines.append(f"d = {h}.data")
        v = em.read(ins.args[2])  # RHS first, as in the interpreter's store
        em.index("d", em.read(ins.args[1]), ins.line)
        em.lines.append(f"d[j] = {v}")


#: builtins inlined directly into segment source (env-independent);
#: each entry maps to an emitter given the read argument atoms
_INLINE_BUILTINS = {
    "sqrt": lambda a: f"math.sqrt({a[0]})",
    "fabs": lambda a: f"abs({a[0]})",
    "floor": lambda a: f"float(math.floor({a[0]}))",
    "min": lambda a: f"min({a[0]}, {a[1]})",
    "max": lambda a: f"max({a[0]}, {a[1]})",
    "idiv": lambda a: f"float(int({a[0]}) // int({a[1]}))",
    "imod": lambda a: f"float(int({a[0]}) % int({a[1]}))",
    "inf": lambda a: "_BIG",
}


def _emit_builtin(em: _SegEmitter, ins) -> None:
    """Emit one pure builtin; env-dependent ones go through ``S``."""
    name = ins.args[0].value
    em.cost += OP_COST.get("builtin", 1)
    if name in _MATH_COST:
        em.cost += _MATH_COST[name]
        expr = _INLINE_BUILTINS[name]([em.read(a) for a in ins.args[1:]])
        if ins.dst is not None:
            em.write(ins.dst, expr)
        else:  # evaluate for effect (exceptions), as the interpreter does
            em.lines.append(expr)
        return
    if name == "work":
        x = em.read(ins.args[1])
        em.lines.append(f"st[0] += int({x})")
        if ins.dst is not None:  # interp stores the builtin's None result
            em.write(ins.dst, "None")
        return
    # node-dependent: resolved at bind time, called via the S table
    em.cost += {"my_proc": 2, "num_procs": 2, "print": 0}.get(name, 4)
    em.env_step(_c_builtin_env(ins, em.fname, em.slots, em.assigned), ins.dst)


#: compiled segments cached by exact source text: programs (and the
#: same program at different optimization levels) share a lot of
#: identical straight-line runs, and slot numbers are baked into the
#: text, so equal text means equal behaviour.  Bounded like the parse
#: cache so property tests compiling arbitrary programs can't grow it
#: without limit.
_SEG_CACHE: dict[str, object] = {}
_SEG_CACHE_MAX = 8192


class _ProgCode:
    """Collects sources of segments not already cached; one exec per program."""

    __slots__ = ("chunks", "new")

    def __init__(self):
        self.chunks: list = []
        self.new: dict = {}  # key -> module-local name

    def add(self, em: _SegEmitter) -> str:
        """Register the segment's source; returns its cache key."""
        body = [f"st[0] += {em.cost}"] if em.cost else []
        body += em.lines
        if not body:  # pragma: no cover - close_seg never emits empties
            body = ["pass"]
        if em.env_facs:
            # bind-time factory form: generated code reaches the bound
            # node-dependent steps through S
            key = "S:" + "\n".join(body)
        else:
            # env-free: the compiled function is bind-invariant, shared
            # by every node of every run
            key = "\n".join(body)
        if key not in _SEG_CACHE and key not in self.new:
            name = f"_seg{len(self.new)}"
            self.new[key] = name
            if em.env_facs:
                src = (
                    f"def {name}(S):\n  def run(regs, arrays, st):\n"
                    + "\n".join("    " + b for b in body)
                    + "\n  return run"
                )
            else:
                src = f"def {name}(regs, arrays, st):\n" + "\n".join(
                    "  " + b for b in body
                )
            self.chunks.append(src)
        return key

    def build(self) -> dict:
        """Compile the misses and publish them into the shared cache."""
        if self.chunks:
            if len(_SEG_CACHE) + len(self.new) > _SEG_CACHE_MAX:
                _SEG_CACHE.clear()
            g = {
                "_UNSET": _UNSET, "AceRuntimeErr": AceRuntimeErr, "math": math,
                "_BIG": _BIG, "_oob": _oob, "_unset": _unset,
            }
            exec(compile("\n".join(self.chunks), "<acec-codegen>", "exec"), g)
            for key, name in self.new.items():
                _SEG_CACHE[key] = g[name]
        return _SEG_CACHE


# --------------------------------------------- node-dependent builtins
def _c_builtin_env(ins, fname, slots, safe=()):
    """Bind-time factory for a node-dependent host builtin.

    Returns ``fac(env) -> step(regs, arrays, st)``; the step mirrors
    the interpreter's semantics exactly (argument conversions, error
    messages, and storing ``None`` results when ``dst`` is set).
    """
    name = ins.args[0].value
    dst = slots[ins.dst] if ins.dst is not None else None
    gs = [_getter(a, fname, slots, safe) for a in ins.args[1:]]

    def store(compute):
        # interp stores the builtin's result whenever dst is set (None
        # results included)
        if dst is None:
            return lambda regs, arrays, st: compute(regs, st) and None

        def step(regs, arrays, st):
            regs[dst] = compute(regs, st)

        return step

    if name == "my_proc":
        def fac(env):
            me = float(env.nid)
            return store(lambda regs, st: me)

        return fac
    if name == "num_procs":
        def fac(env):
            n = float(env.n_procs)
            return store(lambda regs, st: n)

        return fac
    if name == "print":
        g0 = gs[0]

        def fac(env):
            prints = env.prints
            nid = env.nid

            def fn(regs, st):
                prints.append((nid, g0(regs)))
                return None

            return store(fn)

        return fac
    if name == "host_data":
        g0, g1 = gs

        def fac(env):
            hd = env.host_data

            def fn(regs, st):
                key = g0(regs)
                idx = int(g1(regs))
                try:
                    return float(hd[key][idx])
                except (KeyError, IndexError):
                    raise AceRuntimeErr(f"host_data({key!r}, {idx}) missing") from None

            return store(fn)

        return fac
    if name == "bb_put":
        g0, g1, g2 = gs

        def fac(env):
            bb = env.bb

            def fn(regs, st):
                bb[(g0(regs), int(g1(regs)))] = g2(regs)
                return None

            return store(fn)

        return fac
    if name == "bb_get":
        g0, g1 = gs

        def fac(env):
            bb = env.bb

            def fn(regs, st):
                key = (g0(regs), int(g1(regs)))
                try:
                    return bb[key]
                except KeyError:
                    raise AceRuntimeErr(
                        f"bb_get{key!r}: not published yet (missing barrier?)"
                    ) from None

            return store(fn)

        return fac
    raise AceRuntimeErr(f"unimplemented builtin {name!r}")  # pragma: no cover


# ------------------------------------------------------- library builtins
def _c_builtin_lib(ins, fname, slots, safe=()):
    """Compile an ``ace_*`` runtime call into a bind-time runner factory.

    The runner is a generator function mirroring the interpreter's
    post-flush tail exactly (argument conversions included).
    """
    name = ins.args[0].value
    dst = slots[ins.dst] if ins.dst is not None else None
    gs = [_getter(a, fname, slots, safe) for a in ins.args[1:]]
    if name == "ace_new_space":
        (g0,) = gs

        def fac(env):
            new_space = env.ctx.new_space

            def runner(regs):
                sid = yield from new_space(g0(regs))
                return float(sid)

            return runner

    elif name == "ace_gmalloc":
        g0, g1 = gs

        def fac(env):
            gmalloc = env.ctx.gmalloc

            def runner(regs):
                rid = yield from gmalloc(int(g0(regs)), int(g1(regs)))
                return float(rid)

            return runner

    elif name == "ace_change_protocol":
        g0, g1 = gs

        def fac(env):
            change_protocol = env.ctx.change_protocol

            def runner(regs):
                yield from change_protocol(int(g0(regs)), g1(regs))
                return None

            return runner

    elif name == "ace_barrier":
        (g0,) = gs

        def fac(env):
            barrier = env.ctx.barrier

            def runner(regs):
                yield from barrier(int(g0(regs)))
                return None

            return runner

    elif name == "ace_lock":
        (g0,) = gs

        def fac(env):
            lock = env.ctx.lock

            def runner(regs):
                yield from lock(int(g0(regs)))
                return None

            return runner

    elif name == "ace_unlock":
        (g0,) = gs

        def fac(env):
            unlock = env.ctx.unlock

            def runner(regs):
                yield from unlock(int(g0(regs)))
                return None

            return runner

    else:  # pragma: no cover - lowering emits only the names above
        raise AceRuntimeErr(f"unimplemented builtin {name!r}")
    return (_LIB, fac, dst)


# ------------------------------------------------------------- templates
class _FuncTemplate:
    __slots__ = ("name", "nslots", "param_slots", "array_inits", "entry", "blocks")

    def __init__(self, name, nslots, param_slots, array_inits, entry, blocks):
        self.name = name
        self.nslots = nslots
        self.param_slots = param_slots
        self.array_inits = array_inits  # [(is_handle, size), ...] by array slot
        self.entry = entry
        self.blocks = blocks  # [((action template, ...), terminator), ...]


class ClosureProgram:
    """Per-instruction thunks, fused per basic block — ready to bind."""

    __slots__ = ("funcs",)

    def __init__(self, funcs):
        self.funcs = funcs  # name -> _FuncTemplate


def compile_closures(ir: ProgramIR) -> ClosureProgram:
    """One walk over lowered, optimized IR → a bindable closure program.

    Every segment's source accumulates into one module compiled with a
    single ``exec`` per program; the walk leaves segment *names* in the
    action templates, patched to the compiled factories here.
    """
    code = _ProgCode()
    funcs = {name: _compile_func(fn, code) for name, fn in ir.funcs.items()}
    g = code.build()
    for ft in funcs.values():
        ft.blocks = [
            (
                tuple(
                    (_SEG, g[a[1]], a[2]) if a[0] == _SEG else a for a in acts
                ),
                term,
            )
            for acts, term in ft.blocks
        ]
    return ClosureProgram(funcs)


def _compile_func(fn, code: _ProgCode) -> _FuncTemplate:
    fname = fn.name
    # flat register file: every name the function mentions gets a slot
    slots: dict = {}

    def slot(name):
        i = slots.get(name)
        if i is None:
            i = slots[name] = len(slots)
        return i

    for p in fn.params:
        slot(p)
    for block in fn.blocks.values():
        for ins in block.instrs:
            if ins.dst is not None:
                slot(ins.dst)
            for a in ins.args:
                if isinstance(a, str) and a not in fn.arrays:
                    slot(a)
    aslots = {name: i for i, name in enumerate(fn.arrays)}
    array_inits = [
        (fn.var_types[name].is_handle, size) for name, size in fn.arrays.items()
    ]

    order = fn.block_order()
    bidx = {name: i for i, name in enumerate(order)}
    must = _must_assigned(fn, slots)
    blocks = [
        _compile_block(
            fn, fn.blocks[bname], fname, slots, aslots, bidx, code,
            set(must[bname] or ()),
        )
        for bname in order
    ]
    return _FuncTemplate(
        fname,
        len(slots),
        [slots[p] for p in fn.params],
        array_inits,
        bidx[fn.entry],
        blocks,
    )


#: terminator tags — compiled blocks end in exactly one of these, kept
#: out of the straight-line dispatch chain entirely
_TERMINATORS = frozenset((_JMP, _BR, _RET))


def _compile_block(fn, block, fname, slots, aslots, bidx, code, assigned):
    # ``assigned`` starts as the block's must-assign-in set and grows as
    # the walk passes definitions; every getter/emitter consults it at
    # its own program point, so checks survive exactly where a read
    # really can be the first on some path.
    actions: list = []
    seg: list = [None]  # currently-open segment emitter, if any

    def emitter() -> _SegEmitter:
        if seg[0] is None:
            seg[0] = _SegEmitter(fname, slots, aslots, assigned)
        return seg[0]

    def close_seg():
        if seg[0] is not None:
            actions.append((_SEG, code.add(seg[0]), tuple(seg[0].env_facs)))
            seg[0] = None

    for ins in block.instrs:
        op = ins.op
        if op in _PURE_OPS:
            em = emitter()
            em.cost += OP_COST.get(op, 1)
            _emit_pure(em, ins, fn)
        elif op == "builtin":
            name = ins.args[0].value
            if name in _PURE_BUILTINS:
                _emit_builtin(emitter(), ins)
            else:
                close_seg()
                actions.append(_c_builtin_lib(ins, fname, slots, assigned))
                if ins.dst is not None:
                    assigned.add(slots[ins.dst])
        elif op == "map":
            close_seg()
            actions.append(
                (
                    _MAP,
                    slots[ins.dst],
                    _getter(ins.args[0], fname, slots, assigned),
                    ins.direct,
                )
            )
            assigned.add(slots[ins.dst])
        elif op in ("unmap", "start_read", "end_read", "start_write", "end_write"):
            close_seg()
            actions.append(
                (_RT, op, _getter(ins.args[0], fname, slots, assigned), ins.direct)
            )
        elif op == "call":
            close_seg()
            actions.append(
                (
                    _CALL,
                    slots[ins.dst],
                    ins.args[0].value,
                    tuple(_getter(a, fname, slots, assigned) for a in ins.args[1:]),
                )
            )
            assigned.add(slots[ins.dst])
        elif op == "jmp":
            close_seg()
            actions.append((_JMP, bidx[ins.args[0].value]))
        elif op == "br":
            close_seg()
            actions.append(
                (
                    _BR,
                    _getter(ins.args[0], fname, slots, assigned),
                    bidx[ins.args[1].value],
                    bidx[ins.args[2].value],
                )
            )
        elif op == "ret":
            close_seg()
            actions.append((_RET, _getter(ins.args[0], fname, slots, assigned)))
        else:  # pragma: no cover - lowering emits only the ops above
            raise AceRuntimeErr(f"unknown IR op {op!r}")
    close_seg()  # unreachable unless the block lacks a terminator
    if not actions or actions[-1][0] not in _TERMINATORS:
        # Lowering always terminates blocks; mirror the interpreter's
        # behaviour (it would walk off block.instrs) defensively.
        raise AceRuntimeErr(
            f"{fname}: block {block.name!r} has no terminator"
        )  # pragma: no cover
    return tuple(actions[:-1]), actions[-1]


# ----------------------------------------------------------------- bind
def bind_node(program: ClosureProgram, ctx, bb, prints, host_data):
    """Bind a compiled program to one node; returns the SPMD generator.

    Resolution order mirrors the interpreter: runtime-library builtins
    go through the node context (``ctx.barrier`` handles the default-
    space multiplexing), annotation ops through the backend runtime
    with the node id pre-applied.
    """
    env = _BindEnv(ctx, bb, prints, host_data)
    room = env.runtime.lead_room
    runners: dict = {}
    block_tables: dict = {}
    for name, ft in program.funcs.items():
        blocks: list = []
        block_tables[name] = blocks
        runners[name] = _make_runner(ft, blocks, room)
    for name, ft in program.funcs.items():
        table = block_tables[name]
        for acts, term in ft.blocks:
            table.append((tuple(_bind_action(a, env, runners) for a in acts), term))
    # The top-level activation of main() gets its own runner whose ret
    # also flushes the final pending cycles — saving the wrapper
    # generator frame every kernel resume would otherwise traverse.
    # Recursive calls to main() go through runners["main"], which must
    # NOT flush at its ret (the interpreter only flushes once, at the
    # very end of Interp.run()).
    main_top = _make_runner(program.funcs["main"], block_tables["main"], room, top=True)
    return main_top([], [0])


def _bind_action(a, env, runners):
    tag = a[0]
    if tag == _SEG:
        # segments bind to the bare compiled function — the driver
        # treats any non-tuple action as a segment, the hottest case.
        # a[2] holds the bind-time step factories the generated code
        # reaches through its S table; without any, a[1] is already the
        # bind-invariant compiled function itself
        if a[2]:
            return a[1](tuple(fac(env) for fac in a[2]))
        return a[1]
    if tag == _MAP:
        return (_MAP, a[1], a[2], env.runtime.map, env.nid, a[3])
    if tag == _RT:
        return (_RT, getattr(env.runtime, a[1]), env.nid, a[2], a[3])
    if tag == _LIB:
        return (_LIB, a[1](env), a[2])
    if tag == _CALL:
        return (_CALL, a[1], runners[a[2]], a[3])
    return a  # _JMP / _BR / _RET are fully static


def _make_runner(ft: _FuncTemplate, blocks: list, lead_room: int, top: bool = False):
    """Build the per-activation driver for one function.

    ``blocks`` is the (possibly still-empty) bound-action table,
    captured by reference so mutually recursive functions can resolve
    each other before any table is filled.

    ``top=True`` builds the variant for the program's single top-level
    ``main()`` activation: its ``ret`` also flushes the final pending
    cycles (what ``Interp.run()`` does after ``_exec`` returns), so the
    bound program needs no wrapper generator around it.

    Dispatch layout: terminators (jmp/br/ret) are stored separately
    from the block body; segments — the hottest action by far — bind
    to bare functions, so their dispatch is a single class test, and
    the remaining tags are ordered by measured frequency (annotation
    ops before calls).  The per-block terminator pays at most two
    compares.  Pending-cycle flushes index the kernel's Delay pool
    directly instead of going through ``Delay.__new__``; pending cycles
    within ``lead_room`` (the runtime's) ride the annotation op instead.
    """
    nslots = ft.nslots
    param_slots = ft.param_slots
    array_inits = ft.array_inits
    entry = ft.entry
    pool = _DELAY_POOL
    pool_size = _DELAY_POOL_SIZE

    def run(args, st):
        regs = [_UNSET] * nslots
        for s, v in zip(param_slots, args):
            regs[s] = v
        arrays = [
            [None] * size if is_handle else np.zeros(size)
            for is_handle, size in array_inits
        ]
        b = entry
        while True:
            acts, term = blocks[b]
            for act in acts:
                if act.__class__ is not tuple:  # segment: bare function
                    act(regs, arrays, st)
                    continue
                tag = act[0]
                if tag == _RT:
                    st[0] += 1
                    p = st[0]
                    st[0] = 0
                    if p > lead_room:  # too long to ride the access as its lead
                        yield pool[p] if p < pool_size else Delay(p)
                        p = 0
                    yield from act[1](act[2], act[3](regs), act[4], p)
                elif tag == _MAP:
                    st[0] += 1
                    p = st[0]
                    st[0] = 0
                    if p > lead_room:
                        yield pool[p] if p < pool_size else Delay(p)
                        p = 0
                    regs[act[1]] = yield from act[3](act[4], int(act[2](regs)), act[5], p)
                elif tag == _LIB:
                    st[0] += 1
                    p = st[0]
                    st[0] = 0
                    yield pool[p] if p < pool_size else Delay(p)
                    r = yield from act[1](regs)
                    if act[2] is not None:
                        regs[act[2]] = r
                else:  # _CALL
                    st[0] += 12
                    regs[act[1]] = yield from act[2]([g(regs) for g in act[3]], st)
            tag = term[0]
            if tag == _BR:
                st[0] += 2
                b = term[2] if term[1](regs) else term[3]
            elif tag == _JMP:
                st[0] += 1
                b = term[1]
            elif not top:  # _RET
                st[0] += 2
                return term[1](regs)
            else:  # _RET of the top-level main(): final flush, then stop
                st[0] += 2
                result = term[1](regs)  # may raise: must precede the flush
                p = st[0]
                st[0] = 0
                if p:
                    yield pool[p] if p < pool_size else Delay(p)
                return result

    return run
