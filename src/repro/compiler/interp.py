"""IR interpreter: runs compiled AceC as an SPMD program on the Ace runtime.

Every plain IR op charges a small fixed cycle cost, batched into one
charge right before the next runtime interaction — so compute cost
is identical across optimization levels and the Table 4 deltas come
only from the annotation ops each level leaves behind.  Annotation ops
call straight into :class:`~repro.core.runtime.AceRuntime`, honouring
the ``direct`` flag the direct-dispatch pass set.

One rule settles the pending cycles ``p`` before an annotation op
(DESIGN.md §6, "One event per hop"): ``p <= runtime.lead_room`` rides
the access as its ``lead``; anything longer is flushed first (``work(n)``
is unbounded, a lead must stay shorter than the shortest message), and
so is everything pending before a library builtin.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiler.errors import AceRuntimeErr
from repro.compiler.ir import Const, ProgramIR
from repro.sim import Delay

#: cycles per plain IR op
OP_COST = {
    "const": 1,
    "mov": 1,
    "bin": 2,
    "un": 2,
    "idx_load": 2,
    "idx_store": 2,
    "deref_load": 3,
    "deref_store": 3,
    "jmp": 1,
    "br": 2,
    "ret": 2,
    "call": 12,
}

_MATH_COST = {"sqrt": 20, "fabs": 4, "floor": 4, "min": 3, "max": 3, "idiv": 8, "imod": 8, "inf": 1}

_BIG = 1e30


class Interp:
    """One node's interpreter instance."""

    def __init__(self, ir: ProgramIR, ctx, bb: dict, prints: list, host_data: dict | None):
        self.ir = ir
        self.ctx = ctx
        self.bb = bb
        self.prints = prints
        self.host_data = host_data or {}
        self.pending = 0

    # -- cost batching ---------------------------------------------------
    def _flush(self, room: int = 0):
        """Settle the pending cycles: as a ``Delay``, or — within ``room``
        — returned, to be the ``lead`` of the annotation op that follows."""
        cycles, self.pending = self.pending, 0
        if cycles <= room:
            return cycles
        yield Delay(cycles)
        return 0

    # -- entry -------------------------------------------------------------
    def run(self):
        """Generator: execute main(); returns its value."""
        result = yield from self._exec("main", [])
        yield from self._flush()
        return result

    # -- function execution ---------------------------------------------------
    def _exec(self, fname: str, args: list):
        fn = self.ir.funcs[fname]
        env: dict = dict(zip(fn.params, args))
        # handle-typed arrays hold RegionCopy objects, numeric ones floats
        arrays = {
            name: [None] * size if fn.var_types[name].is_handle else np.zeros(size)
            for name, size in fn.arrays.items()
        }
        block = fn.blocks[fn.entry]
        i = 0

        def val(operand):
            if isinstance(operand, Const):
                return operand.value
            try:
                return env[operand]
            except KeyError:
                raise AceRuntimeErr(f"{fname}: read of unset variable {operand}") from None

        while True:
            ins = block.instrs[i]
            op = ins.op
            self.pending += OP_COST.get(op, 1)
            if op == "mov" or op == "const":
                env[ins.dst] = val(ins.args[0])
            elif op == "bin":
                env[ins.dst] = _binop(ins.args[0].value, val(ins.args[1]), val(ins.args[2]))
            elif op == "un":
                operand = val(ins.args[1])
                env[ins.dst] = -operand if ins.args[0].value == "-" else float(not operand)
            elif op == "idx_load":
                arr = arrays[ins.args[0]]
                item = arr[self._index(arr, val(ins.args[1]), ins)]
                env[ins.dst] = float(item) if isinstance(arr, np.ndarray) else item
            elif op == "idx_store":
                arr = arrays[ins.args[0]]
                arr[self._index(arr, val(ins.args[1]), ins)] = val(ins.args[2])
            elif op == "deref_load":
                h = val(ins.args[0])
                data = h.data
                env[ins.dst] = float(data[self._index(data, val(ins.args[1]), ins)])
            elif op == "deref_store":
                h = val(ins.args[0])
                data = h.data
                data[self._index(data, val(ins.args[1]), ins)] = val(ins.args[2])
            elif op == "jmp":
                block = fn.blocks[ins.args[0].value]
                i = 0
                continue
            elif op == "br":
                target = ins.args[1].value if val(ins.args[0]) else ins.args[2].value
                block = fn.blocks[target]
                i = 0
                continue
            elif op == "ret":
                return val(ins.args[0])
            elif op == "call":
                argvals = [val(a) for a in ins.args[1:]]
                env[ins.dst] = yield from self._exec(ins.args[0].value, argvals)
            elif op == "builtin":
                result = yield from self._builtin(ins, val)
                if ins.dst is not None:
                    env[ins.dst] = result
            elif op == "map":
                lead = yield from self._flush(self._runtime.lead_room)
                rid = int(val(ins.args[0]))
                env[ins.dst] = yield from self._runtime.map(self.ctx.nid, rid, ins.direct, lead)
            elif op in ("unmap", "start_read", "end_read", "start_write", "end_write"):
                lead = yield from self._flush(self._runtime.lead_room)
                h = val(ins.args[0])
                fn_rt = getattr(self._runtime, op)
                yield from fn_rt(self.ctx.nid, h, ins.direct, lead)
            else:  # pragma: no cover - lowering emits only the ops above
                raise AceRuntimeErr(f"unknown IR op {op!r}")
            i += 1

    @property
    def _runtime(self):
        return self.ctx.backend.runtime

    def _index(self, arr, idx, ins) -> int:
        j = int(idx)
        if not 0 <= j < len(arr):
            raise AceRuntimeErr(f"line {ins.line}: index {j} out of bounds (size {len(arr)})")
        return j

    # -- builtins ------------------------------------------------------------
    def _builtin(self, ins, val):
        name = ins.args[0].value
        args = ins.args[1:]
        if name in _MATH_COST:
            self.pending += _MATH_COST[name]
            if name == "sqrt":
                return math.sqrt(val(args[0]))
            if name == "fabs":
                return abs(val(args[0]))
            if name == "floor":
                return float(math.floor(val(args[0])))
            if name == "min":
                return min(val(args[0]), val(args[1]))
            if name == "max":
                return max(val(args[0]), val(args[1]))
            if name == "idiv":
                return float(int(val(args[0])) // int(val(args[1])))
            if name == "imod":
                return float(int(val(args[0])) % int(val(args[1])))
            if name == "inf":
                return _BIG
        if name == "work":
            self.pending += int(val(args[0]))
            return None
        if name == "my_proc":
            self.pending += 2
            return float(self.ctx.nid)
        if name == "num_procs":
            self.pending += 2
            return float(self.ctx.n_procs)
        if name == "print":
            self.prints.append((self.ctx.nid, val(args[0])))
            return None
        if name == "host_data":
            self.pending += 4
            key = val(args[0])
            try:
                return float(self.host_data[key][int(val(args[1]))])
            except (KeyError, IndexError):
                raise AceRuntimeErr(f"host_data({key!r}, {int(val(args[1]))}) missing") from None
        if name == "bb_put":
            self.pending += 4
            self.bb[(val(args[0]), int(val(args[1])))] = val(args[2])
            return None
        if name == "bb_get":
            self.pending += 4
            key = (val(args[0]), int(val(args[1])))
            try:
                return self.bb[key]
            except KeyError:
                raise AceRuntimeErr(
                    f"bb_get{key!r}: not published yet (missing barrier?)"
                ) from None
        # runtime library calls
        yield from self._flush()
        ctx = self.ctx
        if name == "ace_new_space":
            sid = yield from ctx.new_space(val(args[0]))
            return float(sid)
        if name == "ace_gmalloc":
            rid = yield from ctx.gmalloc(int(val(args[0])), int(val(args[1])))
            return float(rid)
        if name == "ace_change_protocol":
            yield from ctx.change_protocol(int(val(args[0])), val(args[1]))
            return None
        if name == "ace_barrier":
            yield from ctx.barrier(int(val(args[0])))
            return None
        if name == "ace_lock":
            yield from ctx.lock(int(val(args[0])))
            return None
        if name == "ace_unlock":
            yield from ctx.unlock(int(val(args[0])))
            return None
        raise AceRuntimeErr(f"unimplemented builtin {name!r}")  # pragma: no cover


def _binop(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise AceRuntimeErr("division by zero")
        return a / b
    if op == "%":
        if int(b) == 0:
            raise AceRuntimeErr("modulo by zero")
        return float(int(a) % int(b))
    if op == "==":
        return float(a == b)
    if op == "!=":
        return float(a != b)
    if op == "<":
        return float(a < b)
    if op == ">":
        return float(a > b)
    if op == "<=":
        return float(a <= b)
    if op == ">=":
        return float(a >= b)
    if op == "&&":
        return float(bool(a) and bool(b))
    if op == "||":
        return float(bool(a) or bool(b))
    raise AceRuntimeErr(f"unknown operator {op!r}")  # pragma: no cover
