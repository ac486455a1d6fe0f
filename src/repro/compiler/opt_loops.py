"""Loop-invariant motion of protocol calls (§4.2, first optimization).

"ACE_MAP and ACE_START_* calls are moved above a loop, while ACE_END_*
calls are moved below a loop.  This optimization is performed only if
all the possible protocols of an access are optimizable."  And no code
ever moves past a synchronization call.

Per loop (innermost first, so hoisted calls can keep climbing):

* a ``map`` whose region-id operand is invariant (constant, or never
  defined inside the loop) moves to the preheader;
* for a handle whose every annotation inside the loop is
  ``start_read``/``end_read`` (or every one ``start_write``/
  ``end_write`` — mixed read/write accesses are not merged, per the
  paper's footnote), and which is defined outside the loop, the
  START/END pairs collapse to one START in the preheader and one END
  in the exit block.
"""

from __future__ import annotations

from repro.compiler.ir import Const, FuncIR, Instr, ProgramIR, SYNC_BUILTINS


def _loop_instrs(fn: FuncIR, body: set):
    for bname in body:
        yield from fn.blocks[bname].instrs


def _defs_in(fn: FuncIR, body: set) -> set:
    return {ins.dst for ins in _loop_instrs(fn, body) if ins.dst is not None}


def _has_sync(fn: FuncIR, body: set, program: ProgramIR, _seen=None) -> bool:
    """Does the loop contain a synchronization point (directly or via calls)?"""
    for ins in _loop_instrs(fn, body):
        if ins.op == "builtin" and ins.args[0].value in SYNC_BUILTINS:
            return True
        if ins.op == "call":
            if _call_has_sync(program, ins.args[0].value, set()):
                return True
    return False


def _call_has_sync(program: ProgramIR, fname: str, seen: set) -> bool:
    if fname in seen:
        return False
    seen.add(fname)
    fn = program.funcs[fname]
    for ins in fn.all_instrs():
        if ins.op == "builtin" and ins.args[0].value in SYNC_BUILTINS:
            return True
        if ins.op == "call" and _call_has_sync(program, ins.args[0].value, seen):
            return True
    return False


def hoist_loop_invariant(program: ProgramIR, registry) -> int:
    """Run the pass; returns the number of instructions moved."""
    moved = 0
    for fn in program.funcs.values():
        for loop in fn.loops:  # innermost-first by construction
            if _has_sync(fn, loop.body, program):
                continue
            moved += _hoist_maps(fn, loop, registry)
            moved += _hoist_start_end(fn, loop, registry)
    return moved


def _insert_preheader(fn: FuncIR, loop, instrs: list) -> None:
    pre = fn.blocks[loop.preheader].instrs
    for ins in instrs:
        pre.insert(len(pre) - 1, ins)  # before the terminator


def _insert_exit(fn: FuncIR, loop, instrs: list) -> None:
    fn.blocks[loop.exit].instrs[0:0] = instrs


def _hoist_maps(fn: FuncIR, loop, registry) -> int:
    moved = 0
    defs = _defs_in(fn, loop.body)
    for bname in sorted(loop.body):
        block = fn.blocks[bname]
        keep = []
        for ins in block.instrs:
            if (
                ins.op == "map"
                and registry.optimizable(ins.protocols)
                and (isinstance(ins.args[0], Const) or ins.args[0] not in defs)
            ):
                _insert_preheader(fn, loop, [ins])
                defs.discard(ins.dst)
                moved += 1
            else:
                keep.append(ins)
        block.instrs = keep
    return moved


def _hoist_start_end(fn: FuncIR, loop, registry) -> int:
    # classify annotation usage per handle inside the loop
    defs = _defs_in(fn, loop.body)
    usage: dict[str, set] = {}
    opt_ok: dict[str, bool] = {}
    for ins in _loop_instrs(fn, loop.body):
        if ins.op in ("start_read", "end_read", "start_write", "end_write", "unmap"):
            h = ins.args[0]
            usage.setdefault(h, set()).add(ins.op)
            opt_ok[h] = opt_ok.get(h, True) and registry.optimizable(ins.protocols)

    moved = 0
    for h, ops in sorted(usage.items()):
        if h in defs or not opt_ok.get(h, False):
            continue
        if ops == {"start_read", "end_read"}:
            start_op, end_op = "start_read", "end_read"
        elif ops == {"start_write", "end_write"}:
            start_op, end_op = "start_write", "end_write"
        else:
            continue  # mixed modes or unmaps: leave alone (paper footnote)
        protos = None
        removed = 0
        for bname in sorted(loop.body):
            block = fn.blocks[bname]
            keep = []
            for ins in block.instrs:
                if ins.op in (start_op, end_op) and ins.args[0] == h:
                    protos = ins.protocols if protos is None else protos | ins.protocols
                    removed += 1
                else:
                    keep.append(ins)
            block.instrs = keep
        if removed:
            _insert_preheader(fn, loop, [Instr(start_op, args=[h], protocols=protos)])
            _insert_exit(fn, loop, [Instr(end_op, args=[h], protocols=protos)])
            moved += removed
    return moved
