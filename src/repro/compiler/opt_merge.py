"""Merging redundant protocol calls (§4.2, second optimization; Figure 6).

Per basic block:

* **MAP merging** — available-expression analysis on ``map`` operands:
  a later ``ACE_MAP(x)`` whose ``x`` is unchanged since an earlier map
  in the block reuses the earlier handle (the later map becomes a
  ``mov``, preserving uses of its destination in other blocks).
* **START/END merging** — when an access ends and a later access of
  the *same mode* on the same handle starts in the same block with no
  synchronization between, the inner END/START pair is deleted: "use
  the highest ACE_START_*, and the lowest ACE_END_*, and remove the
  rest."  Reads never merge with writes (the paper's footnote).

Both rewrites apply only where every possible protocol is optimizable,
and available expressions are killed at synchronization calls.
"""

from __future__ import annotations

from repro.compiler.ir import Const, Instr, ProgramIR, SYNC_BUILTINS


def merge_calls(program: ProgramIR, registry) -> int:
    """Run the pass; returns the number of instructions removed/downgraded."""
    removed = 0
    for fn in program.funcs.values():
        for block in fn.blocks.values():
            removed += _merge_maps(block, registry)
            removed += _merge_start_end(block, registry)
    return removed


def _key(operand):
    return ("const", operand.value) if isinstance(operand, Const) else ("var", operand)


def _merge_maps(block, registry) -> int:
    available: dict = {}  # operand key -> handle name
    changed = 0
    for i, ins in enumerate(block.instrs):
        if ins.dst is not None:
            # a definition kills maps whose operand was this variable
            available = {k: v for k, v in available.items() if k != ("var", ins.dst)}
        if ins.op == "builtin" and ins.args[0].value in SYNC_BUILTINS:
            available.clear()
            continue
        if ins.op == "map":
            key = _key(ins.args[0])
            if key in available and registry.optimizable(ins.protocols):
                block.instrs[i] = Instr(
                    "mov", dst=ins.dst, args=[available[key]], line=ins.line
                )
                changed += 1
            else:
                available[key] = ins.dst
    return changed


_PAIRS = {"end_read": "start_read", "end_write": "start_write"}


def _merge_start_end(block, registry) -> int:
    """Delete END(h); ...; START(h) pairs of matching mode."""
    # resolve handle aliases introduced by map merging (mov chains)
    alias: dict[str, str] = {}

    def resolve(h):
        while h in alias:
            h = alias[h]
        return h

    removed = 0
    changed = True
    while changed:
        changed = False
        alias.clear()
        pending: dict = {}  # (handle, end_op) -> index of candidate END
        for i, ins in enumerate(block.instrs):
            if ins.op == "mov" and isinstance(ins.args[0], str):
                alias[ins.dst] = ins.args[0]
                continue
            if ins.op == "builtin" and ins.args[0].value in SYNC_BUILTINS:
                pending.clear()
                continue
            if ins.op in _PAIRS and registry.optimizable(ins.protocols):
                pending[(resolve(ins.args[0]), ins.op)] = i
                continue
            if ins.op in ("start_read", "start_write"):
                h = resolve(ins.args[0])
                end_op = "end_read" if ins.op == "start_read" else "end_write"
                key = (h, end_op)
                if key in pending and registry.optimizable(ins.protocols):
                    j = pending.pop(key)
                    del block.instrs[i]
                    del block.instrs[j]
                    removed += 2
                    changed = True
                    break
                # a new START on this handle invalidates older candidates
                pending.pop((h, "end_read"), None)
                pending.pop((h, "end_write"), None)
            elif ins.op in ("unmap",):
                pending.pop((resolve(ins.args[0]), "end_read"), None)
                pending.pop((resolve(ins.args[0]), "end_write"), None)
    return removed
