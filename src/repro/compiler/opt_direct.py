"""Direct dispatch (§4.2, third optimization).

"If the compiler can determine that there is a unique protocol
associated with an access, it replaces calls to Ace protocol dispatch
routines with direct calls to the appropriate protocol routine ...
In addition, if a protocol defines certain actions to be null, then
calls to that protocol action can be removed."

Concretely: an annotation op whose protocol set is a singleton gets
``direct = True`` (the interpreter skips the space-lookup dispatch
charge); if the unique protocol registers that hook null *and* is
optimizable, the op is deleted outright.  Devirtualization is always
safe — it only shortens the call path — but deletion removes the hook
invocation itself, and Figure 1's ``optimizable`` flag is exactly the
protocol designer's statement about whether that is allowed: a
non-optimizable protocol (RaceDetect, Counter) may declare a hook null
for dispatch purposes while still requiring every call to run.
"""

from __future__ import annotations

from repro.compiler.ir import ProgramIR


def direct_dispatch(program: ProgramIR, registry) -> tuple[int, int]:
    """Run the pass; returns (n_devirtualized, n_deleted)."""
    devirt = 0
    deleted = 0
    for fn in program.funcs.values():
        for block in fn.blocks.values():
            keep = []
            for ins in block.instrs:
                if (
                    ins.op in ("map", "unmap", "start_read", "end_read", "start_write", "end_write")
                    and ins.protocols is not None
                    and len(ins.protocols) == 1
                ):
                    if registry.may_elide(ins.protocols, ins.op):
                        deleted += 1
                        continue  # null handler: remove the call entirely
                    ins.direct = True
                    devirt += 1
                keep.append(ins)
            block.instrs = keep
    return devirt, deleted
