"""Linear IR over basic blocks.

Operands are either plain variable names (``str``) — source variables
keep scoped unique names, temporaries are ``%tN`` — or :class:`Const`
wrappers.  Instructions are small mutable objects so optimization
passes can rewrite in place.

Shared-memory access ops appear in two flavours:

* pre-annotation (only straight out of lowering, source-level style):
  ``shared_load dst, rid, idx`` / ``shared_store rid, idx, src``;
* post-annotation: ``map``/``unmap``/``start_read``/``end_read``/
  ``start_write``/``end_write`` plus ``deref_load``/``deref_store`` on
  mapped handles — the Figure 3 primitive set.

Annotation ops carry two analysis/optimization fields: ``protocols``
(the §4.2 "set of possible protocols" for the access) and ``direct``
(set by the direct-dispatch pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ops that transfer control (always the last instruction of a block)
TERMINATORS = ("jmp", "br", "ret")

#: annotation ops inserted around shared accesses
ANNOTATION_OPS = ("map", "unmap", "start_read", "end_read", "start_write", "end_write")

#: runtime calls that are synchronization points — no code motion past
#: them (§4.2: "code is never moved past synchronization calls")
SYNC_BUILTINS = ("ace_barrier", "ace_lock", "ace_unlock", "ace_change_protocol")


@dataclass(frozen=True)
class Const:
    """Literal operand (numbers; strings for protocol/space names)."""

    value: float | str


@dataclass
class Instr:
    """One IR instruction; field use depends on ``op``."""

    op: str
    dst: str | None = None
    args: list = field(default_factory=list)
    line: int = 0
    # annotation-op analysis results:
    protocols: frozenset | None = None
    direct: bool = False

    def uses(self) -> list[str]:
        """Variable names this instruction reads."""
        return [a for a in self.args if isinstance(a, str)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op]
        if self.dst is not None:
            parts.append(f"{self.dst} <-")
        parts.extend(
            repr(a.value) if isinstance(a, Const) else str(a) for a in self.args
        )
        flags = ""
        if self.direct:
            flags += " [direct]"
        return " ".join(parts) + flags


@dataclass
class Block:
    """Basic block: straight-line instrs; last one is a terminator."""

    name: str
    instrs: list = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]

    def successors(self) -> list[str]:
        t = self.terminator
        if t.op == "jmp":
            return [t.args[0].value]
        if t.op == "br":
            return [t.args[1].value, t.args[2].value]
        return []


@dataclass
class LoopInfo:
    """A structured loop recorded during lowering."""

    preheader: str
    header: str
    body: set          # block names strictly inside the loop (incl. header)
    exit: str
    step: str | None = None  # a ``for``'s step block: where ``continue`` lands


@dataclass
class IfInfo:
    """A structured conditional recorded during lowering."""

    head: str          # the block whose ``br`` decides
    then: str
    els: str | None    # without an ``else`` the ``br`` falls to ``join``
    join: str


@dataclass
class FuncIR:
    """One function's IR."""

    name: str
    params: list  # unique param names
    entry: str
    blocks: dict = field(default_factory=dict)  # name -> Block
    arrays: dict = field(default_factory=dict)  # unique name -> size
    loops: list = field(default_factory=list)   # LoopInfo, innermost-first
    ifs: list = field(default_factory=list)     # IfInfo
    var_types: dict = field(default_factory=dict)  # unique name -> TypeSpec

    def block_order(self) -> list:
        """Blocks in a stable reverse-postorder from entry."""
        seen = set()
        order = []

        def visit(name):
            if name in seen:
                return
            seen.add(name)
            for succ in self.blocks[name].successors():
                visit(succ)
            order.append(name)

        visit(self.entry)
        order.reverse()
        # unreachable blocks go last, deterministic
        for name in self.blocks:
            if name not in seen:
                order.append(name)
        return order

    def all_instrs(self):
        for name in self.block_order():
            yield from self.blocks[name].instrs

    def predecessors(self) -> dict:
        preds: dict[str, list] = {n: [] for n in self.blocks}
        for name, block in self.blocks.items():
            for succ in block.successors():
                preds[succ].append(name)
        return preds


@dataclass
class ProgramIR:
    """Whole-program IR."""

    funcs: dict  # name -> FuncIR

    def dump(self) -> str:
        """Readable listing (tests assert on annotation shapes with this)."""
        lines = []
        for fname, fn in self.funcs.items():
            lines.append(f"func {fname}({', '.join(fn.params)}):")
            for bname in fn.block_order():
                lines.append(f"  {bname}:")
                for ins in self.funcs[fname].blocks[bname].instrs:
                    lines.append(f"    {ins!r}")
        return "\n".join(lines)
