"""AST → IR lowering: scoped renaming, CFG construction, loop recording."""

from __future__ import annotations

from repro.compiler import ast_nodes as A
from repro.compiler.builtins_def import ANNOTATION_CALLS, BUILTINS
from repro.compiler.errors import AceCompileError
from repro.compiler.ir import Block, Const, FuncIR, IfInfo, Instr, LoopInfo, ProgramIR


class _FuncLowerer:
    def __init__(self, fn: A.Func, program: A.ProgramAST):
        self.fn = fn
        self.program = program
        self.ir = FuncIR(name=fn.name, params=[], entry="entry")
        self.scopes: list[dict] = [{}]
        self.uniq = 0
        self.tmp = 0
        self.block: Block = self._new_block("entry")
        self.loop_stack: list = []  # (exit_label, continue_label)
        self._block_counter = 0

    # -- naming ----------------------------------------------------------
    def _fresh_name(self, name: str) -> str:
        self.uniq += 1
        return f"{name}${self.uniq}"

    def _declare(self, name: str, typ: A.TypeSpec, line: int) -> str:
        if name in self.scopes[-1]:
            raise AceCompileError(f"line {line}: {name!r} redeclared in the same scope")
        unique = self._fresh_name(name)
        self.scopes[-1][name] = unique
        self.ir.var_types[unique] = typ
        return unique

    def _lookup(self, name: str, line: int) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise AceCompileError(f"line {line}: undeclared variable {name!r}")

    def _temp(self) -> str:
        self.tmp += 1
        return f"%t{self.tmp}"

    # -- blocks ------------------------------------------------------------
    def _new_block(self, name: str | None = None) -> Block:
        if name is None:
            self._block_counter += 1
            name = f"bb{self._block_counter}"
        block = Block(name)
        self.ir.blocks[name] = block
        return block

    def emit(self, instr: Instr) -> None:
        self.block.instrs.append(instr)

    def _set_block(self, block: Block) -> None:
        self.block = block

    def _terminated(self) -> bool:
        return bool(self.block.instrs) and self.block.instrs[-1].op in ("jmp", "br", "ret")

    def _jump(self, target: str, line: int = 0) -> None:
        if not self._terminated():
            self.emit(Instr("jmp", args=[Const(target)], line=line))

    # -- entry point -----------------------------------------------------------
    def lower(self) -> FuncIR:
        for ptype, pname in self.fn.params:
            self.ir.params.append(self._declare(pname, ptype, self.fn.line))
        self.lower_stmts(self.fn.body)
        if not self._terminated():
            self.emit(Instr("ret", args=[Const(0.0)], line=self.fn.line))
        return self.ir

    def lower_stmts(self, stmts: list) -> None:
        for stmt in stmts:
            self.lower_stmt(stmt)

    # -- statements ----------------------------------------------------------
    def lower_stmt(self, stmt) -> None:
        if self._terminated():
            # dead code after return/break: create an unreachable block
            self._set_block(self._new_block())
        method = getattr(self, f"_lower_{type(stmt).__name__.lower()}")
        method(stmt)

    def _lower_decl(self, stmt: A.Decl) -> None:
        unique = self._declare(stmt.name, stmt.typ, stmt.line)
        if stmt.typ.array_size is not None:
            self.ir.arrays[unique] = stmt.typ.array_size
            if stmt.init is not None:
                raise AceCompileError(f"line {stmt.line}: array initializers not supported")
            return
        if stmt.init is not None:
            src = self.lower_expr(stmt.init)
            self.emit(Instr("mov", dst=unique, args=[src], line=stmt.line))
        else:
            self.emit(Instr("const", dst=unique, args=[Const(0.0)], line=stmt.line))

    def _lower_assign(self, stmt: A.Assign) -> None:
        line = stmt.line
        if isinstance(stmt.target, A.Var):
            unique = self._lookup(stmt.target.name, line)
            value = self._compound_value(stmt, lambda: self._read_var(unique, line))
            self.emit(Instr("mov", dst=unique, args=[value], line=line))
            return
        # element assignment
        base = self._lookup(stmt.target.base.name, line)
        typ = self.ir.var_types[base]
        idx = self.lower_expr(stmt.target.index)
        if typ.array_size is not None:
            value = self._compound_value(stmt, lambda: self._emit_load("idx_load", base, idx, line))
            self.emit(Instr("idx_store", args=[base, idx, value], line=line))
        elif typ.is_shared_ptr:
            base_val = base  # variable holding the region id
            value = self._compound_value(
                stmt, lambda: self._emit_load("shared_load", base_val, idx, line)
            )
            self.emit(Instr("shared_store", args=[base_val, idx, value], line=line))
        elif typ.is_mapped_ptr:
            value = self._compound_value(stmt, lambda: self._emit_load("deref_load", base, idx, line))
            self.emit(Instr("deref_store", args=[base, idx, value], line=line))
        else:
            raise AceCompileError(f"line {line}: cannot index scalar {stmt.target.base.name!r}")

    def _compound_value(self, stmt: A.Assign, load_current):
        value = self.lower_expr(stmt.value)
        if stmt.op == "=":
            return value
        current = load_current()
        dst = self._temp()
        self.emit(Instr("bin", dst=dst, args=[Const(stmt.op[0]), current, value], line=stmt.line))
        return dst

    def _read_var(self, unique: str, line: int):
        return unique

    def _emit_load(self, op: str, base, idx, line: int) -> str:
        dst = self._temp()
        self.emit(Instr(op, dst=dst, args=[base, idx], line=line))
        return dst

    def _lower_if(self, stmt: A.If) -> None:
        cond = self.lower_expr(stmt.cond)
        then_b = self._new_block()
        else_b = self._new_block() if stmt.els else None
        join_b = self._new_block()
        self.ir.ifs.append(
            IfInfo(self.block.name, then_b.name, else_b.name if else_b else None, join_b.name)
        )
        self.emit(
            Instr(
                "br",
                args=[cond, Const(then_b.name), Const(else_b.name if else_b else join_b.name)],
                line=stmt.line,
            )
        )
        self._set_block(then_b)
        self.scopes.append({})
        self.lower_stmts(stmt.then)
        self.scopes.pop()
        self._jump(join_b.name, stmt.line)
        if else_b is not None:
            self._set_block(else_b)
            self.scopes.append({})
            self.lower_stmts(stmt.els)
            self.scopes.pop()
            self._jump(join_b.name, stmt.line)
        self._set_block(join_b)

    def _lower_while(self, stmt: A.While) -> None:
        self._lower_loop(init=None, cond=stmt.cond, step=None, body=stmt.body, line=stmt.line)

    def _lower_for(self, stmt: A.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        self._lower_loop(init=None, cond=stmt.cond, step=stmt.step, body=stmt.body, line=stmt.line)
        self.scopes.pop()

    def _lower_loop(self, init, cond, step, body, line) -> None:
        del init  # handled by callers
        preheader = self.block
        header = self._new_block()
        body_b = self._new_block()
        step_b = self._new_block() if step is not None else None
        exit_b = self._new_block()
        continue_target = step_b.name if step_b else header.name

        pre_existing = set(self.ir.blocks.keys())
        self._jump(header.name, line)
        self._set_block(header)
        if cond is not None:
            cond_v = self.lower_expr(cond)
            self.emit(Instr("br", args=[cond_v, Const(body_b.name), Const(exit_b.name)], line=line))
        else:
            self.emit(Instr("jmp", args=[Const(body_b.name)], line=line))

        self._set_block(body_b)
        self.scopes.append({})
        self.loop_stack.append((exit_b.name, continue_target))
        self.lower_stmts(body)
        self.loop_stack.pop()
        self.scopes.pop()
        self._jump(continue_target, line)
        if step_b is not None:
            self._set_block(step_b)
            self.lower_stmt(step)
            self._jump(header.name, line)

        # loop membership: header, body, step + any blocks created while
        # lowering the body (nested ifs/loops), but not the exit block
        members = set(self.ir.blocks.keys()) - pre_existing
        members.update({header.name, body_b.name})
        if step_b is not None:
            members.add(step_b.name)
        members.discard(exit_b.name)
        self.ir.loops.append(
            LoopInfo(
                preheader=preheader.name, header=header.name, body=members, exit=exit_b.name,
                step=step_b.name if step_b else None,
            )
        )
        self._set_block(exit_b)

    def _lower_return(self, stmt: A.Return) -> None:
        value = self.lower_expr(stmt.value) if stmt.value is not None else Const(0.0)
        self.emit(Instr("ret", args=[value], line=stmt.line))

    def _lower_break(self, stmt: A.Break) -> None:
        if not self.loop_stack:
            raise AceCompileError(f"line {stmt.line}: break outside a loop")
        self.emit(Instr("jmp", args=[Const(self.loop_stack[-1][0])], line=stmt.line))

    def _lower_continue(self, stmt: A.Continue) -> None:
        if not self.loop_stack:
            raise AceCompileError(f"line {stmt.line}: continue outside a loop")
        self.emit(Instr("jmp", args=[Const(self.loop_stack[-1][1])], line=stmt.line))

    def _lower_exprstmt(self, stmt: A.ExprStmt) -> None:
        if not isinstance(stmt.expr, A.Call):
            raise AceCompileError(f"line {stmt.line}: expression statement has no effect")
        self.lower_expr(stmt.expr)

    # -- expressions --------------------------------------------------------------
    def lower_expr(self, expr):
        if isinstance(expr, A.Num):
            return Const(float(expr.value))
        if isinstance(expr, A.Str):
            return Const(expr.value)
        if isinstance(expr, A.Var):
            return self._lookup(expr.name, expr.line)
        if isinstance(expr, A.Unary):
            operand = self.lower_expr(expr.operand)
            dst = self._temp()
            self.emit(Instr("un", dst=dst, args=[Const(expr.op), operand], line=expr.line))
            return dst
        if isinstance(expr, A.Binary):
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            dst = self._temp()
            self.emit(Instr("bin", dst=dst, args=[Const(expr.op), left, right], line=expr.line))
            return dst
        if isinstance(expr, A.Index):
            base = self._lookup(expr.base.name, expr.line)
            typ = self.ir.var_types[base]
            idx = self.lower_expr(expr.index)
            if typ.array_size is not None:
                return self._emit_load("idx_load", base, idx, expr.line)
            if typ.is_shared_ptr:
                return self._emit_load("shared_load", base, idx, expr.line)
            if typ.is_mapped_ptr:
                return self._emit_load("deref_load", base, idx, expr.line)
            raise AceCompileError(f"line {expr.line}: cannot index scalar {expr.base.name!r}")
        if isinstance(expr, A.Call):
            return self._lower_call(expr)
        raise AceCompileError(f"cannot lower expression {expr!r}")  # pragma: no cover

    def _lower_call(self, expr: A.Call):
        args = [self.lower_expr(a) for a in expr.args]
        if expr.name in ANNOTATION_CALLS:
            op = ANNOTATION_CALLS[expr.name]
            if len(args) != 1:
                raise AceCompileError(f"line {expr.line}: {expr.name} takes one argument")
            if op == "map":
                dst = self._temp()
                self.emit(Instr("map", dst=dst, args=args, line=expr.line))
                return dst
            self.emit(Instr(op, args=args, line=expr.line))
            return Const(0.0)
        if expr.name in BUILTINS:
            n_args, has_result = BUILTINS[expr.name]
            if len(args) != n_args:
                raise AceCompileError(
                    f"line {expr.line}: {expr.name} expects {n_args} args, got {len(args)}"
                )
            dst = self._temp() if has_result else None
            self.emit(Instr("builtin", dst=dst, args=[Const(expr.name), *args], line=expr.line))
            return dst if dst is not None else Const(0.0)
        if expr.name in self.program.funcs:
            callee = self.program.funcs[expr.name]
            if len(args) != len(callee.params):
                raise AceCompileError(
                    f"line {expr.line}: {expr.name} expects {len(callee.params)} args, "
                    f"got {len(args)}"
                )
            dst = self._temp()
            self.emit(Instr("call", dst=dst, args=[Const(expr.name), *args], line=expr.line))
            return dst
        raise AceCompileError(f"line {expr.line}: unknown function {expr.name!r}")


def lower_program(ast: A.ProgramAST) -> ProgramIR:
    """Lower every function; returns the whole-program IR."""
    funcs = {}
    for name, fn in ast.funcs.items():
        funcs[name] = _FuncLowerer(fn, ast).lower()
    return ProgramIR(funcs)
