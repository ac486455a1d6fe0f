"""Static annotation-discipline checker: the sanitizer's compile-time side.

The compiler (§4.2) is only sound if the MAP/START/END/UNMAP
annotations obey a strict discipline and the optimization passes
preserve it.  This module verifies that discipline per region handle
along every CFG path, with the same dataflow machinery style as
:mod:`repro.compiler.analysis`: a worklist over basic blocks, a
per-block transfer function, and a merge at joins.

Checked rules (rule id → meaning; DESIGN.md §11 renders this table):

=========================  ==================================================
``deref-outside-start``    shared deref with no START of any mode open
``write-under-read``       ``deref_store`` while only reads are open
``double-start``           START on a handle with an access already open
``end-without-start``      END with no matching (and non-elided) START
``end-mode-mismatch``      END whose mode matches no open access
``open-access-at-exit``    function returns with an access still open
``use-without-map``        access on a handle whose mapping was released
``unmap-without-map``      UNMAP of a handle that is not mapped
``unmap-under-open``       UNMAP while a START is still open
``map-leak``               fn unmaps some handles but leaks this mapping
``path-imbalance``         access open on some paths into a join, not others
``lock-reacquire``         ``ace_lock`` on a lock already held
``unlock-without-lock``    ``ace_unlock`` with no matching ``ace_lock``
``lock-imbalance``         lock held on some paths into a join, not others
``lock-leak``              function returns while still holding a lock
=========================  ==================================================

Pass-output awareness (``strict=False``)
----------------------------------------
The front end brackets every access individually, so post-lowering IR
is checked **strict**: any overlap or omission is a bug.  The
optimization passes legally relax two things, so post-optimization IR
is checked **lenient**:

* *Elision* — direct dispatch deletes calls that are null hooks of an
  optimizable singleton protocol.  The pass and this checker read one
  rule, :meth:`ProtocolRegistry.may_elide
  <repro.protocols.registry.ProtocolRegistry.may_elide>`, so a bare
  deref or an asymmetric START/END remnant is accepted only where the
  deletion was legal.
* *Nesting* — call merging rewrites duplicate ``map``\\ s into ``mov``
  aliases, which can fold two independently-annotated accesses onto
  one handle; the result is a nested same-handle START (harmless at
  run time precisely because merging only fires where every possible
  protocol is optimizable).  Lenient mode allows an inner START only
  when both it and every access it nests inside are fully
  optimizable; overlap involving a non-optimizable protocol — where
  nesting genuinely corrupts runtime state — is still reported.

A START whose matching END is itself elidable (e.g. ``start_read``
under a protocol with a null ``end_read``, post-DC) opens an access
that legally *never closes*: the checker records it as a per-mode
**license** on the handle — it satisfies the deref rules and is
exempt from balance rules — rather than a stack entry that would
demand an END on every path.

Handles the function did not map itself (parameters, array loads,
values escaping through calls) are tracked as *unknown-origin*: their
START/END pairing is still checked once a START is seen, but rules
that need the mapping history (use-without-map, map-leak,
end-without-start) stay silent — local analysis never guesses about
state it cannot see, so hand-annotated runtime-level AceC does not
produce spurious reports.

Map/unmap balance is checked only in functions that contain at least
one ``unmap``: compiler-inserted annotation never unmaps (the runtime
keeps an unmapped-region cache, so leaving regions mapped at exit is
the *normal* compiled idiom), but a function that manages unmaps
explicitly and releases only some of its mappings has leaked the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.errors import AnnotationError
from repro.compiler.ir import Const, FuncIR, ProgramIR

#: max block visits per function, same safety-valve idea as analysis.py
_VISIT_BUDGET = 20_000

_START_OF = {"end_read": "start_read", "end_write": "start_write"}
_MODE_OF = {"start_read": "read", "start_write": "write",
            "end_read": "read", "end_write": "write"}

#: mapping counts saturate here: the discipline rules only distinguish
#: "unmapped", "mapped once", and "mapped more than once", and the
#: saturation makes per-iteration re-maps inside loops converge.
_MAPS_CAP = 2


@dataclass(frozen=True)
class Violation:
    """One discipline violation, locatable in the source program."""

    rule: str
    func: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.func}:{self.line}: [{self.rule}] {self.message}"


# open-access stack entry: (mode, line, optimizable)
# handle abstract state: (maps, stack, lic, map_line, known)
#   maps:  live mapping count, saturated at _MAPS_CAP (None = unknown origin)
#   stack: tuple of open-access entries (END required), innermost last
#   lic:   frozenset of modes opened by a START whose END is elidable
_NO_LIC = frozenset()
_FRESH_UNKNOWN = (None, (), _NO_LIC, 0, False)


class _FuncChecker:
    """Forward dataflow over one function's CFG."""

    def __init__(self, fname: str, fn: FuncIR, registry, out: set, strict: bool):
        self.fname = fname
        self.fn = fn
        self.registry = registry
        self.out = out
        self.strict = strict
        self.has_unmap = any(
            ins.op == "unmap" for b in fn.blocks.values() for ins in b.instrs
        )

    def report(self, rule: str, line: int, message: str) -> None:
        self.out.add(Violation(rule, self.fname, line, message))

    # -- state plumbing -------------------------------------------------
    @staticmethod
    def _empty_state() -> dict:
        return {"h": {}, "alias": {}, "locks": {}}

    @staticmethod
    def _resolve(state: dict, var):
        if not isinstance(var, str):
            return None
        alias = state["alias"]
        seen = set()
        while var in alias and var not in seen:
            seen.add(var)
            var = alias[var]
        return var

    def _handle(self, state: dict, root) -> tuple:
        return state["h"].setdefault(root, _FRESH_UNKNOWN)

    def merge(self, current: dict | None, incoming: dict) -> dict | None:
        """Union-merge; returns the new state if changed, else None.

        Divergent facts degrade to unknown rather than guessing; a
        divergence the discipline forbids (an access or lock open on
        one path only) is reported as a join violation.
        """
        if current is None:
            return {
                "h": dict(incoming["h"]),
                "alias": dict(incoming["alias"]),
                "locks": dict(incoming["locks"]),
            }
        changed = False
        # aliases: keep only agreements
        alias = {}
        for var, root in current["alias"].items():
            if incoming["alias"].get(var) == root:
                alias[var] = root
        if alias != current["alias"]:
            changed = True
        # handles
        handles = dict(current["h"])
        for root, inc in incoming["h"].items():
            cur = handles.get(root)
            if cur is None:
                handles[root] = inc
                changed = True
                continue
            if cur == inc:
                continue
            merged = self._merge_handle(root, cur, inc)
            if merged != cur:
                handles[root] = merged
                changed = True
        # locks: a key held on one path but not the other is imbalance
        locks = dict(current["locks"])
        for key, line in incoming["locks"].items():
            if key not in locks:
                self.report(
                    "lock-imbalance", line,
                    f"lock {key[1]!r} held on some paths into a join but not others",
                )
                locks[key] = line
                changed = True
        for key, line in current["locks"].items():
            if key not in incoming["locks"]:
                self.report(
                    "lock-imbalance", line,
                    f"lock {key[1]!r} held on some paths into a join but not others",
                )
        if not changed:
            return None
        return {"h": handles, "alias": alias, "locks": locks}

    def _merge_handle(self, root, a: tuple, b: tuple) -> tuple:
        maps_a, stack_a, lic_a, mline_a, known_a = a
        maps_b, stack_b, lic_b, mline_b, known_b = b
        known = known_a and known_b
        maps = None if (maps_a is None or maps_b is None) else max(maps_a, maps_b)
        lic = lic_a | lic_b
        if stack_a == stack_b:
            stack = stack_a
        else:
            # keep the common prefix; an entry open on one path into the
            # join but not the other needs an END that cannot exist.
            common = 0
            while (
                common < len(stack_a)
                and common < len(stack_b)
                and stack_a[common] == stack_b[common]
            ):
                common += 1
            stack = stack_a[:common]
            for mode, line, opt in stack_a[common:] + stack_b[common:]:
                self.report(
                    "path-imbalance", line,
                    f"access on handle {root!r} (START at line {line}) is "
                    "open on some paths into a join but not others",
                )
        return (maps, stack, lic, min(mline_a, mline_b), known)

    # -- transfer -------------------------------------------------------
    def _open_conflict(self, stack, lic, opt) -> tuple | None:
        """Would a new START overlap an open access illegally?  Returns
        (mode, line) of the conflicting open access, or None."""
        if self.strict:
            if stack:
                return stack[-1][:2]
            if lic:
                return (sorted(lic)[-1], 0)
            return None
        # lenient: nesting manufactured by call merging is accepted when
        # every involved access is optimizable; licenses never conflict.
        if stack and not (opt and all(e[2] for e in stack)):
            return stack[-1][:2]
        return None

    def transfer(self, state: dict, block) -> dict:
        state = {
            "h": dict(state["h"]),
            "alias": dict(state["alias"]),
            "locks": dict(state["locks"]),
        }
        reg = self.registry
        for ins in block.instrs:
            op = ins.op
            if op == "map":
                dst = ins.dst
                state["alias"].pop(dst, None)
                maps, stack, lic, mline, known = state["h"].get(
                    dst, (0, (), _NO_LIC, ins.line, True)
                )
                maps = 1 if maps is None else min(_MAPS_CAP, maps + 1)
                state["h"][dst] = (maps, stack, lic, ins.line, True)
                continue
            if op == "mov":
                src = ins.args[0] if ins.args else None
                root = self._resolve(state, src)
                state["h"].pop(ins.dst, None)
                if root is not None and root in state["h"]:
                    state["alias"][ins.dst] = root
                else:
                    state["alias"].pop(ins.dst, None)
                continue
            if op in ("start_read", "start_write"):
                root = self._resolve(state, ins.args[0])
                maps, stack, lic, mline, known = self._handle(state, root)
                want = _MODE_OF[op]
                opt = reg.optimizable(ins.protocols)
                conflict = self._open_conflict(stack, lic, opt)
                if conflict is not None:
                    mode, line = conflict
                    at = f" opened at line {line}" if line else ""
                    self.report(
                        "double-start", ins.line,
                        f"START_{want.upper()} on handle {root!r} already "
                        f"inside START_{mode.upper()}{at}",
                    )
                if known and maps is not None and maps <= 0:
                    self.report(
                        "use-without-map", ins.line,
                        f"START_{want.upper()} on handle {root!r} after its "
                        "last UNMAP (no live mapping)",
                    )
                if not self.strict and reg.may_elide(ins.protocols, "end_" + want):
                    # the END may legally never come (deleted as a null
                    # hook): license the mode instead of demanding balance
                    lic = lic | {want}
                else:
                    stack = stack + ((want, ins.line, opt),)
                state["h"][root] = (maps, stack, lic, mline, known)
                continue
            if op in ("end_read", "end_write"):
                root = self._resolve(state, ins.args[0])
                maps, stack, lic, mline, known = self._handle(state, root)
                want = _MODE_OF[op]
                # close the innermost open access of matching mode
                idx = None
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i][0] == want:
                        idx = i
                        break
                if idx is not None:
                    stack = stack[:idx] + stack[idx + 1:]
                elif not self.strict and reg.may_elide(ins.protocols, op):
                    # this END is itself a null hook: a no-op call that
                    # closes nothing (the matching START, if any, opened
                    # a license that persists) — cannot misbehave.
                    pass
                elif want in lic:
                    lic = lic - {want}
                elif reg.may_elide(ins.protocols, _START_OF[op]) or not known:
                    # START legally deleted by direct dispatch, or a
                    # handle this function cannot account for.
                    pass
                elif stack:
                    mode, line = stack[-1][0], stack[-1][1]
                    self.report(
                        "end-mode-mismatch", ins.line,
                        f"END_{want.upper()} on handle {root!r} but the open "
                        f"access is a {mode} (START at line {line})",
                    )
                else:
                    self.report(
                        "end-without-start", ins.line,
                        f"END_{want.upper()} on handle {root!r} with no "
                        "open access",
                    )
                state["h"][root] = (maps, stack, lic, mline, known)
                continue
            if op in ("deref_load", "deref_store"):
                root = self._resolve(state, ins.args[0])
                maps, stack, lic, mline, known = self._handle(state, root)
                if known and maps is not None and maps <= 0:
                    self.report(
                        "use-without-map", ins.line,
                        f"deref of handle {root!r} after its last UNMAP "
                        "(use after UNMAP)",
                    )
                open_modes = {e[0] for e in stack} | lic
                if op == "deref_store" and open_modes and "write" not in open_modes:
                    self.report(
                        "write-under-read", ins.line,
                        f"write through handle {root!r} while only a read "
                        "access is open",
                    )
                elif not open_modes and known:
                    start_hooks = (
                        ("start_write",) if op == "deref_store"
                        else ("start_read", "start_write")
                    )
                    if not any(reg.may_elide(ins.protocols, h) for h in start_hooks):
                        kind = "write" if op == "deref_store" else "read"
                        self.report(
                            "deref-outside-start", ins.line,
                            f"shared {kind} through handle {root!r} with no "
                            "START open",
                        )
                if ins.dst is not None:
                    state["alias"].pop(ins.dst, None)
                    state["h"].pop(ins.dst, None)
                continue
            if op == "unmap":
                root = self._resolve(state, ins.args[0])
                maps, stack, lic, mline, known = self._handle(state, root)
                if stack:
                    mode, line = stack[-1][0], stack[-1][1]
                    self.report(
                        "unmap-under-open", ins.line,
                        f"UNMAP of handle {root!r} while a {mode} access is "
                        f"open (START at line {line})",
                    )
                if known and maps is not None:
                    if maps <= 0:
                        self.report(
                            "unmap-without-map", ins.line,
                            f"UNMAP of handle {root!r} that is not mapped",
                        )
                    maps = max(0, maps - 1)
                state["h"][root] = (maps, (), _NO_LIC, mline, known)
                continue
            if op == "builtin":
                bname = ins.args[0].value
                if bname in ("ace_lock", "ace_unlock"):
                    operand = ins.args[1]
                    key = (
                        ("const", operand.value)
                        if isinstance(operand, Const)
                        else ("var", operand)
                    )
                    if bname == "ace_lock":
                        if key in state["locks"]:
                            self.report(
                                "lock-reacquire", ins.line,
                                f"ace_lock on {key[1]!r} already held "
                                f"(acquired at line {state['locks'][key]})",
                            )
                        state["locks"][key] = ins.line
                    else:
                        if key not in state["locks"]:
                            self.report(
                                "unlock-without-lock", ins.line,
                                f"ace_unlock on {key[1]!r} with no matching "
                                "ace_lock",
                            )
                        state["locks"].pop(key, None)
                # other builtins (incl. sync points) leave discipline
                # state alone: no code motion crosses them anyway.
                continue
            if op in ("call", "idx_store"):
                # a handle escaping into a callee or a local array can be
                # ended/unmapped through the other name: downgrade it to
                # unknown-origin rather than report facts local analysis
                # can no longer prove.
                for arg in ins.args:
                    root = self._resolve(state, arg)
                    if root in state["h"]:
                        maps, stack, lic, mline, known = state["h"][root]
                        state["h"][root] = (None, stack, lic, mline, False)
                if ins.dst is not None:
                    state["alias"].pop(ins.dst, None)
                    state["h"].pop(ins.dst, None)
                continue
            if op == "ret":
                self._check_exit(state)
                continue
            if ins.dst is not None:
                state["alias"].pop(ins.dst, None)
                state["h"].pop(ins.dst, None)
        return state

    def _check_exit(self, state: dict) -> None:
        handles = sorted(state["h"].items(), key=lambda kv: str(kv[0]))
        for root, (maps, stack, lic, mline, known) in handles:
            for mode, line, opt in stack:
                self.report(
                    "open-access-at-exit", line,
                    f"handle {root!r} still open for {mode} at function "
                    f"exit (START at line {line} has no END)",
                )
            if (
                self.has_unmap
                and known
                and maps is not None
                and maps > 0
                and not stack
            ):
                self.report(
                    "map-leak", mline,
                    f"handle {root!r} mapped at line {mline} is never "
                    "unmapped, but this function unmaps other handles",
                )
        for key, line in sorted(state["locks"].items(), key=repr):
            self.report(
                "lock-leak", line,
                f"lock {key[1]!r} acquired at line {line} still held at "
                "function exit",
            )

    # -- driver ---------------------------------------------------------
    def run(self) -> None:
        fn = self.fn
        in_states: dict = {fn.entry: self._empty_state()}
        work = [fn.entry]
        budget = 0
        while work:
            bname = work.pop(0)
            budget += 1
            if budget > _VISIT_BUDGET:  # pragma: no cover - safety valve
                break
            out_state = self.transfer(in_states[bname], fn.blocks[bname])
            for succ in fn.blocks[bname].successors():
                merged = self.merge(in_states.get(succ), out_state)
                if merged is not None:
                    in_states[succ] = merged
                    if succ not in work:
                        work.append(succ)
        # unreachable blocks are not checked: no path reaches them, so
        # no discipline fact holds there.


def check_program(program: ProgramIR, registry, strict: bool = True) -> list:
    """Check every function; returns sorted :class:`Violation` list.

    Run after :func:`repro.compiler.analysis.analyze` (the elision rule
    consumes the ``protocols`` stamps).  ``strict=True`` for IR straight
    out of lowering, ``strict=False`` to re-certify optimized IR (see
    the module docstring for what lenient mode additionally accepts).
    """
    out: set = set()
    for fname, fn in program.funcs.items():
        _FuncChecker(fname, fn, registry, out, strict).run()
    return sorted(out, key=lambda v: (v.func, v.line, v.rule, v.message))


def check_or_raise(
    program: ProgramIR,
    registry,
    phase: str = "post-lowering",
    strict: bool = True,
) -> int:
    """Raise :class:`~repro.compiler.errors.AnnotationError` on any
    violation; returns the violation count (0) otherwise so drivers can
    record "checked and clean" in their pass stats."""
    violations = check_program(program, registry, strict=strict)
    if violations:
        raise AnnotationError(phase, violations)
    return 0
