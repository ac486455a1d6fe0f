"""The one emitter: generated Python text → the factory it defines, once per text.

Three layers generate code: the AceC closures backend
(:mod:`repro.compiler.codegen`), every protocol's access hooks (a
:class:`~repro.protocols.base.TableProtocol`'s and the coherence
engine's, :mod:`repro.dsm.hooks`, both by :func:`table_hooks`) and the
invalidation home machine's guard chains (:mod:`repro.dsm.directory`).
Each emits the text of a ``def _make(...)`` returning the specialised
function and binds what a :class:`CodeFile` hands back; equal text
means equal behaviour, so a second engine, instance or optimisation
level compiles nothing.  A file's texts are one :mod:`linecache`
pseudo-file: a traceback shows the generated line, and a profiler files
the code under the file's name.
"""

from __future__ import annotations

import linecache
import re
from inspect import isgeneratorfunction
from types import CodeType

from repro.spec.table import HOOK_EVENTS, KEEP, WILDCARD, ProtocolTable, TableError


def _shifted(code: CodeType, by: int) -> CodeType:
    """``code`` as if its source began ``by`` lines further down."""
    return code.replace(
        co_firstlineno=code.co_firstlineno + by,
        co_consts=tuple(
            _shifted(c, by) if isinstance(c, CodeType) else c for c in code.co_consts
        ),
    )


class CodeFile:
    """One pseudo-file of generated code, keyed by source text: ``namespace``
    is its functions' globals, ``limit`` bounds its texts (:meth:`reserve`)."""

    __slots__ = ("name", "namespace", "limit", "_made", "_lines")

    def __init__(self, name: str, namespace: dict | None = None, limit: int | None = None):
        self.name = name
        self.namespace = dict(namespace or {})
        self.limit = limit
        self._made: dict[str, object] = {}
        self._lines: list[str] = []

    def __contains__(self, text: str) -> bool:
        return text in self._made

    def __len__(self) -> int:
        return len(self._made)

    def reserve(self, texts) -> None:
        """Make room for ``texts`` before any of them is looked up: a full
        file is emptied *first*, so nothing a caller is building can be
        evicted under it.  Code that outlives its eviction loses its lines."""
        if self.limit is None:
            return
        misses = sum(text not in self._made for text in set(texts))
        if len(self._made) + misses > self.limit:
            self._made.clear()
            del self._lines[:]

    def factory(self, text: str):
        """The ``_make`` that ``text`` defines, compiled on its first request
        (a ``SyntaxError`` propagates to the emitter that wrote the text)."""
        made = self._made.get(text)
        if made is None:
            code = compile(text, self.name, "exec")
            exec(_shifted(code, len(self._lines)), self.namespace)
            made = self._made[text] = self.namespace.pop("_make")
            self._lines.extend(text.splitlines(True))
        # mtime None: linecache.checkcache() leaves the entry alone
        linecache.cache[self.name] = (len(self._lines), None, self._lines, self.name)
        return made


def hook_source(tbl: ProtocolTable, event: str, refs, blocking) -> str:
    """The text of ``_make(P)``: ``tbl``'s node rows for ``event`` as one
    straight-line hook (:class:`~repro.protocols.base.TableProtocol` says
    what it does) over ``P``'s ``refs`` (its ``act_*``/``g_*``, bound
    once).  An action in ``blocking`` (a generator) runs as ``yield
    from``, any other is a call.  The text reads the kernel's ``Delay``
    and its pool (``_POOL``, ``_POOL_SIZE``) from its file's namespace."""
    rows = tbl.rows("node", event)
    ordered = [t for t in rows if t.state != WILDCARD] + [t for t in rows if t.state == WILDCARD]
    barrier = event == "barrier"
    args = "nid" if barrier else "nid, handle"
    lone = len(ordered) == 1 and ordered[0].state == WILDCARD and not ordered[0].guard
    entry = tbl.entry_costs.get(event, 0) + (ordered[0].cost if lone else 0)
    costs = {entry} if barrier else set()
    if barrier:
        body = [f"yield d{entry}"] if entry else []
    elif entry:
        body = [f"yield _POOL[c] if (c := lead + {entry}) < _POOL_SIZE else Delay(c)"]
    else:
        body = ["if lead:", "  yield _POOL[lead] if lead < _POOL_SIZE else Delay(lead)"]
    if ordered[0].state != WILDCARD:
        if barrier:
            raise TableError(f"{tbl.name}: a barrier row names a state, but a barrier has no copy")
        body.append("st = handle.state")
    keyword = "if"
    for t in ordered:
        test = [f"st == {t.state!r}"] if t.state != WILDCARD else []
        test += [f"g_{t.guard}({args})"] if t.guard else []
        row = f"# {t.state} {event}" + (f" [{t.guard}]" if t.guard else "")
        if test:
            body.append(f"{keyword} {' and '.join(test)}:  {row}")
        else:
            body.append(f"else:  {row}" if keyword == "elif" else row)
        pad = "  " if test or keyword == "elif" else ""
        lines = [f"yield d{t.cost}"] if t.cost and not lone else []
        costs.add(t.cost if lines else 0)
        lines += [f"{'yield from ' if a in blocking else ''}act_{a}({args})" for a in t.actions]
        lines += [f"handle.state = {t.next!r}"] if t.next != KEEP else []
        body += [pad + line for line in lines or ["pass"]]
        if not test:
            break
        keyword = "elif"
    if not any("yield" in line for line in body):
        body.append("if 0: yield  # a generator, like every hook")
    name = re.sub(r"^\d+|\W", "_", f"{tbl.name}_{event}", flags=re.ASCII)
    head = ["def _make(P):", *(f"  {n} = P.{n}" for n in refs)]
    head += [f"  d{c} = Delay({c})" for c in sorted(costs - {0})]
    head.append(f"  def {name}({args if barrier else args + ', lead=0'}):")
    return "\n".join([*head, *("    " + line for line in body), f"  return {name}", ""])


def table_hooks(tbl: ProtocolTable, target, code: CodeFile) -> dict:
    """``{event: hook}`` for every hook event with node rows in ``tbl``,
    compiled once per text in ``code`` and bound to ``target``'s
    ``act_*``/``g_*``."""
    hooks = {}
    for event in HOOK_EVENTS:
        rows = tbl.rows("node", event)
        if not rows:
            continue
        refs = {"g_" + t.guard for t in rows if t.guard}
        refs = sorted(refs | {"act_" + a for t in rows for a in t.actions})
        blocking = []
        for attr in refs:
            fn = getattr(target, attr, None)
            if fn is None:
                raise TableError(
                    f"{tbl.name}: table references {attr} but {type(target).__name__} does not define it"
                )
            if attr.startswith("act_") and isgeneratorfunction(fn):
                blocking.append(attr[4:])
        hooks[event] = code.factory(hook_source(tbl, event, refs, blocking))(target)
    return hooks
