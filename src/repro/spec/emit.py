"""The one emitter: generated Python text → the factory it defines, once per text.

Three layers generate code: the AceC closures backend
(:mod:`repro.compiler.codegen`), every protocol's access hooks (a
:class:`~repro.protocols.base.TableProtocol`'s and the coherence
engine's, :mod:`repro.dsm.hooks`, both by :func:`table_hooks`) and the
invalidation home machine's guard chains (:mod:`repro.dsm.directory`).
The model checker (:mod:`repro.verify.modelcheck`) is a fourth consumer:
it binds the hook text a protocol compiles to its own target.  Each
emits the text of a ``def _make(...)`` returning the specialised
function and binds what a :class:`CodeFile` hands back; equal text
means equal behaviour, so a second engine, instance or optimisation
level compiles nothing.  A file's texts are one :mod:`linecache`
pseudo-file: a traceback shows the generated line, and a profiler files
the code under the file's name.

A hook's guards and actions are calls into its target unless it
declares them as *effects*: text over ``nid``, ``handle`` and its names,
written ``P.<name>`` (a guard one expression, an action statements that
do not ``return``), which :func:`hook_source` splices in place.  The
*call form*, without effects, is what the model checker runs, over the
same texts compiled into calls by :func:`effect_calls`.
"""

from __future__ import annotations

import linecache
import re
from functools import cache
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


#: a target name an effect reads, ``P.<name>``: bound once in ``_make``
_TARGET_NAME = re.compile(r"\bP\.(\w+)")


@cache
def _parsed(text: str) -> tuple[str, frozenset]:
    """An effect's text with its ``P.`` names bare, and those names (once
    per text: every engine and protocol built splices its effects)."""
    return _TARGET_NAME.sub(r"\1", text), frozenset(_TARGET_NAME.findall(text))


def _factory(name: str, args: str, reads, consts, body) -> str:
    """The text of ``_make(P)`` binding ``reads`` and ``consts`` once,
    returning ``def name(args)`` with ``body``."""
    head = ["def _make(P):", *(f"  {n} = P.{n}" for n in sorted(reads))]
    head += [f"  d{c} = Delay({c})" for c in sorted(consts)]
    head.append(f"  def {name}({args}):")
    return "\n".join([*head, *("    " + line for line in body), f"  return {name}", ""])


def hook_source(tbl: ProtocolTable, event: str, refs, blocking, effects=None) -> str:
    """The text of ``_make(P)``: ``tbl``'s node rows for ``event`` as one
    straight-line hook (:class:`~repro.protocols.base.TableProtocol` says
    what it does) over ``P``'s ``refs`` (its ``act_*``/``g_*``, bound
    once).  An action in ``blocking`` (a generator) runs as ``yield
    from``, any other is a call — or, if in ``effects``, spliced.  The
    text reads the kernel's ``Delay`` and its pool (``_POOL``,
    ``_POOL_SIZE``) from its file's namespace."""
    effects = effects or {}
    reads = {n for n in refs if n not in effects}

    def bare(name: str) -> str:  # an effect's text; the names it reads are bound
        text, names = _parsed(effects[name])
        reads.update(names)
        return text

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
        if t.guard:
            g = "g_" + t.guard
            test.append(f"({bare(g)})" if g in effects else f"{g}({args})")
        row = f"# {t.state} {event}" + (f" [{t.guard}]" if t.guard else "")
        if test:
            body.append(f"{keyword} {' and '.join(test)}:  {row}")
        else:
            body.append(f"else:  {row}" if keyword == "elif" else row)
        pad = "  " if test or keyword == "elif" else ""
        lines = [f"yield d{t.cost}"] if t.cost and not lone else []
        costs.add(t.cost if lines else 0)
        for a in t.actions:
            if "act_" + a in effects:
                lines += bare("act_" + a).splitlines()
            else:
                lines.append(f"{'yield from ' if a in blocking else ''}act_{a}({args})")
        lines += [f"handle.state = {t.next!r}"] if t.next != KEEP else []
        body += [pad + line for line in lines or ["pass"]]
        if not test:
            break
        keyword = "elif"
    if not any("yield" in line for line in body):
        body.append("if 0: yield  # a generator, like every hook")
    name = re.sub(r"^\d+|\W", "_", f"{tbl.name}_{event}", flags=re.ASCII)
    return _factory(name, args if barrier else args + ", lead=0", reads, costs - {0}, body)


#: hook texts by everything :func:`hook_source` reads — the table's name,
#: the event, its node rows and entry cost, refs, blocking actions and
#: effect texts — so a second engine or protocol instance writes none
#: (a ``ProtocolTable`` is no key: its cost maps are unhashable proxies)
_TEXTS: dict[tuple, str] = {}


def table_hooks(tbl: ProtocolTable, target, code: CodeFile, effects=None) -> dict:
    """``{event: hook}`` for every hook event with node rows in ``tbl``,
    written once per process and compiled once per text in ``code``,
    bound to ``target``: its ``act_*``/``g_*`` are called, unless
    ``effects`` declares them."""
    effects = effects or {}
    hooks = {}
    for event in HOOK_EVENTS:
        rows = tbl.rows("node", event)
        if not rows:
            continue
        refs = {"g_" + t.guard for t in rows if t.guard}
        refs = sorted(refs | {"act_" + a for t in rows for a in t.actions})
        blocking = []
        for attr in refs:
            if attr in effects:
                blocks = re.search(r"\byield\b", effects[attr])
            else:
                fn = getattr(target, attr, None)
                if fn is None:
                    raise TableError(
                        f"{tbl.name}: table references {attr} but {type(target).__name__} does not define it"
                    )
                blocks = isgeneratorfunction(fn)
            if blocks and attr.startswith("act_"):
                blocking.append(attr[4:])
        key = (tbl.name, event, rows, tbl.entry_costs.get(event, 0), tuple(refs), tuple(blocking),
               tuple((n, effects[n]) for n in refs if n in effects))
        text = _TEXTS.get(key)
        if text is None:
            text = _TEXTS[key] = hook_source(tbl, event, refs, blocking, effects)
        hooks[event] = code.factory(text)(target)
    return hooks


def effect_calls(effects: dict, target, code: CodeFile) -> dict:
    """``{name: function}``: each effect compiled once per text in
    ``code`` as the ``(nid, handle)`` call a call-form hook makes, over
    ``target``'s names — a guard returns its value."""
    calls = {}
    for name, effect in effects.items():
        text, reads = _parsed(effect)
        body = [f"return {text}"] if name.startswith("g_") else text.splitlines()
        calls[name] = code.factory(_factory(name, "nid, handle", reads, (), body))(target)
    return calls
