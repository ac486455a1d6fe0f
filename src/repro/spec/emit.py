"""The one emitter: generated Python text → the factory it defines, once per text.

Three layers generate code: the AceC closures backend
(:mod:`repro.compiler.codegen`), table protocols' hooks
(:func:`repro.protocols.base.hook_source`) and the invalidation home
machine's guard chains (:mod:`repro.dsm.directory`).  Each emits the
text of a ``def _make(...)`` returning the specialised function and
binds what a :class:`CodeFile` hands back; equal text means equal
behaviour, so a second engine, instance or optimisation level compiles
nothing.  A file's texts are one :mod:`linecache` pseudo-file: a
traceback shows the generated line, and a profiler files the code
under the file's name.
"""

from __future__ import annotations

import linecache
from types import CodeType


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
