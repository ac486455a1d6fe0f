"""Protocol building blocks (§6).

"Protocol development would also be facilitated by the creation of a
library of protocol building blocks ... We are currently attempting to
isolate the primitives needed for such a library."  The patterns the
shipped protocols repeat, and where each lives:

*acked fan-out* — send a payload to a set of nodes and learn when all
    have answered (update pushes, invalidation storms, drains): the
    port's ``fan_out`` with an :class:`~repro.dsm.transport.Acks`
    collector, receivers bound with ``answers`` (DESIGN.md §9).  It is
    part of the port, not of this module, because it has to survive a
    lossy fabric: a fan-out that posts on its own skips the retries.
``SharerDirectory``
    per-region sharer sets with registration and pruning.

:class:`~repro.protocols.buffered_update.BufferedUpdateProtocol` is
built from these two as the worked demonstration.
"""

from __future__ import annotations


class SharerDirectory:
    """Per-region sharer sets (who holds a cached copy)."""

    def __init__(self):
        self._sharers: dict[int, set] = {}

    def register(self, rid: int, node: int) -> None:
        self._sharers.setdefault(rid, set()).add(node)

    def drop(self, rid: int, node: int) -> None:
        self._sharers.get(rid, set()).discard(node)

    def sharers(self, rid: int, exclude=()) -> list:
        return sorted(self._sharers.get(rid, set()) - set(exclude))

    def __contains__(self, item) -> bool:
        rid, node = item
        return node in self._sharers.get(rid, set())
