"""Per-operation software costs for region-based DSM runtimes.

All values are cycles on the simulated 33 MHz node.  Two concrete
tables are exported:

``CRL_COSTS``
    Models CRL 1.0: region mapping goes through a hash of the mapped-
    and unmapped-region caches, and a *cold* map of a remote region
    needs a metadata round trip to the home node before the local copy
    can be allocated.

``ACE_SC_COSTS``
    Models the Ace runtime's redesigned SC protocol: region ids encode
    home and size, so cold maps allocate locally without a metadata
    message, the map fast path is a cheaper table lookup, and the
    invalidation handler is leaner.  A home directory handler charges
    nothing of its own in either table: it runs inside the active
    message's receive overhead.  The Ace *dispatch indirection*
    (region → space → protocol function pointer, §4.1) is NOT part of
    this table — it is charged by the Ace runtime layer on every
    primitive, which is why coarse-grained applications see the two
    systems at parity (§5.1, BSC discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DSMCosts:
    """Requester- and home-side cycle costs for one DSM runtime."""

    create: int = 120          # allocate a region at the local home
    map_hit: int = 40          # map of a locally cached (or home) region
    map_cold: int = 110        # first map: allocate + insert local copy
    map_needs_lookup: bool = True  # cold map of remote region costs a home RPC
    unmap: int = 20
    start_hit: int = 30        # start_read/start_write satisfied locally
    start_miss: int = 55       # requester-side bookkeeping around a miss
    end_op: int = 15           # end_read/end_write local bookkeeping
    inval_handler: int = 40    # invalidate/downgrade handler at a sharer
    flush: int = 45            # flush a dirty copy home (change-protocol path)
    meta_words: int = 3        # payload of a metadata-only message

    def with_(self, **kw) -> "DSMCosts":
        """Copy with fields replaced."""
        return replace(self, **kw)


CRL_COSTS = DSMCosts(
    start_hit=40,
    end_op=20,
)

ACE_SC_COSTS = DSMCosts(
    create=100,
    map_hit=14,
    map_cold=60,
    map_needs_lookup=False,
    unmap=8,
    start_hit=18,
    start_miss=45,
    end_op=8,
    inval_handler=32,
    flush=40,
)
