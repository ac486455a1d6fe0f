"""Region objects, cached copies, and the global region directory."""

from __future__ import annotations

import numpy as np

from repro.sim.errors import SimulationError


class Region:
    """A shared, coherent block of ``size`` 8-byte words.

    ``home_data`` is the canonical storage at the home node.  Protocol
    layers never hand this array to applications on non-home nodes;
    they copy it into a :class:`RegionCopy` (charging transfer cost).
    """

    __slots__ = ("rid", "home", "size", "home_data", "meta")

    def __init__(self, rid: int, home: int, size: int):
        if size <= 0:
            raise SimulationError(f"region size must be positive, got {size}")
        self.rid = rid
        self.home = home
        self.size = size
        self.home_data = np.zeros(size, dtype=np.float64)
        # Per-layer metadata slot (directory state, sharer lists, ...).
        self.meta: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region {self.rid} home={self.home} size={self.size}>"


class RegionCopy:
    """A node-local cached copy of a region.

    Applications read and write through ``copy.data``; the protocol
    governing the region decides when that array is fetched, flushed,
    invalidated, or updated in place.

    The state every access reads is declared here, once: ``reads`` /
    ``writes`` / ``maps`` (the SC engine's open accesses and maps),
    ``deferred`` (recalls held until the copy's last access ends),
    ``ent`` (the SC engine's cached directory entry), and ``space`` /
    ``gen`` (the Ace space a protocol's ``map`` stamped and its protocol
    generation then; the runtime refuses a stale one).  ``meta`` holds
    protocol-private extras only.
    """

    __slots__ = ("region", "node", "data", "state", "mapped", "meta", "reads", "writes", "maps",
                 "deferred", "ent", "space", "gen")

    def __init__(self, region: Region, node: int):
        self.region = region
        self.node = node
        self.data = np.zeros(region.size, dtype=np.float64)
        self.state: str = "invalid"
        self.mapped = False
        self.meta: dict = {}
        self.reads = self.writes = self.maps = self.gen = 0
        self.deferred: tuple = ()  # replaced, never mutated: a fresh copy allocates none
        self.ent = self.space = None

    @property
    def rid(self) -> int:
        return self.region.rid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RegionCopy rid={self.rid} node={self.node} state={self.state}>"


class RegionDirectory:
    """Global region-id allocator and lookup table.

    Region ids are globally unique.  In a real DSM the id encodes its
    home node and the tables are distributed; in the simulation a
    single deterministic table stands in for them, and the *costs* of
    remote lookups are charged by the runtimes that use it.
    """

    def __init__(self):
        self._regions: dict[int, Region] = {}
        self._next = 1  # 0 is reserved as "no region"

    def alloc(self, home: int, size: int) -> Region:
        """Create a region homed at node ``home``."""
        region = Region(self._next, home, size)
        self._regions[self._next] = region
        self._next += 1
        return region

    def get(self, rid: int) -> Region:
        """Look up a region by id; raises for unknown ids."""
        try:
            return self._regions[rid]
        except KeyError:
            raise SimulationError(f"unknown region id {rid}") from None

    def __contains__(self, rid: int) -> bool:
        return rid in self._regions

    def __len__(self) -> int:
        return len(self._regions)

    def all_regions(self):
        """Iterate regions in allocation order (deterministic)."""
        return iter(self._regions.values())
