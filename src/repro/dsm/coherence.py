"""The layered coherence core: Transport / Directory / RegionCache / Hooks.

This is the coherence engine of the reproduction: a sequentially
consistent, invalidation-based, region-granularity protocol of the
family CRL 1.0 implements, structured as atomic active-message
handlers plus per-region directory state at the home node — the
classical software-DSM organization — decomposed into four layers
(DESIGN.md §8):

* :class:`~repro.dsm.transport.Transport` — message fabric (the
  simulated active-message machine, behind an interface);
* :class:`~repro.dsm.directory.DirectoryService` — home-node directory
  state, addressed by ``(shard, region)``;
* :class:`~repro.dsm.regioncache.RegionCache` — per-node remote-copy
  state and the invalidation receive side;
* :class:`~repro.dsm.hooks.ProtocolHooks` — the requester side both
  backends share: create/map/unmap/flush, and the before/after access
  hooks generated from the table's node rows with this engine's costs.

State model
-----------
Per region, the home node holds a
:class:`~repro.dsm.directory.DirEntry`:

* ``owner`` — the remote node holding a dirty exclusive copy (home
  data is stale while set), or ``None``;
* ``sharers`` — remote nodes holding clean shared copies;
* ``home_readers`` / ``home_writing`` — the home task's own open
  accesses (a node runs one task, so these never count foreign work);
* ``busy`` + ``pending`` — an in-flight recall/invalidation fan-out;
* ``queue`` — FIFO of requests that arrived while the entry was busy,
  guaranteeing per-region request ordering and no starvation.

Node-side, each cached :class:`~repro.memory.region.RegionCopy` is
``invalid``/``shared``/``excl`` (``home`` for the home's alias of the
canonical array).  Exclusive copies stay dirty after ``end_write``
(lazy write-back, as in CRL); the next conflicting access recalls
them.  Invalidations that arrive while a copy is in use are deferred
until the matching ``end_read``/``end_write`` — required for
sequential consistency.
"""

from __future__ import annotations

from repro.dsm.costs import DSMCosts
from repro.dsm.directory import DirectoryService
from repro.dsm.hooks import ProtocolHooks
from repro.dsm.msi import MSI_TABLE
from repro.dsm.regioncache import RegionCache
from repro.dsm.transport import as_transport
from repro.memory import RegionDirectory


class CoherenceEngine:
    """One instance per (fabric, cost table); used by CRL and by Ace's SC protocol.

    Composition root: builds the directory, cache, and hooks layers
    over one transport, cross-wires the two handler edges that span
    layers (recall → cache, invalidation ack → directory), and exposes
    the hook generators as its own attributes so ``yield from
    engine.start_read(...)`` drives the generated hook's frame directly.

    Parameters
    ----------
    fabric:
        A :class:`~repro.machine.machine.Machine` or any
        :class:`~repro.dsm.transport.Transport`.
    regions:
        The shared region directory.
    costs:
        Per-operation cycle table.
    stats_prefix:
        Namespace for this engine's stats and trace events.
    n_dir_shards:
        Directory shard count (see
        :class:`~repro.dsm.directory.DirectoryService`).
    table:
        The :class:`~repro.spec.table.ProtocolTable` the three layers
        are built from — home rows, recall rows and the access rows the
        hooks are generated from (defaults to
        :data:`~repro.dsm.msi.MSI_TABLE`).
    """

    def __init__(
        self,
        fabric,
        regions: RegionDirectory,
        costs: DSMCosts,
        stats_prefix: str = "dsm",
        n_dir_shards: int = 1,
        table=None,
    ):
        transport = as_transport(fabric)
        self.transport = transport
        self.machine = transport.machine
        self.regions = regions
        self.costs = costs
        self.prefix = stats_prefix
        self.table = table if table is not None else MSI_TABLE
        # One observability handle for the whole engine (None when
        # tracing is off), shared by the layers that emit region state.
        tracer = transport.tracer
        obs = tracer.tracer("dsm." + stats_prefix) if tracer is not None else None
        self.cache = RegionCache(
            transport,
            costs,
            prefix=stats_prefix,
            obs=obs,
            table=self.table,
        )
        self.directory = DirectoryService(
            transport,
            regions,
            costs,
            prefix=stats_prefix,
            n_shards=n_dir_shards,
            table=self.table,
        )
        # The one cross-layer handler edge, wired once: the directory's
        # recall fan-out posts to the cache's invalidation handler (the
        # port carries each ack back to the recall that asked).
        self.directory.wire_cache(self.cache)
        hooks = self.hooks = ProtocolHooks(
            transport, regions, costs, self.directory, self.cache, self.table, stats_prefix, obs
        )
        # Crash recovery, when the fabric carries it: the manager prunes
        # and re-homes this engine's directory/cache state at each death
        # declaration (repro.dsm.recovery).  None on every other fabric,
        # so the registration — like the rest of the recovery machinery —
        # costs nothing when off.
        if transport.recovery is not None:
            transport.recovery.register_engine(self)
        # Public API: the hook generators, bound through (callers drive
        # the hooks frame directly; no adapter generator in between).
        self.create = hooks.create
        self.map = hooks.map
        self.unmap = hooks.unmap
        self.start_read = hooks.start_read
        self.end_read = hooks.end_read
        self.start_write = hooks.start_write
        self.end_write = hooks.end_write
        self.flush = hooks.flush
        self.copy_of = self.cache.copy_of
