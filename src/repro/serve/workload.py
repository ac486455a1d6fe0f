"""Seeded deterministic open-loop traffic for the sharded KV service.

The generator is the serving-scale counterpart of the SPMD workload
classes in :mod:`repro.apps`: a :class:`ServeWorkload` names every
input (key universe, shard count, zipfian skew, read/write mix, a
mid-run mix shift, aggregate arrival rate, request count, seed) and
:func:`build_traffic` expands it — vectorized numpy, one RNG draw
sequence — into flat per-request arrays.  The whole request stream is
a pure function of the workload, so two runs with the same seed replay
the same million requests in the same order with the same arrival
cycles.

Layout decisions live here so the service, the controller, and the
tests cannot drift:

* **Key → shard** is by contiguous rank block (``key * n_shards //
  n_keys``).  Keys are zipf-ranked by index, so shard 0 holds the
  hottest keys and the last shard the coldest tail — shards have
  genuinely different temperatures, which is what makes *per-shard*
  protocol choice (and the adaptive controller) meaningful.  This is
  the service-level sharding; the directory's ``rid % n_shards`` entry
  tables (:meth:`~repro.dsm.directory.DirectoryService.shard_of`) are
  an independent axis the serve harness also exercises.
* **Key → home node** is round-robin (``key % n_procs``), so every
  node is a storage backend for a slice of each shard.
* **Request → front-end node** is round-robin by request index: every
  node serves an interleaved slice of the open-loop stream, the
  serving analogue of an SPMD owner-computes split.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ServeWorkload:
    """One serving scenario: traffic shape plus control-loop cadence.

    ``rate`` is the aggregate open-loop arrival rate in requests per
    1000 cycles; arrivals are a seeded exponential (Poisson) process.
    ``batch`` is the per-node batch size between control epochs: nodes
    rendezvous every ``batch`` of their own requests, which is where
    the adaptive controller may act.  ``read_frac`` applies to the
    first ``shift_at`` fraction of the stream; after the shift point
    the mix becomes ``shift_read_frac`` (``None`` = no shift).
    """

    n_keys: int = 64
    n_shards: int = 4
    n_requests: int = 4096
    zipf_s: float = 1.1
    read_frac: float = 0.9
    shift_at: float = 0.5
    shift_read_frac: float | None = None
    rate: float = 40.0
    batch: int = 64
    think_cycles: int = 20
    region_words: int = 4
    seed: int = 2026

    def __post_init__(self):
        if self.n_shards < 1 or self.n_shards > self.n_keys:
            raise ValueError(
                f"n_shards must be in [1, n_keys]: {self.n_shards} vs {self.n_keys}"
            )
        if not (0.0 <= self.read_frac <= 1.0):
            raise ValueError(f"read_frac must be a fraction: {self.read_frac}")
        if self.shift_read_frac is not None and not (0.0 <= self.shift_read_frac <= 1.0):
            raise ValueError(f"shift_read_frac must be a fraction: {self.shift_read_frac}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1: {self.n_requests}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1: {self.batch}")
        if self.think_cycles < 0:
            raise ValueError(f"think_cycles must be >= 0: {self.think_cycles}")

    @classmethod
    def paper_scale(cls) -> "ServeWorkload":
        """The "millions of users" configuration: 2M requests over 4096
        keys.  Minutes of wall clock in the pure-Python kernel — the
        bench default stays at thousands of requests, same shape."""
        return cls(n_keys=4096, n_shards=16, n_requests=2_000_000, batch=4096)

    def to_dict(self) -> dict:
        return asdict(self)

    # -- layout ---------------------------------------------------------
    def shard_of_key(self, key: int) -> int:
        """Contiguous rank-block sharding: shard 0 is the hot shard."""
        return key * self.n_shards // self.n_keys

    def keys_of_shard(self, shard: int) -> range:
        lo = -(-shard * self.n_keys // self.n_shards)  # ceil division
        hi = -(-(shard + 1) * self.n_keys // self.n_shards)
        return range(lo, hi)


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized bounded-zipf popularity over ranks 0..n-1."""
    w = (np.arange(1, n + 1, dtype=np.float64)) ** (-s)
    return w / w.sum()


def build_traffic(workload: ServeWorkload, n_procs: int) -> dict:
    """Expand the workload into flat per-request arrays (one RNG pass).

    Returns ``keys`` (int64), ``is_read`` (bool), ``arrival`` (int64,
    nondecreasing open-loop arrival cycles), ``value`` (float64, the
    payload a write stores — the request index, so any final cell
    value names the exact request that produced it), plus the derived
    ``shard`` per request and ``node`` (front-end assignment).
    """
    wl = workload
    rng = np.random.default_rng(wl.seed)
    n = wl.n_requests
    keys = rng.choice(wl.n_keys, size=n, p=zipf_weights(wl.n_keys, wl.zipf_s))
    mix = np.full(n, wl.read_frac)
    shift_idx = int(n * wl.shift_at)
    if wl.shift_read_frac is not None:
        mix[shift_idx:] = wl.shift_read_frac
    is_read = rng.random(n) < mix
    gaps = rng.exponential(1000.0 / wl.rate, size=n)
    arrival = np.cumsum(gaps).astype(np.int64)
    return {
        "keys": keys.astype(np.int64),
        "is_read": is_read,
        "arrival": arrival,
        "value": np.arange(n, dtype=np.float64),
        "shard": (keys * wl.n_shards // wl.n_keys).astype(np.int64),
        "node": (np.arange(n) % n_procs).astype(np.int64),
        "shift_idx": shift_idx,
    }


def traffic_digest(traffic: dict) -> dict:
    """Small JSON-friendly fingerprint of a generated stream (tests and
    artifacts pin it so workload regressions are loud)."""
    keys = traffic["keys"]
    return {
        "requests": int(keys.size),
        "reads": int(traffic["is_read"].sum()),
        "hottest_key": int(np.bincount(keys).argmax()),
        "hottest_share": round(float(np.bincount(keys).max() / keys.size), 4),
        "last_arrival": int(traffic["arrival"][-1]),
        "key_checksum": int(keys.sum()),
    }
