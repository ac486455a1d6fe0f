"""Traffic generator: determinism, layout invariants, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ServeWorkload, build_traffic, traffic_digest, zipf_weights


def test_same_seed_same_traffic():
    wl = ServeWorkload(n_requests=512, shift_read_frac=0.2, seed=7)
    a = build_traffic(wl, n_procs=4)
    b = build_traffic(wl, n_procs=4)
    for field in ("keys", "is_read", "arrival", "value", "shard", "node"):
        assert np.array_equal(a[field], b[field]), field
    assert traffic_digest(a) == traffic_digest(b)


def test_different_seed_different_traffic():
    wl = ServeWorkload(n_requests=512, seed=7)
    other = ServeWorkload(n_requests=512, seed=8)
    assert traffic_digest(build_traffic(wl, 4)) != traffic_digest(build_traffic(other, 4))


def test_shard_layout_partitions_keys():
    wl = ServeWorkload(n_keys=37, n_shards=5)  # deliberately non-divisible
    seen = []
    for s in range(wl.n_shards):
        block = list(wl.keys_of_shard(s))
        assert block, f"shard {s} got no keys"
        for k in block:
            assert wl.shard_of_key(k) == s
        seen.extend(block)
    assert seen == list(range(wl.n_keys))  # contiguous blocks, no gaps


def test_zipf_hot_shard_is_shard_zero():
    wl = ServeWorkload(n_keys=64, n_shards=4, n_requests=4096, zipf_s=1.1, seed=3)
    t = build_traffic(wl, n_procs=4)
    counts = np.bincount(t["shard"], minlength=wl.n_shards)
    assert counts[0] == counts.max()  # rank-block sharding: shard 0 hottest
    w = zipf_weights(wl.n_keys, wl.zipf_s)
    assert w[0] == w.max() and w[-1] == w.min()
    assert w.sum() == pytest.approx(1.0)


def test_mix_shift_lands_at_shift_idx():
    wl = ServeWorkload(n_requests=4096, read_frac=1.0, shift_at=0.5, shift_read_frac=0.0)
    t = build_traffic(wl, n_procs=2)
    cut = t["shift_idx"]
    assert cut == 2048
    assert t["is_read"][:cut].all()  # read_frac 1.0 before the shift
    assert not t["is_read"][cut:].any()  # 0.0 after


def test_arrivals_nondecreasing_and_open_loop():
    wl = ServeWorkload(n_requests=1024, rate=25.0, seed=5)
    t = build_traffic(wl, n_procs=4)
    assert (np.diff(t["arrival"]) >= 0).all()
    # Open-loop: mean gap tracks 1000/rate within sampling noise.
    mean_gap = t["arrival"][-1] / wl.n_requests
    assert 0.5 * 1000 / wl.rate < mean_gap < 2.0 * 1000 / wl.rate


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_shards": 0},
        {"n_shards": 65},  # > n_keys (64)
        {"read_frac": 1.5},
        {"shift_read_frac": -0.1},
        {"rate": 0.0},
        {"batch": 0},
        {"think_cycles": -1},  # would index the Delay pool from its end
    ],
)
def test_validation_rejects_bad_spec(kwargs):
    with pytest.raises(ValueError):
        ServeWorkload(**kwargs)
