"""Unit tests for regions and the region directory."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.memory import Region, RegionCopy, RegionDirectory
from repro.sim.errors import SimulationError


def test_alloc_assigns_unique_nonzero_ids():
    d = RegionDirectory()
    r1 = d.alloc(home=0, size=4)
    r2 = d.alloc(home=1, size=8)
    assert r1.rid != r2.rid
    assert r1.rid != 0 and r2.rid != 0
    assert len(d) == 2


def test_lookup_roundtrip():
    d = RegionDirectory()
    r = d.alloc(home=3, size=16)
    assert d.get(r.rid) is r
    assert r.rid in d
    assert 9999 not in d


def test_unknown_rid_raises():
    d = RegionDirectory()
    with pytest.raises(SimulationError, match="unknown region"):
        d.get(42)


def test_region_data_zero_initialized():
    r = Region(1, home=0, size=10)
    assert r.home_data.shape == (10,)
    assert np.all(r.home_data == 0.0)


def test_zero_size_region_rejected():
    with pytest.raises(SimulationError):
        Region(1, home=0, size=0)


def test_copy_independent_of_home_data():
    r = Region(1, home=0, size=4)
    c = RegionCopy(r, node=2)
    r.home_data[0] = 5.0
    assert c.data[0] == 0.0
    c.data[1] = 7.0
    assert r.home_data[1] == 0.0
    assert c.rid == r.rid
    assert c.state == "invalid"


def test_allocation_order_is_deterministic():
    d = RegionDirectory()
    rids = [d.alloc(home=i % 3, size=1).rid for i in range(10)]
    assert rids == sorted(rids)
    assert [r.rid for r in d.all_regions()] == rids


def test_copy_access_state_is_declared_slots():
    c = RegionCopy(Region(1, home=0, size=2), node=1)
    assert not hasattr(c, "__dict__")
    assert (c.reads, c.writes, c.maps, c.deferred) == (0, 0, 0, ())
    assert c.ent is None and c.space is None and c.snapshot is None
    assert (c.use, c.wdepth, c.phase, c.version, c.epoch) == (0, 0, -1, -1, -1)
    assert not hasattr(c, "meta") and not hasattr(c.region, "meta")


def test_access_state_lives_in_slots_not_meta_keys():
    # One name, one place: the per-copy counts, deferred recalls, cached
    # directory entry, Ace handle stamp and table protocols' copy state
    # are RegionCopy slots; neither a copy nor a region has a ``meta`` to
    # hide state in (a service keeps its own per-region state, as locks do).
    banned = re.compile(
        r"""["'](read_count|write_count|map_count|ace_space|ace_gen)["']"""
        r"""|meta\[["']deferred["']\]|f?["']dir:|\b(copy|handle|region)\.meta\b"""
    )
    root = Path(repro.__file__).parent
    files = sorted(root.rglob("*.py"))
    offenders = [
        f"{path.relative_to(root)}:{n}"
        for path in files
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert len(files) > 100
    assert offenders == []
