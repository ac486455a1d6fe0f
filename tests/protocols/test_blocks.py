"""Unit tests for the §6 protocol building blocks (the acked fan-out is
the port's: ``tests/dsm/test_faults.py`` holds it on both fabrics)."""

from repro.protocols.blocks import SharerDirectory


def test_sharer_directory():
    d = SharerDirectory()
    d.register(7, 1)
    d.register(7, 2)
    d.register(7, 3)
    d.drop(7, 2)
    assert d.sharers(7) == [1, 3]
    assert d.sharers(7, exclude=(1,)) == [3]
    assert (7, 1) in d
    assert (7, 2) not in d
    assert d.sharers(99) == []
