"""``SERVE_seed.json`` is ``serve --compare``'s output on the default
flags: the same command must still reproduce every key of it but the
stamp, and adaptive must win."""

import json
from pathlib import Path

from repro import cli

SEED = Path(__file__).resolve().parents[2] / "SERVE_seed.json"


def test_serve_compare_reproduces_the_committed_artifact(tmp_path):
    out = tmp_path / "serve-compare.json"
    assert cli.main(["serve", "--compare", "--out", str(out)]) == 0  # 0 = adaptive wins
    fresh, seed = json.loads(out.read_text()), json.loads(SEED.read_text())
    assert fresh["adaptive_wins"], fresh["best_static"]
    # The fresh report adds its host and command; the seed keeps neither.
    for key in seed.keys() - {"stamp", "entries"}:
        assert fresh[key] == seed[key], (key, fresh[key], seed[key])
    assert [e["config"] for e in fresh["entries"]] == [e["config"] for e in seed["entries"]]
    for got, want in zip(fresh["entries"], seed["entries"]):
        moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        assert not moved, (want["config"], {k: (got.get(k), want.get(k)) for k in moved})
