"""``SERVE_seed.json`` is ``serve --compare``'s report on the default
flags: the same command must still reproduce every run record and
check of it, and adaptive must win."""

import json
from pathlib import Path

from repro import cli

SEED = Path(__file__).resolve().parents[2] / "SERVE_seed.json"


def test_serve_compare_reproduces_the_committed_artifact(tmp_path):
    out = tmp_path / "serve-compare.json"
    assert cli.main(["serve", "--compare", "--out", str(out)]) == 0  # 0 = adaptive wins
    fresh, seed = json.loads(out.read_text()), json.loads(SEED.read_text())
    assert fresh["checks"] == seed["checks"] and fresh["checks"][0]["ok"]
    # The header (stamp, host) is the fresh report's own.
    assert [r["cell"] for r in fresh["runs"]] == [r["cell"] for r in seed["runs"]]
    for got, want in zip(fresh["runs"], seed["runs"]):
        moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        assert not moved, (want["cell"], {k: (got.get(k), want.get(k)) for k in moved})
