"""``SERVE_seed.json`` is ``serve --compare``'s output on the default
flags: the same command must still reproduce it, and adaptive must win."""

import json
from pathlib import Path

from repro import cli

SEED = Path(__file__).resolve().parents[2] / "SERVE_seed.json"


def test_serve_compare_reproduces_the_committed_artifact(tmp_path):
    out = tmp_path / "serve-compare.json"
    assert cli.main(["serve", "--compare", "--out", str(out)]) == 0  # 0 = adaptive wins
    fresh, seed = json.loads(out.read_text()), json.loads(SEED.read_text())
    assert fresh["adaptive_wins"], fresh["best_static"]
    for key in ("adaptive_cycles", "best_static", "workload", "n_procs", "n_dir_shards"):
        assert fresh[key] == seed[key], (key, fresh[key], seed[key])
    cycles = {e["config"]: e["cycles"] for e in seed["entries"]}
    assert {e["config"]: e["cycles"] for e in fresh["entries"]} == cycles
