"""The one report: every subcommand writes one document that passes
``validate``, and ``validate`` refuses what is not plain JSON of that shape."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.cli import chaos
from repro.cli.common import Artifacts
from repro.cli.report import validate

#: one tiny invocation per subcommand that writes a report
WRITERS = [
    "bench --smoke",
    "sweep --smoke --jobs 1",
    "chaos --apps TSP --procs 2 --seeds 0",
    "serve --requests 128 --procs 2 --adaptive",
    "profile --apps TSP --variants SC --procs 2 --check",
    "trace --apps TSP --variants SC --procs 2",
    "lint --dynamic-only --procs 2",
]


@pytest.mark.parametrize("argv", WRITERS, ids=[a.split()[0] for a in WRITERS])
def test_each_subcommand_writes_one_valid_report(argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(argv.split() + ["--out", str(out)]) == 0
    doc = validate(json.loads(out.read_text()))
    assert doc["command"] == argv.split()[0] and doc["runs"]
    assert all(c["ok"] for c in doc["checks"])
    data = {"tsp-sc.trace.jsonl", "tsp-sc.perfetto.json"} if doc["command"] == "trace" else set()
    assert {p.name for p in tmp_path.iterdir()} == {"report.json"} | data


def _doc(**sections):
    cell = dict(suite="s", app="TSP", variant="SC", procs=2, plan=None, seed=None)
    faults = dict(drop=0, dup=0, delay=0, retries=0)
    rec = dict(cell=cell, cycles=120, events=7, faults=faults, stall=None, fault_plan=None, **sections)
    return {"schema": 1, "command": "bench", "stamp": "t", "host": {}, "runs": [rec], "checks": []}


def test_validate_accepts_a_report_and_refuses_what_json_would_bend():
    assert validate(_doc(trace={"mix": {"a": 1}, "per_node": {"0": [1.5, None, True]}}))
    # JSON reads an int key back as a string and a tuple as a list
    with pytest.raises(ValueError, match=r"runs\[0\]\.trace\.per_node: key 0 is not a string"):
        validate(_doc(trace={"per_node": {0: {}}}))
    with pytest.raises(ValueError, match="a tuple is not plain JSON"):
        validate(_doc(trace={"span": (1, 2)}))
    with pytest.raises(ValueError, match=r"runs\[0\]\.trace\.seen: a set is not plain JSON"):
        validate(_doc(trace={"seen": {1, 2}}))
    doc = _doc()
    doc["runs"][0]["cycles"] = np.int64(120)
    with pytest.raises(ValueError, match="a int64 is not plain JSON"):
        validate(doc)
    with pytest.raises(ValueError, match="a float64 is not plain JSON"):
        validate(_doc(metrics={"stall_fraction": np.float64(0.5)}))
    with pytest.raises(ValueError, match="not a JSON number"):
        validate(_doc(metrics={"stall_fraction": float("nan")}))


def test_validate_refuses_a_malformed_report():
    doc = _doc()
    del doc["runs"][0]["cycles"]
    with pytest.raises(ValueError, match=r"runs\[0\]: missing \['cycles'\]"):
        validate(doc)
    with pytest.raises(ValueError, match="unknown report schema 2"):
        validate({**_doc(), "schema": 2})
    with pytest.raises(ValueError, match=r"unknown \['profile'\]"):
        validate(_doc(profile={}))
    doc = _doc()
    doc["runs"][0]["cycles"] = None  # only a stalled run has no cycles
    with pytest.raises(ValueError, match="no cycles and no stall"):
        validate(doc)
    with pytest.raises(ValueError, match=r"checks\[0\]\.ok"):
        validate({**_doc(), "checks": [{"name": "x", "ok": 1, "detail": ""}]})


def test_artifacts_write_nothing_validate_refuses(tmp_path):
    art = Artifacts("bench", tmp_path / "r.json")
    with pytest.raises(ValueError, match="set"):
        art.write(_doc(trace={"seen": {1}})["runs"], [])
    assert not (tmp_path / "r.json").exists()
    assert json.loads(art.write(_doc()["runs"], []).read_text())["runs"][0]["cycles"] == 120


def test_a_report_argument_refuses_another_shape(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"suites": {"smoke": {"events": 1, "rows": []}}}))
    assert cli.main(["bench", "--smoke", "--baseline", str(old)]) == 2
    assert "is not a schema-1 report" in capsys.readouterr().err


def test_a_delay_only_plan_injected_faults():
    assert chaos.injected({"drop": 0, "dup": 0, "delay": 3, "retries": 0}) == 3
    assert chaos.injected({"drop": 0, "dup": 0, "delay": 0, "retries": 0}) == 0


def test_no_subcommand_serialises_by_repr():
    src = Path(cli.__file__).parent
    assert [p.name for p in src.glob("*.py") if "default=repr" in p.read_text()] == []
