"""``python -m repro``: one parser, one vocabulary, one exit-code policy.

Every CI invocation has a tiny-input twin here, run in-process; the
structural test at the bottom keeps the shared plumbing single.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.cli.common import seed_set

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def _run(argv: str, tmp_path) -> int:
    return cli.main(argv.replace("OUT", str(tmp_path)).split())


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_subcommand_has_help(command, capsys):
    assert cli.main([command, "--help"]) == 0
    assert f"python -m repro {command}" in capsys.readouterr().out


#: (the CI step's twin on tiny inputs, documented exit code)
INVOCATIONS = [
    ("bench --smoke --baseline BENCH_seed.json --gate --out OUT/bench.json", 0),
    ("bench --suites serve --procs 4 --baseline BENCH_seed.json --gate --out OUT/bench.json", 0),
    ("bench --suites serve --procs 2 --baseline BENCH_seed.json --out OUT/bench.json", 1),  # cycles differ
    # a count below 1 is a usage error, not a failed check
    ("bench --smoke --procs 0", 2),
    ("sweep --smoke --procs -1", 2),
    ("chaos --procs 0", 2),
    ("lint --procs 0", 2),
    ("trace --procs x", 2),
    ("bench --baseline OUT/missing.json", 2),
    ("sweep --smoke --jobs 1 --compare-serial --out OUT/sweep.json", 0),
    ("chaos --apps TSP --procs 2 --seeds 0 --out OUT/chaos", 0),
    ("chaos --apps TSP --procs 2 --plan drop_retry --seeds 1 --no-stall-check --out OUT/chaos", 0),
    ("chaos --apps EM3D --procs 2 --plan none --seeds 0 --no-stall-check --out OUT/chaos", 0),
    # the idle check bites: a lossy port's lock release waits for its ack, so armed TSP is not free
    ("chaos --apps TSP --procs 2 --plan none --seeds 0 --no-stall-check --out OUT/chaos", 1),
    ("chaos --crash --procs 3 --seeds 0-1 --out OUT/recovery", 0),
    ("chaos --seeds 3-1", 2),
    ("chaos --seeds x", 2),
    ("chaos --apps TSP,EM3D", 2),  # lists are space-separated
    ("serve --requests 128 --procs 2 --protocol DynamicUpdate --out OUT/serve.json", 0),
    ("serve --requests 128 --procs 2 --adaptive", 0),
    ("serve --requests 256 --procs 2 --compare", 1),  # too short for adaptive to win
    ("serve --protocol StaticUpdate", 2),  # not a serving candidate
    ("serve --requests 0", 2),
    ("serve --requests -5 --procs 2", 2),
    ("modelcheck --check", 0),
    ("modelcheck SC SelfInvalidate DynamicUpdate --seeded", 0),
    ("modelcheck SC HwSC --nodes 2 --seeded", 0),
    ("modelcheck Owned --nodes 2 --seeded", 0),
    ("modelcheck DynamicUpdate --nodes 3 --seeded", 0),
    ("modelcheck StaticUpdate", 2),  # no checker model
    ("modelcheck --nodes 0", 2),
    ("modelcheck SC --nodes -1 --seeded", 2),
    ("docs --check", 0),
    ("lint --static-only --out OUT/lint-static.json", 0),
    ("lint --dynamic-only --procs 2 --out OUT/lint-dynamic.json", 0),
    ("profile --apps TSP --variants SC custom --procs 2 --check --out OUT/profiles", 0),
    ("profile --apps TSP --variants dynamic --check", 2),  # only EM3D has it: nothing to check
    ("profile --procs 0", 2),
    ("trace --apps TSP --procs 2 --out OUT/traces/summaries.json", 0),
    ("nope", 2),
    ("", 2),
]


@pytest.mark.parametrize("argv, status", INVOCATIONS, ids=[a or "<none>" for a, _ in INVOCATIONS])
def test_ci_invocation_twins_return_the_documented_exit_code(argv, status, tmp_path, capsys):
    assert _run(argv, tmp_path) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 2:  # a usage error is one line under the usage banner
        assert re.search(r"^python -m repro.*: error: .+$", err.splitlines()[-1])


def test_docs_check_fails_on_a_dangling_name(tmp_path, monkeypatch, capsys):
    """A backticked ``Class.attr`` whose attribute the code no longer
    defines fails ``docs --check``, whatever else is up to date."""
    from repro.cli import docs

    for name in ("README.md", "DESIGN.md"):
        (tmp_path / name).write_text((ROOT / name).read_text())
    monkeypatch.setattr(docs, "ROOT", tmp_path)
    assert cli.main(["docs", "--check"]) == 0
    with (tmp_path / "DESIGN.md").open("a") as f:
        f.write("\nMessages are counted through `Machine._msg_keys` and `Stats.get`.\n")
    capsys.readouterr()
    assert cli.main(["docs", "--check"]) == 1
    out = capsys.readouterr().out
    assert "DANGLING: DESIGN.md: `Machine._msg_keys`" in out and "Stats.get" not in out


def test_docs_check_fails_on_a_bare_name_nothing_defines(tmp_path, monkeypatch, capsys):
    """A backticked bare CamelCase name fails ``docs --check`` unless a
    class or def under ``src/repro``, a registered protocol, a builtin
    or a ``typing`` name defines it."""
    from repro.cli import docs

    for name in ("README.md", "DESIGN.md"):
        (tmp_path / name).write_text((ROOT / name).read_text())
    monkeypatch.setattr(docs, "ROOT", tmp_path)
    with (tmp_path / "README.md").open("a") as f:
        f.write("\n`TracedTransport` over `Owned`, raising `TypeError` on a `NamedTuple`.\n")
    assert cli.main(["docs", "--check"]) == 0
    with (tmp_path / "README.md").open("a") as f:
        f.write("\nAn untraced machine used to wrap a `SimTransport`.\n")
    capsys.readouterr()
    assert cli.main(["docs", "--check"]) == 1
    out = capsys.readouterr().out
    assert "DANGLING: README.md: `SimTransport`" in out
    assert not any(n in out for n in ("TracedTransport", "Owned", "TypeError", "NamedTuple"))


def test_docs_check_fails_on_a_missing_repo_path(tmp_path, monkeypatch, capsys):
    """A backticked path under ``tests/``, ``tools/``, … that the checkout
    lacks fails ``docs --check``; a ``::test`` or ``:line`` suffix, and a
    glob that matches something, pass."""
    from repro.cli import docs

    for name in ("README.md", "DESIGN.md"):
        (tmp_path / name).write_text((ROOT / name).read_text())
    monkeypatch.setattr(docs, "ROOT", tmp_path)
    with (tmp_path / "DESIGN.md").open("a") as f:
        f.write("\nSee `tests/compiler/test_passes.py::test_dump_is_readable`,"
                " `src/repro/dsm/hooks.py:12` and `examples/*.py`.\n")
    assert cli.main(["docs", "--check"]) == 0
    with (tmp_path / "DESIGN.md").open("a") as f:
        f.write("\nThe shapes are pinned in `tests/compiler/test_annotations.py`; see `tools/*.py`.\n")
    capsys.readouterr()
    assert cli.main(["docs", "--check"]) == 1
    out = capsys.readouterr().out
    assert "MISSING: DESIGN.md: `tests/compiler/test_annotations.py`, DESIGN.md: `tools/*.py`" in out


def test_modelcheck_past_its_state_cap_is_one_line_and_the_rest_still_run(monkeypatch, capsys):
    from repro.cli import modelcheck

    monkeypatch.setattr(modelcheck, "MAX_STATES", 1_100)  # SelfInvalidate: 1,387 at 2 nodes
    assert cli.main(["modelcheck", "SelfInvalidate", "DynamicUpdate"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line for line in lines if "NOT CHECKED" in line] == [
        "SelfInvalidate   NOT CHECKED: SelfInvalidate: state space exceeded 1100 states"
        " at scope Scope(nodes=2, regions=1, ops=2, epochs=2)"
    ]
    assert any(line.startswith("DynamicUpdate") and line.endswith("ok") for line in lines)
    assert lines[-1] == "model check: FAILED" and "Traceback" not in captured.err


def test_modelcheck_lists_every_uncertified_table_without_failing(capsys):
    from repro.protocols import default_registry

    assert cli.main(["modelcheck"]) == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^uncertified: (\w+) — \S.*$", out, re.M)
    certified = re.findall(r"^(\w+) +\w+ +scope=.* ok$", out, re.M)
    assert len(listed) == 8 and len(certified) == 5
    assert sorted(listed + certified) == sorted(default_registry.names())
    assert cli.main(["modelcheck", "SC"]) == 0
    assert "uncertified" not in capsys.readouterr().out


def test_modelcheck_check_reruns_the_certified_scope(tmp_path, monkeypatch, capsys):
    """``--check`` re-enumerates each certificate's scope: a count the
    tables no longer reproduce fails, even under a matching fingerprint."""
    from repro.cli import modelcheck

    for path in modelcheck.CERT_DIR.glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    monkeypatch.setattr(modelcheck, "CERT_DIR", tmp_path)
    assert cli.main(["modelcheck", "--check"]) == 0
    cert = json.loads((tmp_path / "Owned.json").read_text())
    cert["transitions"] += 1
    (tmp_path / "Owned.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["modelcheck", "--check"]) == 1
    out = capsys.readouterr().out
    assert "Owned            STALE certificate (transitions 2103 -> 2102)" in out
    assert "SC               certificate valid" in out


def test_seed_sets_parse_or_refuse():
    assert seed_set("0,2,5-7") == [0, 2, 5, 6, 7]
    assert seed_set("4") == [4] and seed_set("3-3") == [3]
    for bad in ("x", "1-", "3-1", "", "1,,2", "-1"):
        with pytest.raises(argparse.ArgumentTypeError, match="bad seed set"):
            seed_set(bad)


def test_out_names_the_report_or_the_directory_and_every_json_is_stamped(tmp_path):
    # PATH.json: the report itself, trace's data files beside it
    assert _run("trace --apps TSP --variants SC --procs 2 --out OUT/a/summaries.json", tmp_path) == 0
    # any other PATH: a directory holding <command>.json and the data files
    assert _run("trace --apps TSP --variants SC --procs 2 --out OUT/b", tmp_path) == 0
    for report in (tmp_path / "a" / "summaries.json", tmp_path / "b" / "trace.json"):
        doc = json.loads(report.read_text())
        assert doc["schema"] == 1 and doc["command"] == "trace" and doc["stamp"] and doc["host"]["cpus"]
        assert [(r["cell"]["app"], r["cell"]["variant"]) for r in doc["runs"]] == [("TSP", "SC")]
        assert (report.parent / "tsp-sc.trace.jsonl").exists()
        assert (report.parent / "tsp-sc.perfetto.json").exists()
    assert _run("chaos --crash --procs 3 --seeds 0 --no-stall-check --out OUT/r", tmp_path) == 0
    doc = json.loads((tmp_path / "r" / "chaos.json").read_text())
    assert doc["command"] == "chaos" and doc["host"]
    crashed = next(r for r in doc["runs"] if r["cell"]["variant"] == "SC" and r["cell"]["plan"] == "crash")
    assert crashed["cell"]["seed"] == 0 and crashed["recovery"]["epoch_transitions"] == 1
    assert crashed["fault_plan"]["crashes"] and crashed["stall"] is None
    assert [c["ok"] for c in doc["checks"] if c["name"] == "ring-SC-3-crash-0"] == [True]


def test_the_shared_plumbing_exists_once():
    sources = {p: p.read_text() for p in (ROOT / "src").rglob("*.py")}
    sources |= {p: p.read_text() for p in (ROOT / "tests").rglob("*.py")}

    def hits(pattern, under=ROOT):
        return sorted(str(p.relative_to(ROOT)) for p, text in sources.items()
                      if under in p.parents and re.search(pattern, text))

    assert not (ROOT / "tools").exists()
    assert hits(r"ArgumentParser\(", SRC) == ["src/repro/cli/__init__.py"]
    assert hits("_PROG" + "RAMS") == ["src/repro/harness/experiments.py"]  # (spelt so that this file is no hit)
    assert hits(r"sys\.path\.insert") == []
    assert hits(r"json\.dumps?\(", SRC / "cli") == [
        "src/repro/cli/common.py",      # the artifact writer
        "src/repro/cli/modelcheck.py",  # certificates: package data, not artifacts
        "src/repro/cli/serve.py",       # the report, printed
    ]
    flags = sum(len(re.findall(r"\.add_argument\(", text))
                for p, text in sources.items() if SRC / "cli" in p.parents)
    assert flags <= 50, flags
