"""The small-scope model checker: clean tables certify, broken tables refute.

Five batteries:

* every table-driven protocol family verifies clean at the default
  2 nodes x 1 region x 2 ops scope (the certificate scope), with the
  committed certificate's state and transition counts;
* every seeded mutation — type-well-formed but semantically broken
  tables — is refuted with a minimal counterexample trace, proving the
  checker has teeth (a checker that cannot fail a broken table
  certifies nothing);
* the committed certificates under ``src/repro/verify/certs/`` are
  pinned to the tables' content fingerprints, so editing any row
  without re-running ``repro modelcheck --write-certs`` fails CI;
* the checker's requester is the call form of the generated hook text
  its protocol compiles — Owned's, SelfInvalidate's and DynamicUpdate's,
  one per model family — whose shipped text only splices the declared
  effects in, and a replay that strays from the parked run is refused;
* a scope that would test nothing (no node, region, operation or
  epoch) is refused when it is built.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core.runtime import AceRuntime
from repro.core.space import Space
from repro.machine import Machine, MachineConfig
from repro.protocols.dynamic_update import DYNAMIC_UPDATE_TABLE
from repro.protocols.owned import OWNED_TABLE
from repro.protocols.registry import default_registry
from repro.protocols.self_invalidate import SELF_INVALIDATE_TABLE
from repro.dsm.msi import MSI_TABLE
from repro.sim import Simulator
from repro.spec import emit
from repro.verify.modelcheck import (
    _PARK,
    ModelCheckError,
    Scope,
    check_table,
    model_for,
    seeded_mutations,
    _Requester,
)

CERT_DIR = Path(__file__).resolve().parents[2] / "src" / "repro" / "verify" / "certs"

TABLES = {
    "SC": MSI_TABLE,
    "Owned": OWNED_TABLE,
    "SelfInvalidate": SELF_INVALIDATE_TABLE,
    "DynamicUpdate": DYNAMIC_UPDATE_TABLE,
}

FAMILY = {
    "SC": "invalidation",
    "Owned": "invalidation",
    "SelfInvalidate": "barrier",
    "DynamicUpdate": "update",
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_verifies_clean_at_certificate_scope(name):
    result = check_table(TABLES[name], Scope(nodes=2, regions=1, ops=2))
    assert result.ok, result.violations[0].render()
    assert result.family == FAMILY[name]
    assert result.fingerprint == TABLES[name].fingerprint()
    cert = json.loads((CERT_DIR / f"{name}.json").read_text())
    assert (result.states, result.transitions) == (cert["states"], cert["transitions"])


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_seeded_mutation_is_refuted(name):
    mutations = seeded_mutations(TABLES[name])
    assert mutations, f"{name}: no seeded mutations generated"
    for label, broken in mutations:
        result = check_table(broken, Scope(nodes=2, regions=1, ops=2))
        assert not result.ok, f"{name}/{label}: checker certified a known-broken table"
        v = result.violations[0]
        # A refutation must carry an actionable minimal counterexample.
        assert v.trace, f"{name}/{label}: violation with no trace"
        assert v.invariant in result.invariants
        rendered = v.render()
        assert "counterexample" in rendered and v.invariant in rendered


@pytest.mark.parametrize("name", ["SC", "Owned"])
def test_the_home_alias_opens_and_closes_through_its_row_actions(name):
    """The checker runs the generated hooks, whose ``open_home_*`` and
    ``close_home_*`` actions are the home machine's, bound as at runtime:
    a table missing any one of them is refuted, never certified."""
    table, dropped = TABLES[name], []
    for k, t in enumerate(table.transitions):
        for a in t.actions:
            if a.startswith(("open_home_", "close_home_")):
                broken = table.mutate(k, actions=tuple(x for x in t.actions if x != a))
                assert not check_table(broken, Scope(nodes=2)).ok, (name, a)
                dropped.append(a)
    assert len(dropped) == 4


def test_mutation_counterexamples_are_short():
    """BFS guarantees minimal-length traces; the canonical SC mutations
    should all reproduce within a dozen steps at the smallest scope."""
    for label, broken in seeded_mutations(MSI_TABLE):
        result = check_table(broken, Scope(nodes=2, regions=1, ops=2))
        assert len(result.violations[0].trace) <= 15, label


@pytest.mark.parametrize("name", sorted(TABLES))
def test_committed_certificate_is_pinned_to_table_fingerprint(name):
    path = CERT_DIR / f"{name}.json"
    assert path.exists(), f"missing certificate {path}; run repro modelcheck --write-certs"
    cert = json.loads(path.read_text())
    assert cert["ok"] is True
    assert cert["violations"] == []
    assert cert["table_fingerprint"] == TABLES[name].fingerprint(), (
        f"{name}: table edited without re-certifying; "
        "run repro modelcheck --write-certs"
    )
    assert cert["family"] == FAMILY[name]
    assert cert["states"] > 0 and cert["transitions"] > 0


def test_registry_table_of_feeds_the_checker():
    """The CLI resolves tables through the registry, not imports."""
    table = default_registry.table_of("Owned")
    assert table is OWNED_TABLE
    # Every shipped protocol is table-driven; the configuration file
    # exports each table's metadata alongside the legacy spec fields.
    cfg = default_registry.config_table()
    for name in default_registry.names():
        assert default_registry.table_of(name) is not None, name
        assert "sync_model" in cfg[name] and "base_state" in cfg[name], name
    assert cfg["Owned"]["sync_model"] == "access"
    assert cfg["Owned"]["writer_model"] == "copy"
    assert cfg["SelfInvalidate"]["sync_model"] == "barrier"
    assert cfg["SelfInvalidate"]["writer_model"] == "epoch"
    assert cfg["SelfInvalidate"]["base_state"] == "invalid"
    assert cfg["HomeWrite"]["home_writer"] is True


def test_model_for_rejects_unmodeled_combination():
    odd = MSI_TABLE.with_(name="Odd", writer_model="serialized")
    with pytest.raises(ModelCheckError):
        model_for(odd, Scope())


def test_stale_read_has_a_readable_trace():
    """The rendered counterexample names concrete steps an engineer can
    replay: node actions, message deliveries, the violated invariant."""
    broken = None
    for label, table in seeded_mutations(MSI_TABLE):
        if label == "invalidate-ack-drops-writeback":
            broken = table
    result = check_table(broken, Scope(nodes=2, regions=1, ops=2))
    text = result.violations[0].render()
    assert "no_stale_read" in text
    assert any(ch.isdigit() for ch in text)  # numbered steps


#: the hook events each family's representative table generates
HOOKED = {
    "Owned": {"start_read", "start_write", "end_read", "end_write"},
    "SelfInvalidate": {"start_read", "start_write", "end_write", "barrier"},
    "DynamicUpdate": {"end_write"},
}


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_the_checker_runs_the_hook_text_its_protocol_compiles(name, monkeypatch):
    """One requester text for run and proof: the hooks the checker
    generates for a table are, character for character, the call form of
    the ones its shipped protocol generates — and what ships is that call
    form with the protocol's declared effects spliced in, nothing else
    (Owned's: the home alias's guards and open/close actions)."""
    calls, compiled = {}, {}
    real = emit.hook_source

    def spy(tbl, event, refs, blocking, effects=None):
        text = real(tbl, event, refs, blocking, effects)
        if tbl.name == name:  # the runtime builds its default SC engine too
            call = calls.setdefault(where, {})[event] = real(tbl, event, refs, blocking)
            compiled.setdefault(where, {})[event] = text
            assert text == _spliced(call, effects or {}), (where, event)
        return text

    monkeypatch.setattr(emit, "hook_source", spy)
    monkeypatch.setattr(emit, "_TEXTS", {})  # each side writes its texts afresh
    where = "checker"
    model_for(TABLES[name], Scope())
    emit._TEXTS.clear()
    where = "runtime"
    AceRuntime(Machine(Simulator(), MachineConfig(n_procs=2)))._create_protocol(name, Space(sid=0))
    assert calls["checker"] == calls["runtime"]
    assert compiled["checker"] == calls["checker"]
    assert set(calls["checker"]) == HOOKED[name]
    spliced = {event for event, text in compiled["runtime"].items() if text != calls["runtime"][event]}
    assert spliced == (HOOKED[name] if name == "Owned" else set())


def _spliced(call: str, effects: dict) -> str:
    """``call`` with ``effects`` spliced in by hand: an action's call line
    becomes its lines at that indent, a guard's call its parenthesized
    expression, and ``_make`` binds the names left and the ones read."""
    lines = call.splitlines()
    refs = {m.group(1) for line in lines if (m := re.fullmatch(r"  (\w+) = P\.\1", line))}
    reads, body = set(), []

    def bare(name: str) -> str:
        reads.update(re.findall(r"\bP\.(\w+)", effects[name]))
        return re.sub(r"\bP\.(\w+)", r"\1", effects[name])

    for line in lines[1 + len(refs):]:
        act = re.fullmatch(r"(\s*)(?:yield from )?(act_\w+)\(nid, handle\)", line)
        if act and act.group(2) in effects:
            body += [act.group(1) + part for part in bare(act.group(2)).splitlines()]
            continue
        if re.match(r"\s*(el)?if ", line):
            line = re.sub(
                r"\b(g_\w+)\(nid, handle\)",
                lambda m: f"({bare(m.group(1))})" if m.group(1) in effects else m.group(0),
                line,
            )
        body.append(line)
    kept = sorted(refs - set(effects) | reads)
    return "\n".join([lines[0], *(f"  {n} = P.{n}" for n in kept), *body, ""])


def test_a_replay_that_parks_elsewhere_is_refused():
    """A parked hook resumes by re-running its prefix; a prefix that now
    parks in another action, or asks a guard the live run did not, is a
    checker error, never a silent resumption."""

    class Target(_Requester):
        verdict = False

        def g_idle(self, nid):
            return self.verdict

        def park(self, family):
            self.parked = family
            yield _PARK

    target = Target("T", wire=None)
    target.g_idle = target._recorded(target.g_idle)

    def hook(nid):
        yield from target.park("fetch" if target.g_idle(nid) else "rendezvous")

    answers = target.run(hook, (0,))
    assert answers == (False,)
    assert target.run(hook, (0,), answers, "rendezvous", None) is None
    with pytest.raises(ModelCheckError, match="parks in 'rendezvous', not 'fetch'"):
        target.run(hook, (0,), answers, "fetch", None)
    with pytest.raises(ModelCheckError, match="asks a guard"):
        target.run(hook, (0,), (), "rendezvous", None)


@pytest.mark.parametrize("field", ["nodes", "regions", "ops", "epochs"])
@pytest.mark.parametrize("value", [0, -1])
def test_a_scope_that_tests_nothing_is_refused(field, value):
    """A world with no node, region, operation or barrier round would
    certify in one state, or fail by accident; it is refused outright."""
    with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
        Scope(**{field: value})
