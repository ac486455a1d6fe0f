"""The small-scope model checker: clean tables certify, broken tables refute.

Three batteries:

* every table-driven protocol family verifies clean at the default
  2 nodes x 1 region x 2 ops scope (the certificate scope);
* every seeded mutation — type-well-formed but semantically broken
  tables — is refuted with a minimal counterexample trace, proving the
  checker has teeth (a checker that cannot fail a broken table
  certifies nothing);
* the committed certificates under ``src/repro/verify/certs/`` are
  pinned to the tables' content fingerprints, so editing any row
  without re-running ``repro modelcheck --write-certs`` fails CI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.protocols.dynamic_update import DYNAMIC_UPDATE_TABLE
from repro.protocols.owned import OWNED_TABLE
from repro.protocols.registry import default_registry
from repro.protocols.self_invalidate import SELF_INVALIDATE_TABLE
from repro.dsm.msi import MSI_TABLE
from repro.verify.modelcheck import (
    ModelCheckError,
    Scope,
    check_table,
    model_for,
    seeded_mutations,
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
    assert result.states > 100  # the scope is small, not trivial
    assert result.fingerprint == TABLES[name].fingerprint()


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
    """The checker opens and closes the home's own access from the rows'
    ``open_home_*``/``close_home_*`` actions, as the shipped hooks do: a
    table missing any one of them is refuted, never certified."""
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
