"""``modelcheck`` — small-scope model checking of the protocol tables.

Exhaustively enumerates every message interleaving of a protocol's
:class:`~repro.spec.table.ProtocolTable` at a bounded scope (the
Teapot role the paper's §6 points at) and reports per-invariant
verdicts with minimal counterexample traces.

* default — check the named protocols (or every table-driven protocol
  in the registry) at ``--nodes`` × 1 region × 2 ops; fails on any
  violation, or on a state space past :data:`MAX_STATES` (one line
  naming the protocol and scope; the others are still checked).
  Without names it also lists each registered table no checker model
  covers as ``uncertified: NAME — reason``, which does not fail.
* ``--seeded`` — ALSO run every seeded mutation of each table and
  require the checker to *refute* each one, printing its minimal
  counterexample.  A mutation the checker misses fails: this is the
  checker's own regression test.
* ``--write-certs`` — record each clean result as a JSON certificate
  under ``src/repro/verify/certs/<name>.json``, keyed by the table's
  content fingerprint (editing any row invalidates the certificate).
* ``--check`` — re-run each committed certificate's recorded scope;
  fails unless the result reproduces it exactly (fingerprint, states,
  transitions, verdict).  This is the CI mode: tens of milliseconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import repro.verify
from repro.cli.common import FAILED, OK, UsageError
from repro.protocols import default_registry
from repro.verify.modelcheck import (
    ModelCheckError,
    Scope,
    check_table,
    model_for,
    seeded_mutations,
)

CERT_DIR = Path(repro.verify.__file__).parent / "certs"

#: a check that enumerates more states than this fails (a runaway scope)
MAX_STATES = 400_000


def _checkable() -> tuple[list[str], dict[str, str]]:
    """Protocols that both ship a table and map onto a checker model, and
    why each other registered table does not."""
    out, uncertified = [], {}
    for name in default_registry.names():
        table = default_registry.table_of(name)
        if table is None:
            continue
        try:
            model_for(table, Scope())
        except ModelCheckError as exc:
            uncertified[name] = str(exc).removeprefix(f"{table.name}: ")
            continue
        out.append(name)
    return out, uncertified


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


def _run_one(name: str, table, scope: Scope):
    result = check_table(table, scope, MAX_STATES)
    print(
        f"{name:16s} {result.family:12s} "
        f"scope={scope.nodes}x{scope.regions}x{scope.ops} "
        f"states={result.states:>7} transitions={result.transitions:>8}  "
        f"{'ok' if result.ok else 'VIOLATED'}"
    )
    for v in result.violations:
        print(_indent(v.render()))
    return result


def _run_seeded(name: str, table, scope: Scope) -> bool:
    mutations = seeded_mutations(table)
    if not mutations:
        print(f"{name:16s} (no seeded mutations for this family)")
    all_caught = True
    for label, broken in mutations:
        result = check_table(broken, scope, MAX_STATES)
        all_caught &= not result.ok
        print(f"{name:16s} mutation {label!r}: {'MISSED' if result.ok else 'caught'}")
        print(_indent("the checker certified a known-broken table — it has no teeth"
                      if result.ok else result.violations[0].render()))
    return all_caught


def _write_cert(name: str, result) -> bool:
    if not result.ok:
        print(f"{name}: refusing to certify a violated table")
        return False
    path = CERT_DIR / f"{name}.json"
    path.write_text(json.dumps(result.certificate(), indent=2, sort_keys=True) + "\n")
    print(f"{name:16s} certificate written: {path}")
    return True


def _check_cert(name: str, table) -> bool:
    path = CERT_DIR / f"{name}.json"
    if not path.exists():
        print(f"{name:16s} NO CERTIFICATE ({path}); run modelcheck --write-certs")
        return False
    cert = json.loads(path.read_text())
    again = check_table(table, Scope(**cert["scope"]), MAX_STATES).certificate()
    drift = [key for key in sorted(again) if again[key] != cert.get(key)]
    if drift or not again["ok"]:
        got = ", ".join(k if k == "violations" else f"{k} {cert.get(k)} -> {again[k]}" for k in drift)
        print(f"{name:16s} STALE certificate ({got or 'violated'}); run modelcheck --write-certs")
        return False
    print(f"{name:16s} certificate valid (fingerprint {again['table_fingerprint']}, {again['states']} states)")
    return True


def configure(parser) -> None:
    parser.add_argument("protocols", nargs="*",
                        help="protocol names (default: every table-driven one)")
    parser.add_argument("--nodes", type=int, default=2, help="nodes in the checked scope (default 2)")
    parser.add_argument("--seeded", action="store_true", help="also refute every seeded mutation")
    parser.add_argument("--write-certs", action="store_true",
                        help="record clean results as certificates")
    parser.add_argument("--check", action="store_true",
                        help="verify committed certificates (CI mode)")


def run(args, art) -> int:
    try:
        scope = Scope(args.nodes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    checkable, uncertified = _checkable()
    unknown = [name for name in args.protocols if name not in checkable]
    if unknown:
        raise UsageError(f"no checkable protocol table named {unknown}; choose from {checkable}")
    tables = {name: default_registry.table_of(name) for name in args.protocols or checkable}

    ok = True
    for name, table in tables.items():
        try:
            if args.check:
                ok &= _check_cert(name, table)
                continue
            result = _run_one(name, table, scope)
            ok &= result.ok
            if args.seeded:
                ok &= _run_seeded(name, table, scope)
            if args.write_certs:
                ok &= _write_cert(name, result)
        except ModelCheckError as exc:
            print(f"{name:16s} NOT CHECKED: {exc}")
            ok = False
    if not args.protocols:
        for name, reason in uncertified.items():
            print(f"uncertified: {name} — {reason}")
    print("model check:", "ok" if ok else "FAILED")
    return OK if ok else FAILED
