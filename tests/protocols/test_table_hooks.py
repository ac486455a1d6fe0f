"""Table hooks are generated code: held to a reference walk of the rows,
compiled once per text, and free of the generator-stub idiom."""

import builtins
import dataclasses
import itertools
import linecache
import re
import traceback
from pathlib import Path

import pytest

import repro
from repro.compiler import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source, run_compiled
from repro.core.runtime import AceRuntime
from repro.core.space import Space
from repro.dsm.directory import HomeMachine
from repro.machine import Machine, MachineConfig
from repro.protocols import default_registry
from repro.protocols.base import Protocol, table_hooks
from repro.sim import Delay, Simulator
from repro.spec.table import HOOK_EVENTS, KEEP, WILDCARD


# ------------------------------------------------------- the reference walk
def reference(tbl, event, target, nid, handle, lead):
    """The four steps of the ``TableProtocol`` docstring, row by row."""
    rows = tbl.rows("node", event)
    ordered = [t for t in rows if t.state != WILDCARD] + [t for t in rows if t.state == WILDCARD]
    args = (nid,) if event == "barrier" else (nid, handle)
    lone = len(ordered) == 1 and ordered[0].state == WILDCARD and not ordered[0].guard
    entry = lead + tbl.entry_costs.get(event, 0) + (ordered[0].cost if lone else 0)
    if entry:
        yield Delay(entry)
    state = None if event == "barrier" else handle.state
    for t in ordered:
        if t.state != WILDCARD and t.state != state:
            continue
        if t.guard and not getattr(target, "g_" + t.guard)(*args):
            continue
        if t.cost and not lone:
            yield Delay(t.cost)
        for a in t.actions:
            ran = getattr(target, "act_" + a)(*args)
            if ran is not None:  # a generator action
                yield from ran
        if t.next != KEEP:
            handle.state = t.next
        return


class Spy:
    """Every ``act_*`` logs its name (a generator one also yields a
    marker, so its place among the charges shows); every ``g_*``
    answers from ``verdicts``."""

    def __init__(self, blocking: bool, verdicts: dict):
        self.log = []
        self.blocking = blocking
        self.verdicts = verdicts

    def __getattr__(self, name):
        if name.startswith("g_"):
            return lambda *args: self.verdicts[name[2:]]
        if not name.startswith("act_"):
            raise AttributeError(name)
        if self.blocking:
            def act(*args):
                self.log.append(name)
                yield ("ran", name)
        else:
            def act(*args):
                self.log.append(name)
        return act


class Copy:
    def __init__(self, state):
        self.state = state


def _cases():
    for name in default_registry.names():
        tbl = default_registry.table_of(name)
        for event in HOOK_EVENTS:
            rows = tbl.rows("node", event)
            if rows:
                yield tbl, event, sorted({t.guard for t in rows if t.guard})


def test_generated_hooks_walk_the_rows_as_the_reference_does():
    tables, checked = set(), 0
    for tbl, event, guards in _cases():
        tables.add(tbl.name)
        states = (None,) if event == "barrier" else tbl.node_states
        leads = (0,) if event == "barrier" else (0, 7)
        for blocking, state, lead, outcome in itertools.product(
            (False, True), states, leads, itertools.product((False, True), repeat=len(guards))
        ):
            verdicts = dict(zip(guards, outcome))
            runs = []
            for walk in ("generated", "reference"):
                spy, copy = Spy(blocking, verdicts), Copy(state)
                if walk == "generated":
                    hook = table_hooks(tbl, spy)[event]
                    gen = hook(3) if event == "barrier" else hook(3, copy, lead)
                else:
                    gen = reference(tbl, event, spy, 3, copy, lead)
                runs.append((list(gen), spy.log, copy.state))
            assert runs[0] == runs[1], (tbl.name, event, state, lead, verdicts, blocking)
            checked += 1
    assert len(tables) == 13
    assert checked > 500


def test_a_plain_action_is_called_and_a_generator_is_delegated_to():
    text = _generated(_built("Migratory").start_read)
    assert "\n      act_hit(nid, handle)\n" in text  # never blocks: a plain method
    assert "\n      yield from act_migrate(nid, handle)\n" in text


def _generated(fn) -> str:
    """``fn``'s lines as ``linecache`` serves them: its ``def`` through its factory's return."""
    code = fn.__code__
    lines = linecache.getlines(code.co_filename)[code.co_firstlineno - 1:]
    return "".join(itertools.takewhile(lambda line: not line.startswith("  return"), lines))


# ------------------------------------------------------------- null hooks
def _built(name):
    runtime = AceRuntime(Machine(Simulator(), MachineConfig(n_procs=2)))
    return runtime._create_protocol(name, Space(sid=0))


@pytest.mark.parametrize("name", default_registry.names())
def test_every_declared_null_hook_is_the_base_null_hook(name):
    proto = _built(name)
    for hook in default_registry.spec(name).null_hooks:
        assert getattr(proto, hook).__func__ is Protocol._null_hook, (name, hook)


_MIGRATORY_READERS = """
void main() {
    int s = ace_new_space("SC");
    shared double *x;
    if (my_proc() == 0) {
        x = ace_gmalloc(s, 1);
        x[0] = 2;
        bb_put("x", 0, x);
    }
    ace_barrier(s);
    ace_change_protocol(s, "Migratory");
    x = bb_get("x", 0);
    double acc = 0;
    for (int r = 0; r < 3; r++) {
        acc = acc + x[0];
        ace_barrier(s);
    }
    print(acc);
}
"""


def test_migratory_readers_finish_at_every_level():
    """Migratory's reads take the copy, so ``end_read`` gives it back and is
    not null: with the call deleted (DC) a second reader's recall used to
    be deferred forever."""
    prints = {
        opt.name: run_compiled(compile_source(_MIGRATORY_READERS, opt=opt), n_procs=2).prints
        for opt in (OPT_BASE, OPT_LI, OPT_LI_MC, OPT_DIRECT)
    }
    assert set(map(repr, prints.values())) == {repr([(0, 6.0), (1, 6.0)])}


# ------------------------------------------------------ compiled once per text
def test_a_second_runtime_compiles_nothing(monkeypatch):
    def build():
        runtime = AceRuntime(Machine(Simulator(), MachineConfig(n_procs=2)))
        return [runtime._create_protocol(n, Space(sid=0)) for n in default_registry.names()]

    build()
    compiled = []
    real = builtins.compile
    monkeypatch.setattr(builtins, "compile", lambda *a, **k: compiled.append(a[1]) or real(*a, **k))
    protos = build()
    assert compiled == []
    assert len(protos) == 13


def test_generated_code_is_filed_under_its_layer_and_shows_its_row():
    hook = _built("Migratory").start_read
    assert "/repro/protocols/" in hook.__code__.co_filename
    first = HomeMachine(default_registry.table_of("SC"), wire=None)._first_ack
    assert first.__code__.co_filename.endswith("/repro/dsm/directory.py")

    class Boom(Spy):
        def act_migrate(self, nid, handle):
            raise RuntimeError("boom")
            yield

    tbl = default_registry.table_of("Migratory")
    with pytest.raises(RuntimeError) as exc:
        list(table_hooks(tbl, Boom(False, {}))["start_read"](0, Copy("invalid")))
    shown = "".join(traceback.format_exception(exc.type, exc.value, exc.tb))
    assert "yield from act_migrate(nid, handle)" in shown
    assert "else:  # * start_read" in _generated(hook)


@pytest.mark.parametrize("name", ["Write-Once", "2PC"])
def test_a_table_named_by_no_identifier_still_compiles(name):
    tbl = dataclasses.replace(default_registry.table_of("Migratory"), name=name)
    spy = Spy(False, {})
    hook = table_hooks(tbl, spy)["start_read"]
    assert hook.__name__.isidentifier()
    list(hook(0, Copy("invalid")))
    assert spy.log == ["act_migrate"]


# ----------------------------------------------------------- no stub idiom
def test_no_action_is_a_generator_stub():
    """A never-blocking action is a plain method: no ``return`` / ``yield``
    pair that exists only to make it a generator."""
    stub = re.compile(r"^\s+def (act_\w+)\((?:(?!\n    def ).)*?\n\s+yield  # pragma", re.S | re.M)
    root = Path(repro.__file__).parent / "protocols"
    offenders = [
        f"{path.name}:{m.group(1)}" for path in sorted(root.glob("*.py"))
        for m in stub.finditer(path.read_text())
    ]
    assert offenders == []
