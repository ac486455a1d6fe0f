"""Table hooks are generated code: held to a reference walk of the rows,
compiled once per text, and free of the generator-stub idiom."""

import ast
import builtins
import copy
import dataclasses
import functools
import itertools
import linecache
import re
import traceback
from inspect import isgeneratorfunction
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compiler import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source, run_compiled
from repro.core.runtime import AceRuntime
from repro.core.space import Space
from repro.crl.runtime import CRLRuntime
from repro.dsm import hooks as dsm_hooks
from repro.dsm.directory import DirEntry, HomeMachine
from repro.dsm.errors import ProtocolError
from repro.machine import Machine, MachineConfig
from repro.machine.stats import Counts
from repro.memory import Region, RegionCopy
from repro.protocols import base, default_registry
from repro.protocols.base import Protocol
from repro.sim import Delay, Future, Simulator
from repro.spec.emit import effect_calls, table_hooks
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
    answers from ``verdicts``.  ``blocking``: whether every action is a
    generator, or the names of those that are."""

    def __init__(self, blocking, verdicts: dict):
        self.log = []
        self.blocking = blocking
        self.verdicts = verdicts

    def __getattr__(self, name):
        if name.startswith("g_"):
            return lambda *args: self.verdicts[name[2:]]
        if not name.startswith("act_"):
            raise AttributeError(name)
        if self.blocking if isinstance(self.blocking, bool) else name[4:] in self.blocking:
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


def _walks(tbl, event, code, blocking, guards, states, leads):
    """Each case's (generated, reference) runs: charges, actions, end state."""
    for state, lead, outcome in itertools.product(
        states, leads, itertools.product((False, True), repeat=len(guards))
    ):
        verdicts = dict(zip(guards, outcome))
        runs = []
        for walk in ("generated", "reference"):
            spy, copy = Spy(blocking, verdicts), Copy(state)
            if walk == "generated":
                hook = table_hooks(tbl, spy, code)[event]
                gen = hook(3) if event == "barrier" else hook(3, copy, lead)
            else:
                gen = reference(tbl, event, spy, 3, copy, lead)
            runs.append((list(gen), spy.log, copy.state))
        yield (tbl.name, event, state, lead, verdicts, blocking), hook, runs


def test_generated_hooks_walk_the_rows_as_the_reference_does():
    tables, checked = set(), 0
    for tbl, event, guards in _cases():
        tables.add(tbl.name)
        states = (None,) if event == "barrier" else tbl.node_states
        leads = (0,) if event == "barrier" else (0, 7)
        for blocking in (False, True):
            for case, _, runs in _walks(tbl, event, base._CODE, blocking, guards, states, leads):
                assert runs[0] == runs[1], case
                checked += 1
    assert len(tables) == 13
    assert checked > 500


def _engines():
    """The three coherence engines: Ace's SC, a HwSC space's, CRL's."""
    runtime = AceRuntime(Machine(Simulator(), MachineConfig(n_procs=2)))
    yield runtime.sc_engine
    yield runtime._create_protocol("HwSC", Space(sid=0)).engine
    yield CRLRuntime(Machine(Simulator(), MachineConfig(n_procs=2))).engine


def test_engine_hooks_walk_the_rows_as_the_reference_does():
    """SC, HwSC and CRL run their table's access rows, generated with each
    engine's entry charges and its effects spliced in: the engine's hook
    is the very code the rows and effects compile to, its call form walks
    the rows as the reference does, and the spliced hook does exactly what
    that call form does over the compiled effects."""
    costs_seen, checked, spliced = set(), 0, 0
    for engine in _engines():
        hit, end = engine.costs.start_hit, engine.costs.end_op
        costs_seen.add((hit, end))
        tbl = engine.table.with_(
            entry_costs={"start_read": hit, "start_write": hit, "end_read": end, "end_write": end}
        )
        hooks = engine.hooks
        calls = effect_calls(hooks.effects, hooks, dsm_hooks._CODE)
        blocking = {
            name[4:] for name, fn in calls.items() if name.startswith("act_") and isgeneratorfunction(fn)
        }
        assert blocking == {"fetch_read", "fetch_write", "fetch_read_home", "fetch_write_home"}
        compiled = table_hooks(tbl, hooks, dsm_hooks._CODE, hooks.effects)
        calling = copy.copy(hooks)
        for name, fn in calls.items():
            setattr(calling, name, fn)
        call_form = table_hooks(tbl, calling, dsm_hooks._CODE)
        for event in ("start_read", "end_read", "start_write", "end_write"):
            shipped = getattr(engine, event)
            assert shipped.__code__.co_filename == "<generated>/repro/dsm/hooks.py"
            assert "lead" in shipped.__code__.co_varnames
            assert compiled[event].__code__ is shipped.__code__, event
            guards = sorted({t.guard for t in tbl.rows("node", event) if t.guard})
            for case, hook, runs in _walks(
                tbl, event, dsm_hooks._CODE, blocking, guards, tbl.node_states, (0, 7)
            ):
                assert hook.__code__ is call_form[event].__code__, case
                assert runs[0] == runs[1], case
                checked += 1
        spliced += _spliced_does_what_the_calls_do(hooks, tbl)
    assert len(costs_seen) == 3
    assert checked > 100
    assert spliced == 3 * 2 * 4 * 4 * 4 * 2 * 2 * 2 * 2


class _Stand:
    """One engine's access hooks over logging stand-ins for its port, the
    home's in-place handlers, its recalls and the alias's directory entry:
    spliced (``splice``), or in call form over the compiled effects."""

    def __init__(self, hooks, tbl, splice: bool, miss_lead: int):
        self.log = []
        self.ent = None
        t = copy.copy(hooks)
        t._counts = self.counts = Counts()
        t._miss_lead = miss_lead
        t._obs = self
        t._rpc = self.rpc
        t._post = functools.partial(self.note, "post")
        t._local_req = {kind: functools.partial(self.note, kind + " in place") for kind in ("read", "write")}
        t._fire_deferred = functools.partial(self.note, "fire deferred")
        t._alias_drain = functools.partial(self.note, "drain")
        t._alias_entry = self.alias_entry
        if splice:
            self.hooks = table_hooks(tbl, t, dsm_hooks._CODE, t.effects)
        else:
            for name, fn in effect_calls(t.effects, t, dsm_hooks._CODE).items():
                setattr(t, name, fn)
            self.hooks = table_hooks(tbl, t, dsm_hooks._CODE)

    def note(self, what, *args, **kwargs):
        self.log.append((what, _shown(args), kwargs))

    def emit(self, *args):
        self.note("emit", *args)

    def rpc(self, *args, **kwargs):
        self.note("rpc", *args, **kwargs)
        yield "wire"
        return np.arange(4.0)

    def alias_entry(self, handle):
        self.note("alias entry", handle)
        handle.ent = self.ent
        return self.ent

    def run(self, event, state, owner, sharers, busy, pending, cached, uses, lead):
        """Everything the hook does to a fresh copy and entry: what it
        yields (or the refusal), calls, counts, copy and entry slots."""
        del self.log[:]
        self.counts.clear()
        region = Region(rid=5, home=1, size=4)
        handle = RegionCopy(region, 1)
        ent = self.ent = DirEntry(region)
        ent.owner, ent.sharers, ent.busy = owner, set(sharers), busy
        ent.home_readers, ent.home_writing = uses, bool(uses)
        handle.state, handle.reads, handle.writes = state, uses, uses
        if pending:
            handle.deferred = (("invalidate", None, None),)
            ent.queue.append(("read", 2, None))
        if cached:
            handle.ent = ent
        out = []
        try:
            for got in self.hooks[event](1, handle, lead):
                out.append(_shown(got))
        except ProtocolError as exc:
            out.append(("refused", str(exc)))
        copied = (handle.state, handle.reads, handle.writes, handle.deferred, handle.ent is ent, list(handle.data))
        entry = (ent.owner, sorted(ent.sharers), ent.busy, ent.home_readers, ent.home_writing, len(ent.queue))
        return out, self.log[:], dict(self.counts), copied, entry


def _shown(x):
    """``x`` with what differs by identity only (charges, futures, the
    copy and entry) as values."""
    if isinstance(x, Delay):
        return ("delay", x.cycles)
    if isinstance(x, Future):
        return ("future", x.name)
    if isinstance(x, (RegionCopy, DirEntry)):
        return type(x).__name__
    if isinstance(x, tuple):
        return tuple(map(_shown, x))
    return x


#: alias entries answering (home_idle, home_sole): yes/yes, yes/no, no/no
#: (a window open), no/no (a remote owner) — as ``(owner, sharers, busy)``
_ENTRIES = ((None, (), False), (None, (3,), False), (None, (), True), (3, (), False))


def _spliced_does_what_the_calls_do(hooks, tbl) -> int:
    """Every state x alias entry x pending recall x cached entry x open use
    x lead, with the engine's miss lead and the recovery-armed one (0)."""
    seen, checked = set(), 0
    for miss_lead in (hooks._miss_lead, 0):
        stands = [_Stand(hooks, tbl, splice, miss_lead) for splice in (True, False)]
        for event in ("start_read", "end_read", "start_write", "end_write"):
            for case in itertools.product(
                tbl.node_states, _ENTRIES, (False, True), (False, True), (0, 1), (0, 7)
            ):
                state, (owner, sharers, busy), pending, cached, uses, lead = case
                got, want = (s.run(event, state, owner, sharers, busy, pending, cached, uses, lead) for s in stands)
                assert got == want, (tbl.name, miss_lead, event, case)
                seen.update(what for what, *_ in got[1])
                seen.update(y[0] for y in got[0] if isinstance(y, tuple))
                checked += 1
    assert {"rpc", "post", "read in place", "write in place", "drain", "fire deferred", "alias entry", "emit"} <= seen
    assert {"refused", "delay", "future"} <= seen
    return checked


def test_engine_text_calls_no_effect_and_yields_from_the_port_only():
    """The shipped SC/HwSC/CRL hooks hold their effects' bodies: no call
    to a declared effect, and the one ``yield from`` is the port's call."""
    for engine in _engines():
        for event in ("start_read", "end_read", "start_write", "end_write"):
            text = _generated(getattr(engine, event))
            called = set(re.findall(r"\b((?:act|g)_\w+)\(", text))
            assert not called & set(engine.hooks.effects), (engine.table.name, event, called)
            delegated = re.findall(r"yield from (\w+)\(", text)
            assert set(delegated) <= {"_rpc"}, (engine.table.name, event, delegated)
            assert ("yield from _rpc(" in text) == event.startswith("start_"), event


def test_the_engine_writes_no_access_hook_by_hand():
    tree = ast.parse(Path(dsm_hooks.__file__).read_text())
    written = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and re.match(r"(start|end)_", node.name)
    ]
    assert written == []


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


def test_a_second_runtime_writes_no_hook_text(monkeypatch):
    """Hook texts are written once per process: a second ``AceRuntime``
    (its engine) and a second instance of every protocol call
    ``hook_source`` 0 times; an empty text cache calls it again."""
    from repro.spec import emit

    def build():
        runtime = AceRuntime(Machine(Simulator(), MachineConfig(n_procs=2)))
        return [runtime._create_protocol(n, Space(sid=0)) for n in default_registry.names()]

    written = []
    real = emit.hook_source
    monkeypatch.setattr(emit, "hook_source", lambda tbl, event, *a: written.append((tbl.name, event)) or real(tbl, event, *a))
    build()
    written.clear()
    build()
    assert written == []
    monkeypatch.setattr(emit, "_TEXTS", {})
    build()
    assert ("SC", "start_read") in written and ("Migratory", "start_read") in written


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
        list(table_hooks(tbl, Boom(False, {}), base._CODE)["start_read"](0, Copy("invalid")))
    shown = "".join(traceback.format_exception(exc.type, exc.value, exc.tb))
    assert "yield from act_migrate(nid, handle)" in shown
    assert "else:  # * start_read" in _generated(hook)


@pytest.mark.parametrize("name", ["Write-Once", "2PC"])
def test_a_table_named_by_no_identifier_still_compiles(name):
    tbl = dataclasses.replace(default_registry.table_of("Migratory"), name=name)
    spy = Spy(False, {})
    hook = table_hooks(tbl, spy, base._CODE)["start_read"]
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
