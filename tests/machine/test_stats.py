"""Unit tests for the stats counters."""

import ast
import io
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.apps import em3d
from repro.dsm.hooks import ProtocolHooks
from repro.facade import run_spmd
from repro.machine import Machine, MachineConfig, PhaseScopeError, Stats
from repro.obs import Histogram, MetricsWindow
from repro.sim import Future, Simulator


def _per_event_mappings() -> dict:
    """Every mapping the simulator writes once per event, by name."""
    row = MetricsWindow()._new_row()
    return {
        "Stats.counter_ref()": Stats().counter_ref(),
        "Histogram.buckets": Histogram().buckets,
        **{f"MetricsWindow row[{k!r}]": row[k] for k in ("mix", "states", "rids")},
    }


def test_per_event_mappings_store_at_dict_speed():
    # A Python-level __setitem__/__delitem__/__getitem__ anywhere in the
    # MRO (collections.Counter defines __delitem__) replaces the C store
    # slot and doubles the cost of every `m[key] += 1`.
    for name, m in _per_event_mappings().items():
        assert not isinstance(m, Counter), name
        cls = type(m)
        for dunder in ("__setitem__", "__delitem__", "__getitem__"):
            assert getattr(cls, dunder) is getattr(dict, dunder), (name, dunder)


#: the packages a simulated event runs through
_SIM_LAYERS = ("sim", "machine", "dsm", "core", "protocols", "serve", "facade", "crl", "memory")


def _layer_files(root: Path) -> list:
    return [p for layer in _SIM_LAYERS for p in sorted((root / layer).rglob("*.py"))]


def test_simulator_layers_do_not_import_counter():
    root = Path(repro.__file__).parent
    files = _layer_files(root)
    files.append(root / "obs" / "trace.py")
    offenders = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "collections":
                if any(alias.name == "Counter" for alias in node.names):
                    offenders.append(str(path.relative_to(root)))
            elif isinstance(node, ast.Attribute) and node.attr == "Counter":
                if isinstance(node.value, ast.Name) and node.value.id == "collections":
                    offenders.append(str(path.relative_to(root)))
    assert len(files) > 40
    assert offenders == []


def _dispatched_copies(tree) -> list:
    """Line numbers of ``np.copyto(...)`` and ``np.array(..., copy=True)``
    calls: NumPy function dispatch where a buffer store or ``.copy()``
    does the same work."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "copyto" or node.func.attr == "array" and any(
                kw.arg == "copy" and getattr(kw.value, "value", None) is True for kw in node.keywords
            ):
                lines.append(node.lineno)
    return lines


def test_payloads_move_by_buffer_store():
    """Every region payload on the message path lands with ``dst[...] =
    src`` and is snapshotted with ``x.copy()`` (DESIGN.md §6 "Copying at
    buffer speed"), in the simulator layers and the engine's spliced
    access effects alike."""
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}"
        for path in _layer_files(root)
        for line in _dispatched_copies(ast.parse(path.read_text(), str(path)))
    ]
    for name, text in ProtocolHooks.EFFECTS.items():
        body = "def effect():\n" + "".join("  " + line + "\n" for line in text.splitlines())
        offenders += [f"ProtocolHooks.EFFECTS[{name!r}]:{line - 1}" for line in _dispatched_copies(ast.parse(body))]
    assert _dispatched_copies(ast.parse("np.copyto(a, b)\nnp.array(a, copy=True)\nnp.array(a)")) == [1, 2]
    assert offenders == []


def test_missing_key_reads_zero_without_inserting():
    s = Stats()
    counts = s.counter_ref()
    assert counts["never.counted"] == 0
    assert s.get("also.never") == 0
    assert "never.counted" not in counts and "also.never" not in counts
    assert s.snapshot() == {}
    counts["hot"] += 1
    assert dict(counts) == {"hot": 1}


def test_two_phase_scopes_accumulate_like_counter_update():
    s = Stats()
    expected = Counter()
    s.count("before", 3)
    for bumps in ({"b": 2, "a": 1}, {"c": 5, "a": 4}):
        s.push_phase("iterate")
        for key, n in bumps.items():
            s.count(key, n)
        expected.update(s.pop_phase())
    assert list(s.phases["iterate"].items()) == list(expected.items())
    assert s.phases["iterate"] == {"b": 2, "a": 5, "c": 5}
    assert s.phases["iterate"]["untouched"] == 0


def test_histogram_copy_is_independent():
    # (merge's additive semantics: tests/obs/test_trace.py::
    # test_histogram_merge_preserves_percentiles, whose streams share a bucket)
    h = Histogram()
    h.add(5)
    c = h.copy()
    c.add(5)
    c.add(70)
    assert type(c.buckets) is type(h.buckets)
    assert dict(h.buckets) == {3: 1} and h.count == 1
    assert dict(c.buckets) == {3: 2, 7: 1} and c.count == 3


def _callables_pickled(obj) -> list:
    """Every non-class callable that pickling ``obj`` has to serialize."""
    found = []

    class Spy(pickle.Pickler):
        def persistent_id(self, o):
            if callable(o) and not isinstance(o, type):
                found.append(o)
            return None

    Spy(io.BytesIO()).dump(obj)
    return found


def test_stats_and_counts_pickle_and_json():
    s = Stats()
    s.count("msg.total", 7)
    with s.phase("p"):
        s.count("ace.map")
    # A finished run's Stats: its routes hold every handler it delivered to.
    wl = em3d.EM3DWorkload(n_e=8, n_h=8, degree=2, n_iters=1, seed=3)
    ran = run_spmd(em3d.em3d_program(wl, em3d.SC_PLAN), n_procs=2).stats
    for stats in (s, ran):
        back = pickle.loads(pickle.dumps(stats))
        assert back.snapshot() == stats.snapshot() and back.phases == stats.phases
        assert _callables_pickled(stats) == []
        counts = back.counter_ref()
        assert type(counts) is type(stats.counter_ref())
        assert counts["missing"] == 0 and "missing" not in counts
        total = stats.get("msg.total")
        counts["msg.total"] += 1
        assert back.get("msg.total") == total + 1 and stats.get("msg.total") == total
        plain = pickle.loads(pickle.dumps(stats.counter_ref()))
        assert type(plain) is type(stats.counter_ref()) and plain["missing"] == 0
        assert json.dumps(stats.counter_ref()) == json.dumps(stats.snapshot())
    assert ran.get("msg.total") > 0 and set(ran.phases) == {"setup", "iterate", "collect"}
    assert json.loads(json.dumps(s.phases)) == {"p": {"ace.map": 1}}


def test_count_and_get():
    s = Stats()
    assert s.get("x") == 0
    s.count("x")
    s.count("x", 4)
    assert s.get("x") == 5


def test_prefix_filtering():
    s = Stats()
    s.count("crl.read_miss", 2)
    s.count("crl.write_miss")
    s.count("ace.read_miss")
    assert s.with_prefix("crl") == {"crl.read_miss": 2, "crl.write_miss": 1}
    assert s.with_prefix("crl.") == {"crl.read_miss": 2, "crl.write_miss": 1}
    assert s.with_prefix("tempest") == {}


def test_prefix_includes_bare_key():
    # with_prefix("crl") selects the bare key "crl" itself, and the
    # trailing-dot spelling is equivalent.
    s = Stats()
    s.count("crl", 7)
    s.count("crl.read_miss", 2)
    expected = {"crl": 7, "crl.read_miss": 2}
    assert s.with_prefix("crl") == expected
    assert s.with_prefix("crl.") == expected


def test_prefix_respects_token_boundaries():
    # "crl" must not match "crlx.y": the prefix is a whole dot token.
    s = Stats()
    s.count("crl.read_miss")
    s.count("crlx.read_miss")
    s.count("crl_extra")
    assert s.with_prefix("crl") == {"crl.read_miss": 1}


def test_counter_ref_is_live_and_survives_reset():
    s = Stats()
    ref = s.counter_ref()
    ref["hot.key"] += 3
    assert s.get("hot.key") == 3  # in-place bumps visible via get
    s.count("hot.key")
    assert ref["hot.key"] == 4  # and vice versa
    s.reset()
    assert s.get("hot.key") == 0
    ref["hot.key"] += 2  # the pre-reset reference is still the live mapping
    assert s.get("hot.key") == 2
    assert s.counter_ref() is ref


def test_node_scoping():
    s = Stats()
    n3 = s.node(3)
    n3.count("msg.sent")
    n3.count("msg.sent", 2)
    s.node(0).count("msg.sent")
    assert s.get("node3.msg.sent") == 3
    assert s.get("node0.msg.sent") == 1
    assert s.node(3) is n3  # adapters are cached
    assert n3.key("msg.sent") == "node3.msg.sent"
    # write-through composes with counter_ref
    s.counter_ref()[n3.key("msg.sent")] += 1
    assert s.get("node3.msg.sent") == 4


def test_phase_scoping_accumulates_deltas():
    s = Stats()
    s.count("before", 5)
    s.push_phase("iterate")
    s.count("msg.total", 10)
    delta = s.pop_phase()
    assert delta == {"msg.total": 10}  # pre-phase counts excluded
    s.push_phase("iterate")
    s.count("msg.total", 4)
    s.pop_phase()
    assert s.phases["iterate"] == {"msg.total": 14}  # re-entry accumulates
    assert s.get("msg.total") == 14  # global counters unaffected by scoping


def test_phase_nesting_and_context_manager():
    s = Stats()
    with s.phase("outer"):
        s.count("a")
        assert s.current_phase == "outer"
        with s.phase("inner"):
            s.count("b")
        assert s.phases["inner"] == {"b": 1}
    assert s.phases["outer"] == {"a": 1, "b": 1}  # inner counts roll up
    assert s.current_phase is None


def test_pop_phase_without_push_raises():
    with pytest.raises(ValueError):
        Stats().pop_phase()


def test_pop_phase_without_push_is_structured():
    with pytest.raises(PhaseScopeError) as exc:
        Stats().pop_phase()
    assert exc.value.stack == []
    assert "phase stack: <empty>" in str(exc.value)


def test_require_balanced_names_leftover_phases():
    s = Stats()
    s.push_phase("setup")
    s.push_phase("iterate")
    with pytest.raises(PhaseScopeError) as exc:
        s.require_balanced()
    assert exc.value.stack == ["setup", "iterate"]
    assert "setup > iterate" in str(exc.value)
    # Balance it out and the check passes.
    s.pop_phase()
    s.pop_phase()
    s.require_balanced()


def test_run_spmd_rejects_leftover_phase():
    from repro.facade import run_spmd

    def prog(ctx):
        ctx.push_phase("never-closed")
        yield from ctx.barrier()

    with pytest.raises(PhaseScopeError) as exc:
        run_spmd(prog, n_procs=2)
    assert exc.value.stack == ["never-closed"]


def test_snapshot_is_a_copy():
    s = Stats()
    s.count("a")
    snap = s.snapshot()
    s.count("a")
    assert snap == {"a": 1}
    assert s.get("a") == 2


def test_reset():
    s = Stats()
    s.count("a", 10)
    s.push_phase("p")
    s.count("b")
    s.pop_phase()
    s.push_phase("open")
    s.reset()
    assert s.get("a") == 0
    assert s.snapshot() == {}
    assert s.phases == {}
    assert s.current_phase is None


# -- messages are counted on routes and folded in on read ---------------------
def on_a(node, src):
    pass


def on_rpc(node, src, fut):
    node.machine.reply(fut, node.nid, payload_words=2, category="t.ack")


#: (handler, category, payload words) per message; handler None is a reply
CASES = {
    "one_handler_two_categories": [(on_a, "t.x", 2), (on_a, "t.y", 1), (on_a, "t.x", 3), (None, "t.r", 1)],
    "zero_words": [(on_a, "t.x", 0), (None, "t.r", 0)],
    "in_flight": [(on_a, "t.x", 4), (on_a, "t.y", 0), (None, "t.r", 1)],
}


def _eager(sends) -> dict:
    """The counters an eager count of ``sends`` stores, one message at a time."""
    out: dict = {}
    for handler, category, words in sends:
        keys = [f"msg.{category}", "msg.total"]
        if handler is not None:
            keys.append(f"handler.{handler.__name__}")
        for key in keys:
            out[key] = out.get(key, 0) + 1
        out["msg.words"] = out.get("msg.words", 0) + words
    return out


def _send(m, sends) -> None:
    for handler, category, words in sends:
        if handler is None:
            m.reply(Future("f"), 1, payload_words=words, category=category)
        else:
            m.post(0, 1, handler, payload_words=words, category=category)


def _machine():
    sim = Simulator()
    m = Machine(sim, MachineConfig(n_procs=2))
    m.stats.node(1).count("hits")
    return sim, m


def _run(sim, case) -> None:
    """Run to the end, or (``in_flight``) pause before anything arrives."""
    sim.run(until=1 if case == "in_flight" else None)
    assert (sim.now == 1) == (case == "in_flight")


def _messages(counts) -> dict:
    return {k: v for k, v in counts.items() if k.startswith(("msg.", "handler."))}


def test_messages_are_not_counted_until_a_read():
    sim = Simulator()
    m = Machine(sim, MachineConfig(n_procs=3))

    def proc():
        m.post(0, 1, on_a, payload_words=2, category="t.post")
        yield from m.request(0, 2, on_a, category="t.req")
        return (yield from m.rpc(0, 1, on_rpc, category="t.rpc"))

    task = sim.spawn(proc())
    sim.run()
    assert task.done.result() == 1
    assert _messages(m.stats.counter_ref()) == {}
    assert m.stats.get("msg.total") == 4
    assert _messages(m.stats.counter_ref()) == {
        "msg.t.post": 1, "msg.t.req": 1, "msg.t.rpc": 1, "msg.t.ack": 1,
        "handler.on_a": 2, "handler.on_rpc": 1, "msg.total": 4, "msg.words": 4,
    }


def _read(stats, read, want) -> bool:
    """Whether the read path ``read`` returns what the counts ``want`` give."""
    if read == "get":
        return {k: stats.get(k) for k in want} == want
    if read == "snapshot":
        return stats.snapshot() == want
    if read == "with_prefix":
        return stats.with_prefix("msg") == {k: v for k, v in want.items() if k.startswith("msg.")}
    if read == "by_node":
        return stats.by_node() == {1: {"hits": 1}}
    return repr(stats) == "Stats(" + ", ".join(f"{k}={v}" for k, v in sorted(want.items())) + ")"


@pytest.mark.parametrize("read", ["get", "snapshot", "with_prefix", "by_node", "repr"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_read_returns_the_eager_counts(case, read):
    sim, m = _machine()
    _send(m, CASES[case])
    _run(sim, case)
    want = {"node1.hits": 1, **_eager(CASES[case])}
    assert "msg.words" in want  # present even when every message is zero words
    assert _read(m.stats, read, want)
    assert dict(m.stats.counter_ref()) == want


@pytest.mark.parametrize("case", sorted(CASES))
def test_nested_phases_and_reset_see_the_eager_counts(case):
    sends = CASES[case]
    sim, m = _machine()
    stats = m.stats
    with stats.phase("outer"):
        _send(m, sends[:1])
        with stats.phase("inner"):
            _send(m, sends[1:])
            _run(sim, case)
    outer, inner = _eager(sends), _eager(sends[1:])
    # A phase's delta leaves out zeros (``msg.words`` of zero-word messages).
    assert stats.phases == {
        "outer": {k: v for k, v in outer.items() if v},
        "inner": {k: v for k, v in inner.items() if v},
    }
    _send(m, sends)
    stats.reset()  # drops the counts no read has folded in yet, too
    _send(m, sends[1:])
    assert stats.snapshot() == inner
