"""Unit tests for the simulated multicomputer and active messages."""

import gc
import re
import sys
from functools import partial
from pathlib import Path

import pytest

import repro.machine.machine as machine_module
import repro.sim.kernel as kernel_module
from repro.dsm import FaultPlan, FaultTransport, as_transport
from repro.dsm.transport import Acks
from repro.machine import Machine, MachineConfig
from repro.obs import TraceBuffer
from repro.sim import Delay, Future, SimulationError, Simulator


def make_machine(n=4, **cfg):
    sim = Simulator()
    return sim, Machine(sim, MachineConfig(n_procs=n, **cfg))


def test_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(n_procs=0)
    with pytest.raises(ValueError):
        MachineConfig(network_latency=-1)


def test_config_with_override():
    cfg = MachineConfig().with_(n_procs=8)
    assert cfg.n_procs == 8
    assert cfg.network_latency == MachineConfig().network_latency


def test_message_cost_scales_with_payload():
    cfg = MachineConfig(network_latency=100, per_word_transfer=4)
    assert cfg.message_cost(0) == 100
    assert cfg.message_cost(10) == 140


def test_am_request_delivers_with_latency():
    sim, m = make_machine()
    arrivals = []

    def handler(node, src, value):
        arrivals.append((sim.now, node.nid, src, value))

    def sender():
        yield from m.am_request(0, 2, handler, 42)

    sim.spawn(sender())
    sim.run()
    cfg = m.config
    expected = cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
    assert arrivals == [(expected, 2, 0, 42)]


def test_payload_words_increase_delivery_time():
    sim, m = make_machine()
    arrivals = []

    def handler(node, src):
        arrivals.append(sim.now)

    def sender():
        yield from m.am_request(0, 1, handler, payload_words=100)

    sim.spawn(sender())
    sim.run()
    cfg = m.config
    assert arrivals[0] == (
        cfg.am_send_overhead
        + cfg.network_latency
        + 100 * cfg.per_word_transfer
        + cfg.am_receive_overhead
    )


def test_rpc_round_trip():
    sim, m = make_machine()

    def handler(node, src, fut, x):
        m.reply(fut, x * 2)

    def caller():
        v = yield from m.rpc(0, 3, handler, 21)
        return (sim.now, v)

    t = sim.spawn(caller())
    sim.run()
    time, value = t.done.result()
    assert value == 42
    cfg = m.config
    one_way = cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
    assert time == 2 * one_way


def test_post_from_handler_context_chains():
    """home-forwards-to-owner pattern: handler posts to a third node."""
    sim, m = make_machine()

    def owner_handler(node, src, fut):
        m.reply(fut, f"data-from-{node.nid}")

    def home_handler(node, src, fut):
        m.post(node.nid, 3, owner_handler, fut)

    def caller():
        v = yield from m.rpc(0, 1, home_handler)
        return v

    t = sim.spawn(caller())
    sim.run()
    assert t.done.result() == "data-from-3"


# -- one event per hop (DESIGN.md §6): a message is one heap entry,
# whatever sender-side cycles precede its injection
@pytest.mark.parametrize("words", [0, 16])
def test_post_and_defer_post_arrive_at_the_closed_form_time_in_one_event(words):
    """And ``am_request``'s message: the task's send charge is its own
    ``Delay``, which it yields after the message has left."""
    cfg = MachineConfig()
    one_way = (cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
               + cfg.per_word_transfer * words)
    for send in ("post", "defer_post", "am_request"):
        sim, m = make_machine()
        arrivals = []

        def handler(node, src, value):
            arrivals.append((sim.now, node.nid, src, value))

        kw = dict(payload_words=words, category="test.cat")
        defer = 37 if send == "defer_post" else 0
        if send == "defer_post":
            m.defer_post(defer, 0, 2, handler, "v", **kw)
        elif send == "post":
            m.post(0, 2, handler, "v", **kw)
        else:  # the calling task's first step sends, then owes the overhead
            assert next(m.am_request(0, 2, handler, "v", **kw)) == Delay(cfg.am_send_overhead)
        # counted at the call: the message exists from here on
        assert (m.stats.get("msg.test.cat"), m.stats.get("msg.total")) == (1, 1)
        assert m.stats.get("msg.words") == words
        sim.run()
        assert arrivals == [(defer + one_way, 2, 0, "v")]
        assert sim.events == 1, f"{send}: {sim.events} events"


def test_reply_is_one_event():
    sim, m = make_machine()
    fut = Future()
    m.reply(fut, "v", payload_words=16)
    sim.run()
    cfg = m.config
    assert sim.now == (cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
                       + 16 * cfg.per_word_transfer)
    assert fut.result() == "v" and sim.events == 1


def test_post_rejects_a_bad_destination_or_delay_at_the_call_site():
    sim, m = make_machine(n=2)
    with pytest.raises(ValueError, match="destination"):
        m.post(0, 5, lambda node, src: None)
    with pytest.raises(ValueError, match="destination"):
        m.defer_post(10, 0, -1, lambda node, src: None)
    with pytest.raises(SimulationError, match="negative"):
        m.defer_post(-1, 0, 1, lambda node, src: None)
    for send in (m.am_request, m.rpc):  # a task's send: at its first step
        with pytest.raises(ValueError, match="destination"):
            next(send(0, 2, lambda node, src: None))
    assert m.stats.get("msg.total") == 0 and sim.run() == 0 and sim.events == 0


def _rpc_round_trip(traced, lead=0, words=0):
    """``((value, resume cycle), [handler cycle], events after the caller's
    start)`` of one ``rpc`` on a fresh plain or traced fabric."""
    sim = Simulator()
    m = as_transport(Machine(sim, MachineConfig(n_procs=4), tracer=TraceBuffer(64) if traced else None))
    handled = []

    def handler(node, src, fut, x):
        handled.append(sim.now)
        m.reply(fut, x * 2)

    def caller():
        return (yield from m.rpc(0, 3, handler, 21, payload_words=words, lead=lead)), sim.now

    task = sim.spawn(caller())
    sim.run()
    return task.done.result(), handled, sim.events - 1


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_rpc_lead_joins_the_send_overhead(traced):
    """``lead`` cycles are charged before the send: they ride the request
    with the send overhead on the plain fabric, and are an event of their
    own on the traced one — the same round trip either way."""
    cfg = MachineConfig()
    one_way = cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
    (value, at), sent, events = _rpc_round_trip(traced, lead=45)
    assert (value, at, sent) == (42, 45 + 2 * one_way, [45 + one_way])
    assert events == _rpc_round_trip(traced)[2] + (1 if traced else 0)


@pytest.mark.parametrize("words", [0, 16])
@pytest.mark.parametrize("lead", [0, 45])
def test_plain_rpc_is_three_events(lead, words):
    """Request arrives | reply arrives | caller wakes: the caller's lead and
    send overhead ride the request, which leaves at the call."""
    cfg = MachineConfig()
    one_way = cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
    (value, resumed), handled, events = _rpc_round_trip(False, lead, words)
    assert (value, events) == (42, 3)
    assert handled == [lead + one_way + cfg.per_word_transfer * words]
    assert resumed == _rpc_round_trip(True, lead, words)[0][1] == handled[0] + one_way


def test_stats_count_messages():
    sim, m = make_machine()

    def handler(node, src):
        pass

    def sender():
        yield from m.am_request(0, 1, handler, category="test.cat")
        yield from m.am_request(0, 2, handler, category="test.cat", payload_words=7)

    sim.spawn(sender())
    sim.run()
    assert m.stats.get("msg.test.cat") == 2
    assert m.stats.get("msg.total") == 2
    assert m.stats.get("msg.words") == 7


def test_routes_are_found_by_handler_and_count_by_category():
    """One handler sent under two categories, interleaved, and a bound
    method fetched anew for each send: a route is found by its handler,
    a category it was not built for falls back to the (handler, category)
    table, and every count is the hand count until ``Stats.reset``."""
    sim, m = make_machine()
    got = []

    def on_msg(node, src, i):
        got.append(("on_msg", node.nid, i))

    class Svc:
        def on_req(self, node, src, i):
            got.append(("on_req", node.nid, i))

    svc = Svc()
    for i in range(6):
        m.post(0, 1, on_msg, i, payload_words=i, category="t.a" if i % 2 else "t.b")
        m.post(0, 2, svc.on_req, i, payload_words=2, category="t.b" if i % 2 else "t.a")
    sim.run()
    assert sorted(got) == sorted((name, dst, i) for i in range(6) for name, dst in (("on_msg", 1), ("on_req", 2)))
    assert len(m._handler_routes) == 2 and len(m._routes) == 4
    snap = m.stats.snapshot()
    assert {k: v for k, v in snap.items() if k.startswith(("msg.", "handler."))} == {
        "msg.t.a": 6, "msg.t.b": 6, "handler.on_msg": 6, "handler.on_req": 6,
        "msg.total": 12, "msg.words": 15 + 12,
    }
    m.stats.reset()
    assert [m.stats.get(k) for k in ("msg.t.a", "handler.on_req", "msg.total", "msg.words")] == [0] * 4
    m.post(0, 2, svc.on_req, 6, payload_words=3, category="t.b")
    sim.run()
    assert [m.stats.get(k) for k in ("msg.t.b", "handler.on_req", "msg.total", "msg.words")] == [1, 1, 1, 3]


class _NotingBucket(list):
    """A calendar bucket that notes every entry put in it."""

    def __init__(self, entries, noted):
        super().__init__(entries)
        noted.extend(entries)
        self.noted = noted

    def append(self, entry):
        self.noted.append(entry)
        super().append(entry)


class _NotingCalendar(dict):
    """A ``Simulator._cal`` whose buckets note every entry put in them,
    by whichever scheduling site: each site appends to a bucket or
    stores a new one."""

    def __init__(self, noted):
        super().__init__()
        self.noted = noted

    def __setitem__(self, when, bucket):
        if type(bucket) is not _NotingBucket:
            bucket = _NotingBucket(bucket, self.noted)
        super().__setitem__(when, bucket)


@pytest.mark.parametrize("ack_name", [None, "on_poll_ack"], ids=["reply_ack", "named_ack"])
@pytest.mark.parametrize("wire", ["plain", "traced", "faulted"])
def test_no_wire_puts_a_partial_on_the_calendar(wire, ack_name):
    """A post, a call and a deferred fan-out ack put message entries
    ``(call, a, b, args)`` on the calendar, never a ``functools.partial``.
    Fuzzed, so that no trampoline step bypasses the calendar."""
    pushed = []
    sim = Simulator(jitter_seed=3)
    sim._cal = _NotingCalendar(pushed)
    m = Machine(sim, MachineConfig(n_procs=3), tracer=TraceBuffer(256) if wire == "traced" else None)
    fabric = FaultTransport(m, FaultPlan()) if wire == "faulted" else as_transport(m)
    got = []

    class Svc:  # a retry port binds methods only
        def on_post(self, node, src, x):
            got.append(("post", x))

        def on_rpc(self, node, src, fut, x):
            port.reply(fut, x + 1, category="t.rpc_reply")

        def on_poll(self, node, src, ack, x):
            ack(10 * x, 1, 7)  # value, payload words, and a delay before it leaves

    svc, port = Svc(), fabric.port("t")
    h_rpc = port.serves(svc.on_rpc)
    h_poll = port.answers(svc.on_poll, "t.poll_ack", ack_name)
    acks = Acks(lambda target, value: got.append(("ack", target, value)), Future(name="polled"))

    def proc():
        fabric.post(0, 1, svc.on_post, 1, category="t.post")
        got.append(("rpc", (yield from port.call(0, 2, h_rpc, 2, category="t.rpc"))))
        port.fan_out(0, [1, 2], h_poll, 4, acks=acks, category="t.poll")
        yield acks.done

    sim.run_all([proc()])
    assert sorted(got) == [("ack", 1, 40), ("ack", 2, 40), ("post", 1), ("rpc", 3)]
    assert not [e for e in pushed if type(e) is partial]
    messages = [e for e in pushed if type(e) is tuple]
    assert not [e for e in messages if type(e[0]) is partial]
    assert len(messages) >= m.stats.get("msg.total") >= 7  # post, rpc + reply, 2 polls + 2 acks


def test_bad_destination_rejected():
    sim, m = make_machine(n=2)

    def sender():
        yield from m.am_request(0, 5, lambda node, src: None)

    sim.spawn(sender())
    with pytest.raises(ValueError, match="destination"):
        sim.run()
    assert sim.now == 0  # refused at the send, before the overhead is charged


def test_blocking_handler_promoted_to_task():
    sim, m = make_machine()
    done = []

    def blocking_handler(node, src, fut):
        yield Delay(500)
        m.reply(fut, "slow")
        done.append(sim.now)

    def caller():
        v = yield from m.rpc(0, 1, blocking_handler)
        return v

    t = sim.spawn(caller())
    sim.run()
    assert t.done.result() == "slow"
    assert done and done[0] >= 500


def test_blocking_is_decided_per_handler_object_not_per_name():
    sim, m = make_machine()

    def handler(node, src, fut):
        yield Delay(500)
        m.reply(fut, "slow")

    def plain(node, src, fut):
        m.reply(fut, "fast")

    plain.__name__ = handler.__name__
    got = {}

    def caller(dst, h):
        got[dst] = ((yield from m.rpc(0, dst, h)), sim.now)

    sim.spawn(caller(1, handler))
    sim.spawn(caller(2, plain))
    cfg = m.config
    one_way = cfg.am_send_overhead + cfg.network_latency + cfg.am_receive_overhead
    sim.run(until=one_way + 1)  # both requests have arrived
    assert "handler@1" in sim._tasks and "handler@2" not in sim._tasks
    sim.run()
    assert got == {1: ("slow", 2 * one_way + 500), 2: ("fast", 2 * one_way)}
    assert m.stats.get("handler.handler") == 2


def test_untraced_arrival_is_the_handler_call():
    """Outside the kernel, a post and its arrival enter ``post``,
    ``_deliver`` and the handler: no runtime frame sits between the heap
    entry and the handler."""
    sim, m = make_machine()

    def on_post(node, src, x):
        pass

    m.post(0, 1, on_post, 1)  # the first send builds the handler's entry
    sim.run()
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename != kernel_module.__file__:
            entered.append(frame.f_code.co_name)

    gc.disable()  # a collection here would enter the collector's callbacks
    sys.setprofile(profile)
    try:
        m.post(0, 1, on_post, 2)
        sim.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert entered == ["post", "_deliver", "on_post"]


def test_machine_has_no_arrival_frame():
    assert "def _arrive(" not in Path(machine_module.__file__).read_text()


def test_one_fabric_is_wrapped_not_shadowed():
    """Tracing wraps the wire (``repro.obs.wire``): the machine keeps no
    traced twin and swaps no method in, and the fault fabric reaches the
    wire through the fabric interface, never the machine's internals."""
    src = Path(machine_module.__file__).resolve().parents[1]
    twins = re.compile(r"def \w*_traced\b|self\.\w+ = self\._\w+\s*$", re.M)
    private = re.compile(r"machine\._(?:deliver|ctx|routes)\b")
    hits = [str(p) for p in (src / "machine").rglob("*.py") if twins.search(p.read_text())]
    hits += [str(p) for p in src.rglob("*.py") if "SimTransport" in p.read_text()]
    hits += [str(p) for p in (src / "dsm").rglob("*.py") if private.search(p.read_text())]
    assert hits == []


def test_traced_and_untraced_stats_agree_while_a_message_is_in_flight():
    """``handler.<name>`` is counted at injection on both fabrics, so a run
    paused mid-flight reads the same counters traced or not (beside the
    traced fabric's own ``node<i>.msg.*`` keys)."""
    snaps = []
    for tracer in (None, TraceBuffer(64)):
        sim = Simulator()
        m = Machine(sim, MachineConfig(n_procs=2), tracer=tracer)
        fabric = as_transport(m)

        def on_req(node, src):
            pass

        def proc():
            yield from fabric.request(0, 1, on_req, category="t.req")

        sim.spawn(proc())
        sim.run(until=m.config.am_send_overhead + 1)  # injected, not arrived
        assert m.stats.get("handler.on_req") == 1
        snaps.append({k: v for k, v in m.stats.snapshot().items() if not k.startswith("node")})
    assert snaps[0] == snaps[1]


def test_every_traced_send_is_a_traced_message():
    """On a traced fabric no send takes the untraced push: each kind is
    a ``msg.send`` and a ``msg.recv``, counts its two nodes, and a
    handler's receive is the causal parent of what the handler sends."""
    sim = Simulator()
    buf = TraceBuffer(256)
    m = Machine(sim, MachineConfig(n_procs=4), tracer=buf)
    fabric = as_transport(m)

    def on_post(node, src):
        pass

    def on_req(node, src):
        fabric.post(node.nid, 2, on_post, category="t.fwd")

    def on_rpc(node, src, fut):
        fabric.reply(fut, node.nid)

    def proc():
        yield from fabric.request(0, 1, on_req, category="t.req")
        return (yield from fabric.rpc(0, 3, on_rpc, category="t.rpc"))

    task = sim.spawn(proc())
    sim.run()
    assert task.done.result() == 3
    events = buf.events()
    sends = {e.data["category"]: e for e in events if e.kind == "msg.send"}
    assert sorted(sends) == ["am.reply", "t.fwd", "t.req", "t.rpc"]
    recvs = {e.parent: e for e in events if e.kind == "msg.recv"}
    assert sorted(recvs) == sorted(e.eid for e in sends.values())
    assert sends["t.fwd"].parent == recvs[sends["t.req"].eid].eid
    per_node = {k: v for k, v in m.stats.snapshot().items() if k.startswith("node") and v}
    assert per_node == {
        "node0.msg.sent": 2, "node1.msg.sent": 1,
        "node1.msg.recv": 1, "node2.msg.recv": 1, "node3.msg.recv": 1,
    }
