"""Why static update beats invalidation: the message-mix view (§3.3).

Records EM3D twice with the trace layer on — once under the default
SC invalidation protocol, once under the Falsafi-style static update
protocol — and diffs the two message mixes.  The cycle counts say
static update wins; the trace says *why*: the read_req/read_data
round trips on every consumer miss disappear, replaced by one-way
pushes from the producer.

    python examples/em3d_message_mix.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.experiments import trace_run  # noqa: E402
from repro.obs import run_summary  # noqa: E402


def message_mix(buf):
    """``{category: [count, words]}`` over the trace's ``msg.send`` events."""
    mix = {}
    for ev in buf.events():
        if ev.kind == "msg.send":
            slot = mix.setdefault(ev.data["category"], [0, 0])
            slot[0] += 1
            slot[1] += ev.data.get("words", 0)
    return mix


def main():
    runs = {}
    for variant in ("SC", "static"):
        result, buf = trace_run("EM3D", variant, n_procs=8)
        runs[variant] = (result, buf, run_summary(result, buf))

    print(f"{'':24s} {'SC (invalidate)':>16s} {'static update':>14s}")
    for field in ("cycles", "msg_total", "msg_words", "stall_total"):
        sc = runs["SC"][2][field]
        st = runs["static"][2][field]
        print(f"  {field:22s} {sc:>16d} {st:>14d}")

    sc_mix, st_mix = message_mix(runs["SC"][1]), message_mix(runs["static"][1])
    print("\nMessage mix by category (count, words):")
    for label, mix in (("SC", sc_mix), ("static", st_mix)):
        print(f"  {label}:")
        for cat, (count, words) in sorted(mix.items(), key=lambda kv: -kv[1][0]):
            print(f"    {cat:32s} {count:>6d}  {words:>6d}")

    print("\nDelta (SC minus static; positive = SC sends more):")
    for cat in sorted(sc_mix.keys() | st_mix.keys()):
        n = sc_mix.get(cat, [0])[0] - st_mix.get(cat, [0])[0]
        if n:
            print(f"    {cat:32s} {n:>+6d}")

    sc_cycles = runs["SC"][2]["cycles"]
    st_cycles = runs["static"][2]["cycles"]
    print(f"\nStatic update is {sc_cycles / st_cycles:.2f}x faster: the "
          "read_req/read_data/grant_ack traffic (a round trip per consumer "
          "miss) is gone, replaced by one push per produced value.")


if __name__ == "__main__":
    main()
