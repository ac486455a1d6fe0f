"""§3.3's in-text EM3D protocol ladder.

"Using [the dynamic update] protocol results in a speedup of 3.5 over
the invalidation-based protocol. ... [The static update] protocol
results in a speedup of about five over the invalidation-based
protocol."  Shape: SC < dynamic update < static update.
"""

from repro.harness import BENCH_PROCS, by_app, format_table, sec33_ladder_rows


def test_sec33_em3d_protocol_ladder():
    rows = sec33_ladder_rows()
    v = by_app(rows)["EM3D"]
    table = [
        ("SC (invalidate)", v["SC"], "1.00x"),
        ("DynamicUpdate", v["DynamicUpdate"], f"{v['SC'] / v['DynamicUpdate']:.2f}x"),
        ("StaticUpdate", v["StaticUpdate"], f"{v['SC'] / v['StaticUpdate']:.2f}x"),
    ]
    print()
    print(
        format_table(
            f"§3.3 — EM3D protocol ladder, {BENCH_PROCS} procs (cycles)",
            ["protocol", "cycles", "speedup vs SC"],
            table,
        )
    )

    assert v["StaticUpdate"] < v["DynamicUpdate"] < v["SC"]
    assert v["SC"] / v["DynamicUpdate"] > 1.5   # paper: ~3.5
    assert v["SC"] / v["StaticUpdate"] > 2.5    # paper: ~5
