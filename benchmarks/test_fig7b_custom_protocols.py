"""Figure 7b: single (SC) protocol vs application-specific protocols in Ace.

Paper shape: "The speedups range from a factor of 1.02 to 5 (average
speedup is approx. 2)" — EM3D (static update) is the biggest winner,
BSC the smallest ("the performance improvement is marginal"), Water
about 2x from phase switching.
"""

from repro.harness import BENCH_PROCS, by_app, fig7b_rows, format_table


def test_fig7b_custom_protocols():
    rows = fig7b_rows()
    d = by_app(rows)
    table = [
        (app, v["SC"], v["custom"], f"{v['SC'] / v['custom']:.2f}x")
        for app, v in sorted(d.items())
    ]
    print()
    print(
        format_table(
            f"Figure 7b — SC vs application-specific protocols, {BENCH_PROCS} procs (cycles)",
            ["app", "SC", "custom", "speedup"],
            table,
        )
    )

    speedups = {app: v["SC"] / v["custom"] for app, v in d.items()}
    # every app improves (or at worst matches)
    for app, s in speedups.items():
        assert s >= 1.0, f"{app}: custom protocol slower than SC ({s:.2f})"
    # EM3D's static update is the biggest win; BSC's is marginal
    assert speedups["EM3D"] == max(speedups.values())
    assert speedups["EM3D"] > 2.5
    assert speedups["BSC"] == min(speedups.values())
    assert speedups["BSC"] < 1.15
    # Water's phase switching ~ 2x (§2.2)
    assert 1.5 < speedups["Water"] < 3.0
    # average speedup ~ 2 (paper: "approx. 2")
    avg = sum(speedups.values()) / len(speedups)
    assert 1.4 < avg < 3.0
