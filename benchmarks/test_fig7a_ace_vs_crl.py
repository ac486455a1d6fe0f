"""Figure 7a: Ace runtime system versus CRL (both running SC invalidation).

Paper shape: Ace is never slower than CRL; the gap is largest for the
fine-grained applications (Barnes-Hut, EM3D — many small regions, many
map/start/end calls) and smallest for coarse-grained BSC, where the
dispatch indirection cancels the runtime-system optimizations (§5.1).
"""

from repro.harness import BENCH_PROCS, by_app, fig7a_rows, format_table


def test_fig7a_ace_vs_crl():
    rows = fig7a_rows()
    d = by_app(rows)
    table = [
        (app, v["crl"], v["ace"], f"{v['crl'] / v['ace']:.2f}x") for app, v in sorted(d.items())
    ]
    print()
    print(
        format_table(
            f"Figure 7a — Ace vs CRL, SC protocol, {BENCH_PROCS} simulated procs (cycles)",
            ["app", "CRL", "Ace", "CRL/Ace"],
            table,
        )
    )

    ratios = {app: v["crl"] / v["ace"] for app, v in d.items()}
    # Ace never loses
    for app, ratio in ratios.items():
        assert ratio >= 0.99, f"{app}: Ace slower than CRL ({ratio:.2f})"
    # fine-grained apps benefit most
    assert ratios["Barnes-Hut"] > ratios["BSC"]
    assert ratios["EM3D"] > ratios["BSC"]
    # coarse-grained BSC ~ parity (indirection cancels the gains)
    assert ratios["BSC"] < 1.15
