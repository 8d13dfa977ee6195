#!/usr/bin/env python3
"""When does source-channel coding beat amplify-and-forward?

Walks the homogeneous-system trade-off: distortion versus node count under
individual and total power constraints, the crossover node counts, the
always-coded observation-SNR bound, and the extreme-SNR limit tables.
"""

import numpy as np

from sensefuse import analytic as an

GAMMA_OB, GAMMA_CH, GAMMA_TOTAL = 7.0, 5.0, 5.0

print("=== Homogeneous distortion vs node count (gamma_ob=7, gamma_ch=5) ===")
print(f"{'K':>3} {'coded':>10} {'uncoded':>10} {'coded tot':>10} {'uncoded tot':>11}")
for k in (1, 2, 3, 4, 5, 8, 15, 30):
    d_ct, d_ut = an.total_power_distortions(k, GAMMA_OB, GAMMA_TOTAL)
    print(f"{k:>3} {an.coded_homo_distortion(k, GAMMA_OB, GAMMA_CH):>10.5f} "
          f"{an.uncoded_homo_distortion(k, GAMMA_OB, GAMMA_CH):>10.5f} "
          f"{d_ct:>10.5f} {d_ut:>11.5f}")

print()
root_ind = an.crossover_node_count(GAMMA_OB, GAMMA_CH)
root_tot = an.crossover_node_count_total(GAMMA_OB, GAMMA_TOTAL)
print(f"uncoded takes over beyond K = {root_ind:.5f} (individual power)")
print(f"                    and K = {root_tot:.5f} (total power)")
print(f"coded asymptote  : {an.coded_homo_distortion_limit(GAMMA_CH):.5f} "
      "(quantization-noise correlation floor)")

print()
print("=== Always-coded observation-SNR bound ===")
for k in (3, 5, 10, 30):
    print(f"K={k:>2}: coded wins for every channel SNR when "
          f"gamma_ob < {an.gamma_ob_star(k):.4f}")

print()
print("=== Where uncoded wins in channel SNR (K=5, gamma_ob=20) ===")
roots = an.coded_region_channel_roots(5, 20.0)
print(f"uncoded wins for gamma_ch in ({roots[0]:.4f}, {roots[1]:.4f})")

print()
print("=== Extreme-SNR limits (K=4, finite values gamma_ob=7 / gamma_ch=5) ===")
print(f"{'scheme':>8} {'gamma_ob':>9} {'gamma_ch':>9} {'distortion':>11}")
for scheme in ("coded", "uncoded"):
    for ob in ("inf", "finite", "zero"):
        for ch in ("inf", "finite", "zero"):
            val = an.limiting_distortion(scheme, ob, ch, 4, GAMMA_OB, GAMMA_CH)
            print(f"{scheme:>8} {ob:>9} {ch:>9} {val:>11.5g}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ks = np.arange(1, 31)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(ks, [an.coded_homo_distortion(k, GAMMA_OB, GAMMA_CH) for k in ks],
            "o-", label="coded")
    ax.plot(ks, [an.uncoded_homo_distortion(k, GAMMA_OB, GAMMA_CH) for k in ks],
            "v-", label="uncoded")
    ax.axhline(an.coded_homo_distortion_limit(GAMMA_CH), ls=":", c="gray",
               label="coded asymptote")
    ax.axvline(root_ind, ls="--", c="k", lw=0.8)
    ax.set_xlabel("number of nodes K")
    ax.set_ylabel("estimation distortion")
    ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_distortion_vs_k.png", dpi=150)
    print("\nsaved demo01_distortion_vs_k.png")
except ImportError:
    pass
