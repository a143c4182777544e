"""The blow-up experiment: weighted means escape every Hardy-space bound.

Builds the martingale with blocks at exponents a_k = 1..5, heights
2^(2 a_k (1/p - 1)) and weights 1/sqrt(a_k), runs the logarithmic-weight
mean of order 2^(2 a_k + 1) on each prefix, and prints the measured
table: the weak quasi-norm of the mean, the pointwise floor on the
quarter cell, the provable bound, the Hardy cost of the newest block,
and their ratio.  The ratio divides the weak size of the mean of the
whole prefix martingale f_k by a_k^(-1/2), the Hardy cost of the newest
block alone.  It therefore grows like sqrt(a_k) even where the weak
column stays bounded, so its growth by itself does not show that the
means diverge.

Run:  python demos/04_divergence.py
"""

import math

from walshlab import CounterexampleConfig, WeightFamily, divergence_experiment


def main() -> None:
    cfg = CounterexampleConfig(
        p=0.75,
        weights=WeightFamily.logarithmic(),
        alphas=(1, 2, 3, 4, 5),
    )
    print(f"family = {cfg.weights.label}, p = {cfg.p}, blocks a_k = {cfg.alphas}")
    report = divergence_experiment(cfg)
    print(f"kappa = {report.kappa}, theory constant = {report.theory_constant:.6g}")

    header = f"{'k':>2} {'bits':>4} {'weak_lp':>12} {'floor':>12} {'hardy':>10} {'ratio':>10}"
    print("\n" + header)
    for row in report.rows:
        print(
            f"{row.k:>2} {row.resolution_used:>4} {row.weak_lp_value:>12.6f} "
            f"{row.pointwise_floor:>12.6f} {row.hardy_estimate:>10.6f} "
            f"{row.ratio:>10.6f}"
        )

    print(f"\nratios strictly increasing: {report.ratios_strictly_increasing}")
    print(f"floors hold: {report.floors_hold}")
    print("hardy column = 1/sqrt(a_k) exactly:",
          all(abs(r.hardy_estimate - 1 / math.sqrt(cfg.alphas[r.k])) < 1e-12
              for r in report.rows))

    print("\nmeasured floor vs the guaranteed one (kappa/Q) h_k (1/sqrt(a_k) - 1/(8 a_k)):")
    for row in report.rows:
        print(f"  k={row.k}: measured {row.pointwise_floor:.8f} >= "
              f"guaranteed {row.guaranteed_floor:.8f}")

    print("\nsteeper growth: Cesaro weights with alpha = 0.25 at p = 0.7")
    cfg2 = CounterexampleConfig(
        p=0.7, weights=WeightFamily.cesaro(0.25), alphas=(1, 2, 3, 4, 5),
        alpha_exp=0.25,
    )
    report2 = divergence_experiment(cfg2)
    print("ratios:", [round(r.ratio, 6) for r in report2.rows])
    print(f"strictly increasing: {report2.ratios_strictly_increasing}")


if __name__ == "__main__":
    main()
