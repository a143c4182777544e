"""Dirichlet kernels and weighted-mean kernels.

Shows the two facts the whole library leans on: Dirichlet kernels at
powers of two are scaled cell indicators (perfect localization), and
general orders decompose over binary digits.  Then builds the weighted
kernels behind Norlund-type means for several weight families and
compares their shapes on one dyadic block.

Run:  python demos/02_summability_kernels.py
"""

import numpy as np

from walshlab import (
    Resolution,
    WeightFamily,
    block_kernel,
    dirichlet_kernel,
    lp_quasinorm,
)


def main() -> None:
    r = Resolution(4)

    print("Dirichlet kernels at powers of two (value on each of 16 cells):")
    for k in range(4):
        values = dirichlet_kernel(1 << k, r).values
        print(f"  D_{1 << k:<2}: {values.tolist()}")
    print("each is 2^k on the rank-k cell at 0 (indices divisible by 2^k)")
    print("and 0 elsewhere;")
    print("the L1 norm is exactly 1 for every power of two:")
    for k in range(5):
        d = dirichlet_kernel(1 << k, r)
        print(f"  ||D_{1 << k}||_1 = {lp_quasinorm(d, 1.0)}")

    print("\ngeneral orders oscillate; D_11 on the 16-cell grid:")
    print(f"  {dirichlet_kernel(11, r).values.tolist()}")

    families = [
        WeightFamily.fejer(),
        WeightFamily.logarithmic(),
        WeightFamily.cesaro(0.25),
        WeightFamily.vlog(),
    ]
    print("\nmean multipliers Q_(n-j)/Q_n at n = 8 (how each family damps")
    print("the top of the spectrum):")
    for w in families:
        Q = w.Q_array(8)
        m = Q[8:0:-1] / Q[8]
        print(f"  {w.label:<12}: {np.round(m, 4).tolist()}")

    a = 2
    r_block = Resolution(2 * a + 1)
    lo, hi = 1 << (2 * a), 1 << (2 * a + 1)
    print(f"\nweighted kernel sums over the block j = {lo}..{hi} at order {hi},")
    print("restricted to the quarter cell (indices 3 mod 4):")
    for w in families:
        ks = block_kernel(w, a, r_block)
        quarter = ks.values[3::4]
        print(
            f"  {w.label:<12}: min |K| on quarter = {np.abs(quarter).min():.6f}, "
            f"max |K| anywhere = {np.abs(ks.values).max():.6f}"
        )
    print("\nthe non-Fejer families keep the quarter-cell minimum away from")
    print("zero; demo 03 measures that floor against its closed form.")


if __name__ == "__main__":
    main()
