"""Tour of the dyadic group and the fast Walsh-Hadamard transform.

Walks through the basic objects: the group at a fixed resolution,
Walsh characters, the forward/inverse transform pair, the
energy identity, and partial sums at powers of two acting as conditional
expectations (local averages over dyadic cells).

Run:  python demos/01_transform_tour.py
"""

import numpy as np

from walshlab import (
    DyadicFunction,
    Resolution,
    fwht_forward,
    fwht_inverse,
    lp_quasinorm,
    partial_sum,
    walsh_function,
)


def main() -> None:
    r = Resolution(4)
    print(f"resolution: {r.bits} bits, {r.size} cells of measure {r.cell_measure}")

    print("\nfirst eight Walsh characters on the 16-cell grid:")
    for n in range(8):
        row = walsh_function(n, r).values
        print(f"  w_{n}: {''.join('+' if v > 0 else '-' for v in row)}")

    rng = np.random.default_rng(7)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    spectrum = fwht_forward(f)
    back = fwht_inverse(spectrum)
    print(f"\nround trip error: {np.abs(back.values - f.values).max():.3e}")

    energy_side = float(np.mean(f.values**2))
    coeff_side = float(np.sum(spectrum.coefficients**2))
    print(f"energy identity:  mean |f|^2 = {energy_side:.12f}")
    print(f"                  sum |fhat|^2 = {coeff_side:.12f}")

    print("\npartial sums S_(2^k) f are averages over cells of rank k:")
    for k in range(r.bits + 1):
        s = partial_sum(spectrum, 1 << k)
        block = r.size >> k
        # a rank-k cell holds the indices sharing their low k bits
        averaged = np.tile(f.values.reshape(block, 1 << k).mean(axis=0), block)
        err = np.abs(s.values - averaged).max()
        print(f"  k={k}: max |S_{1 << k} f - cell average| = {err:.3e}")
        assert err < 1e-14, (k, err)

    print(f"\nL1 norm of f: {lp_quasinorm(f, 1.0).value:.6f}")


if __name__ == "__main__":
    main()
