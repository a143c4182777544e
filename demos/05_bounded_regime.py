"""The contrast case: Fejer means stay bounded where weighted ones blow up.

The blow-up in demo 04 needs the weight family to decay slowly enough
(kappa > 0 keeps the kernel floor alive).  Fejer weights have kappa < 0
and their means are bounded on the Hardy spaces: this demo measures
||t_(2^n) f||_p / ||f||_(H p) across levels for random functions and for
the demo-04 martingale itself, and everything stays far below any
blow-up trend.

Run:  python demos/05_bounded_regime.py
"""

import numpy as np

from walshlab import (
    CounterexampleConfig,
    DyadicFunction,
    Resolution,
    WeightFamily,
    bounded_case_monitor,
    fwht_inverse,
    martingale_spectrum,
)


def main() -> None:
    fejer = WeightFamily.fejer()
    r = Resolution(10)
    rng = np.random.default_rng(42)

    print("ratios ||t_(2^n) f||_1 / ||f||_(H 1) for 10 random functions at 10 bits:")
    suite_max = 0.0
    for i in range(10):
        f = DyadicFunction(r, rng.standard_normal(r.size))
        pairs = bounded_case_monitor(f, fejer, 1.0)
        values = [v for _, v in pairs]
        suite_max = max(suite_max, max(values))
        if i < 3:
            print(f"  trial {i}: " + " ".join(f"{v:.3f}" for v in values))
    print(f"suite maximum over all trials and levels: {suite_max:.4f}")

    print("\nthe same martingale that breaks the log-weight mean is harmless here:")
    cfg = CounterexampleConfig(
        p=0.75, weights=WeightFamily.logarithmic(), alphas=(1, 2, 3),
    )
    f = fwht_inverse(martingale_spectrum(cfg, Resolution(cfg.required_bits)))
    for label, w in [("fejer", fejer), ("log", cfg.weights)]:
        pairs = bounded_case_monitor(f, w, cfg.p)
        tail = " ".join(f"{v:.3f}" for _, v in pairs[-4:])
        print(f"  {label:<6} last four levels: {tail}")
    print("\nfejer ratios settle; the log-weight ratios at the block orders are")
    print("the quantity demo 04 drives upward by lengthening the schedule.")


if __name__ == "__main__":
    main()
