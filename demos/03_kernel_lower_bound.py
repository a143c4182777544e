"""The quarter-cell kernel floor, measured against its closed form.

For a non-increasing convex weight family, the windowed kernel
sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j is at least
kappa = q_1 - (3/2) q_3 in absolute value everywhere on the quarter
cell.  This demo sweeps block exponents and families, prints the
measured minimum next to kappa, and walks the Cesaro and power-weight
parameter ranges up to the exponents where kappa changes sign.

Run:  python demos/03_kernel_lower_bound.py
"""

from walshlab import (
    WeightFamily,
    cesaro_kappa_threshold,
    kappa,
    kernel_lower_bound_check,
    ualpha_kappa_threshold,
)


def sweep(w: WeightFamily, exps: range) -> None:
    floor = kappa(w)
    mins = [rep.min_abs_kernel for rep in kernel_lower_bound_check(w, exps)]
    verdict = "holds" if all(m >= floor - 1e-12 for m in mins) else "FAILS"
    print(
        f"  {w.label:<12} kappa = {floor:.6f}   "
        f"min over a in {exps.start}..{exps.stop - 1}: {min(mins):.6f}   {verdict}"
    )


def main() -> None:
    print("measured min |kernel| on the quarter cell vs the floor kappa:")
    for w in [
        WeightFamily.logarithmic(),
        WeightFamily.vlog(),
        WeightFamily.cesaro(0.25),
        WeightFamily.cesaro(0.5),
        WeightFamily.ualpha(0.3),
    ]:
        sweep(w, range(1, 7))

    print("\nfor the log family at a = 1 the quarter-cell minimum is q_1 - q_3")
    (rep,) = kernel_lower_bound_check(WeightFamily.logarithmic(), [1])
    print(f"= {rep.min_abs_kernel} exactly, twice kappa = {rep.kappa}.")

    c_thr = cesaro_kappa_threshold()
    print(f"\nCesaro sweep: kappa = alpha(2 - 3 alpha - alpha^2)/4 is positive")
    print(f"for 0 < alpha < {c_thr:.6f} and the check degrades past it:")
    for alpha in (0.1, 0.3, 0.5, 0.56, 0.57):
        k = kappa(WeightFamily.cesaro(alpha))
        print(f"  alpha = {alpha:<5} kappa = {k:+.6f}  positive = {k > 0.0}")

    u_thr = ualpha_kappa_threshold()
    print(f"\npower-weight sweep: kappa > 0 for 0 < alpha < {u_thr:.6f}:")
    for alpha in (0.1, 0.3, 0.41, 0.42):
        k = kappa(WeightFamily.ualpha(alpha))
        print(f"  alpha = {alpha:<5} kappa = {k:+.6f}  positive = {k > 0.0}")

    print("\nFejer weights are the boundary case: kappa = 1 - 3/2 < 0, so the")
    print("floor claims nothing and the check passes vacuously:")
    (rep,) = kernel_lower_bound_check(WeightFamily.fejer(), [2])
    print(f"  fejer a=2: min = {rep.min_abs_kernel:.6f}, kappa = {rep.kappa}, "
          f"passed = {rep.passed}")


if __name__ == "__main__":
    main()
