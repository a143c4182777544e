"""Acceptance gate: nine target capabilities, one test (and one pass/fail
line under pytest -v) per criterion.  Tolerances and runtime caps are
pinned in the asserts; every oracle here is independent of the code path
it judges.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from walshlab import (
    CounterexampleConfig,
    DyadicFunction,
    Resolution,
    WeightFamily,
    bounded_case_monitor,
    cesaro_kappa_threshold,
    dirichlet_kernel,
    divergence_experiment,
    fwht_forward,
    fwht_inverse,
    kappa,
    kernel_lower_bound_check,
    lp_quasinorm,
    martingale_spectrum,
    norlund_mean_multiplier,
    ualpha_kappa_threshold,
    weak_lp,
)
from walshlab.cli import _experiment_config, parse_config_text

from oracles import build_martingale

REPRO = Path(__file__).resolve().parent.parent / "reproduce"

ALL_FAMILIES = [
    WeightFamily.fejer(),
    WeightFamily.logarithmic(),
    WeightFamily.cesaro(0.5),
    WeightFamily.ualpha(0.3),
    WeightFamily.vlog(),
]


def sign_matrix(bits: int) -> np.ndarray:
    """W[n, x] = (-1)^popcount(n AND x), built directly from bits."""
    idx = np.arange(1 << bits, dtype=np.int64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]).astype(np.int64) & 1
    return 1 - 2 * parity


def test_criterion_1_transform_correctness():
    start = time.perf_counter()
    r10 = Resolution(10)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        values = rng.standard_normal(r10.size)
        back = fwht_inverse(fwht_forward(DyadicFunction(r10, values))).values
        worst = max(worst, float(np.abs(back - values).max()))
    assert worst < 1e-11

    r8 = Resolution(8)
    W = sign_matrix(8)
    f = DyadicFunction(r8, rng.standard_normal(r8.size))
    direct = (W @ f.values) / r8.size  # O(4^N) analysis by definition
    got = fwht_forward(f).coefficients
    forward_err = float(np.abs(got - direct).max())
    assert forward_err < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1 (transform correctness): PASS "
          f"(round trip {worst:.2e}, direct {forward_err:.2e}, {elapsed:.2f}s)")


def test_criterion_2_kernel_identities_exact():
    start = time.perf_counter()
    bits = 8
    r = Resolution(bits)
    size = r.size
    W = sign_matrix(bits)

    # power-of-two closed form, exact
    idx = np.arange(size)
    for k in range(bits + 1):
        n = 1 << k
        expect = np.where(idx % n == 0, n, 0)
        assert np.array_equal(dirichlet_kernel(n, r).values, expect)

    # general closed form vs cumulative character sums, integer equality
    running = np.zeros(size, dtype=np.int64)
    for n in range(1, size + 1):
        running = running + W[n - 1]
        assert np.array_equal(dirichlet_kernel(n, r).values, running), n

    # character multiplicativity, exhaustive at 5 bits
    W5 = sign_matrix(5)
    idx5 = np.arange(32)
    xor = idx5[:, None] ^ idx5[None, :]
    for n in range(32):
        assert np.array_equal(W5[n][xor], np.outer(W5[n], W5[n]))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2 (kernel identities exact): PASS ({elapsed:.2f}s)")


def test_criterion_3_multiplier_mean_equals_naive():
    bits = 8
    r = Resolution(bits)
    size = r.size
    W = sign_matrix(bits).astype(np.float64)
    rng = np.random.default_rng(1003)
    spectra = rng.standard_normal((50, size))
    orders = np.arange(1, size + 1)

    worst = 0.0
    for w in ALL_FAMILIES:
        q = w.q_array(size)
        Q = np.cumsum(q)  # Q[n-1] = Q_n
        # literal definition, batched: S_k f for k = 1..size, then the
        # weighted sums T_n = sum_{k<=n} q_(n-k) S_k as a Toeplitz product
        i = np.arange(size)
        L = np.where(i[:, None] >= i[None, :], q[np.abs(i[:, None] - i[None, :])], 0.0)
        for coeff in spectra:
            S = np.cumsum(coeff[:, None] * W, axis=0)  # row k-1 holds S_k f
            T = (L @ S) / Q[:, None]  # row n-1 holds t_n f
            f = DyadicFunction(r, W.T @ coeff)
            spectrum = fwht_forward(f)
            for n in orders:
                got = norlund_mean_multiplier(spectrum, int(n), w).values
                err = float(np.abs(got - T[n - 1]).max())
                if err > worst:
                    worst = err
    assert worst < 1e-10
    print(f"criterion 3 (multiplier form equals naive definition): PASS "
          f"(max deviation {worst:.2e})")


def test_criterion_4_kernel_lower_bound_reproduction():
    start = time.perf_counter()
    families = (
        [WeightFamily.logarithmic(), WeightFamily.vlog()]
        + [WeightFamily.cesaro(a) for a in (0.1, 0.25, 0.5, 0.55)]
        + [WeightFamily.ualpha(a) for a in (0.1, 0.25, 0.4)]
    )
    for w in families:
        floor = kappa(w)
        assert floor > 0.0, w.label
        for rep in kernel_lower_bound_check(w, range(1, 7)):
            assert rep.min_abs_kernel >= floor - 1e-12, (w.label, rep)
            assert rep.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4 (kernel lower bound, 9 families x 6 blocks): PASS "
          f"({elapsed:.2f}s)")


def test_criterion_5_closed_form_constants():
    assert abs(kappa(WeightFamily.logarithmic()) - 0.125) < 1e-12
    assert abs(kappa(WeightFamily.vlog()) - 1.0 / (4.0 * math.log(2.0))) < 1e-12
    for alpha in (0.1, 0.25, 0.5, 0.55):
        expect = alpha * (2.0 - 3.0 * alpha - alpha * alpha) / 4.0
        assert abs(kappa(WeightFamily.cesaro(alpha)) - expect) < 1e-12
    root = (math.sqrt(17.0) - 3.0) / 2.0
    assert abs(cesaro_kappa_threshold() - root) < 1e-12
    assert round(root, 4) == 0.5616
    u_root = 2.0 - math.log2(3.0)
    assert abs(ualpha_kappa_threshold() - u_root) < 1e-12
    assert round(u_root, 4) == 0.4150
    print("criterion 5 (closed-form constants to 1e-12): PASS")


def bundled_configs():
    for name in ("log_p075", "cesaro025_p07", "vlog_p075", "ualpha03_p07"):
        text = (REPRO / f"{name}.cfg").read_text()
        yield name, _experiment_config(parse_config_text(text))


def test_criterion_6_martingale_spectrum_closed_form():
    for name, cfg in bundled_configs():
        f = build_martingale(cfg)
        got = fwht_forward(f).coefficients
        expect = martingale_spectrum(cfg, f.resolution).coefficients
        err = float(np.abs(got - expect).max())
        assert err < 1e-10, (name, err)
    print("criterion 6 (martingale spectrum matches closed form): PASS")


def test_criterion_7_divergence_growth():
    start = time.perf_counter()
    targets = [
        CounterexampleConfig(
            p=0.75, weights=WeightFamily.logarithmic(), alphas=(1, 2, 3, 4, 5),
        ),
        CounterexampleConfig(
            p=0.7, weights=WeightFamily.cesaro(0.25), alphas=(1, 2, 3, 4, 5),
            alpha_exp=0.25,
        ),
    ]
    for cfg in targets:
        report = divergence_experiment(cfg)
        assert report.rows[-1].resolution_used == 11
        ratios = [row.ratio for row in report.rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), (cfg.weights.label, ratios)
        kap = kappa(cfg.weights)
        for row in report.rows:
            a = cfg.alphas[row.k]
            Q = cfg.weights.Q(1 << (2 * a + 1))
            lead = (kap / Q) * 2.0 ** (2 * a * (1.0 / cfg.p - 1.0))
            floor = lead / math.sqrt(a) - (kap / Q) * 2.0 ** (
                2 * a * (1.0 / cfg.p - 1.0) - 3.0
            ) / a
            assert row.pointwise_floor >= floor - 1e-12, (cfg.weights.label, row)
        assert report.floors_hold and report.ratios_strictly_increasing
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 7 (divergence growth, log p=3/4 and cesaro 0.25 p=0.7): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_8_bounded_regime_report():
    # non-assertive companion: ratios stay far below 10 and saturate
    # toward ||f||_1 / ||f||_H1 instead of trending up without bound;
    # with this fixed seed the suite maximum is about 0.50
    rng = np.random.default_rng(20260814)
    r = Resolution(10)
    fejer = WeightFamily.fejer()
    suite_max = 0.0
    final_max = 0.0
    for _ in range(20):
        f = DyadicFunction(r, rng.standard_normal(r.size))
        pairs = bounded_case_monitor(f, fejer, 1.0)
        values = [v for _, v in pairs]
        suite_max = max(suite_max, max(values))
        final_max = max(final_max, values[-1])
    assert suite_max < 10.0
    assert final_max < 1.0  # saturation: no growth trend at the finest level
    print(f"criterion 8 (bounded-regime report): PASS "
          f"(suite max {suite_max:.4f}, final-level max {final_max:.4f})")


def grid_weak_oracle(values: np.ndarray, p: float) -> float:
    mags = np.sort(np.abs(values))
    top = mags[-1]
    if top == 0.0:
        return 0.0
    levels = np.unique(mags)
    levels = levels[levels > 0]
    grid = np.concatenate([np.linspace(top * 1e-9, top, 2001), levels * (1.0 - 1e-12)])
    tail = (mags.size - np.searchsorted(mags, grid, side="right")) / mags.size
    return float(np.max(grid * tail ** (1.0 / p)))


def test_criterion_9_weak_lp_evaluator():
    rng = np.random.default_rng(1009)
    r = Resolution(10)
    for i in range(100):
        p = float(rng.uniform(0.3, 1.5))
        values = rng.standard_normal(r.size)
        f = DyadicFunction(r, values)
        exact = weak_lp(f, p)
        grid = grid_weak_oracle(values, p)
        assert abs(grid - exact) <= 1e-6 * exact, (i, p)
        assert weak_lp(f, p) <= lp_quasinorm(f, p) + 1e-12
    print("criterion 9 (weak quasi-norm evaluator): PASS")
