"""Block martingales and the divergence experiment.

Frozen row values below were produced once by this pipeline and verified
against an independent route (literal mean accumulation, dense-grid weak
norm, per-rank maximal averaging); they pin the experiment's output.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from walshlab import (
    QUARTER_CELL,
    CounterexampleConfig,
    DyadicFunction,
    Resolution,
    WeightFamily,
    atom_block,
    bounded_case_monitor,
    build_martingale,
    cell_indices,
    check_conditions,
    check_jig,
    default_alpha_schedule,
    divergence_experiment,
    fwht_forward,
    guaranteed_floor,
    kappa,
    martingale_spectrum,
    norlund_mean_naive,
    weak_lp,
)
from walshlab.errors import PreconditionError

LOG = WeightFamily.logarithmic()


def log_cfg(**kw):
    base = dict(p=0.75, weights=LOG, alphas=(1, 2, 3, 4, 5), c_const=0.01)
    base.update(kw)
    return CounterexampleConfig(**base)


# --- config validation ------------------------------------------------------


def test_config_rejects_bad_p():
    with pytest.raises(PreconditionError):
        log_cfg(p=1.0)
    with pytest.raises(PreconditionError):
        log_cfg(p=0.0)


def test_config_rejects_non_increasing_alphas():
    with pytest.raises(PreconditionError):
        log_cfg(alphas=(1, 2, 2))
    with pytest.raises(PreconditionError):
        log_cfg(alphas=(0, 1))
    with pytest.raises(PreconditionError):
        log_cfg(alphas=())


def test_config_rejects_p_at_or_above_exponent_threshold():
    with pytest.raises(PreconditionError):
        log_cfg(p=0.8, alpha_exp=0.25)
    log_cfg(p=0.79, alpha_exp=0.25)  # just below the threshold is fine


def test_config_rejects_nonpositive_kernel_floor():
    with pytest.raises(PreconditionError):
        log_cfg(weights=WeightFamily.fejer())


# --- blocks and spectra -----------------------------------------------------


def test_atom_block_support_and_height():
    cfg = log_cfg(alphas=(1,))
    r = Resolution(3)
    block = atom_block(0, cfg, r)
    h = 2.0 ** (2.0 * (1.0 / 0.75 - 1.0))
    # difference of power kernels: h*4 at 0 mod 8 minus sign at 4 mod 8
    expect = np.zeros(8)
    expect[0] = h * 4.0
    expect[4] = -h * 4.0
    assert np.allclose(block.values, expect, atol=1e-12)


def test_atom_block_needs_enough_bits():
    cfg = log_cfg(alphas=(2,))
    with pytest.raises(ValueError):
        atom_block(0, cfg, Resolution(4))


def test_build_martingale_lives_at_required_bits():
    cfg = log_cfg(alphas=(1, 3))
    f = build_martingale(cfg)
    assert f.resolution.bits == 7
    assert cfg.required_bits == 7


def test_spectrum_closed_form_matches_transform():
    cfg = log_cfg(alphas=(1, 2, 3))
    f = build_martingale(cfg)
    got = fwht_forward(f).coefficients
    expect = martingale_spectrum(cfg, f.resolution).coefficients
    assert np.abs(got - expect).max() < 1e-12


def test_spectrum_is_constant_on_blocks_zero_off():
    cfg = log_cfg(alphas=(1, 2))
    r = Resolution(cfg.required_bits)
    c = martingale_spectrum(cfg, r).coefficients
    for k, a in enumerate(cfg.alphas):
        lo, hi = 1 << (2 * a), 1 << (2 * a + 1)
        level = cfg.block_height(k) * cfg.block_weight(k)
        assert np.all(c[lo:hi] == level)
    assert c[0] == 0.0
    assert np.all(c[2:4] == 0.0)  # between the blocks


# --- schedule conditions ----------------------------------------------------


def test_cond4_holds_for_dense_integer_schedules():
    # strictly increasing integer exponents always satisfy the
    # spectral-mass comparison, even with p close to 1
    rep = check_conditions(log_cfg(p=0.99, alphas=(1, 2, 3)))
    assert rep.cond4 == (True, True)
    assert rep.cond4_all


def test_conditions_survive_huge_exponents():
    # log-domain evaluation; these masses overflow double precision
    rep = check_conditions(log_cfg(p=0.1, alphas=(100, 400, 1600)))
    assert rep.cond4_all


def test_default_schedule_is_sparse_geometric():
    assert default_alpha_schedule(0.75, LOG) == (1, 4)
    assert default_alpha_schedule(0.75, LOG, cap_bits=35) == (1, 4, 16)


# --- growth condition scan --------------------------------------------------


def test_check_jig_log_family():
    rep = check_jig(log_cfg(alphas=(1, 2)), 2048)
    assert rep.best_c_global == pytest.approx(0.0152400389557, rel=1e-9)
    assert rep.holds  # c_const = 0.01 is below the observed floor
    assert not check_jig(log_cfg(alphas=(1, 2), c_const=0.02), 2048).holds
    # the block subsequence can only do better than the global scan
    assert rep.best_c_subsequence >= rep.best_c_global


def test_check_jig_rejects_tiny_range():
    with pytest.raises(ValueError):
        check_jig(log_cfg(alphas=(1,)), 1)


# --- the experiment ---------------------------------------------------------

LOG_WEAK = (
    0.590232150679,
    0.597697729494,
    0.605837347277,
    0.596206915032,
    0.613950084385,
)
LOG_RATIO = (
    0.590232150679,
    0.84527223525,
    1.04934106661,
    1.19241383006,
    1.37283412348,
)


def test_divergence_rows_frozen_log():
    rep = divergence_experiment(log_cfg())
    assert [r.resolution_used for r in rep.rows] == [3, 5, 7, 9, 11]
    for row, weak, ratio in zip(rep.rows, LOG_WEAK, LOG_RATIO):
        assert row.weak_lp_value == pytest.approx(weak, rel=1e-9)
        assert row.ratio == pytest.approx(ratio, rel=1e-9)
        lam = 1.0 / math.sqrt(row.k + 1.0)
        assert row.hardy_estimate == pytest.approx(lam, rel=1e-12)
    assert rep.ok


def test_divergence_rows_use_prefix_martingale():
    # row k equals a from-scratch run on the truncated schedule
    cfg = log_cfg()
    rep = divergence_experiment(cfg)
    sub = divergence_experiment(replace(cfg, alphas=cfg.alphas[:3]))
    for a, b in zip(sub.rows, rep.rows[:3]):
        assert a.weak_lp_value == b.weak_lp_value
        assert a.pointwise_floor == b.pointwise_floor


def test_divergence_row_matches_literal_mean():
    # every row recomputed with the term-by-term mean of the prefix martingale
    cfg = log_cfg()
    rep = divergence_experiment(cfg)
    for k, row in enumerate(rep.rows):
        f = build_martingale(replace(cfg, alphas=cfg.alphas[: k + 1]))
        t = norlund_mean_naive(f, f.resolution.size, LOG)
        assert weak_lp(t, cfg.p).value == pytest.approx(row.weak_lp_value, rel=1e-12)
        on_cell = np.abs(t.values[cell_indices(QUARTER_CELL, f.resolution)])
        assert on_cell.min() == pytest.approx(row.pointwise_floor, rel=1e-12)


def test_measured_floor_beats_guaranteed_floor():
    cfg = log_cfg()
    rep = divergence_experiment(cfg)
    for row in rep.rows:
        assert row.pointwise_floor >= guaranteed_floor(cfg, row.k) - 1e-12
    assert rep.floors_hold


def test_weak_value_dominates_theory_bound():
    for cfg in (log_cfg(), log_cfg(weights=WeightFamily.cesaro(0.25), p=0.7, alpha_exp=0.25)):
        rep = divergence_experiment(cfg)
        for row in rep.rows:
            assert row.weak_lp_value >= row.theory_bound


def test_guaranteed_floor_closed_form():
    cfg = log_cfg()
    a = 3
    kap = kappa(LOG).kappa
    Q = LOG.Q(1 << (2 * a + 1))
    h = 2.0 ** (2 * a * (1 / 0.75 - 1))
    expect = (kap / Q) * h * (1 / math.sqrt(a) - 1 / (8 * a))
    assert guaranteed_floor(cfg, 2) == pytest.approx(expect, rel=1e-14)


# --- bounded regime ---------------------------------------------------------


def test_monitor_constant_function_gives_unit_ratios():
    r = Resolution(6)
    pairs = bounded_case_monitor(DyadicFunction.constant(3.0, r), WeightFamily.fejer(), 1.0)
    assert [n for n, _ in pairs] == list(range(7))
    assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in pairs)


def test_monitor_random_fejer_ratios_stay_small():
    rng = np.random.default_rng(202)
    r = Resolution(9)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    pairs = bounded_case_monitor(f, WeightFamily.fejer(), 1.0)
    assert max(v for _, v in pairs) < 10.0


def test_monitor_rejects_zero_function():
    r = Resolution(3)
    with pytest.raises(ValueError):
        bounded_case_monitor(DyadicFunction.constant(0.0, r), WeightFamily.fejer(), 1.0)
