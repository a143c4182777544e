"""Block martingales and the divergence experiment.

Frozen row values below were produced once by this pipeline and verified
against an independent route (literal mean accumulation, dense-grid weak
norm, per-rank maximal averaging); they pin the experiment's output.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import walshlab.counterexample
from walshlab.counterexample import _row_mean
from walshlab import (
    CounterexampleConfig,
    DyadicFunction,
    Resolution,
    WalshSpectrum,
    WeightFamily,
    bounded_case_monitor,
    divergence_experiment,
    fwht_forward,
    hardy_norm_estimate,
    kappa,
    lp_quasinorm,
    martingale_spectrum,
    norlund_mean_multiplier,
    parse_family,
    quarter_cell_min,
    weak_lp,
)
from walshlab.errors import DegreeError, PreconditionError

from oracles import atom_block, build_martingale, norlund_mean_naive

LOG = WeightFamily.logarithmic()


def log_cfg(**kw):
    base = dict(p=0.75, weights=LOG, alphas=(1, 2, 3, 4, 5))
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


def test_config_rejects_bad_weights_and_constants():
    with pytest.raises(TypeError, match="weights must be a WeightFamily"):
        log_cfg(weights="log")
    with pytest.raises(PreconditionError, match="beta_exp must be >= 0"):
        log_cfg(beta_exp=-1.0)


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


def test_spectrum_too_coarse_is_a_degree_error():
    cfg = log_cfg(alphas=(1, 3))
    with pytest.raises(DegreeError, match="block exponent 3 needs at least 7 bits"):
        martingale_spectrum(cfg, Resolution(6))


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


# --- the spectral-mass condition -------------------------------------------


def _masses_stay_below_newest(alphas, p):
    # sum_{e<k} 2^(2 a_e/p)/sqrt(a_e) < 2^(2 a_k/p)/sqrt(a_k) for every k,
    # in log2 so huge exponents do not overflow
    log_mass = [2.0 * a / p - 0.5 * math.log2(a) for a in alphas]
    running = -math.inf
    for earlier, newest in zip(log_mass, log_mass[1:]):
        running = float(np.logaddexp2(running, earlier))
        if not running < newest:
            return False
    return True


def test_admitted_schedules_satisfy_the_mass_condition():
    # CounterexampleConfig's docstring proves this for every integer
    # schedule with a_0 >= 1 and 0 < p < 1; scan a dense grid of them
    for p in (0.05, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6):
        for size in range(2, 8):
            for alphas in itertools.combinations(range(1, 14), size):
                assert _masses_stay_below_newest(alphas, p), (alphas, p)
    cfg = log_cfg(p=0.99, alphas=(1, 2, 3))
    assert _masses_stay_below_newest(cfg.alphas, cfg.p)
    # the condition holds for huge exponents too, but their rows would
    # overflow float64, so the config refuses them
    assert _masses_stay_below_newest((100, 400, 1600), 0.1)
    with pytest.raises(PreconditionError, match="p = 0.1 is too small"):
        log_cfg(p=0.1, alphas=(100, 400, 1600))


def test_schedules_whose_rows_overflow_are_refused_before_any_row(monkeypatch):
    # the mass bound 1.505 * 2^(2 a/p) / sqrt(a) reaches 2^1023 at a = 10
    # once p <= 0.019530; no row may be synthesized before the refusal
    def no_row(cfg, k):
        raise AssertionError("a row ran before the schedule was refused")

    monkeypatch.setattr(walshlab.counterexample, "_row_mean", no_row)
    for p in (0.0194, 0.0195):
        with pytest.raises(PreconditionError, match=f"p = {p} is too small"):
            divergence_experiment(log_cfg(p=p, alphas=tuple(range(1, 11))))


def test_p_just_above_the_refusal_keeps_every_row_finite():
    rep = divergence_experiment(log_cfg(p=0.0196, alphas=tuple(range(1, 11))))
    for row in rep.rows:
        cells = (row.weak_lp_value, row.pointwise_floor, row.theory_bound, row.ratio)
        assert all(math.isfinite(v) for v in cells), row
    assert rep.ok


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
        assert weak_lp(t, cfg.p) == pytest.approx(row.weak_lp_value, rel=1e-12)
        on_cell = np.abs(t.values[3::4])  # the quarter cell: indices = 3 mod 4
        assert on_cell.min() == pytest.approx(row.pointwise_floor, rel=1e-12)


@pytest.mark.parametrize("p", [0.6, 0.75])
@pytest.mark.parametrize("label", ["log", "cesaro:0.25", "ualpha:0.3", "vlog"])
def test_folded_row_means_match_the_multiplier_route(label, p):
    # each row's mean, synthesized from its blocks alone, is the
    # multiplier mean of the prefix spectrum bit for bit, zero signs
    # included, so every row reports the multiplier route's columns exactly
    w = parse_family(label)
    for alphas in ((1,), (1, 3, 6), (2, 5), tuple(range(1, 9))):
        cfg = CounterexampleConfig(p=p, weights=w, alphas=alphas)
        coeffs = martingale_spectrum(cfg, Resolution(cfg.required_bits)).coefficients
        rows = divergence_experiment(cfg).rows
        for k, a in enumerate(alphas):
            r = Resolution(2 * a + 1)
            expect = norlund_mean_multiplier(WalshSpectrum(r, coeffs[: r.size]), r.size, w)
            got, _, _ = _row_mean(cfg, k)
            assert got.values.tobytes() == expect.values.tobytes(), (alphas, k)
            assert rows[k].weak_lp_value == weak_lp(expect, p)
            assert rows[k].pointwise_floor == quarter_cell_min(expect)


def test_measured_floor_beats_guaranteed_floor():
    cfg = log_cfg()
    rep = divergence_experiment(cfg)
    for row in rep.rows:
        assert row.pointwise_floor >= row.guaranteed_floor - 1e-12
    assert rep.floors_hold


def test_floor_below_the_guarantee_fails_only_the_floor_verdict(monkeypatch):
    cfg = log_cfg()
    honest = divergence_experiment(cfg)
    monkeypatch.setattr(walshlab.counterexample, "quarter_cell_min", lambda f: 0.0)
    rep = divergence_experiment(cfg)
    assert rep.floors_hold is False
    assert rep.ok is False
    assert rep.ratios_strictly_increasing is honest.ratios_strictly_increasing is True


def test_weak_value_dominates_theory_bound():
    for cfg in (log_cfg(), log_cfg(weights=WeightFamily.cesaro(0.25), p=0.7, alpha_exp=0.25)):
        rep = divergence_experiment(cfg)
        for row in rep.rows:
            assert row.weak_lp_value >= row.theory_bound


def test_guaranteed_floor_closed_form():
    cfg = log_cfg()
    a = 3
    kap = kappa(LOG)
    Q = LOG.Q(1 << (2 * a + 1))
    h = 2.0 ** (2 * a * (1 / 0.75 - 1))
    expect = (kap / Q) * h * (1 / math.sqrt(a) - 1 / (8 * a))
    assert divergence_experiment(cfg).rows[2].guaranteed_floor == pytest.approx(expect, rel=1e-14)


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


MONITOR_FAMILIES = ("fejer", "log", "cesaro:0.25")


@pytest.mark.parametrize("label", MONITOR_FAMILIES)
def test_monitor_rows_match_full_grid_means(label):
    # each row is computed on the 2^n cells t_(2^n) f depends on; the
    # full-grid synthesis of the same mean must give the same ratio
    w = parse_family(label)
    rng = np.random.default_rng(203)
    for bits in (1, 2, 10):
        r = Resolution(bits)
        f = DyadicFunction(r, rng.standard_normal(r.size))
        spectrum = fwht_forward(f)
        for p in (0.5, 0.75, 1.0):
            hardy = hardy_norm_estimate(f, p)
            pairs = bounded_case_monitor(f, w, p)
            assert [n for n, _ in pairs] == list(range(bits + 1))
            for n, ratio in pairs:
                mean = norlund_mean_multiplier(spectrum, 1 << n, w)
                expect = lp_quasinorm(mean, p) / hardy
                assert ratio == pytest.approx(expect, rel=1e-12), (label, bits, p, n)


@pytest.mark.parametrize("label", MONITOR_FAMILIES)
def test_monitor_rows_match_literal_mean(label):
    w = parse_family(label)
    r = Resolution(6)
    f = DyadicFunction(r, np.random.default_rng(204).standard_normal(r.size))
    p = 0.75
    hardy = hardy_norm_estimate(f, p)
    for n, ratio in bounded_case_monitor(f, w, p):
        expect = lp_quasinorm(norlund_mean_naive(f, 1 << n, w), p) / hardy
        assert ratio == pytest.approx(expect, rel=1e-12), (label, n)


@pytest.mark.parametrize("label", MONITOR_FAMILIES)
def test_monitor_grows_the_weight_cache_once(label, monkeypatch):
    # every weight generation is admitted, and the only ones are each
    # row's prefix sums Q_0..Q_(2^n), n = 0..N, admitted once by Q_array
    # before it allocates and once by its stream; the family keeps
    # nothing between runs, so a second run's rows are the first's, bit
    # for bit
    r = Resolution(12)
    f = DyadicFunction(r, np.random.default_rng(205).standard_normal(r.size))
    w = parse_family(label)
    expect = bounded_case_monitor(f, w, 0.75)
    sizes = []
    admit = WeightFamily._admit
    monkeypatch.setattr(
        WeightFamily, "_admit", lambda w, count: sizes.append(count) or admit(w, count)
    )
    assert bounded_case_monitor(f, w, 0.75) == expect
    assert sizes == [1 << n for n in range(r.bits + 1) for _ in range(2)], sizes


def test_monitor_rejects_zero_function():
    r = Resolution(3)
    with pytest.raises(ValueError):
        bounded_case_monitor(DyadicFunction.constant(0.0, r), WeightFamily.fejer(), 1.0)
