"""Size functionals against grid and pyramid oracles."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab import (
    DyadicFunction,
    Resolution,
    dirichlet_kernel,
    hardy_norm_estimate,
    lp_quasinorm,
    maximal_function,
    weak_lp,
)

REPRO = Path(__file__).resolve().parent.parent / "reproduce"


def grid_weak_oracle(values: np.ndarray, p: float) -> float:
    """Dense-lambda sweep: sup over a grid that includes a point just
    below every level of |f|, where the supremum is attained."""
    mags = np.abs(values)
    top = mags.max()
    if top == 0.0:
        return 0.0
    levels = np.unique(mags)
    levels = levels[levels > 0]
    grid = np.concatenate(
        [np.linspace(top * 1e-9, top, 4001), levels * (1.0 - 1e-12)]
    )
    total = values.size
    best = 0.0
    for lam in grid:
        tail = np.count_nonzero(mags > lam) / total
        best = max(best, lam * tail ** (1.0 / p))
    return best


def test_lp_quasinorm_frozen_values():
    r = Resolution(2)
    two_level = DyadicFunction(r, np.array([2.0, 2.0, 0.0, 0.0]))
    assert lp_quasinorm(two_level, 1.0).value == pytest.approx(1.0, abs=0)
    quarter = DyadicFunction(r, np.array([0.0, 0.0, 0.0, 1.0]))
    assert lp_quasinorm(quarter, 0.5).value == pytest.approx(0.0625, abs=1e-15)


def test_lp_rejects_nonpositive_p():
    r = Resolution(1)
    f = DyadicFunction.constant(1.0, r)
    with pytest.raises(ValueError):
        lp_quasinorm(f, 0.0)
    with pytest.raises(ValueError):
        weak_lp(f, -1.0)


def test_weak_lp_frozen_values():
    r = Resolution(2)
    two_level = DyadicFunction(r, np.array([2.0, 2.0, 0.0, 0.0]))
    assert weak_lp(two_level, 1.0).value == pytest.approx(1.0, abs=0)
    quarter = DyadicFunction(r, np.array([0.0, 0.0, 0.0, 1.0]))
    assert weak_lp(quarter, 0.5).value == pytest.approx(0.0625, abs=1e-15)
    # |D_4| = 4 on a quarter of the grid, so weak-L_1 = 1
    r4 = Resolution(4)
    assert weak_lp(dirichlet_kernel(4, r4), 1.0).value == pytest.approx(1.0, abs=0)


def test_weak_lp_zero_function():
    r = Resolution(3)
    assert weak_lp(DyadicFunction.constant(0.0, r), 0.7).value == 0.0


def distribution_scan_oracle(values: np.ndarray, p: float) -> float:
    """Literal scan of the distribution function: for each distinct
    positive level v of |f|, count the cells with |f| >= v."""
    mags = [abs(float(v)) for v in values]
    best = 0.0
    for v in sorted(set(mags)):
        if v > 0.0:
            tail = sum(1 for m in mags if m >= v) / len(mags)
            best = max(best, v * tail ** (1.0 / p))
    return best


def test_weak_lp_with_ties_and_zeros_matches_distribution_scan():
    rng = np.random.default_rng(14)
    r = Resolution(8)
    for p in (0.3, 0.75, 1.0, 1.5):
        for zero_share in (0.0, 0.5, 0.9):
            # few distinct levels, each repeated many times, many zeros
            values = rng.choice([-3.0, -1.0, 0.5, 1.0, 2.0, 3.0], size=r.size)
            values[rng.random(r.size) < zero_share] = 0.0
            exact = weak_lp(DyadicFunction(r, values), p).value
            assert exact == pytest.approx(distribution_scan_oracle(values, p), rel=1e-14)
        steps = np.repeat([0.0, 4.0, 0.0, 1.0, 1.0, 4.0, 0.0, 2.0], r.size // 8)
        exact = weak_lp(DyadicFunction(r, steps), p).value
        assert exact == pytest.approx(distribution_scan_oracle(steps, p), rel=1e-14)


def test_weak_lp_matches_grid_oracle_smoke():
    rng = np.random.default_rng(11)
    r = Resolution(6)
    for p in (0.4, 0.7, 1.0, 1.6):
        for _ in range(5):
            values = rng.standard_normal(r.size)
            exact = weak_lp(DyadicFunction(r, values), p).value
            grid = grid_weak_oracle(values, p)
            assert grid <= exact + 1e-12
            assert abs(grid - exact) <= 1e-6 * exact


@given(st.integers(0, 2**31 - 1), st.floats(0.3, 2.0))
@settings(max_examples=60)
def test_chebyshev_weak_below_strong(seed, p):
    rng = np.random.default_rng(seed)
    r = Resolution(5)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    assert weak_lp(f, p).value <= lp_quasinorm(f, p).value + 1e-12


def maximal_oracle(values: np.ndarray, bits: int) -> np.ndarray:
    # best |average over the rank-m cell containing x| across all ranks
    size = values.size
    best = np.zeros(size)
    for m in range(bits + 1):
        blk = 1 << m
        avg = np.abs(values.reshape(-1, blk).mean(axis=0))
        best = np.maximum(best, np.tile(avg, size // blk))
    return best


def test_maximal_function_matches_oracle():
    rng = np.random.default_rng(12)
    for bits in range(1, 11):
        r = Resolution(bits)
        for _ in range(5):
            values = rng.standard_normal(r.size)
            got = maximal_function(DyadicFunction(r, values)).values
            assert np.abs(got - maximal_oracle(values, bits)).max() < 1e-13, bits


def test_maximal_of_constant_is_its_magnitude():
    r = Resolution(4)
    got = maximal_function(DyadicFunction.constant(-2.0, r)).values
    assert np.array_equal(got, np.full(16, 2.0))


def test_maximal_dominates_mean_and_value():
    rng = np.random.default_rng(13)
    r = Resolution(6)
    values = rng.standard_normal(r.size)
    got = maximal_function(DyadicFunction(r, values)).values
    assert np.all(got >= np.abs(values) - 1e-13)  # rank N term
    assert np.all(got >= abs(values.mean()) - 1e-13)  # rank 0 term


def test_hardy_norm_of_single_block_is_its_weight():
    # one mean-zero block scaled by lam: the maximal function is a single
    # plateau of height lam * 2^(2a) * h on the rank-2a cell at 0, so the
    # divergence experiment's closed-form Hardy column a_k^(-1/2) must match
    # the measured Hardy size of every row's newest block
    from walshlab import atom_block, divergence_experiment
    from walshlab.cli import _experiment_config, parse_config_text

    for path in sorted(REPRO.glob("*.cfg")):
        mapping = parse_config_text(path.read_text())
        mapping["alphas"] = "1..5"
        cfg = _experiment_config(mapping)
        rows = divergence_experiment(cfg).rows
        for k, a in enumerate(cfg.alphas):
            lam = cfg.block_weight(k)
            atom = atom_block(k, cfg, Resolution(2 * a + 1))
            block = DyadicFunction(atom.resolution, lam * atom.values)
            measured = hardy_norm_estimate(block, cfg.p).value
            assert measured == pytest.approx(lam, rel=1e-12)
            assert rows[k].hardy_estimate == pytest.approx(measured, rel=1e-12)
