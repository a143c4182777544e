"""Kernel lower bound reports and the quarter-cell facts behind them."""

import numpy as np
import pytest

from walshlab import (
    QUARTER_CELL,
    DyadicFunction,
    Resolution,
    WeightFamily,
    bounded_case_monitor,
    cell_indices,
    dirichlet_kernel,
    kappa,
    kernel_lower_bound_check,
    lp_quasinorm,
    walsh_function,
)
from walshlab.errors import DegreeError, PreconditionError, WalshLabError


def test_log_block_one_minimum_is_exactly_quarter():
    rep = kernel_lower_bound_check(WeightFamily.logarithmic(), 1)
    assert rep.bits == 3
    assert rep.min_abs_kernel == pytest.approx(0.25, abs=1e-15)
    assert rep.kappa == pytest.approx(0.125, abs=1e-15)
    assert rep.passed


def test_log_blocks_up_to_four_pass():
    for a in (1, 2, 3, 4):
        rep = kernel_lower_bound_check(WeightFamily.logarithmic(), a)
        assert rep.passed, rep


def test_cesaro_half_blocks_pass_with_kappa_margin():
    w = WeightFamily.cesaro(0.5)
    assert kappa(w).kappa == pytest.approx(0.03125, abs=1e-15)
    for a in (1, 2, 3):
        rep = kernel_lower_bound_check(w, a, Resolution(8))
        assert rep.min_abs_kernel >= 0.03125 - 1e-12
        assert rep.passed


def test_fejer_passes_vacuously():
    rep = kernel_lower_bound_check(WeightFamily.fejer(), 2)
    assert rep.kappa == pytest.approx(-0.5, abs=0)
    assert rep.passed  # a negative floor claims nothing


def test_minimum_independent_of_resolution():
    # the windowed kernel has degree < 2^(2a+1), so refining the grid
    # cannot change its minimum on the cell
    w = WeightFamily.logarithmic()
    for a in (1, 2):
        at_min = kernel_lower_bound_check(w, a).min_abs_kernel
        refined = kernel_lower_bound_check(w, a, Resolution(2 * a + 3)).min_abs_kernel
        assert at_min == pytest.approx(refined, rel=1e-14)


def test_structure_violation_is_rejected():
    increasing = WeightFamily.custom([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    with pytest.raises(PreconditionError):
        kernel_lower_bound_check(increasing, 1)


def test_bad_block_exponent():
    with pytest.raises(ValueError):
        kernel_lower_bound_check(WeightFamily.logarithmic(), 0)
    with pytest.raises(ValueError):
        kernel_lower_bound_check(WeightFamily.logarithmic(), 3, Resolution(4))


def telescoped_gap_sum(w: WeightFamily, a: int) -> tuple[float, float]:
    # the proof-chain comparison: alternating second gaps of the weights
    # across the block window, against half the total decrease
    m = 1 << (2 * a + 1)
    total = 0.0
    for j in range((1 << (2 * a - 2)) + 1, 1 << (2 * a - 1)):
        total += abs(w.q(m - 4 * j + 3) - w.q(m - 4 * j + 1))
    bound = 0.5 * (w.q(3) - w.q((1 << (2 * a)) - 1))
    return total, bound


@pytest.mark.parametrize(
    "w",
    [
        WeightFamily.fejer(),
        WeightFamily.logarithmic(),
        WeightFamily.cesaro(0.5),
        WeightFamily.ualpha(0.3),
        WeightFamily.vlog(),
    ],
    ids=lambda w: w.label,
)
def test_telescoped_gap_sum_within_half_total(w):
    for a in (2, 3, 4, 5):
        total, bound = telescoped_gap_sum(w, a)
        assert total <= bound + 1e-12, (w.label, a)


def test_dirichlet_kernel_parity_on_quarter_cell():
    # for odd j, D_j = w_1 * w_j there and w_1 = -1 on the cell
    r = Resolution(6)
    quarter = cell_indices(QUARTER_CELL, r)
    for j in range(1, r.size):
        on_cell = dirichlet_kernel(j, r).values[quarter]
        if j % 2 == 0:
            assert np.all(on_cell == 0), j
        else:
            assert np.array_equal(on_cell, -walsh_function(j, r).values[quarter]), j


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: kernel_lower_bound_check(WeightFamily.logarithmic(), 0), PreconditionError),
        (
            lambda: kernel_lower_bound_check(WeightFamily.logarithmic(), 3, Resolution(3)),
            DegreeError,
        ),
        (
            lambda: bounded_case_monitor(
                DyadicFunction.constant(0.0, Resolution(4)), WeightFamily.logarithmic(), 0.75
            ),
            PreconditionError,
        ),
        (lambda: lp_quasinorm(DyadicFunction.constant(1.0, Resolution(2)), -1.0), PreconditionError),
    ],
    ids=["block-exponent", "too-few-bits", "zero-function", "nonpositive-p"],
)
def test_library_failures_are_walshlab_errors(call, error):
    assert issubclass(error, WalshLabError)
    with pytest.raises(error):
        call()
