"""Kernel lower bound reports and the quarter-cell facts behind them."""

from fractions import Fraction

import numpy as np
import pytest

from walshlab import (
    DyadicFunction,
    Resolution,
    WeightFamily,
    block_kernel,
    bounded_case_monitor,
    dirichlet_kernel,
    kappa,
    kernel_lower_bound_check,
    lp_quasinorm,
    parse_family,
    quarter_cell_min,
    synthesize_in_place,
    walsh_function,
)
from walshlab.errors import DegreeError, PreconditionError, ResourceCapError, WalshLabError
from walshlab.kernel_checks import _quarter_cell_coset

from oracles import kernel_sum, quarter_cell_coset_from_Q


def test_log_block_one_minimum_is_exactly_quarter():
    (rep,) = kernel_lower_bound_check(WeightFamily.logarithmic(), [1])
    assert rep.bits == 3
    assert rep.min_abs_kernel == pytest.approx(0.25, abs=1e-15)
    assert rep.kappa == pytest.approx(0.125, abs=1e-15)
    assert rep.passed


def test_log_blocks_up_to_four_pass():
    reports = kernel_lower_bound_check(WeightFamily.logarithmic(), (1, 2, 3, 4))
    assert [rep.block_exp for rep in reports] == [1, 2, 3, 4]
    for rep in reports:
        assert rep.passed, rep


def test_cesaro_half_blocks_pass_with_kappa_margin():
    w = WeightFamily.cesaro(0.5)
    assert kappa(w) == pytest.approx(0.03125, abs=1e-15)
    for rep in kernel_lower_bound_check(w, (1, 2, 3)):
        assert rep.min_abs_kernel >= 0.03125 - 1e-12
        assert rep.passed


def test_fejer_passes_vacuously():
    (rep,) = kernel_lower_bound_check(WeightFamily.fejer(), [2])
    assert rep.kappa == pytest.approx(-0.5, abs=0)
    assert rep.passed  # a negative floor claims nothing


def test_minimum_independent_of_resolution():
    # the windowed kernel has degree < 2^(2a+1), so refining the grid
    # cannot change its minimum on the cell
    w = WeightFamily.logarithmic()
    for a, rep in zip((1, 2), kernel_lower_bound_check(w, (1, 2))):
        at_min = rep.min_abs_kernel
        refined = kernel_sum(w, 1 << (2 * a), 1 << (2 * a + 1), Resolution(2 * a + 3))
        assert at_min == pytest.approx(np.abs(refined.values[3::4]).min(), rel=1e-14)


def test_structure_violation_is_rejected():
    increasing = WeightFamily.custom([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    with pytest.raises(PreconditionError):
        kernel_lower_bound_check(increasing, [1])


def test_bad_block_exponent():
    for exps in ([0], [2, 0], []):
        with pytest.raises(ValueError):
            kernel_lower_bound_check(WeightFamily.logarithmic(), exps)
    # the widest window is refused by the weight horizon before a weight
    # is made
    with pytest.raises(ResourceCapError, match=r"^weight horizon 67108864 exceeds cap 16777216$"):
        kernel_lower_bound_check(WeightFamily.logarithmic(), [1, 13])
    with pytest.raises(ValueError):
        block_kernel(WeightFamily.logarithmic(), 3, Resolution(6))
    with pytest.raises(ValueError):
        block_kernel(WeightFamily.logarithmic(), -1, Resolution(6))


def convex_custom(count: int) -> WeightFamily:
    # q_j = 1/(j+2) + 2^-j: non-increasing and convex, and not a built-in
    j = np.arange(float(count))
    return WeightFamily.custom(1.0 / (j + 2.0) + 0.5**j)


FAMILY_LABELS = [
    "log", "vlog", "vlog:5", "cesaro:0.25", "cesaro:0.8",
    "ualpha:0.3", "ualpha:0.9", "fejer", "custom",
]


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_block_kernel_is_the_windowed_kernel_sum(label):
    # block_kernel lays out the block window's coefficients itself; the
    # oracle lays out any window [a, b] term by term from its definition.
    # The window at a = 6 reads Q_0..Q_(2^12 + 1)
    w = convex_custom((1 << 12) + 1) if label == "custom" else parse_family(label)
    for a in range(7):
        for bits in (2 * a + 1, 2 * a + 2, 2 * a + 3):
            r = Resolution(bits)
            window = kernel_sum(w, 1 << (2 * a), 1 << (2 * a + 1), r).values
            assert np.array_equal(block_kernel(w, a, r).values, window), (a, bits)


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_quarter_cell_coset_is_the_window_bit_for_bit(label):
    # on the quarter cell the window is F_A where x_(2a) = 0 and -F_A
    # where it is 1: the coset read from prefix sums, as the window reads
    # them, is the window's lane bit for bit.  The check reads the coset
    # from the weights instead, so its minimum agrees to roundoff only
    # (see test_quarter_cell_coset_is_near_the_exact_kernel).  The
    # structure screen at a = 9 reads q_0..q_(2^18 + 2)
    w = convex_custom((1 << 18) + 3) if label == "custom" else parse_family(label)
    reports = kernel_lower_bound_check(w, range(1, 10))
    for a, rep in zip(range(1, 10), reports):
        window = block_kernel(w, a, Resolution(2 * a + 1))
        lanes = window.values[3::4]
        coset = quarter_cell_coset_from_Q(w, a)
        assert np.array_equal(coset, lanes[: coset.size]), a
        assert np.array_equal(-coset, lanes[coset.size :]), a
        assert float(np.abs(coset).min()) == quarter_cell_min(window), a
        assert rep.min_abs_kernel == pytest.approx(quarter_cell_min(window), rel=1e-7), a


ODD_WEIGHT_LABELS = [
    "log", "cesaro:0.25", "ualpha:0.3", "vlog", "cesaro:0.8", "fejer", "custom",
]


@pytest.mark.parametrize("label", ODD_WEIGHT_LABELS)
def test_odd_weight_coset_matches_the_q_array_route_bit_for_bit(label):
    # the check makes only q_(W-1), q_(W-3), ..., q_1 for the widest W and
    # reads each row's suffix of them; the coefficients, the coset and the
    # minimum are those taken from all of q_0..q_(A-1), bit for bit
    top = 10
    W = 1 << (2 * top)
    w = convex_custom(W + 3) if label == "custom" else parse_family(label)
    odd = w.q_odd(W)
    assert odd.tobytes() == w.q_array(W)[1::2][::-1].tobytes()
    reports = kernel_lower_bound_check(w, range(1, top + 1))
    for a, rep in zip(range(1, top + 1), reports):
        A = 1 << (2 * a)
        q = w.q_array(A)
        d = q[A - 1 :: -4] - q[A - 3 :: -4]
        coset = d if a == 1 else synthesize_in_place(d).values
        assert w.q_odd(A).tobytes() == odd[(W - A) // 2 :].tobytes(), a
        assert _quarter_cell_coset(w.q_odd(A), a).tobytes() == coset.tobytes(), a
        assert rep.min_abs_kernel == float(np.abs(coset).min()), a


def test_too_short_custom_family_refusal_is_unchanged():
    # the structure screen reads q_0..q_(W+2) of the widest window W first
    w = WeightFamily.custom(1.0 / np.arange(1.0, 21.0))
    with pytest.raises(DegreeError, match=r"^custom weight family defines only 20 weights, 67 requested$"):
        kernel_lower_bound_check(w, [1, 2, 3])


def coset_bound(a: int) -> float:
    # one unit roundoff per coset cell: room for weights whose generation
    # error grows with the index, as cesaro's running product does
    return 2.0**-53 * (1 << (2 * a - 2))


def butterfly(coefficients: np.ndarray) -> np.ndarray:
    """sum_m c_m w_m at every cell, in the coefficients' own dtype."""
    v = coefficients.copy()
    h = 1
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        lo = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = lo - pairs[:, 1]
        h *= 2
    return v


def exact_coset(q: np.ndarray, a: int) -> np.ndarray:
    # d_m = q_(A-4m-1) - q_(A-4m-3), synthesized in q's own dtype
    A = 1 << (2 * a)
    return butterfly(q[A - 1 :: -4] - q[A - 3 :: -4])


def longdouble_weights(w: WeightFamily, count: int) -> np.ndarray:
    # each built-in family's definition, evaluated in np.longdouble
    j1 = np.arange(1, count + 1, dtype=np.longdouble)  # j + 1
    order = np.longdouble(w.params[0]) if w.params else None
    if w.kind == "log":
        return 1 / j1
    if w.kind == "ualpha":
        return j1 ** (order - 1)
    if w.kind == "cesaro":
        factors = np.ones(count, dtype=np.longdouble)
        factors[1:] = (j1[:-1] + order - 1) / j1[:-1]
        return np.cumprod(factors)
    assert w.kind == "vlog", w.kind
    q = np.empty(count, dtype=np.longdouble)
    q[0] = order
    q[1:] = 1 / np.log(j1[1:])
    return q


def coset_error(coset: np.ndarray, exact: np.ndarray) -> float:
    return float(np.abs(coset.astype(exact.dtype) - exact).max())


@pytest.mark.parametrize("a", [1, 2, 3])
def test_quarter_cell_coset_is_the_exact_log_kernel(a):
    # the reference is exact: the log weights as rationals
    A = 1 << (2 * a)
    w = WeightFamily.logarithmic()
    q = np.array([Fraction(1, j + 1) for j in range(A)], dtype=object)
    exact = exact_coset(q, a)
    coset = _quarter_cell_coset(w.q_odd(A), a)
    err = max(abs(Fraction(float(x)) - y) for x, y in zip(coset, exact))
    assert err <= coset_bound(a), (a, float(err))


LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
ACCURACY_LABELS = ["log", "cesaro:0.25", "ualpha:0.3", "vlog", "cesaro:0.8"]


@pytest.mark.skipif(not LONGDOUBLE_IS_WIDER, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("label", ACCURACY_LABELS)
def test_quarter_cell_coset_is_near_the_exact_kernel(label):
    # differences of the weights keep the coset within the bound at every
    # a; differences of prefix sums lose about eps Q_A per coefficient: at
    # a = 10 that is 7.9e-9 (vlog) and 7.4e-9 (cesaro:0.8) against a
    # bound of 2.9e-11
    w = parse_family(label)
    top = 10
    q = longdouble_weights(w, 1 << (2 * top))
    for a in range(6, top + 1):
        exact = exact_coset(q, a)
        coset = _quarter_cell_coset(w.q_odd(1 << (2 * a)), a)
        assert coset_error(coset, exact) <= coset_bound(a), (a, coset_error(coset, exact))
    if label in ("vlog", "cesaro:0.8"):
        # the bound is not vacuous: the prefix sums' route misses it
        assert coset_error(quarter_cell_coset_from_Q(w, top), exact) > coset_bound(top)


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
    quarter = np.arange(3, r.size, 4)
    for j in range(1, r.size):
        on_cell = dirichlet_kernel(j, r).values[quarter]
        if j % 2 == 0:
            assert np.all(on_cell == 0), j
        else:
            assert np.array_equal(on_cell, -walsh_function(j, r).values[quarter]), j


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: kernel_lower_bound_check(WeightFamily.logarithmic(), [0]), PreconditionError),
        (
            lambda: block_kernel(WeightFamily.logarithmic(), 3, Resolution(3)),
            DegreeError,
        ),
        (lambda: quarter_cell_min(DyadicFunction.constant(1.0, Resolution(1))), DegreeError),
        (
            lambda: bounded_case_monitor(
                DyadicFunction.constant(0.0, Resolution(4)), WeightFamily.logarithmic(), 0.75
            ),
            PreconditionError,
        ),
        (lambda: lp_quasinorm(DyadicFunction.constant(1.0, Resolution(2)), -1.0), PreconditionError),
        (
            lambda: lp_quasinorm(DyadicFunction.constant(1.0, Resolution(2)), float("inf")),
            PreconditionError,
        ),
    ],
    ids=[
        "block-exponent",
        "too-few-bits",
        "quarter-cell-bits",
        "zero-function",
        "nonpositive-p",
        "infinite-p",
    ],
)
def test_library_failures_are_walshlab_errors(call, error):
    assert issubclass(error, WalshLabError)
    with pytest.raises(error):
        call()
