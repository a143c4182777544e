"""Weight families, the structure screen, kappa constants, Nörlund means.

Mean oracles are literal: partial sums accumulated term by term and
weighted by the definition, never the multiplier identity under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab import (
    DEFAULT_VLOG_Q0,
    DyadicFunction,
    Resolution,
    WeightFamily,
    cesaro_kappa_threshold,
    dirichlet_kernel,
    fwht_forward,
    kappa,
    kernel_sum,
    norlund_mean_multiplier,
    norlund_mean_naive,
    norlund_multipliers,
    parse_family,
    partial_sum,
    ualpha_kappa_threshold,
    validate_structure,
)
from walshlab.errors import DegenerateWeightsError, DegreeError, ResourceCapError


ALL_FAMILIES = [
    WeightFamily.fejer(),
    WeightFamily.logarithmic(),
    WeightFamily.cesaro(0.5),
    WeightFamily.ualpha(0.3),
    WeightFamily.vlog(),
]


# --- generators -------------------------------------------------------------


def test_fejer_weights_are_constant_one():
    w = WeightFamily.fejer()
    assert np.array_equal(w.q_array(6), np.ones(6))
    assert w.Q(4) == 4.0


def test_logarithmic_weights():
    w = WeightFamily.logarithmic()
    assert np.allclose(w.q_array(4), [1.0, 0.5, 1 / 3, 0.25], atol=0)
    assert w.Q(3) == pytest.approx(1.0 + 0.5 + 1 / 3, abs=1e-15)


def test_cesaro_weights_are_shifted_A():
    # q_j = A_j^(alpha - 1) = Gamma(j + alpha) / (Gamma(j + 1) Gamma(alpha))
    for alpha in (0.25, 0.5):
        expect = [
            math.exp(math.lgamma(j + alpha) - math.lgamma(j + 1) - math.lgamma(alpha))
            for j in range(40)
        ]
        got = WeightFamily.cesaro(alpha).q_array(40)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)


def test_ualpha_weights_are_powers():
    w = WeightFamily.ualpha(0.3)
    expect = [(j + 1.0) ** (0.3 - 1.0) for j in range(5)]
    assert np.allclose(w.q_array(5), expect, atol=1e-15)


def test_vlog_weights_and_default_head():
    w = WeightFamily.vlog()
    assert w.q(0) == pytest.approx(DEFAULT_VLOG_Q0, abs=0)
    assert w.q(1) == pytest.approx(1.0 / math.log(2.0), abs=1e-15)
    assert w.q(4) == pytest.approx(1.0 / math.log(5.0), abs=1e-15)
    # the default head is the smallest value keeping (q0, q1, q2) convex
    assert DEFAULT_VLOG_Q0 == pytest.approx(
        2.0 / math.log(2.0) - 1.0 / math.log(3.0), abs=0
    )


def test_custom_family_and_validation():
    w = WeightFamily.custom([3.0, 2.0, 1.0])
    assert np.array_equal(w.q_array(3), [3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        WeightFamily.custom([1.0, -2.0])
    with pytest.raises(ValueError):
        WeightFamily.custom([])


def test_degenerate_normalizer_rejected():
    w = WeightFamily.custom([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateWeightsError):
        norlund_multipliers(w, 2)  # Q_2 = 0


def test_parse_family_round_trips_labels():
    for label in ("fejer", "log", "cesaro:0.25", "ualpha:0.3", "vlog"):
        w = parse_family(label)
        assert parse_family(w.label) == w
    with pytest.raises(ValueError):
        parse_family("spline:3")
    with pytest.raises(ValueError):
        parse_family("cesaro:1.5")


def test_parse_family_custom_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("4\n3\n2\n1\n")
    w = parse_family(f"custom:{path}")
    assert np.array_equal(w.q_array(4), [4.0, 3.0, 2.0, 1.0])


# --- structure screen -------------------------------------------------------


def test_structure_screen_passes_builtins():
    for w in ALL_FAMILIES:
        rep = validate_structure(w, 512)
        assert rep.ok, rep


def test_structure_screen_flags_increasing():
    rep = validate_structure(WeightFamily.custom([1.0, 2.0, 2.0, 2.0, 2.0]), 4)
    assert not rep.non_increasing
    assert not rep.ok


def test_structure_screen_flags_concave():
    rep = validate_structure(WeightFamily.custom([1.0, 0.9, 0.0, 0.0, 0.0]), 4)
    assert not rep.convex
    assert not rep.ok
    # flat, then a late drop: q_28 + q_32 < 2 q_30
    late_step = WeightFamily.custom([1.0] * 30 + [0.9] + [0.0] * 33)
    rep = validate_structure(late_step, 32)
    assert not rep.second_gap
    assert not rep.ok


# --- kappa ------------------------------------------------------------------


def test_weight_horizon_admits_the_largest_grid():
    # the 24-bit grid needs means of order 2^24 and the structure screen
    # reads one weight past its horizon; fresh families so the large
    # caches die with the test
    assert WeightFamily.fejer().Q(1 << 24) == float(1 << 24)
    with pytest.raises(ResourceCapError):
        WeightFamily.fejer().Q((1 << 24) + 2)
    assert validate_structure(WeightFamily.logarithmic(), 1 << 23).ok


def test_kappa_closed_forms():
    assert kappa(WeightFamily.logarithmic()).kappa == pytest.approx(0.125, abs=1e-15)
    assert kappa(WeightFamily.vlog()).kappa == pytest.approx(
        1.0 / (4.0 * math.log(2.0)), abs=1e-15
    )
    for alpha in (0.1, 0.25, 0.5, 0.55):
        got = kappa(WeightFamily.cesaro(alpha)).kappa
        assert got == pytest.approx(
            alpha * (2.0 - 3.0 * alpha - alpha * alpha) / 4.0, abs=1e-14
        )
    got = kappa(WeightFamily.ualpha(0.3)).kappa
    assert got == pytest.approx(2.0**-0.7 - 1.5 * 4.0**-0.7, abs=1e-15)
    assert kappa(WeightFamily.fejer()).kappa == pytest.approx(-0.5, abs=0)
    assert not kappa(WeightFamily.fejer()).positive


def test_kappa_thresholds():
    assert cesaro_kappa_threshold() == pytest.approx(
        (math.sqrt(17.0) - 3.0) / 2.0, abs=0
    )
    assert ualpha_kappa_threshold() == pytest.approx(2.0 - math.log2(3.0), abs=0)
    # positivity flips exactly at the threshold
    eps = 1e-6
    assert kappa(WeightFamily.cesaro(cesaro_kappa_threshold() - eps)).positive
    assert not kappa(WeightFamily.cesaro(cesaro_kappa_threshold() + eps)).positive
    assert kappa(WeightFamily.ualpha(ualpha_kappa_threshold() - eps)).positive
    assert not kappa(WeightFamily.ualpha(ualpha_kappa_threshold() + eps)).positive


# --- Nörlund means ----------------------------------------------------------


def test_fejer_multipliers_are_linear():
    got = norlund_multipliers(WeightFamily.fejer(), 4)
    assert np.allclose(got, [1.0, 0.75, 0.5, 0.25], atol=0)


def naive_mean_oracle(f, n, w):
    # literal definition: (1/Q_n) * sum_{k=1..n} q_(n-k) S_k f
    spectrum = fwht_forward(f)
    Qn = sum(w.q(j) for j in range(n))
    acc = np.zeros(f.resolution.size)
    for k in range(1, n + 1):
        acc += w.q(n - k) * partial_sum(spectrum, k).values
    return acc / Qn


@pytest.mark.parametrize("w", ALL_FAMILIES, ids=lambda w: w.label)
def test_multiplier_mean_matches_literal_definition(w):
    r = Resolution(4)
    rng = np.random.default_rng(7)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    spectrum = fwht_forward(f)
    for n in range(1, 17):
        got = norlund_mean_multiplier(spectrum, n, w).values
        expect = naive_mean_oracle(f, n, w)
        assert np.abs(got - expect).max() < 1e-12, (w.label, n)


@pytest.mark.parametrize("w", ALL_FAMILIES, ids=lambda w: w.label)
def test_incremental_naive_matches_multiplier(w):
    r = Resolution(5)
    rng = np.random.default_rng(8)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    spectrum = fwht_forward(f)
    for n in (1, 2, 3, 17, 32):
        a = norlund_mean_naive(f, n, w).values
        b = norlund_mean_multiplier(spectrum, n, w).values
        assert np.abs(a - b).max() < 1e-12


def test_mean_of_constant_is_constant():
    r = Resolution(6)
    f = DyadicFunction.constant(2.0, r)
    spectrum = fwht_forward(f)
    for w in ALL_FAMILIES:
        got = norlund_mean_multiplier(spectrum, 10, w).values
        assert np.abs(got - 2.0).max() < 1e-12


@given(st.integers(1, 16), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_mean_is_linear_in_f(n, seed):
    r = Resolution(4)
    rng = np.random.default_rng(seed)
    w = WeightFamily.logarithmic()
    a = rng.standard_normal(r.size)
    b = rng.standard_normal(r.size)
    sa = fwht_forward(DyadicFunction(r, a))
    sb = fwht_forward(DyadicFunction(r, b))
    sab = fwht_forward(DyadicFunction(r, a + b))
    lhs = norlund_mean_multiplier(sab, n, w).values
    rhs = norlund_mean_multiplier(sa, n, w).values + norlund_mean_multiplier(sb, n, w).values
    assert np.abs(lhs - rhs).max() < 1e-11


def test_mean_order_out_of_range():
    r = Resolution(3)
    spectrum = fwht_forward(DyadicFunction.constant(1.0, r))
    w = WeightFamily.fejer()
    with pytest.raises(DegreeError):
        norlund_mean_multiplier(spectrum, 0, w)
    with pytest.raises(DegreeError):
        norlund_mean_multiplier(spectrum, 9, w)


# --- kernel sums ------------------------------------------------------------


def kernel_sum_oracle(w, a, b, resolution):
    # direct accumulation of q_(b-j) D_j
    total = np.zeros(resolution.size)
    for j in range(a, b + 1):
        total += w.q(b - j) * dirichlet_kernel(j, resolution).values
    return total


@pytest.mark.parametrize("w", ALL_FAMILIES, ids=lambda w: w.label)
def test_kernel_sum_matches_accumulation(w):
    r = Resolution(5)
    for a, b in ((1, 1), (1, 8), (4, 8), (5, 27), (16, 32)):
        got = kernel_sum(w, a, b, r).values
        expect = kernel_sum_oracle(w, a, b, r)
        assert np.abs(got - expect).max() < 1e-11, (w.label, a, b)


def test_kernel_sum_rejects_bad_window():
    r = Resolution(3)
    w = WeightFamily.fejer()
    with pytest.raises(DegreeError):
        kernel_sum(w, 0, 4, r)
    with pytest.raises(DegreeError):
        kernel_sum(w, 5, 4, r)
    with pytest.raises(DegreeError):
        kernel_sum(w, 1, 9, r)
