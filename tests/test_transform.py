"""Transform layer against slow, direct oracles.

The oracle for every test here is the definition itself: w_n(x) is the
parity sign of popcount(n AND x), analysis coefficients are plain means
against characters, and kernels are literal sums of characters.  Nothing
below reuses the butterfly code being tested.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab import (
    DyadicFunction,
    Resolution,
    WalshSpectrum,
    dirichlet_kernel,
    fwht_forward,
    fwht_inverse,
    partial_sum,
    walsh_function,
)
from walshlab.errors import DegreeError


def sign_oracle(n: int, x: int) -> int:
    # (-1)^(number of shared set bits); int so no uint8 wraparound
    return 1 - 2 * (bin(n & x).count("1") & 1)


def walsh_matrix(bits: int) -> np.ndarray:
    size = 1 << bits
    return np.array(
        [[sign_oracle(n, x) for x in range(size)] for n in range(size)],
        dtype=np.int64,
    )


def test_walsh_function_rows_match_matrix():
    r = Resolution(4)
    W = walsh_matrix(4)
    for n in range(16):
        assert np.array_equal(walsh_function(n, r).values, W[n])


def test_characters_multiply_under_group_add():
    # the group operation is XOR of indices: w_n(a + b) = w_n(a) w_n(b)
    r = Resolution(5)
    idx = np.arange(r.size)
    xor_table = idx[:, None] ^ idx[None, :]
    for n in range(r.size):
        w = walsh_function(n, r).values
        assert np.array_equal(w[xor_table], np.outer(w, w)), n


def test_forward_matches_direct_analysis():
    # direct analysis: f_hat(n) = mean over x of f(x) w_n(x)
    r = Resolution(6)
    rng = np.random.default_rng(42)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    W = walsh_matrix(6)
    direct = (W @ f.values) / r.size
    got = fwht_forward(f).coefficients
    assert np.abs(got - direct).max() < 1e-13


def test_inverse_matches_direct_synthesis():
    r = Resolution(6)
    rng = np.random.default_rng(43)
    coeffs = rng.standard_normal(r.size)
    W = walsh_matrix(6)
    direct = W.T @ coeffs
    got = fwht_inverse(WalshSpectrum(r, coeffs)).values
    assert np.abs(got - direct).max() < 1e-13


def test_transform_pair_exact_on_integer_inputs():
    # integer inputs keep every butterfly sum exact, and the 2^-N scaling
    # is exact too, so both directions must equal the matrix products
    rng = np.random.default_rng(47)
    for bits in range(1, 9):
        r = Resolution(bits)
        W = walsh_matrix(bits)
        values = rng.integers(-1000, 1001, size=r.size)
        forward = fwht_forward(DyadicFunction(r, values)).coefficients
        assert np.array_equal(forward, (W @ values) / r.size), bits
        inverse = fwht_inverse(WalshSpectrum(r, values)).values
        assert np.array_equal(inverse, (W.T @ values).astype(np.float64)), bits


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_round_trip_recovers_values(seed):
    r = Resolution(7)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(r.size)
    back = fwht_inverse(fwht_forward(DyadicFunction(r, values))).values
    assert np.abs(back - values).max() < 1e-12


def test_parseval():
    r = Resolution(8)
    rng = np.random.default_rng(44)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    c = fwht_forward(f).coefficients
    assert np.sum(c**2) == pytest.approx(np.mean(f.values**2), rel=1e-13)


def test_spectrum_of_character_is_delta():
    r = Resolution(5)
    got = fwht_forward(walsh_function(13, r)).coefficients
    expected = np.zeros(32)
    expected[13] = 1.0
    assert np.array_equal(got, expected)


def test_partial_sum_prefix_synthesis():
    r = Resolution(5)
    rng = np.random.default_rng(45)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    spectrum = fwht_forward(f)
    W = walsh_matrix(5)
    for n in (1, 2, 7, 31, 32):
        direct = W[:n].T @ spectrum.coefficients[:n]
        got = partial_sum(spectrum, n).values
        assert np.abs(got - direct).max() < 1e-13


def test_partial_sum_at_powers_of_two_is_cell_average():
    # S_(2^m) f averages f over rank-m cells
    r = Resolution(6)
    rng = np.random.default_rng(46)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    spectrum = fwht_forward(f)
    for m in range(7):
        blk = 1 << m
        avg = f.values.reshape(-1, blk).mean(axis=0)
        got = partial_sum(spectrum, blk).values
        assert np.abs(got - np.tile(avg, r.size // blk)).max() < 1e-13


def test_partial_sum_range():
    r = Resolution(3)
    spectrum = fwht_forward(DyadicFunction.constant(1.0, r))
    assert np.array_equal(partial_sum(spectrum, 0).values, np.zeros(8))
    with pytest.raises(DegreeError):
        partial_sum(spectrum, 9)
    with pytest.raises(DegreeError):
        partial_sum(spectrum, -1)


def dirichlet_oracle(n: int, bits: int) -> np.ndarray:
    # literal sum of the first n characters
    W = walsh_matrix(bits)
    return W[:n].sum(axis=0)


def test_dirichlet_exact_for_all_orders_small():
    bits = 5
    r = Resolution(bits)
    for n in range(1, (1 << bits) + 1):
        got = dirichlet_kernel(n, r).values
        assert np.array_equal(got, dirichlet_oracle(n, bits).astype(np.float64)), n


def test_dirichlet_power_of_two_closed_form():
    r = Resolution(6)
    for k in range(7):
        n = 1 << k
        got = dirichlet_kernel(n, r).values
        idx = np.arange(r.size)
        expected = np.where(idx % n == 0, float(n), 0.0)
        assert np.array_equal(got, expected)


def test_dirichlet_l1_norm_of_d4_is_one():
    # integral of |D_4| = 4 * (1/4) = 1
    r = Resolution(4)
    assert np.abs(dirichlet_kernel(4, r).values).mean() == pytest.approx(1.0)
