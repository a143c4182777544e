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
    complete_synthesis_in_place,
    dirichlet_kernel,
    fwht_forward,
    fwht_inverse,
    synthesize_in_place,
    walsh_function,
)
from walshlab import transform
from walshlab.errors import DegreeError

from oracles import butterfly, dirichlet_by_blocks, partial_sum, sign_table


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


@pytest.mark.parametrize(
    "kind, bits",
    [(kind, bits) for kind in ("random", "integer") for bits in (*range(1, 19), 20)]
    + [(kind, bits) for kind in ("gapped", "negzero") for bits in range(17, 21)]
    + [("random", 19), ("random", 21), ("gapped", 21)],
)
def test_blocked_butterfly_matches_whole_array_passes(kind, bits):
    # up to 16 bits the butterfly runs in constant geometry, one stage per
    # bit between the grid and a scratch buffer, so an odd bit count ends
    # in the scratch buffer; above 16 bits it runs each 2^16-cell chunk so
    # and the wider strides by halves, copying the lower half into an
    # all-zero upper half (17, 19 and 21 bits make an odd number of wide
    # strides); it must still perform exactly the additions of whole-array
    # passes
    r = Resolution(bits)
    rng = np.random.default_rng(bits)
    if kind == "integer":
        values = rng.integers(-1000, 1001, size=r.size).astype(np.float64)
    else:
        values = rng.standard_normal(r.size)
    if kind in ("gapped", "negzero"):
        # random 2^14-cell blocks between zero gaps, the last block a gap:
        # some upper halves are all zero, and others end in a zero
        blocks = values.reshape(-1, 1 << 14)
        blocks[rng.random(len(blocks)) < 0.5] = 0.0
        blocks[-1] = 0.0
    if kind == "negzero":
        zeros = np.flatnonzero(values == 0.0)
        values[zeros[rng.random(zeros.size) < 0.5]] = -0.0
    expect = butterfly(values)
    got = fwht_inverse(WalshSpectrum(r, values)).values
    forward = fwht_forward(DyadicFunction(r, values)).coefficients
    if kind == "negzero":
        # a -0.0 input may change the sign of a zero, and nothing else
        assert np.array_equal(got, expect)
        assert np.array_equal(forward, expect / r.size)
    else:
        assert got.tobytes() == expect.tobytes()
        assert forward.tobytes() == (expect / r.size).tobytes()


@pytest.mark.parametrize(
    "kind, bits",
    [("random", bits) for bits in range(1, 19)] + [("zero-upper", bits) for bits in (2, 16, 17, 18)],
)
def test_completed_synthesis_is_the_synthesis(kind, bits):
    # the upper half synthesized on its own, then the lower half and the
    # last stride by the completion, is the whole buffer's synthesis bit
    # for bit: at 16 bits and below that synthesis runs in constant
    # geometry, above it by halves, and an all-zero upper half is copied
    # from the lower one instead
    size = 1 << bits
    rng = np.random.default_rng(600 + bits)
    coefficients = rng.standard_normal(size)
    if kind == "zero-upper":
        coefficients[size // 2 :] = 0.0
    buffer = coefficients.copy()
    if size > 2:  # one coefficient is its own synthesis
        synthesize_in_place(buffer[size // 2 :].view())
    complete_synthesis_in_place(buffer)
    expect = synthesize_in_place(coefficients.copy()).values
    assert buffer.tobytes() == expect.tobytes()
    assert buffer.tobytes() == butterfly(coefficients).tobytes()


def test_sparse_synthesis_passes_stay_within_one_chunk(monkeypatch):
    # D_(2^10) has coefficients only in the first 2^16-cell chunk of the
    # 20-bit grid, so every upper half above it is all zero and copied:
    # the stages and passes touch no more cells than the 16 stages of
    # that chunk
    touched = []
    run_stage, run_pass = transform._stage, transform._pass

    def counting_stage(x, y):
        touched.append(x.size)
        run_stage(x, y)

    def counting_pass(top, bottom, diff):
        touched.append(top.size + bottom.size)
        run_pass(top, bottom, diff)

    monkeypatch.setattr(transform, "_stage", counting_stage)
    monkeypatch.setattr(transform, "_pass", counting_pass)
    r = Resolution(20)
    got = dirichlet_kernel(1 << 10, r).values.tobytes()
    assert 0 < sum(touched) <= 16 << 16, sum(touched)
    assert got == dirichlet_by_blocks(1 << 10, r).values.tobytes()


def test_spectrum_constructor_copies_its_input():
    r = Resolution(3)
    coeffs = np.arange(8.0)
    spectrum = WalshSpectrum(r, coeffs)
    coeffs[0] = 99.0
    assert spectrum.coefficients[0] == 0.0
    with pytest.raises(ValueError):
        spectrum.coefficients[1] = 5.0


def test_spectrum_adopt_wraps_without_copy_and_keeps_the_checks():
    r = Resolution(3)
    buffer = np.arange(8.0)
    spectrum = WalshSpectrum.adopt(r, buffer)
    assert spectrum.coefficients is buffer
    assert not buffer.flags.writeable
    with pytest.raises(ValueError):
        spectrum.coefficients[0] = 1.0
    # the same refusals as the constructor, with the same messages
    for bad in (np.zeros(5), np.array([0.0, np.nan, 0, 0, 0, 0, 0, 0])):
        with pytest.raises(ValueError) as public:
            WalshSpectrum(r, bad)
        with pytest.raises(ValueError) as adopted:
            WalshSpectrum.adopt(r, bad.copy())
        assert str(adopted.value) == str(public.value)
    with pytest.raises(TypeError):
        WalshSpectrum.adopt(r, np.arange(8))
    with pytest.raises(TypeError):
        WalshSpectrum.adopt(r, np.zeros((2, 4)))


def _outcome(make, r, x):
    # the stored array's dtype and bytes, or the refusal's type and message
    try:
        made = make(r, x)
    except Exception as exc:
        return type(exc), str(exc)
    stored = made.values if isinstance(made, DyadicFunction) else made.coefficients
    return stored.dtype, stored.tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros(5),
        np.array([0.0, np.nan, 0, 0, 0, 0, 0, 0]),
        np.array([0.0, 0, 0, np.inf, 0, 0, 0, 0]),
        np.arange(8),
        np.zeros((2, 4)),
    ],
    ids=["wrong-length", "nan", "inf", "int64", "2-D"],
)
def test_spectrum_and_function_share_one_array_rule(bad):
    # coefficients are checked by DyadicFunction's rules, with its messages
    r = Resolution(3)
    assert _outcome(WalshSpectrum, r, bad) == _outcome(DyadicFunction, r, bad)
    adopted = _outcome(WalshSpectrum.adopt, r, bad.copy())
    assert adopted == _outcome(DyadicFunction.adopt, r, bad.copy())
    assert adopted[0] in (TypeError, ValueError)


def test_synthesis_consumes_its_buffer():
    r = Resolution(4)
    rng = np.random.default_rng(48)
    coeffs = rng.standard_normal(r.size)
    expect = fwht_inverse(WalshSpectrum(r, coeffs)).values
    buffer = coeffs.copy()
    g = synthesize_in_place(buffer)
    assert g.values is buffer
    assert g.resolution == r
    assert np.array_equal(g.values, expect)
    assert not buffer.flags.writeable
    # the buffer's length is its grid: 8 entries are 3 bits, 12 are none
    assert synthesize_in_place(np.zeros(8)).resolution == Resolution(3)
    with pytest.raises(ValueError):
        synthesize_in_place(np.zeros(12))
    with pytest.raises(ValueError):
        synthesize_in_place(np.zeros(16, dtype=np.int64))
    # a strided view or a read-only buffer cannot be transformed in place
    with pytest.raises(ValueError):
        synthesize_in_place(np.zeros(32)[::2])
    with pytest.raises(ValueError):
        synthesize_in_place(buffer)


def test_synthesis_refuses_an_overflowing_result():
    # finite coefficients whose butterfly sums overflow to inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        synthesize_in_place(np.full(4, 1e308))


def test_transforms_leave_their_input_untouched():
    r = Resolution(17)
    rng = np.random.default_rng(49)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    before = f.values.copy()
    spectrum = fwht_forward(f)
    assert np.array_equal(f.values, before)
    coeffs = spectrum.coefficients.copy()
    first = fwht_inverse(spectrum)
    assert np.array_equal(spectrum.coefficients, coeffs)
    assert not spectrum.coefficients.flags.writeable
    assert np.array_equal(fwht_inverse(spectrum).values, first.values)


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
    # the integer oracle is held to the literal sum here, so the byte
    # tests below inherit it
    bits = 5
    r = Resolution(bits)
    for n in range(1, (1 << bits) + 1):
        literal = dirichlet_oracle(n, bits)
        assert np.array_equal(dirichlet_by_blocks(n, r).values, literal), n
        got = dirichlet_kernel(n, r).values
        assert np.array_equal(got, literal.astype(np.float64)), n


def test_dirichlet_power_of_two_closed_form():
    r = Resolution(6)
    for k in range(7):
        n = 1 << k
        got = dirichlet_kernel(n, r).values
        idx = np.arange(r.size)
        expected = np.where(idx % n == 0, float(n), 0.0)
        assert np.array_equal(got, expected)


# The butterfly synthesis must give the integer route's float64 bytes:
# byte equality also rules out a -0.0 where the integers give +0.0.


def test_dirichlet_bytes_match_blocks_for_every_order_to_10_bits():
    for bits in range(1, 11):
        r = Resolution(bits)
        for n in range(1, r.size + 1):
            got = dirichlet_kernel(n, r).values.tobytes()
            assert got == dirichlet_by_blocks(n, r).values.tobytes(), (bits, n)


@pytest.mark.parametrize("bits", [16, 20, 22])
def test_dirichlet_bytes_match_blocks_on_large_grids(bits):
    # above 16 bits the butterfly runs in 2^16-cell chunks; there the
    # powers are taken at the grid's ends and at the chunk's edge only,
    # as the integer route takes up to a second per order at 22 bits
    r = Resolution(bits)
    powers = range(1, bits) if bits <= 16 else (1, 15, 16, 17, bits - 1)
    orders = {1, 2, r.size - 1, r.size}
    orders |= {(1 << k) + d for k in powers for d in (-1, 1)}
    orders |= set(np.random.default_rng(bits).integers(1, r.size + 1, 5).tolist())
    for n in sorted(orders):
        got = dirichlet_kernel(n, r).values.tobytes()
        assert got == dirichlet_by_blocks(n, r).values.tobytes(), n


def test_walsh_function_bytes_match_sign_table_to_8_bits():
    for bits in range(1, 9):
        r = Resolution(bits)
        for n in range(r.size):
            expect = sign_table(n, r.size).astype(np.float64).tobytes()
            assert walsh_function(n, r).values.tobytes() == expect, (bits, n)


def test_dirichlet_l1_norm_of_d4_is_one():
    # integral of |D_4| = 4 * (1/4) = 1
    r = Resolution(4)
    assert np.abs(dirichlet_kernel(4, r).values).mean() == pytest.approx(1.0)
