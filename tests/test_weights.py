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
    WalshSpectrum,
    WeightFamily,
    cesaro_kappa_threshold,
    fwht_forward,
    kappa,
    norlund_mean_multiplier,
    parse_family,
    ualpha_kappa_threshold,
    validate_structure,
)
from walshlab.errors import DegenerateWeightsError, DegreeError, ResourceCapError
from walshlab.weights import MAX_WEIGHT_HORIZON

from oracles import (
    dirichlet_by_blocks,
    kernel_sum,
    norlund_mean_naive,
    partial_sum,
    prefix_sums_whole,
    weights_whole,
)


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


# counts on both sides of the 2^16-weight chunk seams, and a large one
GENERATOR_COUNTS = (1, 2, 3, 4, 5, 6, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                    3 * (1 << 16) + 10, 1 << 21)
# vlog:-0.0 and custom start with q_0 = -0.0, whose sign Q_1 keeps
GENERATOR_FAMILIES = ("fejer", "log", "cesaro:0.25", "cesaro:0.8", "ualpha:0.3", "vlog",
                      "vlog:2.0", "vlog:-0.0", "custom")


def generator_family(label: str) -> WeightFamily:
    if label == "custom":
        values = 1.0 / np.sqrt(np.arange(1.0, (1 << 21) + 1.0))
        values[0] = -0.0
        return WeightFamily.custom(values)
    return parse_family(label)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("label", GENERATOR_FAMILIES)
def test_chunked_generation_matches_the_whole_array_oracle(label):
    # q_array, q_odd and a cold Q_array against one whole-array generation
    # and one cumsum, bit for bit
    for count in GENERATOR_COUNTS:
        w = generator_family(label)
        expect = weights_whole(w, count)
        assert same_bits(w.q_array(count), expect), (label, count)
        if count % 2 == 0:
            odd = w.q_odd(count)
            assert same_bits(odd, weights_whole(w, count, odd=True)), (label, count)
            assert same_bits(odd, expect[count - 1 :: -2]), (label, count)
        assert same_bits(w.Q_array(count), prefix_sums_whole(w, count)), (label, count)


@pytest.mark.parametrize("label", GENERATOR_FAMILIES)
def test_regrown_cache_matches_the_whole_array_oracle(label):
    # one family asked for a short prefix and then a long one: each is
    # made whole, with nothing kept from the call before
    w = generator_family(label)
    assert same_bits(w.Q_array(10), prefix_sums_whole(w, 10)), label
    assert same_bits(w.Q_array(1 << 20), prefix_sums_whole(w, 1 << 20)), label


STREAM_COUNTS = (1, 2, 3, 4, 5, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5)
STREAM_FAMILIES = ("fejer", "log", "cesaro:0.25", "cesaro:0.8", "ualpha:0.3", "vlog", "custom")


@pytest.mark.parametrize("label", STREAM_FAMILIES)
def test_prefix_sum_stream_matches_the_cache(label):
    # Q_1..Q_count streamed into scratch and into a caller's array, each
    # against one cumsum of the whole-array weights, bit for bit
    w = generator_family(label)
    for count in STREAM_COUNTS:
        expect = prefix_sums_whole(w, count)[1:]
        streamed = np.empty(count)
        scratch = set()
        for start, chunk in w.Q_chunks(count):
            assert chunk.size == min(1 << 16, count - start), (label, count, start)
            scratch.add(chunk.__array_interface__["data"][0])
            streamed[start : start + chunk.size] = chunk
        assert len(scratch) == 1, (label, count)  # one chunk, reused
        assert same_bits(streamed, expect), (label, count)
        out = np.empty(count)
        starts = [start for start, chunk in w.Q_chunks(count, out)]
        assert starts == list(range(0, count, 1 << 16)), (label, count)
        assert same_bits(out, expect), (label, count)


def test_prefix_sum_stream_refuses_what_the_cache_refuses():
    with pytest.raises(ResourceCapError):
        next(WeightFamily.logarithmic().Q_chunks((1 << 24) + 1))
    with pytest.raises(DegreeError, match="defines only 3 weights"):
        next(WeightFamily.custom([1.0, 0.5, 0.25]).Q_chunks(4))


def test_families_refuse_parameters_out_of_range():
    with pytest.raises(ValueError, match="ualpha order must lie in"):
        WeightFamily.ualpha(1.5)
    with pytest.raises(ValueError, match="vlog q0 must be finite and >= 0"):
        WeightFamily.vlog(-1)


def test_weight_access_refuses_negative_indices():
    w = WeightFamily.logarithmic()
    with pytest.raises(ValueError, match="weight index must be >= 0"):
        w.q(-1)
    with pytest.raises(ValueError, match="prefix length must be >= 0"):
        w.Q_array(-1)


def test_custom_family_and_validation():
    w = WeightFamily.custom([3.0, 2.0, 1.0])
    assert np.array_equal(w.q_array(3), [3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        WeightFamily.custom([1.0, -2.0])
    with pytest.raises(ValueError):
        WeightFamily.custom([])


def test_custom_families_compare_and_hash_by_value():
    values = [1.0, 0.5, 0.0]
    w = WeightFamily.custom(values)
    same = [
        WeightFamily.custom(np.array(values)),
        WeightFamily.custom((1, 0.5, 0)),
        WeightFamily.custom([1.0, 0.5, -0.0]),  # -0.0 == 0.0
    ]
    for other in same:
        assert other == w and hash(other) == hash(w)
    assert len({w, *same}) == 1
    for other in (WeightFamily.custom([1.0, 0.5]), WeightFamily.custom([1.0, 0.5, 0.25])):
        assert other != w
    assert w != WeightFamily.logarithmic() and w.label == "custom"


def test_custom_family_keeps_its_own_weights():
    # the family copies the values it is given, and hands out fresh copies
    values = np.array([3.0, 2.0, 1.0])
    w = WeightFamily.custom(values)
    values[0] = 9.0
    q = w.q_array(3)
    q[1] = 9.0
    assert np.array_equal(w.q_array(3), [3.0, 2.0, 1.0])
    assert w.Q(3) == 6.0


def test_degenerate_normalizer_rejected():
    w = WeightFamily.custom([0.0, 0.0, 1.0])
    spectrum = fwht_forward(DyadicFunction.constant(1.0, Resolution(2)))
    with pytest.raises(DegenerateWeightsError):
        norlund_mean_multiplier(spectrum, 2, w)  # Q_2 = 0


def test_parse_family_round_trips_labels():
    for label in ("fejer", "log", "cesaro:0.25", "ualpha:0.3", "vlog"):
        w = parse_family(label)
        assert parse_family(w.label) == w
    for bad in ("spline:3", "cesaro:1.5", "log:3", "fejer:abc"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_parse_family_custom_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("4\n3\n2\n1\n")
    w = parse_family(f"custom:{path}")
    assert np.array_equal(w.q_array(4), [4.0, 3.0, 2.0, 1.0])


def test_parse_family_custom_needs_a_path():
    with pytest.raises(ValueError, match="custom needs a file path"):
        parse_family("custom:")


# --- structure screen -------------------------------------------------------


def test_structure_screen_needs_two_weights():
    with pytest.raises(ValueError, match="n_max >= 2"):
        validate_structure(WeightFamily.logarithmic(), 1)


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


def screen_oracle(q):
    # the three screens over the whole prefix at once
    tol = 1e-12
    return (
        bool(np.all(np.diff(q) <= tol)),
        bool(np.all(q[:-2] + q[2:] - 2.0 * q[1:-1] >= -tol)),
        bool(np.all(q[:-4] + q[4:] - 2.0 * q[2:-2] >= -tol)),
    )


@pytest.mark.parametrize("factor", [1.5, 0.5])
def test_structure_screen_sees_defects_at_chunk_seams(factor):
    # a custom prefix is screened whole: a defect anywhere in a long one,
    # at the ends or on and next to multiples of 2^16, is seen as by the
    # whole-array oracle
    base = 1.0 / np.arange(1.0, 140_002.0)
    for pos in (65532, 65534, 65535, 65536, 65537, 65539, 65540, 131071, 131072,
                131075, 139_999, 140_000):
        q = base.copy()
        q[pos] *= factor
        rep = validate_structure(WeightFamily.custom(q), q.size - 1)
        expect = screen_oracle(q)
        assert (rep.non_increasing, rep.convex, rep.second_gap) == expect, (pos, factor)
        assert not all(expect), (pos, factor)


# every built-in family whose structure validate_structure proves, with the
# orders at both ends of (0, 1)
PROVED_FAMILIES = [
    "fejer",
    "log",
    "vlog",
    *(f"cesaro:{a}" for a in (0.05, 0.25, 0.5, 0.95)),
    *(f"ualpha:{a}" for a in (0.05, 0.3, 0.9)),
]


@pytest.mark.parametrize("label", PROVED_FAMILIES)
def test_structure_proof_holds_over_the_whole_horizon(label):
    # the numbers behind validate_structure's proof: every window of the
    # generated weights up to the horizon, screened by the oracle in
    # chunks overlapping by 4 terms so the temporaries stay small
    q = parse_family(label).q_array(MAX_WEIGHT_HORIZON)
    chunk = 1 << 20
    for start in range(0, q.size - 4, chunk):
        assert screen_oracle(q[start : start + chunk + 4]) == (True, True, True), (
            label, start)


@pytest.mark.parametrize(
    "q0, expect",
    [
        (DEFAULT_VLOG_Q0, (True, True, True)),
        (1.9, (True, False, True)),
        (1.3, (False, False, True)),
        (1.0, (False, False, False)),
    ],
)
def test_structure_screen_reads_the_vlog_head(q0, expect):
    # q_0 below the default breaks convexity at (q_0, q_1, q_2), below
    # q_1 = 1/ln 2 monotonicity, and below 2/ln 3 - 1/ln 5 the gap-2 window
    # (q_0, q_2, q_4); the head screen is what guards vlog
    w = WeightFamily.vlog(q0)
    for n_max in (4, 1 << 20):
        rep = validate_structure(w, n_max)
        assert (rep.non_increasing, rep.convex, rep.second_gap) == expect, (q0, n_max)
        assert rep.ok == all(expect)
    assert screen_oracle(w.q_array(64)) == expect


# --- kappa ------------------------------------------------------------------


def test_weight_horizon_admits_the_largest_grid():
    # the 24-bit grid needs means of order 2^24, which read Q_0..Q_(2^24);
    # Q streams them a chunk at a time
    assert WeightFamily.fejer().Q(1 << 24) == float(1 << 24)
    with pytest.raises(ResourceCapError):
        WeightFamily.fejer().Q((1 << 24) + 1)
    assert validate_structure(WeightFamily.logarithmic(), 1 << 23).ok


def test_huge_weight_horizon_is_named_by_its_length():
    with pytest.raises(ResourceCapError, match="of 3201 bits") as info:
        WeightFamily.logarithmic().Q(1 << 3200)
    assert len(str(info.value)) < 200, len(str(info.value))


def test_kappa_closed_forms():
    assert type(kappa(WeightFamily.logarithmic())) is float
    assert kappa(WeightFamily.logarithmic()) == pytest.approx(0.125, abs=1e-15)
    assert kappa(WeightFamily.vlog()) == pytest.approx(
        1.0 / (4.0 * math.log(2.0)), abs=1e-15
    )
    for alpha in (0.1, 0.25, 0.5, 0.55):
        got = kappa(WeightFamily.cesaro(alpha))
        assert got == pytest.approx(
            alpha * (2.0 - 3.0 * alpha - alpha * alpha) / 4.0, abs=1e-14
        )
    got = kappa(WeightFamily.ualpha(0.3))
    assert got == pytest.approx(2.0**-0.7 - 1.5 * 4.0**-0.7, abs=1e-15)
    assert kappa(WeightFamily.fejer()) == pytest.approx(-0.5, abs=0)


def test_kappa_thresholds():
    assert cesaro_kappa_threshold() == pytest.approx(
        (math.sqrt(17.0) - 3.0) / 2.0, abs=0
    )
    assert ualpha_kappa_threshold() == pytest.approx(2.0 - math.log2(3.0), abs=0)
    # positivity flips exactly at the threshold
    eps = 1e-6
    assert kappa(WeightFamily.cesaro(cesaro_kappa_threshold() - eps)) > 0.0
    assert kappa(WeightFamily.cesaro(cesaro_kappa_threshold() + eps)) < 0.0
    assert kappa(WeightFamily.ualpha(ualpha_kappa_threshold() - eps)) > 0.0
    assert kappa(WeightFamily.ualpha(ualpha_kappa_threshold() + eps)) < 0.0


# --- Nörlund means ----------------------------------------------------------


def test_fejer_multipliers_are_linear():
    # a flat spectrum comes back scaled by the multipliers Q_(n-j)/Q_n
    flat = WalshSpectrum(Resolution(2), np.ones(4))
    got = fwht_forward(norlund_mean_multiplier(flat, 4, WeightFamily.fejer())).coefficients
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


def test_means_leave_the_spectrum_untouched():
    r = Resolution(17)
    rng = np.random.default_rng(9)
    spectrum = fwht_forward(DyadicFunction(r, rng.standard_normal(r.size)))
    before = spectrum.coefficients.copy()
    w = WeightFamily.logarithmic()
    first = norlund_mean_multiplier(spectrum, 100_000, w)
    assert np.array_equal(spectrum.coefficients, before)
    assert np.array_equal(norlund_mean_multiplier(spectrum, 100_000, w).values, first.values)
    assert not first.values.flags.writeable


# --- kernel sums ------------------------------------------------------------


def kernel_sum_oracle(w, a, b, resolution):
    # direct accumulation of q_(b-j) D_j
    total = np.zeros(resolution.size)
    for j in range(a, b + 1):
        total += w.q(b - j) * dirichlet_by_blocks(j, resolution).values
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
