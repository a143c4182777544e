"""Memory bounds of the full-grid paths, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call is the extra memory it holds at once.  Sizes are in arrays of the
grid's length.  A weight family keeps nothing but its parameters (a
custom family its weights), so every measurement counts the weights and
prefix sums it generates: a fresh array of Q_0..Q_n, made beside one
2^16-entry chunk of scratch, for each multiplier mean, and a chunked
stream of them for each `diverge` row.  The
CLI's `monitor`, `transform` and `mean` runs are measured after one run
on a 2-bit grid, so the argument parser and numpy's random module, which
numpy imports at first use, are not counted as grid memory.
The CLI's table encoder is bounded in MiB, since it holds one chunk of
rows as text whatever the table's length.
"""

import argparse
import tracemalloc

import numpy as np
import pytest

import walshlab.cli as cli
from walshlab import (
    CounterexampleConfig,
    DyadicFunction,
    Resolution,
    WeightFamily,
    dirichlet_kernel,
    divergence_experiment,
    fwht_forward,
    fwht_inverse,
    kernel_lower_bound_check,
    lp_quasinorm,
    maximal_function,
    norlund_mean_multiplier,
    parse_family,
    quarter_cell_min,
    validate_structure,
    walsh_function,
)

BITS = 16
BUILT_IN_FAMILIES = ("fejer", "log", "cesaro:0.25", "ualpha:0.3", "vlog")


def traced_peak(call) -> int:
    """Peak bytes held at once by what call() allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_function(bits: int) -> DyadicFunction:
    r = Resolution(bits)
    return DyadicFunction(r, np.random.default_rng(bits).standard_normal(r.size))


def test_multiplier_mean_peaks_at_two_arrays_and_a_chunk():
    # the zero-padded coefficients and the mean's own prefix sums, made
    # beside one 2^16-entry index chunk; the sums are dropped before the
    # butterfly takes its one-chunk scratch.  On 20 bits, so the chunk is
    # not a whole grid: measured 2.063 arrays (3.005 on 16 bits)
    f = random_function(20)
    spectrum = fwht_forward(f)
    w = WeightFamily.logarithmic()
    array_bytes = 8 * f.resolution.size
    peak = traced_peak(lambda: norlund_mean_multiplier(spectrum, f.resolution.size, w))
    assert peak <= 2 * array_bytes + (8 << 16) + (16 << 10), peak / array_bytes


def test_transform_peaks_are_at_most_2_6_arrays():
    f = random_function(BITS)
    spectrum = fwht_forward(f)
    array_bytes = 8 * f.resolution.size
    forward = traced_peak(lambda: fwht_forward(f))
    inverse = traced_peak(lambda: fwht_inverse(spectrum))
    assert forward <= 2.6 * array_bytes, forward / array_bytes
    assert inverse <= 2.6 * array_bytes, inverse / array_bytes


@pytest.mark.parametrize("build", [dirichlet_kernel, walsh_function])
def test_kernel_and_character_peaks_are_at_most_2_6_arrays(build):
    # one synthesis: the coefficient buffer becomes the result
    r = Resolution(BITS)
    peak = traced_peak(lambda: build(r.size - 1, r))
    assert peak <= 2.6 * 8 * r.size, peak / (8 * r.size)


def test_lp_quasinorm_holds_under_half_an_array():
    f = random_function(18)
    array_bytes = 8 * f.resolution.size
    peak = traced_peak(lambda: lp_quasinorm(f, 0.75))
    assert peak < 0.5 * array_bytes, peak / array_bytes


def test_maximal_function_peaks_at_most_1_6_arrays():
    # the result buffer holds the packed rank averages while they fold, so
    # only a chunk of |f| is held beside it
    f = random_function(BITS)
    array_bytes = 8 * f.resolution.size
    peak = traced_peak(lambda: maximal_function(f))
    assert peak <= 1.6 * array_bytes, peak / array_bytes


def test_divergence_experiment_peaks_at_most_1_3_arrays_cold():
    # cold: each row streams its own prefix sums a chunk at a time, so the
    # last row holds only its own cell buffer, which weak_lp_in_place sorts
    # once the quarter-cell floor has been read, and chunk-sized scratch;
    # no array of prefix sums is made, and no row lays out the widest
    # spectrum, a zero-padded multiplier or a sorted copy of its mean;
    # measured 1.25
    # (the stream's scratch chunk and its index chunk are 0.25 arrays here)
    w = WeightFamily.logarithmic()
    cfg = CounterexampleConfig(p=0.75, weights=w, alphas=(1, 3, 5, 7, 9))
    array_bytes = 8 << cfg.required_bits
    peak = traced_peak(lambda: divergence_experiment(cfg))
    assert peak <= 1.3 * array_bytes, peak / array_bytes


def test_cli_diverge_peaks_at_most_1_4_arrays_cold(tmp_path):
    # cold: the last row's cells and chunk-sized scratch, with no array
    # of prefix sums beside them; no row is built beside the one before it;
    # measured 1.27
    alphas = 9
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"family = log\np = 0.75\nalphas = 1..{alphas}\n")
    argv = ["diverge", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]
    array_bytes = 8 << (2 * alphas + 1)
    peak = traced_peak(lambda: cli.main(argv))
    assert peak <= 1.4 * array_bytes, peak / array_bytes


def cli_peak_arrays(argv, bits: int) -> float:
    """The traced peak of a CLI command on a grid of ``bits`` bits, in
    arrays of that grid, after one run on 2 bits has built the parser and
    numpy's lazily imported random module.  Both runs must exit 0, so a
    run that stops early cannot pass a bound on its small peak."""

    def run(n: int) -> int:
        return cli.main(argv[:1] + ["--n", str(n)] + argv[1:])

    assert run(2) == 0
    status = []
    peak = traced_peak(lambda: status.append(run(bits)))
    assert status == [0], status
    return peak / (8 << bits)


def test_cli_monitor_peaks_at_most_2_45_arrays_cold(tmp_path):
    # the spectrum in the input's own buffer, the half-size row N - 1 with
    # its half-size prefix sums, and a chunk of scratch; row N is made in
    # the spectrum's buffer beside its own sums; measured 2.25 arrays,
    # bounded at that plus 0.2
    peak = cli_peak_arrays(["monitor", "--out", str(tmp_path / "m.csv")], 18)
    assert peak <= 2.45, peak


def test_quarter_cell_min_holds_one_chunk():
    # |f| on the 3 mod 4 coset is taken a 2^16-cell chunk at a time, not
    # as a quarter-grid temporary
    f = random_function(20)
    array_bytes = 8 * f.resolution.size
    peak = traced_peak(lambda: quarter_cell_min(f))
    assert peak < 0.1 * array_bytes, peak / array_bytes


def test_prefix_sums_hold_their_array_and_one_chunk():
    # Q_array(n) writes the weights into its own fresh array a chunk at a
    # time and sums them there, so it peaks at that array and the chunk of
    # indices, and keeps only the array; Q(n) streams the same sums
    # through one scratch chunk beside the indices (measured 1.004 and
    # 2.004 chunks past those arrays)
    n = 1 << 20
    array_bytes = 8 * (n + 1)
    chunk_bytes = 8 << 16
    for label in BUILT_IN_FAMILIES:
        tracemalloc.start()
        try:
            w = parse_family(label)
            Q = w.Q_array(n)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert array_bytes <= held < 1.01 * array_bytes, (label, held / array_bytes)
        assert peak < array_bytes + 1.1 * chunk_bytes, (label, (peak - array_bytes) / chunk_bytes)
        del Q
        peak = traced_peak(lambda: w.Q(n))
        assert peak < 2.1 * chunk_bytes, (label, peak / chunk_bytes)


def test_cesaro_coset_differences_hold_a_quarter_and_two_chunks():
    # the running product is made a chunk at a time and only each chunk's
    # differences of odd-indexed weights are kept: a quarter of the count
    # and two chunks of scratch; measured 0.375 arrays
    count = 1 << 20
    w = parse_family("cesaro:0.25")
    peak = traced_peak(lambda: w.coset_differences(count))
    assert peak <= 0.45 * 8 * count, peak / (8 * count)


def test_custom_family_holds_its_weights_as_one_array():
    # the weights once, as float64, and no prefix sums until they are
    # asked for: about 8 bytes a weight, where Python floats would cost
    # 32 more; measured 1.0 arrays
    values = 1.0 / np.arange(1.0, 140_002.0)
    tracemalloc.start()
    try:
        w = WeightFamily.custom(values)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert w.Q(values.size) > 0.0
    assert held < 1.2 * 8 * values.size, held / (8 * values.size)


def test_kernel_check_holds_under_one_kernel_array():
    # cold: the 4^a/4 coset coefficients, made beside one chunk of
    # scratch as large as themselves, then F_A on its 2^(2a-2)-cell coset,
    # synthesized bottom-up and taken absolute in their own buffer, each
    # narrower row's |F_A| in a copy; the 2^(2a+1)-cell window would be 2
    # arrays of 4^a cells, and no prefix sums are grown; measured 0.502,
    # bounded at 0.61.  cesaro's coefficients are made beside a whole
    # 2^16-entry weight chunk and its index chunk, which outweigh them at
    # a = 8: measured 2.254, bounded at that plus 0.1
    a = 8
    array_bytes = 8 << (2 * a)
    for label in BUILT_IN_FAMILIES:
        w = parse_family(label)
        bound = 2.36 if w.kind == "cesaro" else 0.61
        peak = traced_peak(lambda: kernel_lower_bound_check(w, [a]))
        assert peak < bound * array_bytes, (label, peak / array_bytes)


def test_kernel_check_rows_share_one_coset_array():
    # the widest row's coefficients, a quarter of 4^10, are made once and
    # synthesized once, bottom-up, in their own buffer: each row is the
    # buffer's last 4^(a-1) entries, read before the next row's joins
    # overwrite it, and no row is copied; measured 0.313 arrays of 4^10,
    # and 0.376 for cesaro, whose coefficients are made beside two chunks
    array_bytes = 8 << 20
    for label in BUILT_IN_FAMILIES:
        w = parse_family(label)
        peak = traced_peak(lambda: kernel_lower_bound_check(w, range(1, 11)))
        assert peak <= 0.55 * array_bytes, (label, peak / array_bytes)


def test_structure_screen_reads_only_the_head():
    # a built-in family is screened on its 5-term head only, made by
    # q_array: no weights or prefix sums of the whole window
    n_max = 1 << 20
    w = WeightFamily.logarithmic()
    peak = traced_peak(lambda: validate_structure(w, n_max))
    assert peak < 64 << 10, peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_streams_a_large_table(fmt, tmp_path):
    values = random_function(BITS).values
    args = argparse.Namespace(format=fmt, full_precision=False, out=str(tmp_path / "t"))
    data = (range(values.size), values)
    peak = traced_peak(lambda: cli._emit(args, ("index", "value"), data, {"n": BITS}))
    assert peak < 4 << 20, peak / (1 << 20)


def test_cli_transform_streams_its_rows(tmp_path):
    # the cells become Python floats one chunk of rows at a time, and the
    # spectrum is made in the input's own buffer, so the run holds one
    # grid array and chunks, not a list of every cell (4 arrays alone);
    # measured 1.36 arrays, bounded at that plus 0.2
    spec = tmp_path / "spec.csv"
    peak = cli_peak_arrays(["transform", "--f", "rand", "--out", str(spec)], 18)
    assert peak <= 1.56, peak
    # that table read back as cells, and as coefficients (--inverse): the
    # numbers stream into one float64 array, with no list of Python
    # floats, and the butterfly runs in it; measured 1.36 and 1.35.  The
    # run above built the parser.
    for flags in (["--f", f"file:{spec}"], ["--inverse", "--f", f"file:{spec}"]):
        argv = ["transform", "--n", "18", *flags, "--out", str(tmp_path / "t.csv")]
        status = []
        peak = traced_peak(lambda: status.append(cli.main(argv))) / (8 << 18)
        assert status == [0] and peak <= 1.56, (flags, status, peak)


def test_cli_mean_streams_its_rows(tmp_path):
    # the spectrum and then the mean are made in the input's own buffer,
    # beside the mean's own prefix sums, and the rows are streamed as
    # transform's are; measured 2.25 arrays, bounded at that plus 0.2
    argv = ["mean", "--f", "rand", "--family", "log", "--out", str(tmp_path / "m.csv")]
    peak = cli_peak_arrays(argv, 18)
    assert peak <= 2.45, peak
