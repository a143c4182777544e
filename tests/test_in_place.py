"""The buffer-consuming twins against their copying wrappers.

Each wrapper is its twin run on a copy, so the two must agree bit for
bit.  Each twin reads its grid from its buffer, through the one check
``Resolution.of_buffer``: it refuses a buffer it cannot work on in place
before it writes to it, and one holding a NaN, whose result would not be
finite.
"""

import numpy as np
import pytest

from walshlab import (
    DyadicFunction,
    Resolution,
    analyze_in_place,
    bounded_case_monitor,
    bounded_case_monitor_in_place,
    fwht_forward,
    norlund_mean_in_place,
    norlund_mean_multiplier,
    parse_family,
    synthesize_in_place,
    weak_lp_in_place,
)

FAMILIES = ("fejer", "log", "cesaro:0.25")


def random_function(bits: int, seed: int) -> DyadicFunction:
    r = Resolution(bits)
    return DyadicFunction(r, np.random.default_rng(seed).standard_normal(r.size))


@pytest.mark.parametrize("bits", [1, 2, 17])
def test_analysis_in_place_matches_fwht_forward(bits):
    f = random_function(bits, 300 + bits)
    buffer = f.values.copy()
    spectrum = analyze_in_place(buffer)
    assert spectrum.coefficients is buffer
    assert not buffer.flags.writeable
    assert buffer.tobytes() == fwht_forward(f).coefficients.tobytes()


@pytest.mark.parametrize("label", FAMILIES)
@pytest.mark.parametrize("bits", [1, 2, 17])
def test_mean_in_place_matches_the_multiplier_mean(label, bits):
    f = random_function(bits, 400 + bits)
    spectrum = fwht_forward(f)
    w = parse_family(label)
    size = f.resolution.size
    for n in sorted({1, 2, size // 2 + 1, size - 3, size} & set(range(1, size + 1))):
        buffer = spectrum.coefficients.copy()
        buffer[n:] = 7.0  # zeroed by the twin, as the wrapper's zero padding is
        mean = norlund_mean_in_place(buffer, n, w)
        assert mean.values is buffer
        expect = norlund_mean_multiplier(spectrum, n, w).values
        assert buffer.tobytes() == expect.tobytes(), (label, bits, n)


@pytest.mark.parametrize("label", FAMILIES)
@pytest.mark.parametrize("bits", [1, 2, 17, 18])
def test_monitor_in_place_matches_the_monitor(label, bits):
    f = random_function(bits, 500 + bits)
    expect = bounded_case_monitor(f, parse_family(label), 0.75)
    got = bounded_case_monitor_in_place(f.values.copy(), parse_family(label), 0.75)
    assert got == expect
    assert [n for n, _ in got] == list(range(bits + 1))


def read_only() -> np.ndarray:
    a = np.ones(16)
    a.flags.writeable = False
    return a


def with_nan() -> np.ndarray:
    a = np.ones(16)
    a[1] = np.nan
    return a


BAD_BUFFERS = {
    "read-only": (read_only, "expected a writable contiguous array"),
    "strided": (lambda: np.ones(32)[::2], "expected a writable contiguous array"),
    "int64": (lambda: np.ones(16, dtype=np.int64), "expected a writable contiguous array"),
    "length-12": (lambda: np.ones(12), "expected a writable contiguous array"),
    "length-1": (lambda: np.ones(1), "expected a writable contiguous array"),
    "2-D": (lambda: np.ones((2, 8)), "expected a writable contiguous array"),
    "nan": (with_nan, "values must be finite"),
}

TWINS = {
    "analyze": analyze_in_place,
    "synthesize": synthesize_in_place,
    # order buffer.size, so a valid buffer holding a NaN reaches the synthesis
    "mean": lambda buffer: norlund_mean_in_place(buffer, buffer.size, parse_family("log")),
    "monitor": lambda buffer: bounded_case_monitor_in_place(buffer, parse_family("log"), 0.75),
    "weak_lp": lambda buffer: weak_lp_in_place(buffer, 0.75),
}


@pytest.mark.parametrize("twin", TWINS)
@pytest.mark.parametrize("bad", BAD_BUFFERS)
def test_twins_refuse_a_buffer_they_cannot_use(twin, bad):
    make, message = BAD_BUFFERS[bad]
    buffer = make()
    before = buffer.copy()
    with pytest.raises(ValueError, match=message):
        TWINS[twin](buffer)
    if bad != "nan":
        # refused before anything is written
        assert np.array_equal(buffer, before)
