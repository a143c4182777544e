"""Grid primitives: resolutions, step functions and the quarter cell."""

import math

import numpy as np
import pytest

from walshlab import DyadicFunction, Resolution, quarter_cell_min
from walshlab.errors import ResourceCapError


def test_resolution_size_and_measure():
    r = Resolution(5)
    assert r.size == 32
    assert r.cell_measure == 1.0 / 32


def test_resolution_rejects_bad_bits():
    with pytest.raises(ValueError):
        Resolution(-1)
    with pytest.raises(ResourceCapError):
        Resolution(25)


def test_resolution_rejects_non_integer_bits():
    # bool is an int subclass, but True is no bit count
    for bad in (2.5, True):
        with pytest.raises(TypeError, match="must be an integer"):
            Resolution(bad)


def test_quarter_cell_is_the_rank_two_cell_at_three():
    # the quarter cell I_2(e_0 + e_1) holds the indices congruent to 3
    # mod 4: a small value counts exactly when it sits on one of them
    r = Resolution(4)
    for i in range(r.size):
        values = np.full(r.size, 10.0)
        values[i] = -0.5
        got = quarter_cell_min(DyadicFunction(r, values))
        assert got == (0.5 if i in (3, 7, 11, 15) else 10.0), i


@pytest.mark.parametrize("bits", [2, 17, 18, 19])
def test_chunked_quarter_cell_min_equals_the_whole_coset_min(bits):
    # above 18 bits the coset spans several 2^16-cell chunks; the least
    # magnitude, placed in the last chunk, and a -0.0 must come out exact
    r = Resolution(bits)
    values = np.random.default_rng(bits).standard_normal(r.size) + 3.0
    values[-1] = -1e-300
    assert quarter_cell_min(DyadicFunction(r, values)) == float(np.abs(values[3::4]).min())
    values[3] = -0.0
    got = quarter_cell_min(DyadicFunction(r, values))
    assert math.copysign(1.0, got) == 1.0 and got == 0.0


def test_function_rejects_wrong_length_and_nonfinite():
    r = Resolution(2)
    with pytest.raises(ValueError):
        DyadicFunction(r, np.zeros(5))
    with pytest.raises(ValueError):
        DyadicFunction(r, np.array([0.0, np.inf, 0.0, 0.0]))


def test_function_values_are_read_only():
    r = Resolution(2)
    f = DyadicFunction(r, np.zeros(4))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_function_attributes_cannot_be_assigned():
    f = DyadicFunction.constant(1.0, Resolution(2))
    with pytest.raises(AttributeError, match="immutable"):
        f.values = np.zeros(4)


def test_constant_function():
    r = Resolution(3)
    f = DyadicFunction.constant(2.5, r)
    assert np.all(f.values == 2.5)


def test_constructor_copies_its_input():
    r = Resolution(2)
    values = np.array([1.0, 2.0, 3.0, 4.0])
    f = DyadicFunction(r, values)
    values[0] = 99.0
    assert f.values[0] == 1.0


def test_adopt_wraps_without_copy_and_keeps_the_checks():
    r = Resolution(2)
    buffer = np.array([1.0, 2.0, 3.0, 4.0])
    f = DyadicFunction.adopt(r, buffer)
    assert f.values is buffer
    with pytest.raises(ValueError):
        f.values[0] = 0.0
    # the same refusals as the constructor, with the same messages
    for bad in (np.zeros(5), np.array([0.0, np.inf, 0.0, 0.0])):
        with pytest.raises(ValueError) as public:
            DyadicFunction(r, bad)
        with pytest.raises(ValueError) as adopted:
            DyadicFunction.adopt(r, bad.copy())
        assert str(adopted.value) == str(public.value)
    with pytest.raises(TypeError):
        DyadicFunction.adopt(r, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TypeError):
        DyadicFunction.adopt(r, np.zeros((2, 2)))
