"""Grid primitives: resolutions, step functions and the quarter cell."""

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


def test_quarter_cell_is_the_rank_two_cell_at_three():
    # the quarter cell I_2(e_0 + e_1) holds the indices congruent to 3
    # mod 4: a small value counts exactly when it sits on one of them
    r = Resolution(4)
    for i in range(r.size):
        values = np.full(r.size, 10.0)
        values[i] = -0.5
        got = quarter_cell_min(DyadicFunction(r, values))
        assert got == (0.5 if i in (3, 7, 11, 15) else 10.0), i


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


def test_constant_function():
    r = Resolution(3)
    f = DyadicFunction.constant(2.5, r)
    assert np.all(f.values == 2.5)
