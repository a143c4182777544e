"""Grid primitives: resolutions, cells and step functions."""

import numpy as np
import pytest

from walshlab import (
    QUARTER_CELL,
    DyadicCell,
    DyadicFunction,
    Resolution,
    cell_indices,
)
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
    assert QUARTER_CELL == DyadicCell(rank=2, prefix=3)
    assert QUARTER_CELL.measure == 0.25
    r = Resolution(4)
    # members of I_2(e_0 + e_1): indices congruent to 3 mod 4
    assert list(cell_indices(QUARTER_CELL, r)) == [3, 7, 11, 15]


def test_cell_indicator_integrates_to_measure():
    # the indicator of a rank-k cell is 1 on 2^(N-k) distinct grid cells,
    # so it integrates to 2^-k; every member shares the prefix in its
    # low k bits
    r = Resolution(6)
    for rank in range(0, 7):
        cell = DyadicCell(rank=rank, prefix=(1 << rank) - 1)
        idx = cell_indices(cell, r)
        assert idx.size * r.cell_measure == cell.measure
        assert np.all(idx % (1 << rank) == cell.prefix)
        assert np.unique(idx).size == idx.size


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
