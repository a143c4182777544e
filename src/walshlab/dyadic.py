"""The finite dyadic group and step functions on it.

Everything happens at a fixed resolution N: the group is {0,1}^N under
coordinatewise addition mod 2, encoded as integers 0..2^N-1 with
coordinate x_k = bit k of the index (x_0 least significant).  Normalized
Haar measure gives each index mass 2^-N, so integrals are plain means.
Addition of encoded points is bitwise XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError

__all__ = [
    "MAX_RESOLUTION_BITS",
    "QUARTER_CELL",
    "Resolution",
    "DyadicCell",
    "DyadicFunction",
    "cell_indices",
]

# 2^24 cells (128 MiB of float64 per function) is the largest grid allowed.
MAX_RESOLUTION_BITS = 24


@dataclass(frozen=True, slots=True)
class Resolution:
    """Grid resolution; the group is sampled on ``2**bits`` cells."""

    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise TypeError(f"resolution bits must be an integer, got {self.bits!r}")
        if self.bits < 1:
            raise ValueError(f"resolution needs at least 1 bit, got {self.bits}")
        if self.bits > MAX_RESOLUTION_BITS:
            raise ResourceCapError(
                f"resolution of {self.bits} bits exceeds the cap of "
                f"{MAX_RESOLUTION_BITS} (2^{MAX_RESOLUTION_BITS} cells)"
            )

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def cell_measure(self) -> float:
        return 2.0**-self.bits


@dataclass(frozen=True, slots=True)
class DyadicCell:
    """Dyadic interval: all points sharing the first ``rank`` coordinates.

    ``prefix`` packs those shared coordinates into the low ``rank`` bits.
    A cell of rank n has Haar measure 2^-n at every resolution >= n.
    """

    rank: int
    prefix: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"cell rank must be >= 0, got {self.rank}")
        if not 0 <= self.prefix < (1 << self.rank):
            raise ValueError(f"prefix {self.prefix} needs more than {self.rank} bits")

    @property
    def measure(self) -> float:
        return 2.0**-self.rank


# The probe cell with both leading coordinates equal to 1 (measure 1/4);
# kernel lower bounds and the divergence construction are evaluated on it.
QUARTER_CELL = DyadicCell(rank=2, prefix=3)


class DyadicFunction:
    """A real step function sampled on every cell of a grid.

    Values are stored as a read-only float64 array of length 2^N; the
    array is copied on construction so instances are immutable and safe
    to share.
    """

    __slots__ = ("resolution", "values")

    resolution: Resolution
    values: np.ndarray

    def __init__(self, resolution: Resolution, values) -> None:
        arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if arr.shape != (resolution.size,):
            raise ValueError(
                f"expected {resolution.size} values for a {resolution.bits}-bit "
                f"grid, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicFunction is immutable")

    @classmethod
    def constant(cls, value: float, resolution: Resolution) -> "DyadicFunction":
        return cls(resolution, np.full(resolution.size, float(value)))

    def __repr__(self) -> str:
        return f"DyadicFunction(bits={self.resolution.bits})"


def cell_indices(cell: DyadicCell, resolution: Resolution) -> np.ndarray:
    """Indices of all grid cells lying inside the dyadic interval."""
    if cell.rank > resolution.bits:
        raise ValueError("cell is finer than the resolution")
    step = 1 << cell.rank
    return cell.prefix + step * np.arange(resolution.size // step)
