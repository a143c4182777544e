"""The finite dyadic group and step functions on it.

Everything happens at a fixed resolution N: the group is {0,1}^N under
coordinatewise addition mod 2, encoded as integers 0..2^N-1 with
coordinate x_k = bit k of the index (x_0 least significant).  Normalized
Haar measure gives each index mass 2^-N, so integrals are plain means.
Addition of encoded points is bitwise XOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeError, ResourceCapError

__all__ = [
    "MAX_RESOLUTION_BITS",
    "Resolution",
    "DyadicFunction",
    "quarter_cell_min",
]

# 2^24 cells (128 MiB of float64 per function) is the largest grid allowed.
MAX_RESOLUTION_BITS = 24

# the finiteness check and quarter_cell_min read this many cells at a time
_CHUNK = 1 << 16


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

    @classmethod
    def of_buffer(cls, buffer: np.ndarray) -> "Resolution":
        """The grid a buffer can be worked on in place as.  Anything but a
        writable, contiguous 1-D float64 array of 2^N entries, N >= 1, is
        refused with ValueError, and N past the cap with ResourceCapError.
        Its values are not read."""
        flags = buffer.flags
        size = buffer.size
        if (
            buffer.dtype != np.float64
            or buffer.ndim != 1
            or size < 2
            or size & (size - 1)
            or not (flags.c_contiguous and flags.writeable)
        ):
            raise ValueError(
                f"expected a writable contiguous array of 2^N float64 values, N >= 1, "
                f"got {buffer.dtype} of shape {buffer.shape}"
            )
        return cls(size.bit_length() - 1)


class DyadicFunction:
    """A real step function sampled on every cell of a grid.

    Values are stored as a read-only float64 array of length 2^N, so
    instances are immutable and safe to share.  There are two ways in:

    - ``DyadicFunction(resolution, values)`` copies ``values`` (any
      array-like), so later changes to the source do not leak in;
    - ``DyadicFunction.adopt(resolution, buffer)`` wraps a 1-D float64
      buffer the caller gives up, without a copy, for buffers built
      inside the library.

    Both check the length and that every value is finite, and both mark
    the stored array read-only.
    """

    __slots__ = ("resolution", "values")

    resolution: Resolution
    values: np.ndarray

    def __init__(self, resolution: Resolution, values) -> None:
        self._bind(resolution, np.array(values, dtype=np.float64, copy=True).reshape(-1))

    @classmethod
    def adopt(cls, resolution: Resolution, buffer: np.ndarray) -> "DyadicFunction":
        """Wrap ``buffer`` without a copy; the caller must not write to it
        again.  It must be a 1-D float64 array."""
        if not isinstance(buffer, np.ndarray) or buffer.dtype != np.float64 or buffer.ndim != 1:
            raise TypeError("adopt needs a 1-D float64 array")
        obj = object.__new__(cls)
        obj._bind(resolution, buffer)
        return obj

    def _bind(self, resolution: Resolution, arr: np.ndarray) -> None:
        if arr.shape != (resolution.size,):
            raise ValueError(
                f"expected {resolution.size} values for a {resolution.bits}-bit "
                f"grid, got {arr.shape[0]}"
            )
        # a chunk at a time, so the check holds no grid-sized mask
        for start in range(0, arr.size, _CHUNK):
            if not np.isfinite(arr[start : start + _CHUNK]).all():
                raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicFunction is immutable")

    @classmethod
    def constant(cls, value: float, resolution: Resolution) -> "DyadicFunction":
        return cls.adopt(resolution, np.full(resolution.size, float(value)))

    def __repr__(self) -> str:
        return f"DyadicFunction(bits={self.resolution.bits})"


def quarter_cell_min(f: DyadicFunction) -> float:
    """Minimum of |f| on the quarter cell, where both leading coordinates
    are 1: the indices congruent to 3 mod 4 (Haar measure 1/4).

    The divergence construction's floors are judged by this minimum; the
    kernel lower bound check reads its own quarter-cell coset instead.
    """
    if f.resolution.bits < 2:
        raise DegreeError(
            f"the quarter cell needs at least 2 bits, got {f.resolution.bits}"
        )
    coset = f.values[3::4]
    magnitudes = np.empty(min(coset.size, _CHUNK))
    least = math.inf
    # the min of floats is exact, so the chunks give the whole coset's min
    for start in range(0, coset.size, magnitudes.size):
        np.abs(coset[start : start + magnitudes.size], out=magnitudes)
        least = min(least, float(magnitudes.min()))
    return least
