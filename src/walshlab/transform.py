"""Walsh-Paley characters, the fast transform, and Dirichlet kernels.

The Walsh function of index n in Paley enumeration is

    w_n(x) = (-1)^(number of shared 1-bits of n and x),

so w_0 = 1 and w_(2^k) is the Rademacher function r_k of coordinate k.
The family {w_n : n < 2^N} is an orthonormal basis of the step functions
at resolution N, and the analysis/synthesis pair is its own transpose:
a single in-place butterfly pass computes both directions, with the
forward direction carrying the 2^-N measure normalization.

A character w_n and a Dirichlet kernel D_n = sum_{k<n} w_k are the
synthesis of unit coefficients: at n, and at every index below n.  That
synthesis is exact in float64.  Each butterfly output is a +/-1-signed
sum of at most 2^N coefficients in {0, 1}, so it is an integer of
magnitude at most 2^N <= 2^24, which float64 holds exactly.  Nor can a
-0.0 appear: the butterfly only adds and subtracts values that start at
+0.0 or 1.0, and x - x is +0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFunction, Resolution
from .errors import DegreeError

__all__ = [
    "WalshSpectrum",
    "walsh_function",
    "fwht_forward",
    "fwht_inverse",
    "analyze_in_place",
    "synthesize_in_place",
    "dirichlet_kernel",
]


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Walsh coefficients f^(0..2^N-1) of a function at resolution N.

    The coefficients obey ``DyadicFunction``'s rules for values (2^N
    finite float64s, stored read-only) and are checked by them, with the
    same messages.  Like ``DyadicFunction`` it has two ways in: the
    constructor copies ``coefficients`` (any array-like), and
    ``WalshSpectrum.adopt(resolution, buffer)`` wraps a 1-D float64 buffer
    the caller gives up, without a copy.
    """

    resolution: Resolution
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        checked = DyadicFunction(self.resolution, self.coefficients).values
        object.__setattr__(self, "coefficients", checked)

    @classmethod
    def adopt(cls, resolution: Resolution, buffer: np.ndarray) -> "WalshSpectrum":
        """Wrap ``buffer`` without a copy; the caller must not write to it
        again.  It must be a 1-D float64 array."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "resolution", resolution)
        object.__setattr__(obj, "coefficients", DyadicFunction.adopt(resolution, buffer).values)
        return obj


def walsh_function(n: int, resolution: Resolution) -> DyadicFunction:
    """The Walsh character w_n on the whole grid: the synthesis of a unit
    coefficient at n.

    Exact in float64: every butterfly output is a +/-1-signed sum of
    coefficients in {0, 1}, so the cells hold +/-1.0, and no -0.0 arises
    from values that start at +0.0 or 1.0.
    """
    if not 0 <= n < resolution.size:
        raise DegreeError(f"character index {n} out of range for {resolution.bits} bits")
    coeffs = np.zeros(resolution.size)
    coeffs[n] = 1.0
    return synthesize_in_place(coeffs)


# The butterfly runs in chunks of _BLOCK cells or fewer, each in cache.
# Inside a chunk it runs in constant geometry: a stage writes the sums
# x[0::2] + x[1::2] into the low half and the differences x[0::2] - x[1::2]
# into the high half of a one-chunk scratch buffer, and the two buffers
# swap roles every stage.  A stage moves the cell at position p to p
# rotated right by one bit, so stage s combines the cells that differ in
# bit s of the original index, lower index on top, and after log2(size)
# stages the cells are back in natural order.  Each cell gets the same
# operands in the same order as in the stride-2^s pass, so the output is
# bit-identical to whole-array passes.  A larger grid runs by halves
# (_halves).  Chunks of 2^15, 2^17 and 2^18 cells ran slower at 20-21 bits
# on a 2-vCPU x86-64 VM.
_BLOCK = 1 << 16


def _butterfly(a: np.ndarray) -> None:
    # Walsh-Hadamard butterflies over bit strides 1, 2, 4, ... of a, in
    # place; natural order in equals Paley order out, no reindexing needed.
    _halves(a, np.empty(min(a.shape[0], _BLOCK)))


def _halves(a: np.ndarray, scratch: np.ndarray) -> None:
    # The butterfly of a, made of 2^k chunks of scratch.size cells.  A
    # chunk runs its stages in constant geometry.  Above one chunk it runs
    # the lower half, the upper half, then stride size/2 across them.  The
    # strides below size/2 act on each half alone, so every element meets
    # the same operands in the same order as in whole-array passes.
    #
    # An all-zero upper half is not synthesized; the lower half is copied
    # into it.  Its synthesis would be zeros, and stride size/2 pairs each
    # lower value x with one: x + 0 = x - 0 = x.  An exact cancellation
    # rounds to +0.0 and -0.0 arises only from -0.0 operands, so with no
    # -0.0 in the input the copy is bit-identical.  A -0.0 input can only
    # change the sign of a zero: -0.0 + 0.0 is +0.0 where the copy keeps
    # -0.0.  The last element is read first, so the zero test is O(1) on
    # dense data.
    size = a.shape[0]
    if size == scratch.size:
        x, y = a, scratch
        for _ in range(size.bit_length() - 1):
            _stage(x, y)
            x, y = y, x
        if x is not a:  # an odd number of stages ends in the scratch buffer
            np.copyto(a, x)
        return
    half = size // 2
    lower, upper = a[:half], a[half:]
    _halves(lower, scratch)
    if upper[-1] == 0.0 and not np.count_nonzero(upper):
        np.copyto(upper, lower)
        return
    _halves(upper, scratch)
    for j in range(0, half, scratch.size):
        _pass(lower[j : j + scratch.size], upper[j : j + scratch.size], scratch)


def _stage(x: np.ndarray, y: np.ndarray) -> None:
    # one constant-geometry stage: y <- (x[0::2] + x[1::2], x[0::2] - x[1::2])
    half = x.shape[0] // 2
    np.add(x[0::2], x[1::2], out=y[:half])
    np.subtract(x[0::2], x[1::2], out=y[half:])


def _pass(top: np.ndarray, bottom: np.ndarray, diff: np.ndarray) -> None:
    # (top, bottom) <- (top + bottom, top - bottom), elementwise
    np.subtract(top, bottom, out=diff)
    top += bottom
    bottom[...] = diff


def fwht_forward(f: DyadicFunction) -> WalshSpectrum:
    """Walsh coefficients of f: f^(k) = integral of f * w_k.
    ``analyze_in_place`` run on a copy of ``f.values``."""
    return analyze_in_place(f.values.copy())


def fwht_inverse(spectrum: WalshSpectrum) -> DyadicFunction:
    """Synthesize sum_k f^(k) w_k back into a step function."""
    return synthesize_in_place(spectrum.coefficients.copy())


def analyze_in_place(values: np.ndarray) -> WalshSpectrum:
    """The Walsh coefficients of the cell values in a buffer the caller
    gives up: the twin of ``synthesize_in_place``.

    ``values`` must be a writable, contiguous 1-D float64 array of 2^N
    cells, N >= 1, and the grid is read from its length
    (``Resolution.of_buffer``).  The butterfly overwrites it with the
    coefficients and the spectrum adopts it, so no copy is made; the
    caller must not use it again, except through a view it kept writable
    (a spectrum adopting ``buffer.view()`` marks only the view
    read-only).  Values that are not finite make coefficients that are
    not, which the spectrum refuses.
    """
    resolution = Resolution.of_buffer(values)
    _butterfly(values)
    values /= resolution.size
    return WalshSpectrum.adopt(resolution, values)


def synthesize_in_place(coefficients: np.ndarray) -> DyadicFunction:
    """Synthesize sum_k c_k w_k from a coefficient buffer the caller gives up.

    ``coefficients`` must be a writable, contiguous 1-D float64 array of
    2^N entries, N >= 1, and the grid is read from its length
    (``Resolution.of_buffer``).  The butterfly overwrites it with the cell
    values and the result adopts it, so no copy is made; the caller must
    not use it again.
    """
    resolution = Resolution.of_buffer(coefficients)
    _butterfly(coefficients)
    return DyadicFunction.adopt(resolution, coefficients)


def dirichlet_kernel(n: int, resolution: Resolution) -> DyadicFunction:
    """D_n = sum_{k<n} w_k: the synthesis of unit coefficients below n.

    Exact in float64: every butterfly output is a +/-1-signed sum of at
    most 2^N coefficients in {0, 1}, an integer of magnitude at most
    2^N <= 2^24, and no -0.0 arises from values that start at +0.0 or
    1.0.  For n = 2^m the kernel is the scaled cell indicator 2^m on the rank-m
    cell at 0.
    """
    size = resolution.size
    if not 1 <= n <= size:
        raise DegreeError(f"Dirichlet order {n} out of range (1..{size})")
    coeffs = np.zeros(size)
    coeffs[:n] = 1.0
    return synthesize_in_place(coeffs)
