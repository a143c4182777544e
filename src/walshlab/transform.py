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
    return synthesize_in_place(resolution, coeffs)


# A grid of one _BLOCK-cell chunk or less runs its strides in cache.  Inside
# a chunk of 2^b cells, the strides below run = 2^(b//2) stay within runs
# of `run` contiguous cells; they run on half-chunk tiles copied out
# transposed to (run, rows), where stride h becomes stride h * rows and no
# inner loop is shorter than `rows`.  The wider strides of the chunk follow
# in place.  A larger grid runs by halves (_halves).  Every element still
# gets the same additions in the same order as in a whole-array pass, so
# the output is bit-identical to it.
#
# numpy's ufunc loop runs a 2-D operand whose rows are shorter than half
# its buffer (8192 elements by default) about three times slower than a
# contiguous one of the same size (numpy 2.4).  No pass here casts, so
# none needs the buffer: the butterfly sets numpy's smallest, 16 elements,
# for its own ufunc calls.
#
# A grid below _SMALL cells sits in L1 whole, and there the tiles' copies
# and the buffer switch cost more than they save (1.6-3x at 1-10 bits on
# a 2-vCPU x86-64 VM), so it runs whole-array passes instead.
_BLOCK = 1 << 16
_SMALL = 1 << 11


def _butterfly(a: np.ndarray) -> None:
    # In-place Walsh-Hadamard butterflies over bit strides 1, 2, 4, ...;
    # natural order in equals Paley order out, no reindexing needed.
    size = a.shape[0]
    if size < _SMALL:
        _strides(a, 1, size, np.empty(size // 2))
        return
    block = min(size, _BLOCK)
    run = 1 << (block.bit_length() - 1) // 2
    # the tile doubles as the difference buffer of the in-place passes
    tile = np.empty((run, block // (2 * run)))
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(16)
        _halves(a, tile, np.empty(tile.size // 2))


def _halves(a: np.ndarray, tile: np.ndarray, diff: np.ndarray) -> None:
    # The butterfly of a, made of 2^k chunks of 2 * tile.size cells.  Above
    # one chunk it runs the lower half, the upper half, then stride size/2
    # across them.  The strides below size/2 act on each half alone, so
    # every element meets the same operands in the same order as in
    # whole-array passes.
    #
    # An all-zero upper half is not synthesized; the lower half is copied
    # into it.  Its synthesis would be zeros, and stride size/2 pairs each
    # lower value x with one: x + 0 = x - 0 = x.  An exact cancellation
    # rounds to +0.0 and -0.0 arises only from -0.0 operands, so with no
    # -0.0 in the input the copy is bit-identical.  A -0.0 input can only
    # change the sign of a zero: -0.0 + 0.0 is +0.0 where the copy keeps
    # -0.0.  The last element is read first, so the zero test is O(1) on
    # dense data.
    flat = tile.reshape(-1)
    half = a.shape[0] // 2
    if half == flat.size:
        run, rows = tile.shape
        for piece in a.reshape(-1, rows, run):
            np.copyto(tile, piece.T)
            _strides(flat, rows, flat.size, diff)
            np.copyto(piece, tile.T)
        _strides(a, run, a.shape[0], flat)
        return
    lower, upper = a[:half], a[half:]
    _halves(lower, tile, diff)
    if upper[-1] == 0.0 and not np.count_nonzero(upper):
        np.copyto(upper, lower)
        return
    _halves(upper, tile, diff)
    for j in range(0, half, flat.size):
        _pass(lower[j : j + flat.size], upper[j : j + flat.size], flat)


def _strides(x: np.ndarray, h: int, end: int, diff: np.ndarray) -> None:
    # butterflies over strides h, 2h, ... below end, all along x
    while h < end:
        pairs = x.reshape(-1, 2, h)
        _pass(pairs[:, 0, :], pairs[:, 1, :], diff.reshape(-1, h))
        h *= 2


def _pass(top: np.ndarray, bottom: np.ndarray, diff: np.ndarray) -> None:
    # (top, bottom) <- (top + bottom, top - bottom), elementwise
    np.subtract(top, bottom, out=diff)
    top += bottom
    bottom[...] = diff


def fwht_forward(f: DyadicFunction) -> WalshSpectrum:
    """Walsh coefficients of f: f^(k) = integral of f * w_k."""
    coeffs = f.values.copy()
    _butterfly(coeffs)
    coeffs /= f.resolution.size
    return WalshSpectrum.adopt(f.resolution, coeffs)


def fwht_inverse(spectrum: WalshSpectrum) -> DyadicFunction:
    """Synthesize sum_k f^(k) w_k back into a step function."""
    return synthesize_in_place(spectrum.resolution, spectrum.coefficients.copy())


def synthesize_in_place(resolution: Resolution, coefficients: np.ndarray) -> DyadicFunction:
    """Synthesize sum_k c_k w_k from a coefficient buffer the caller gives up.

    ``coefficients`` must be a writable, contiguous 1-D float64 array of
    length 2^N.  The butterfly overwrites it with the cell values and the
    result adopts it, so no copy is made; the caller must not use it again.
    """
    flags = coefficients.flags
    if (
        coefficients.dtype != np.float64
        or coefficients.shape != (resolution.size,)
        or not (flags.c_contiguous and flags.writeable)
    ):
        raise ValueError(
            f"expected a writable contiguous array of {resolution.size} float64 "
            f"coefficients, got {coefficients.dtype} of shape {coefficients.shape}"
        )
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
    return synthesize_in_place(resolution, coeffs)
