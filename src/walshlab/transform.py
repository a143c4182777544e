"""Walsh-Paley characters, the fast transform, and Dirichlet kernels.

The Walsh function of index n in Paley enumeration is

    w_n(x) = (-1)^(number of shared 1-bits of n and x),

so w_0 = 1 and w_(2^k) is the Rademacher function r_k of coordinate k.
The family {w_n : n < 2^N} is an orthonormal basis of the step functions
at resolution N, and the analysis/synthesis pair is its own transpose:
a single in-place butterfly pass computes both directions, with the
forward direction carrying the 2^-N measure normalization.

Dirichlet kernels D_n = sum_{k<n} w_k are integer valued.  D_n for a
power of two is 2^n on the rank-n cell at 0 and vanishes elsewhere; a
general D_n is assembled from those blocks via the bit pattern of n,
keeping every arithmetic step in exact integers.
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
    "partial_sum",
    "dirichlet_kernel",
]


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Walsh coefficients f^(0..2^N-1) of a function at resolution N."""

    resolution: Resolution
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coefficients, dtype=np.float64, copy=True).reshape(-1)
        if arr.shape != (self.resolution.size,):
            raise ValueError(
                f"expected {self.resolution.size} coefficients, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)


def _sign_table(n: int, size: int) -> np.ndarray:
    """Vector of w_n over all indices 0..size-1, as int64 +/-1."""
    masked = np.bitwise_and(np.arange(size, dtype=np.int64), n)
    return 1 - 2 * (np.bitwise_count(masked).astype(np.int64) & 1)


def walsh_function(n: int, resolution: Resolution) -> DyadicFunction:
    """The Walsh character w_n sampled on the whole grid."""
    if not 0 <= n < resolution.size:
        raise DegreeError(f"Walsh index {n} out of range")
    return DyadicFunction(resolution, _sign_table(n, resolution.size))


def _butterfly(values: np.ndarray) -> np.ndarray:
    # In-place Walsh-Hadamard butterflies over bit strides 1, 2, 4, ...;
    # natural order in equals Paley order out, no reindexing needed.
    # One half-size scratch buffer holds each stage's differences.
    a = values.astype(np.float64, copy=True)
    size = a.shape[0]
    scratch = np.empty(size // 2)
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2, h)
        top, bottom = pairs[:, 0, :], pairs[:, 1, :]
        diff = scratch.reshape(-1, h)
        np.subtract(top, bottom, out=diff)
        top += bottom
        bottom[...] = diff
        h *= 2
    return a


def fwht_forward(f: DyadicFunction) -> WalshSpectrum:
    """Walsh coefficients of f: f^(k) = integral of f * w_k."""
    size = f.resolution.size
    return WalshSpectrum(f.resolution, _butterfly(f.values) / size)


def fwht_inverse(spectrum: WalshSpectrum) -> DyadicFunction:
    """Synthesize sum_k f^(k) w_k back into a step function."""
    return DyadicFunction(spectrum.resolution, _butterfly(spectrum.coefficients))


def partial_sum(spectrum: WalshSpectrum, n: int) -> DyadicFunction:
    """The n-th Walsh partial sum S_n f = sum_{k<n} f^(k) w_k."""
    size = spectrum.resolution.size
    if not 0 <= n <= size:
        raise DegreeError(f"partial sum order {n} out of range for 2^{spectrum.resolution.bits}")
    cut = spectrum.coefficients.copy()
    cut[n:] = 0.0
    return fwht_inverse(WalshSpectrum(spectrum.resolution, cut))


def _power_block(k: int, idx: np.ndarray) -> np.ndarray:
    # D_(2^k) = 2^k on indices whose low k bits vanish, 0 elsewhere.
    return np.where(idx & ((1 << k) - 1) == 0, np.int64(1) << k, np.int64(0))


def dirichlet_kernel(n: int, resolution: Resolution) -> DyadicFunction:
    """D_n = sum_{k<n} w_k, evaluated in exact integer arithmetic.

    For n = 2^m the kernel is the scaled cell indicator 2^m on the rank-m
    cell at 0.  Otherwise it is w_n times the sum, over the set bits k of
    n, of D_(2^(k+1)) - D_(2^k).
    """
    size = resolution.size
    if not 1 <= n <= size:
        raise DegreeError(f"Dirichlet order {n} out of range (1..{size})")
    idx = np.arange(size, dtype=np.int64)
    if n == size:
        return DyadicFunction(resolution, _power_block(resolution.bits, idx))
    acc = np.zeros(size, dtype=np.int64)
    for k in range(resolution.bits):
        if n >> k & 1:
            acc += _power_block(k + 1, idx) - _power_block(k, idx)
    return DyadicFunction(resolution, _sign_table(n, size) * acc)
