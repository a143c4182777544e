"""Literal evaluation routes that the tests compare the library against.

Each follows its definition term by term, in O(n 2^N) work, and is not
part of the package: production code has one evaluation path per
quantity.
"""

import numpy as np

from walshlab import DyadicFunction, WalshSpectrum, fwht_forward, fwht_inverse
from walshlab.errors import DegreeError


def sign_table(n: int, size: int) -> np.ndarray:
    """Vector of w_n over all indices 0..size-1, as int64 +/-1."""
    masked = np.bitwise_and(np.arange(size, dtype=np.int64), n)
    return 1 - 2 * (np.bitwise_count(masked).astype(np.int64) & 1)


def butterfly(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform by whole-array butterfly
    passes over strides 1, 2, 4, ...: (top, bottom) -> (top + bottom,
    top - bottom).  The library's tiled, cache-blocked butterfly must
    match it bit for bit."""
    a = np.array(values, dtype=np.float64)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        top, bottom = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :] = top + bottom
        pairs[:, 1, :] = top - bottom
        h *= 2
    return a


def partial_sum(spectrum: WalshSpectrum, n: int) -> DyadicFunction:
    """The n-th Walsh partial sum S_n f = sum_{k<n} f^(k) w_k."""
    size = spectrum.resolution.size
    if not 0 <= n <= size:
        raise DegreeError(f"partial sum order {n} out of range for 2^{spectrum.resolution.bits}")
    cut = spectrum.coefficients.copy()
    cut[n:] = 0.0
    return fwht_inverse(WalshSpectrum(spectrum.resolution, cut))


def norlund_mean_naive(f: DyadicFunction, n: int, w) -> DyadicFunction:
    """t_n f by the definition: accumulate q_(n-k) S_k f with the partial
    sums built incrementally."""
    size = f.resolution.size
    coeff = fwht_forward(f).coefficients
    running = np.full(size, coeff[0])  # S_1 f
    acc = w.q(n - 1) * running
    for k in range(2, n + 1):
        running = running + coeff[k - 1] * sign_table(k - 1, size)
        acc = acc + w.q(n - k) * running
    return DyadicFunction(f.resolution, acc / w.Q(n))
