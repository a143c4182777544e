"""Size functionals: L_p quasi-norms, weak-L_p, and the dyadic maximal
function with its Hardy-space surrogate.

Weak-L_p is computed exactly for step functions.  The distribution
function lambda -> mu(|f| > lambda) only jumps at the values of |f|, and
the supremum of lambda * mu(|f| > lambda)^(1/p) is approached as lambda
climbs to a value v from below, where the measure is that of
{|f| >= v}.  With the M cell values sorted as m_0 <= ... <= m_(M-1),
that measure is (M - i)/M at the first index i holding v; the other
indices of a tied value, and the zeros, only give smaller products.  So
the maximum of m_i * ((M - i)/M)^(1/p) over all indices, after one sort,
evaluates the supremum with no grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFunction
from .errors import PreconditionError

__all__ = [
    "NormValue",
    "lp_quasinorm",
    "weak_lp",
    "maximal_function",
    "hardy_norm_estimate",
]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class NormValue:
    """A computed size functional, tagged with which one it is."""

    kind: str  # "lp" | "weak_lp" | "hardy"
    p: float
    value: float


def _check_p(p: float) -> float:
    p = float(p)
    if not p > 0.0:
        raise PreconditionError(f"exponent p must be positive, got {p}")
    if not math.isfinite(p):
        raise PreconditionError(f"exponent p must be finite, got {p}")
    return p


def lp_quasinorm(f: DyadicFunction, p: float) -> NormValue:
    """(integral of |f|^p)^(1/p); a norm for p >= 1, quasi-norm below."""
    p = _check_p(p)
    values = f.values
    powers = np.empty(min(values.size, _CHUNK))
    sums = []
    for start in range(0, values.size, powers.size):
        np.abs(values[start : start + powers.size], out=powers)
        powers **= p
        sums.append(np.sum(powers))
    # numpy sums a power-of-two length by halves, so combining the chunk
    # sums pairwise gives exactly np.mean's total
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    value = float((sums[0] / values.size) ** (1.0 / p))
    return NormValue("lp", p, value)


def weak_lp(f: DyadicFunction, p: float) -> NormValue:
    """sup over lambda > 0 of lambda * mu(|f| > lambda)^(1/p), exactly."""
    p = _check_p(p)
    magnitudes = np.abs(f.values)
    magnitudes.sort()
    total = magnitudes.size
    best = 0.0
    # tail[i] = (M - i)/M, which is mu(|f| >= m_i) at the first index of
    # each value (see the module docstring for ties and zeros); built in
    # chunks so no second full-length array is needed
    for start in range(0, total, _CHUNK):
        tail = np.arange(total - start, max(total - start - _CHUNK, 0), -1, dtype=np.float64)
        tail /= total
        tail **= 1.0 / p
        tail *= magnitudes[start : start + _CHUNK]
        best = max(best, float(tail.max()))
    return NormValue("weak_lp", p, best)


def maximal_function(f: DyadicFunction) -> DyadicFunction:
    """Pointwise max over ranks n = 0..N of |average of f over the rank-n
    cell through the point|.

    The rank-n cell averages are exactly the partial sums S_(2^n) f, so
    for functions resolved on the grid this is the full dyadic maximal
    function.
    """
    level = f.values  # rank-N averages: f itself
    best = np.abs(level)
    for _ in range(f.resolution.bits):
        half = level.size // 2
        level = 0.5 * (level[:half] + level[half:])
        # a cell average depends only on the low bits of the index, so
        # this level repeats with period level.size across the grid
        periods = best.reshape(-1, level.size)
        np.maximum(periods, np.abs(level), out=periods)
    return DyadicFunction.adopt(f.resolution, best)


def hardy_norm_estimate(f: DyadicFunction, p: float) -> NormValue:
    """L_p quasi-norm of the maximal function: the desk-scale H_p size."""
    p = _check_p(p)
    return NormValue("hardy", p, lp_quasinorm(maximal_function(f), p).value)
