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

import numpy as np

from .dyadic import DyadicFunction, Resolution
from .errors import PreconditionError

__all__ = [
    "lp_quasinorm",
    "weak_lp",
    "weak_lp_in_place",
    "maximal_function",
    "hardy_norm_estimate",
]

_CHUNK = 1 << 16


def _check_p(p: float) -> float:
    """Admit a finite p >= 2^-20.

    lp_quasinorm raises a mean of |f|^p, whose relative roundoff is of the
    order of u = 2^-53, to the power 1/p, which scales that error by 1/p:
    at p = 2^-20, u/p = 2^-33 ~ 1.2e-10, below 5e-10, half a unit in the
    9th significant digit that the CLI prints.  Below the floor the error
    grows until |f|^p rounds to 1: a constant 5 reads 4.73 at p = 1e-15
    and 1.0 at p = 1e-17.
    """
    p = float(p)
    if not p > 0.0:
        raise PreconditionError(f"exponent p must be positive, got {p}")
    if not math.isfinite(p):
        raise PreconditionError(f"exponent p must be finite, got {p}")
    if p < 2.0**-20:
        raise PreconditionError(f"exponent p must be at least 2^-20, got {p}")
    return p


def lp_quasinorm(f: DyadicFunction, p: float) -> float:
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
    return float((sums[0] / values.size) ** (1.0 / p))


def weak_lp(f: DyadicFunction, p: float) -> float:
    """sup over lambda > 0 of lambda * mu(|f| > lambda)^(1/p), exactly:
    ``weak_lp_in_place`` run on a copy of ``f.values``, which it sorts."""
    return weak_lp_in_place(f.values.copy(), p)


def weak_lp_in_place(values: np.ndarray, p: float) -> float:
    """The weak-L_p size of the cell values in a buffer the caller gives up.

    ``values`` must be a writable, contiguous 1-D float64 array of 2^N
    cells, N >= 1, as ``Resolution.of_buffer`` checks, so a buffer of
    more than 2^24 cells is refused with ResourceCapError.  It is
    overwritten with the sorted magnitudes m_0 <= ... <= m_(M-1) of its
    cells, so no copy is made; the caller must not use it again, and no
    ``DyadicFunction`` may still view it.

    After the sort the products m_i * t_i, with tail factor
    t_i = ((M - i)/M)^(1/p), are evaluated a chunk at a time, and only in
    the chunks that can hold their maximum.  The m_i rise and the t_i
    fall, so no product in a chunk exceeds its largest magnitude (its last
    entry) times the tail factor at its start.  That bound is computed
    with the same division, and with pow, whose result is within an ulp
    of the evaluated factors; it is padded by a relative 2^-40, and by
    2^-1022 on the factor for the subnormal range, where an ulp is not
    relative.  IEEE rounding is monotone, so the padded bound is at least
    every product the chunk evaluates.  Chunks are evaluated in order of
    falling bound until a bound is at most the running best.  The chunks
    left out cannot raise the maximum, and the maximum of floats is exact
    in any order, so the result is bit-identical to evaluating every
    chunk.
    """
    p = _check_p(p)
    total = Resolution.of_buffer(values).size
    magnitudes = np.abs(values, out=values)
    magnitudes.sort()
    # NaN sorts last, after +inf, so the last magnitude is finite only if
    # every one is
    if not math.isfinite(magnitudes[-1]):
        raise ValueError("values must be finite")
    exponent = 1.0 / p
    # each chunk's bound: the padded tail factor at its start times its
    # last (largest) magnitude
    starts = np.arange(0, total, _CHUNK)
    bounds = (total - starts) / total
    bounds **= exponent
    bounds *= 1.0 + 2.0**-40
    bounds += 2.0**-1022
    bounds *= magnitudes[np.minimum(starts + _CHUNK, total) - 1]
    best = 0.0
    for c in np.argsort(-bounds):
        if bounds[c] <= best:
            break
        start = int(starts[c])
        # tail[i] = (M - i)/M, which is mu(|f| >= m_i) at the first index
        # of each value (see the module docstring for ties and zeros);
        # built in chunks so no second full-length array is needed
        tail = np.arange(total - start, max(total - start - _CHUNK, 0), -1, dtype=np.float64)
        tail /= total
        tail **= exponent
        tail *= magnitudes[start : start + _CHUNK]
        best = max(best, float(tail.max()))
        del tail  # freed before the next chunk's is built
    return best


def maximal_function(f: DyadicFunction) -> DyadicFunction:
    """Pointwise max over ranks n = 0..N of |average of f over the rank-n
    cell through the point|.

    The rank-n cell averages are exactly the partial sums S_(2^n) f, so
    for functions resolved on the grid this is the full dyadic maximal
    function.

    A cell average depends only on the low bits of the index, so the
    level of averages over cells of 2^(N-m) points has 2^m values and
    repeats with period 2^m across the grid.  The levels are built fine
    to coarse by halving, 0.5 * (low half + high half), and packed into
    the output buffer with the level of period s at [s, 2s).  After
    their absolute values are taken they are folded coarse to fine:
    each level becomes the max of itself and the folded level of period
    s/2, tiled twice.  The finest folded level, tiled against |f|, is
    the result.  That is about two passes over 2^N cells in all, where
    maxing every level into the whole grid takes N.

    The fold is exact, bit for bit, against that per-rank route: each
    average is the same IEEE expression evaluated in the same order,
    and the max of finite non-negative floats (abs maps -0.0 to +0.0)
    is one of its arguments whatever the order of folding.
    """
    values = f.values
    size = values.size
    half = size // 2
    best = np.empty(size)
    level = values
    while level.size > 1:
        s = level.size // 2
        coarser = best[s : 2 * s]
        np.add(level[:s], level[s:], out=coarser)
        coarser *= 0.5
        level = coarser
    np.abs(best[1:], out=best[1:])
    s = 1
    while s < half:
        finer = best[2 * s : 4 * s].reshape(2, s)
        np.maximum(finer, best[s : 2 * s], out=finer)
        s *= 2
    # best[half:] is now the finest folded level; the lower half of the
    # result overwrites the coarser levels, which are spent, and the
    # upper half is folded in place a chunk at a time
    np.abs(values[:half], out=best[:half])
    np.maximum(best[:half], best[half:], out=best[:half])
    for start in range(half, size, _CHUNK):
        chunk = best[start : start + _CHUNK]
        np.maximum(chunk, np.abs(values[start : start + _CHUNK]), out=chunk)
    return DyadicFunction.adopt(f.resolution, best)


def hardy_norm_estimate(f: DyadicFunction, p: float) -> float:
    """L_p quasi-norm of the maximal function: the desk-scale H_p size."""
    p = _check_p(p)
    return lp_quasinorm(maximal_function(f), p)
