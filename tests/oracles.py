"""Literal evaluation routes that the tests compare the library against.

Each follows its definition term by term, in O(n 2^N) work, and is not
part of the package: production code has one evaluation path per
quantity.  dirichlet_by_blocks assembles a Dirichlet kernel in int64
from its power-of-two blocks, read by trailing zero bits, where the
package synthesizes unit coefficients with the butterfly.  kernel_sum
lays out any kernel window's coefficients, where the package's
block_kernel writes only the block window's; quarter_cell_coset_from_Q
reads the kernel check's coefficients from prefix sums, where the
package takes differences of the weights; kernel_check_minima runs
each row of the kernel check on its own copy of its coefficients, where
the package synthesizes every row once, bottom-up, in one array;
atom_block and
build_martingale sum the martingale from dirichlet_by_blocks kernels,
where the package synthesizes its closed-form spectrum.  maximal_by_rank
maxes each rank's averages into the whole grid, where the package folds
them coarse to fine.  weak_lp_every_chunk evaluates every chunk of
sorted products, where the package skips the chunks whose bound cannot
raise the maximum.  emit_text is the CLI's table encoder written cell by
cell.  weights_whole generates a family's weights as one array, where
the package writes them a chunk at a time into the array that keeps
them; norlund_mean_naive, kernel_sum and quarter_cell_coset_from_Q read
their weights and prefix sums from it and prefix_sums_whole, not from
the package's stream they are compared against.
"""

import csv
import io
import json

import numpy as np

from walshlab import (
    CounterexampleConfig,
    DyadicFunction,
    Resolution,
    WalshSpectrum,
    WeightFamily,
    fwht_forward,
    fwht_inverse,
    synthesize_in_place,
)
from walshlab.errors import DegreeError, ResourceCapError
from walshlab.weights import MAX_WEIGHT_HORIZON

_CHUNK = 1 << 16


def sign_table(n: int, size: int) -> np.ndarray:
    """Vector of w_n over all indices 0..size-1, as int64 +/-1."""
    masked = np.bitwise_and(np.arange(size, dtype=np.int64), n)
    return 1 - 2 * (np.bitwise_count(masked).astype(np.int64) & 1)


def dirichlet_by_blocks(n: int, resolution: Resolution) -> DyadicFunction:
    """D_n = sum_{k<n} w_k, evaluated in exact integer arithmetic.

    D_(2^k)(x) = 2^k [tz(x) >= k], where tz(x) counts the trailing zero
    bits of x and tz(0) = N: the scaled indicator of the rank-k cell at 0.
    For n = 2^N that is the kernel.  Otherwise D_n is w_n times the sum,
    over the set bits k of n, of D_(2^(k+1)) - D_(2^k), which depends on x
    only through tz(x): an (N+1)-entry table read at tz.  The library's
    butterfly synthesis must match it bit for bit.
    """
    size, bits = resolution.size, resolution.bits
    if not 1 <= n <= size:
        raise DegreeError(f"Dirichlet order {n} out of range (1..{size})")
    levels = np.arange(bits + 1)

    def power(k: int) -> np.ndarray:
        return np.where(levels >= k, np.int64(1) << k, np.int64(0))

    idx = np.arange(size, dtype=np.int64)
    tz = np.bitwise_count((idx & -idx) - 1).astype(np.intp)
    tz[0] = bits
    if n == size:
        return DyadicFunction(resolution, power(bits)[tz])
    table = sum(power(k + 1) - power(k) for k in range(bits) if n >> k & 1)
    return DyadicFunction(resolution, sign_table(n, size) * table[tz])


def butterfly(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform by whole-array butterfly
    passes over strides 1, 2, 4, ...: (top, bottom) -> (top + bottom,
    top - bottom).  The library's chunked, constant-geometry butterfly
    must match it bit for bit."""
    a = np.array(values, dtype=np.float64)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        top, bottom = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :] = top + bottom
        pairs[:, 1, :] = top - bottom
        h *= 2
    return a


def cesaro_prefix(alpha: float, count: int) -> np.ndarray:
    """A_j^alpha for j = 0..count-1 via the one-term recurrence, built in
    place: out holds 1 and the factors (alpha + j)/j, then their running
    products."""
    out = np.empty(count)
    out[:1] = 1.0
    j = np.arange(1, count, dtype=np.float64)
    factors = out[1:]
    np.add(j, alpha, out=factors)
    factors /= j
    np.cumprod(out, out=out)
    return out


def weights_whole(w: WeightFamily, count: int) -> np.ndarray:
    """q_0..q_(count-1) as one new array.  The package's chunked
    generation must match it bit for bit."""
    if w.kind == "custom":
        if count > len(w.params):
            raise DegreeError(
                f"custom weight family defines only {len(w.params)} weights, "
                f"{count} requested"
            )
        return w.params[:count].copy()
    if count > MAX_WEIGHT_HORIZON:
        raise ResourceCapError(f"weight horizon {count} exceeds cap {MAX_WEIGHT_HORIZON}")
    if w.kind == "fejer":
        return np.ones(count)
    if w.kind == "cesaro":
        return cesaro_prefix(w.params[0] - 1.0, count)
    # the rest transform x = j + 1 in place: 1, 2, ..., count
    out = np.arange(1.0, count + 1.0)
    if w.kind == "log":
        np.divide(1.0, out, out=out)
    elif w.kind == "ualpha":
        out **= w.params[0] - 1.0
    elif w.kind == "vlog":
        np.log(out[1:], out=out[1:])
        np.divide(1.0, out[1:], out=out[1:])
        out[0] = w.params[0]
    else:
        raise AssertionError(f"no generator for kind {w.kind!r}")
    return out


def prefix_sums_whole(w: WeightFamily, count: int) -> np.ndarray:
    """Q_0..Q_count from one cumsum of weights_whole."""
    out = np.empty(count + 1)
    out[0] = 0.0
    np.cumsum(weights_whole(w, count), out=out[1:])
    return out


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
    q = weights_whole(w, n)
    running = np.full(size, coeff[0])  # S_1 f
    acc = q[n - 1] * running
    for k in range(2, n + 1):
        running = running + coeff[k - 1] * sign_table(k - 1, size)
        acc = acc + q[n - k] * running
    return DyadicFunction(f.resolution, acc / prefix_sums_whole(w, n)[n])


def kernel_sum(w: WeightFamily, a: int, b: int, resolution: Resolution) -> DyadicFunction:
    """The windowed kernel sum_{j=a}^{b} q_(b-j) D_j, evaluated exactly.

    Collecting the Walsh coefficient of each character gives the
    synthesis form sum_{m<b} Q_(b - max(a, m+1) + 1) w_m, which one
    inverse transform evaluates on the whole grid.
    """
    size = resolution.size
    if not 1 <= a <= b <= size:
        raise DegreeError(f"kernel window [{a}, {b}] out of range (1..{size})")
    Q = prefix_sums_whole(w, b - a + 1)
    coeffs = np.zeros(size)
    coeffs[:a] = Q[b - a + 1]
    if b > a:
        coeffs[a:b] = Q[1 : b - a + 1][::-1]
    return synthesize_in_place(coeffs)


def quarter_cell_coset_from_Q(w: WeightFamily, a: int) -> np.ndarray:
    """F_A on its quarter-cell coset, from differences of prefix sums.

    Row m of the window tail e_i = Q_(A-i) holds e_(4m)..e_(4m+3), and
    d_m = (e_(4m) - e_(4m+1)) - (e_(4m+2) - e_(4m+3)) is synthesized on
    2a - 2 bits.  Bit for bit, these are the values block_kernel's
    window takes on lane 3 of its quarter cell.
    """
    A = 1 << (2 * a)
    lanes = prefix_sums_whole(w, A)[A:0:-1].reshape(-1, 4)
    d = np.subtract(lanes[:, 0], lanes[:, 1])
    d -= np.subtract(lanes[:, 2], lanes[:, 3])
    if a == 1:
        return d  # one coefficient: the synthesis on 0 bits is d_0 itself
    return synthesize_in_place(d).values


def quarter_cell_coset(d: np.ndarray) -> np.ndarray:
    """F_A on its quarter-cell coset from its 4^(a-1) coefficients d: a
    copy of d, synthesized on its own.  One coefficient is its own
    synthesis on 0 bits."""
    if d.size == 1:
        return d.copy()
    return synthesize_in_place(d.copy()).values


def kernel_check_minima(w: WeightFamily, block_exps) -> list[float]:
    """min |F_A| on the quarter cell for each a in block_exps, row by row:
    the widest window's coset differences made once, and each row's
    suffix of them copied, synthesized and taken absolute."""
    d = w.coset_differences(1 << (2 * max(block_exps)))
    return [
        float(np.abs(quarter_cell_coset(d[d.size - (1 << (2 * a - 2)) :])).min())
        for a in block_exps
    ]


def atom_block(k: int, cfg: CounterexampleConfig, resolution: Resolution) -> DyadicFunction:
    """Block k of the construction at the given resolution."""
    a = cfg.alphas[k]
    if 2 * a + 1 > resolution.bits:
        raise ValueError(
            f"block exponent {a} needs at least {2 * a + 1} bits, "
            f"resolution has {resolution.bits}"
        )
    hi = dirichlet_by_blocks(1 << (2 * a + 1), resolution)
    lo = dirichlet_by_blocks(1 << (2 * a), resolution)
    return DyadicFunction.adopt(resolution, cfg.block_height(k) * (hi.values - lo.values))


def build_martingale(cfg: CounterexampleConfig) -> DyadicFunction:
    """The full test martingale, at the smallest resolution holding it."""
    resolution = Resolution(cfg.required_bits)
    total = np.zeros(resolution.size)
    for k in range(cfg.K):
        total += cfg.block_weight(k) * atom_block(k, cfg, resolution).values
    return DyadicFunction.adopt(resolution, total)


def maximal_by_rank(f: DyadicFunction) -> DyadicFunction:
    """The dyadic maximal function with one full-grid max per rank.  The
    library's coarse-to-fine fold must match it bit for bit."""
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


def weak_lp_every_chunk(f: DyadicFunction, p: float) -> float:
    """The weak-L_p size with the sorted products m_i * ((M - i)/M)^(1/p)
    evaluated in every 2^16-cell chunk.  The library's pruned evaluation
    must match it bit for bit."""
    magnitudes = np.abs(f.values)
    magnitudes.sort()
    total = magnitudes.size
    best = 0.0
    for start in range(0, total, _CHUNK):
        tail = np.arange(total - start, max(total - start - _CHUNK, 0), -1, dtype=np.float64)
        tail /= total
        tail **= 1.0 / p
        tail *= magnitudes[start : start + _CHUNK]
        best = max(best, float(tail.max()))
    return best


def _float_text(v, full: bool) -> str:
    return repr(float(v)) if full else f"{v:.9g}"


def _csv_cell(v, full: bool) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _float_text(v, full)
    if v is None:
        return ""
    return str(v)


def _json_cell(v, full: bool):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return float(_float_text(v, full))
    if isinstance(v, (list, tuple)):
        return [_json_cell(item, full) for item in v]
    return str(v)


def emit_text(columns, rows, meta, fmt: str, full: bool) -> str:
    """A CLI table as one string, encoded cell by cell: csv.writer over
    the CSV cells, or json.dumps(indent=2) of the whole payload.  The CLI's
    chunked, column-wise encoder must write exactly these bytes."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(v, full) for v in row] for row in rows)
        return buf.getvalue()
    payload = {
        "meta": {k: _json_cell(v, full) for k, v in meta.items()},
        "rows": [{c: _json_cell(v, full) for c, v in zip(columns, row)} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"
