"""Divergence construction: block martingales whose Nörlund means blow up.

For a schedule of block exponents a_0 < a_1 < ... the building block k is
the scaled kernel difference

    atom_k = 2^(2 a_k (1/p - 1)) * (D_(2^(2a_k+1)) - D_(2^(2a_k))),

a mean-zero function supported on the rank-2a_k cell at 0, and the test
martingale is f = sum_k a_k^(-1/2) * atom_k.  Its spectrum is constant on
the dyadic blocks [2^(2a_k), 2^(2a_k+1)) and vanishes elsewhere;
``martingale_spectrum`` writes it, and ``fwht_inverse`` of that is f.  For
weight families whose kernel floor constant kappa = q_1 - (3/2) q_3 is
positive, the Nörlund mean of order 2^(2a_k+1) is pinned away from zero
on the quarter cell, with a floor that grows faster than the Hardy-space
size of f when p is small enough; the experiment here measures both
sides row by row, and each row carries the proven floor beside the
measured one.  Each row takes its multipliers Q_(n-j)/Q_n from one
chunked pass of ``WeightFamily.Q_chunks``, written straight into its
coefficients, so its last row holds only its own cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFunction, Resolution, quarter_cell_min
from .errors import DegreeError, PreconditionError
from .norms import hardy_norm_estimate, lp_quasinorm, weak_lp_in_place
from .transform import WalshSpectrum, analyze_in_place, synthesize_in_place
from .weights import WeightFamily, kappa, norlund_mean_in_place, validate_structure

__all__ = [
    "CounterexampleConfig",
    "DivergenceRow",
    "DivergenceReport",
    "martingale_spectrum",
    "divergence_experiment",
    "bounded_case_monitor",
    "bounded_case_monitor_in_place",
]

_FLOOR_TOL = 1e-12


@dataclass(frozen=True)
class CounterexampleConfig:
    """Parameters of one divergence run.

    p          target quasi-norm exponent, 0 < p < 1
    weights    Nörlund weight family (kernel floor must be positive)
    alphas     strictly increasing positive block exponents a_0 < a_1 < ...
    alpha_exp  growth exponent of Q_n ~ n^alpha_exp (0 for log-type families)
    beta_exp   logarithmic correction exponent, >= 0

    Every admitted schedule satisfies the spectral-mass condition: the
    masses m_e = 2^(2 a_e / p) / sqrt(a_e) of the earlier blocks sum to
    less than the newest one, m_k.  The exponents are integers with
    a_0 >= 1 and 0 < p < 1, so for e < k and d = a_k - a_e >= 1

        m_e / m_k = 2^(-2d/p) * sqrt(a_k / a_e) < 4^(-d) * sqrt(1 + d),

    and distinct e give distinct d, so sum_{e<k} m_e / m_k is below
    sum_{d>=1} 4^(-d) sqrt(1 + d) = 0.505... < 1: it needs no check.
    The multipliers Q_(n-j)/Q_n are at most 1, so every value a row's
    synthesis forms is below 1.505 m_K; a schedule whose bound reaches
    2^1023 is refused, leaving a binary order for weak_lp's chunk bounds.
    """

    p: float
    weights: WeightFamily
    alphas: tuple[int, ...]
    alpha_exp: float = 0.0
    beta_exp: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        if not 0.0 < self.p < 1.0:
            raise PreconditionError(f"p must lie in (0, 1), got {self.p}")
        if not isinstance(self.weights, WeightFamily):
            raise TypeError("weights must be a WeightFamily")
        if len(self.alphas) < 1:
            raise PreconditionError("need at least one block exponent")
        if self.alphas[0] < 1 or any(
            b <= a for a, b in zip(self.alphas, self.alphas[1:])
        ):
            raise PreconditionError(
                f"block exponents must be strictly increasing and >= 1, got {self.alphas}"
            )
        a = self.alphas[-1]
        if math.log2(1.505) + 2.0 * a / self.p - 0.5 * math.log2(a) >= 1023.0:
            raise PreconditionError(
                f"p = {self.p} is too small: the row mass bound 1.505 * 2^(2 a/p) / sqrt(a) "
                f"reaches 2^1023 at a = {a}"
            )
        if not 0.0 <= self.alpha_exp <= 1.0:
            raise PreconditionError(f"alpha_exp must lie in [0, 1], got {self.alpha_exp}")
        if self.beta_exp < 0.0:
            raise PreconditionError(f"beta_exp must be >= 0, got {self.beta_exp}")
        # NaN and +inf pass the comparison above; alpha_exp's range check
        # already refuses both
        if not math.isfinite(self.beta_exp):
            raise PreconditionError(f"beta_exp must be finite, got {self.beta_exp}")
        try:
            self.alphas[-1] ** (self.beta_exp + 1.0)  # the theory column's divisor
        except OverflowError:
            raise PreconditionError(
                f"beta_exp = {self.beta_exp} is too large: a^(beta_exp + 1) "
                f"overflows at a = {self.alphas[-1]}"
            ) from None
        if not self.p < 1.0 / (1.0 + self.alpha_exp):
            raise PreconditionError(
                f"need p < 1/(1 + alpha_exp) = {1.0 / (1.0 + self.alpha_exp):.6g}, "
                f"got p = {self.p}"
            )
        if not kappa(self.weights) > 0.0:
            raise PreconditionError(
                f"kernel floor constant of {self.weights.label} is not positive"
            )

    @property
    def K(self) -> int:
        """Number of blocks."""
        return len(self.alphas)

    @property
    def required_bits(self) -> int:
        """Resolution needed to resolve the last block."""
        return 2 * self.alphas[-1] + 1

    def block_height(self, k: int) -> float:
        """Spectrum height 2^(2 a_k (1/p - 1)) of block k."""
        return 2.0 ** (2 * self.alphas[k] * (1.0 / self.p - 1.0))

    def block_weight(self, k: int) -> float:
        """Martingale coefficient a_k^(-1/2) of block k."""
        return 1.0 / math.sqrt(self.alphas[k])


def martingale_spectrum(cfg: CounterexampleConfig, resolution: Resolution) -> WalshSpectrum:
    """Closed-form spectrum: block k carries the constant coefficient
    2^(2 a_k (1/p - 1)) / sqrt(a_k) on indices [2^(2a_k), 2^(2a_k+1))."""
    if cfg.required_bits > resolution.bits:
        raise DegreeError(
            f"block exponent {cfg.alphas[-1]} needs at least {cfg.required_bits} bits, "
            f"resolution has {resolution.bits}"
        )
    coeffs = np.zeros(resolution.size)
    for k, a in enumerate(cfg.alphas):
        coeffs[1 << (2 * a) : 1 << (2 * a + 1)] = cfg.block_height(k) * cfg.block_weight(k)
    return WalshSpectrum.adopt(resolution, coeffs)


@dataclass(frozen=True)
class DivergenceRow:
    """One row of the blow-up experiment (block k at its own resolution)."""

    k: int
    resolution_used: int
    weak_lp_value: float
    pointwise_floor: float
    guaranteed_floor: float  # proven: (kappa/Q_n) h_k (1/sqrt(a_k) - 1/(8 a_k))
    theory_bound: float
    hardy_estimate: float  # Hardy size of the newest scaled block, a_k^(-1/2)

    @property
    def ratio(self) -> float:
        return self.weak_lp_value / self.hardy_estimate


@dataclass(frozen=True)
class DivergenceReport:
    """Rows plus the verdicts the experiment is judged by."""

    rows: tuple[DivergenceRow, ...]
    kappa: float
    theory_constant: float
    ratios_strictly_increasing: bool
    floors_hold: bool

    @property
    def ok(self) -> bool:
        return self.ratios_strictly_increasing and self.floors_hold


# How the reported theory_bound column is normalized: the proof-chain
# constant below multiplies 2^(2 a_k (1/p - 1 - alpha_exp)) / a_k^(beta_exp + 1).
THEORY_CONSTANT_FORMULA = (
    "c = (1/4)^(1/p) * 2^-3 * min_k [ kappa * 2^(2 a_k alpha_exp) "
    "* a_k^(beta_exp+1) / (Q(2^(2 a_k + 1)) * sqrt(a_k)) ]"
)


def _theory_constant(cfg: CounterexampleConfig, kap: float, Qs: list[float]) -> float:
    # Qs holds each row's Q_(2^(2 a_k + 1))
    brackets = []
    for a, Q in zip(cfg.alphas, Qs):
        brackets.append(
            kap
            * 2.0 ** (2.0 * a * cfg.alpha_exp)
            * a ** (cfg.beta_exp + 1.0)
            / (Q * math.sqrt(a))
        )
    return 0.25 ** (1.0 / cfg.p) * 0.125 * min(brackets)


def _row_mean(cfg: CounterexampleConfig, k: int) -> tuple[DyadicFunction, np.ndarray, float]:
    """t_n f_k at n = 2^(2a_k+1): block e's coefficient scaled by
    Q_(n-j)/Q_n on its indices j in [4^(a_e), 2 4^(a_e)), synthesized.

    The prefix sums are streamed once, a chunk at a time, and Q_m is
    written at j = n - m wherever j falls in a block, so no array of them
    is made.  Each block is then divided by Q_n and scaled by its height
    and weight, the same two roundings as norlund_mean_in_place's.

    Returns the mean, the writable buffer of its cells, whose 2^(2a_k+1)
    entries are the row's grid, and Q_n; the mean adopts a read-only view
    of the buffer, so the buffer may be given up once the mean is dropped."""
    n = 2 << (2 * cfg.alphas[k])
    blocks = [1 << (2 * a) for a in cfg.alphas[: k + 1]]
    coeffs = np.zeros(n)
    for start, chunk in cfg.weights.Q_chunks(n):
        # reversed, the chunk holds Q_m at j - base for j = n - m in [base, n - start)
        base = n - start - chunk.size
        for size in blocks:
            lo, hi = max(size, base), min(2 * size, n - start)
            if lo < hi:
                coeffs[lo:hi] = chunk[::-1][lo - base : hi - base]
    Qn = float(chunk[-1])
    del chunk  # the stream's scratch, freed before the butterfly takes its own
    for e, size in enumerate(blocks):
        block = coeffs[size : 2 * size]
        block /= Qn
        block *= cfg.block_height(e) * cfg.block_weight(e)
    return synthesize_in_place(coeffs.view()), coeffs, Qn


def divergence_experiment(cfg: CounterexampleConfig) -> DivergenceReport:
    """Run the blow-up measurement block by block.

    Row k lives at the smallest resolution resolving block k (2a_k + 1
    bits).  Its input is the prefix martingale f_k, whose spectrum is the
    first 2^(2a_k+1) coefficients of the closed-form martingale_spectrum
    (later blocks start above that index).  The mean t_(2^(2a_k+1)) f_k
    is one synthesis of the multiplier-scaled blocks of f_k, written
    without laying out the prefix spectrum; it equals
    norlund_mean_multiplier on that spectrum bit for bit, and the
    butterfly copies across the zero gaps between blocks.  The
    multipliers come from one stream of the row's prefix sums.  The
    measured columns are the exact weak-L_p size of the mean and the
    measured minimum of |t f_k| on the quarter cell.  The measured floor
    is read first; then weak_lp_in_place sorts the mean's own cell
    buffer, so the last row holds one grid of cells and chunk-sized
    scratch, and no copy.  Each row also carries guaranteed_floor, the
    proven quarter-cell bound, formed from the Q_n its own stream ended
    on; floors_hold asks that every measured floor reach it.  The theory
    constant needs every row's Q_n, so the rows are formed after the
    last one is measured.
    hardy_estimate is the Hardy size of the newest scaled block
    a_k^(-1/2) * atom_k, which is exactly a_k^(-1/2) because its maximal
    function is a single plateau;
    test_hardy_norm_of_single_block_is_its_weight measures it with
    hardy_norm_estimate.  Divergence shows up as strict growth of
    weak_lp_value / hardy_estimate, the weak size of the mean against
    the Hardy cost of the block that produced it.
    """
    w = cfg.weights
    # Resolution refuses a schedule past the bit cap before any row is built
    widest = Resolution(cfg.required_bits)
    structure = validate_structure(w, widest.size)
    if not structure.ok:
        raise PreconditionError(
            f"weight family {w.label} fails the structure screen: {structure}"
        )
    kap = kappa(w)

    measured = []  # (weak-L_p size, quarter-cell floor, Q_n) of each row
    for k in range(cfg.K):
        mean, cells, Qn = _row_mean(cfg, k)
        floor_measured = quarter_cell_min(mean)
        del mean  # the sort overwrites the cells it views
        measured.append((weak_lp_in_place(cells, cfg.p), floor_measured, Qn))
        del cells  # so the next row is not built beside this one

    c_theory = _theory_constant(cfg, kap, [Qn for _, _, Qn in measured])
    rows = []
    for k, (weak_value, floor_measured, Qn) in enumerate(measured):
        a = cfg.alphas[k]
        guaranteed = (kap / Qn) * cfg.block_height(k) * (1.0 / math.sqrt(a) - 1.0 / (8.0 * a))
        theory = (
            c_theory
            * 2.0 ** (2.0 * a * (1.0 / cfg.p - 1.0 - cfg.alpha_exp))
            / a ** (cfg.beta_exp + 1.0)
        )
        rows.append(DivergenceRow(k, 2 * a + 1, weak_value, floor_measured, guaranteed,
                                  theory, cfg.block_weight(k)))

    ratios = [r.ratio for r in rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    floors_hold = all(r.pointwise_floor >= r.guaranteed_floor - _FLOOR_TOL for r in rows)
    return DivergenceReport(tuple(rows), kap, c_theory, increasing, floors_hold)


def bounded_case_monitor(
    f: DyadicFunction, w: WeightFamily, p: float
) -> tuple[tuple[int, float], ...]:
    """Ratios ||t_(2^n) f||_p / ||f||_Hp for n = 0..N:
    ``bounded_case_monitor_in_place`` run on a copy of ``f.values``.

    For families with summable structure (Fejér above all) these stay
    bounded; contrast with the divergence experiment's growing column.
    """
    return bounded_case_monitor_in_place(f.values.copy(), w, p)


def bounded_case_monitor_in_place(
    cells: np.ndarray, w: WeightFamily, p: float
) -> tuple[tuple[int, float], ...]:
    """The monitor's ratios for the cell values in a buffer the caller
    gives up.

    ``cells`` must be a writable, contiguous 1-D float64 array of 2^N
    finite cells, N >= 1, and the grid is read from its length
    (``Resolution.of_buffer``).  The work runs in this order, so every
    grid-sized buffer it holds is one it keeps:

    1. the Hardy size, which reads the cells;
    2. the forward transform, in place in the cell buffer;
    3. rows n = 0..N in one loop: row n < N in a fresh buffer of
       2^max(n,1) coefficients, and row N, last, in place in the
       spectrum's own buffer.

    Each row's mean streams its own 2^n + 1 prefix sums into a fresh
    array and drops them before its synthesis.  At row N - 1 that is the
    spectrum, a half-size row and its half-size sums, and at row N the
    spectrum and its sums: 2 grid arrays and a chunk of scratch.  The
    caller must not use the buffer again.

    t_(2^n) f combines only the characters w_j with j < 2^n, and those
    depend only on the first n coordinates: the mean is measurable with
    respect to the rank-n cells, so on the 2^N grid it is one 2^n-cell
    block repeated 2^(N-n) times.  Row n therefore synthesizes the mean
    from a copy of the first 2^max(n,1) coefficients, whose length sets
    its resolution, max(n, 1) bits.  The cell values are bit-identical to
    the full-grid synthesis, which only repeats them over the zero
    coefficients above 2^n (x + 0 = x - 0 = x), and the L_p quasi-norm, a
    mean over cells, is unchanged by the repetition.
    """
    resolution = Resolution.of_buffer(cells)
    # the view is marked read-only; cells stays writable for the transform
    hardy = hardy_norm_estimate(DyadicFunction.adopt(resolution, cells.view()), p)
    if hardy == 0.0:
        raise PreconditionError("monitor needs a nonzero function")
    N = resolution.bits
    coeffs = analyze_in_place(cells.view()).coefficients
    out = []
    for n in range(N + 1):
        # row N, the last, overwrites the spectrum in its own buffer
        buffer = cells if n == N else coeffs[: 1 << max(n, 1)].copy()
        mean = norlund_mean_in_place(buffer, 1 << n, w)
        out.append((n, lp_quasinorm(mean, p) / hardy))
        del mean, buffer  # no name holds a row's mean while the next row's is built
    return tuple(out)
