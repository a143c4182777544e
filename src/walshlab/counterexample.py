"""Divergence construction: block martingales whose Nörlund means blow up.

For a schedule of block exponents a_0 < a_1 < ... the building block k is
the scaled kernel difference

    atom_k = 2^(2 a_k (1/p - 1)) * (D_(2^(2a_k+1)) - D_(2^(2a_k))),

a mean-zero function supported on the rank-2a_k cell at 0, and the test
martingale is f = sum_k a_k^(-1/2) * atom_k.  Its spectrum is constant on
the dyadic blocks [2^(2a_k), 2^(2a_k+1)) and vanishes elsewhere.  For
weight families whose kernel floor constant kappa = q_1 - (3/2) q_3 is
positive, the Nörlund mean of order 2^(2a_k+1) is pinned away from zero
on the quarter cell, with a floor that grows faster than the Hardy-space
size of f when p is small enough; the experiment here measures both
sides row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import (
    QUARTER_CELL,
    DyadicFunction,
    Resolution,
    cell_indices,
)
from .errors import PreconditionError
from .norms import hardy_norm_estimate, lp_quasinorm, weak_lp
from .transform import WalshSpectrum, dirichlet_kernel, fwht_forward
from .weights import (
    WeightFamily,
    kappa,
    norlund_mean_multiplier,
    validate_structure,
)

__all__ = [
    "CounterexampleConfig",
    "ConditionsReport",
    "JigReport",
    "DivergenceRow",
    "DivergenceReport",
    "atom_block",
    "build_martingale",
    "martingale_spectrum",
    "check_conditions",
    "check_jig",
    "guaranteed_floor",
    "divergence_experiment",
    "bounded_case_monitor",
    "default_alpha_schedule",
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
    c_const    constant C tested in the growth condition kappa/Q_n >= C/(n^a ln^b n)
    """

    p: float
    weights: WeightFamily
    alphas: tuple[int, ...]
    alpha_exp: float = 0.0
    beta_exp: float = 0.0
    c_const: float = 1.0

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
        if not 0.0 <= self.alpha_exp <= 1.0:
            raise PreconditionError(f"alpha_exp must lie in [0, 1], got {self.alpha_exp}")
        if self.beta_exp < 0.0:
            raise PreconditionError(f"beta_exp must be >= 0, got {self.beta_exp}")
        if self.c_const <= 0.0:
            raise PreconditionError(f"c_const must be positive, got {self.c_const}")
        if not self.p < 1.0 / (1.0 + self.alpha_exp):
            raise PreconditionError(
                f"need p < 1/(1 + alpha_exp) = {1.0 / (1.0 + self.alpha_exp):.6g}, "
                f"got p = {self.p}"
            )
        if not kappa(self.weights).positive:
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


def atom_block(k: int, cfg: CounterexampleConfig, resolution: Resolution) -> DyadicFunction:
    """Block k of the construction at the given resolution."""
    a = cfg.alphas[k]
    if 2 * a + 1 > resolution.bits:
        raise ValueError(
            f"block exponent {a} needs at least {2 * a + 1} bits, "
            f"resolution has {resolution.bits}"
        )
    hi = dirichlet_kernel(1 << (2 * a + 1), resolution)
    lo = dirichlet_kernel(1 << (2 * a), resolution)
    return cfg.block_height(k) * (hi - lo)


def build_martingale(cfg: CounterexampleConfig) -> DyadicFunction:
    """The full test martingale, at the smallest resolution holding it."""
    resolution = Resolution(cfg.required_bits)
    total = np.zeros(resolution.size)
    for k in range(cfg.K):
        total += cfg.block_weight(k) * atom_block(k, cfg, resolution).values
    return DyadicFunction(resolution, total)


def martingale_spectrum(cfg: CounterexampleConfig, resolution: Resolution) -> WalshSpectrum:
    """Closed-form spectrum: block k carries the constant coefficient
    2^(2 a_k (1/p - 1)) / sqrt(a_k) on indices [2^(2a_k), 2^(2a_k+1))."""
    if cfg.required_bits > resolution.bits:
        raise ValueError("resolution too coarse for the last block")
    coeffs = np.zeros(resolution.size)
    for k, a in enumerate(cfg.alphas):
        coeffs[1 << (2 * a) : 1 << (2 * a + 1)] = cfg.block_height(k) * cfg.block_weight(k)
    return WalshSpectrum(resolution, coeffs)


@dataclass(frozen=True)
class ConditionsReport:
    """Spectral-mass screening of a block schedule.

    cond4[k-1]      previous spectral masses stay below the next one:
                    sum_{e<k} 2^(2 a_e / p)/sqrt(a_e) < 2^(2 a_k / p)/sqrt(a_k)
    """

    K: int
    cond4: tuple[bool, ...]
    kappa: float

    @property
    def cond4_all(self) -> bool:
        return all(self.cond4)


def _log2_mass(a: int, p: float) -> float:
    # log2 of 2^(2a/p)/sqrt(a)
    return 2.0 * a / p - 0.5 * math.log2(a)


def check_conditions(cfg: CounterexampleConfig) -> ConditionsReport:
    """Evaluate cond4; log-domain, safe for huge blocks."""
    alphas = cfg.alphas
    cond4: list[bool] = []
    running = None  # log2 of the partial mass sum
    for k in range(1, cfg.K):
        prev_log = _log2_mass(alphas[k - 1], cfg.p)
        running = prev_log if running is None else float(np.logaddexp2(running, prev_log))
        cond4.append(running < _log2_mass(alphas[k], cfg.p))
    return ConditionsReport(cfg.K, tuple(cond4), kappa(cfg.weights).kappa)


@dataclass(frozen=True)
class JigReport:
    """Outcome of the growth condition kappa/Q_n >= C/(n^a ln^b n)."""

    family: str
    n_max: int
    c_required: float
    holds: bool
    best_c_global: float
    best_c_subsequence: float | None


def check_jig(cfg: CounterexampleConfig, n_max: int) -> JigReport:
    """Scan 2 <= n <= n_max for the growth condition with C = c_const,
    and report the largest C that would have worked (globally and along
    the block subsequence n = 2^(2a_k+1))."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    w = cfg.weights
    kap = kappa(w).kappa
    if kap <= 0.0:
        raise PreconditionError(f"kernel floor of {w.label} is not positive")
    w._ensure(n_max)
    n = np.arange(2, n_max + 1, dtype=np.float64)
    Qn = w._qsum[2 : n_max + 1]
    ratio = kap * n**cfg.alpha_exp * np.log(n) ** cfg.beta_exp / Qn
    best_global = float(ratio.min())
    sub = [1 << (2 * a + 1) for a in cfg.alphas if (1 << (2 * a + 1)) <= n_max]
    best_sub = float(min(ratio[i - 2] for i in sub)) if sub else None
    return JigReport(
        w.label, n_max, cfg.c_const, best_global >= cfg.c_const, best_global, best_sub
    )


def guaranteed_floor(cfg: CounterexampleConfig, k: int) -> float:
    """The provable lower bound for the mean of row k on the quarter cell:
    (kappa/Q) * 2^(2 a_k (1/p - 1)) * (1/sqrt(a_k) - 1/(8 a_k))."""
    a = cfg.alphas[k]
    w = cfg.weights
    kap = kappa(w).kappa
    Q = w.Q(1 << (2 * a + 1))
    h = cfg.block_height(k)
    return (kap / Q) * h * (1.0 / math.sqrt(a) - 1.0 / (8.0 * a))


@dataclass(frozen=True)
class DivergenceRow:
    """One row of the blow-up experiment (block k at its own resolution)."""

    k: int
    resolution_used: int
    weak_lp_value: float
    pointwise_floor: float
    theory_bound: float
    hardy_estimate: float  # Hardy size of the newest scaled block, a_k^(-1/2)

    @property
    def ratio(self) -> float:
        return self.weak_lp_value / self.hardy_estimate


@dataclass(frozen=True)
class DivergenceReport:
    """Rows plus the verdicts the experiment is judged by."""

    config: CounterexampleConfig
    rows: tuple[DivergenceRow, ...]
    kappa: float
    theory_constant: float
    conditions: ConditionsReport
    jig: JigReport
    ratios_strictly_increasing: bool
    floors_hold: bool
    weak_floor_consistent: bool

    @property
    def ok(self) -> bool:
        return self.ratios_strictly_increasing and self.floors_hold and self.weak_floor_consistent


# How the reported theory_bound column is normalized: the proof-chain
# constant below multiplies 2^(2 a_k (1/p - 1 - alpha_exp)) / a_k^(beta_exp + 1).
THEORY_CONSTANT_FORMULA = (
    "c = (1/4)^(1/p) * 2^-3 * min_k [ kappa * 2^(2 a_k alpha_exp) "
    "* a_k^(beta_exp+1) / (Q(2^(2 a_k + 1)) * sqrt(a_k)) ]"
)


def _theory_constant(cfg: CounterexampleConfig, kap: float) -> float:
    brackets = []
    for a in cfg.alphas:
        Q = cfg.weights.Q(1 << (2 * a + 1))
        brackets.append(
            kap
            * 2.0 ** (2.0 * a * cfg.alpha_exp)
            * a ** (cfg.beta_exp + 1.0)
            / (Q * math.sqrt(a))
        )
    return 0.25 ** (1.0 / cfg.p) * 0.125 * min(brackets)


def divergence_experiment(cfg: CounterexampleConfig) -> DivergenceReport:
    """Run the blow-up measurement block by block.

    Row k lives at the smallest resolution resolving block k (2a_k + 1
    bits).  Its input is the first 2^(2a_k+1) coefficients of the
    closed-form martingale_spectrum, which are exactly the spectrum of the
    prefix martingale f_k (later blocks start above that index).  The
    measured columns are the exact weak-L_p size of the mean
    t_(2^(2a_k+1)) f_k, the measured minimum of |t f_k| on the quarter
    cell, and the provable floor scaled into the theory_bound column.
    hardy_estimate is the Hardy size of the newest scaled block
    a_k^(-1/2) * atom_k, which is exactly a_k^(-1/2) because its maximal
    function is a single plateau; test_hardy_norm_of_single_block_is_its_weight
    measures it with hardy_norm_estimate.  Divergence shows up as strict
    growth of weak_lp_value / hardy_estimate, the weak size of the mean
    against the Hardy cost of the block that produced it.
    """
    w = cfg.weights
    structure = validate_structure(w, 1 << cfg.required_bits)
    if not structure.ok:
        raise PreconditionError(
            f"weight family {w.label} fails the structure screen: {structure}"
        )
    conditions = check_conditions(cfg)
    if not conditions.cond4_all:
        raise PreconditionError(
            f"block schedule {cfg.alphas} violates the spectral-mass condition (cond4)"
        )
    kap = conditions.kappa
    c_theory = _theory_constant(cfg, kap)
    measure_factor = 0.25 ** (1.0 / cfg.p)
    coeffs = martingale_spectrum(cfg, Resolution(cfg.required_bits)).coefficients

    rows = []
    floors_hold = True
    weak_consistent = True
    for k in range(cfg.K):
        a = cfg.alphas[k]
        bits = 2 * a + 1
        resolution = Resolution(bits)
        prefix = WalshSpectrum(resolution, coeffs[: resolution.size])
        mean = norlund_mean_multiplier(prefix, resolution.size, w)
        on_cell = np.abs(mean.values[cell_indices(QUARTER_CELL, resolution)])
        floor_measured = float(on_cell.min())
        weak_value = weak_lp(mean, cfg.p).value
        theory = (
            c_theory
            * 2.0 ** (2.0 * a * (1.0 / cfg.p - 1.0 - cfg.alpha_exp))
            / a ** (cfg.beta_exp + 1.0)
        )
        rows.append(
            DivergenceRow(k, bits, weak_value, floor_measured, theory, cfg.block_weight(k))
        )
        if floor_measured < guaranteed_floor(cfg, k) - _FLOOR_TOL:
            floors_hold = False
        if weak_value < floor_measured * measure_factor - _FLOOR_TOL:
            weak_consistent = False

    ratios = [r.ratio for r in rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    jig = check_jig(cfg, 1 << cfg.required_bits)
    return DivergenceReport(
        cfg,
        tuple(rows),
        kap,
        c_theory,
        conditions,
        jig,
        increasing,
        floors_hold,
        weak_consistent,
    )


def bounded_case_monitor(
    f: DyadicFunction, w: WeightFamily, p: float
) -> tuple[tuple[int, float], ...]:
    """Ratios ||t_(2^n) f||_p / ||f||_Hp for n = 0..N.

    For families with summable structure (Fejér above all) these stay
    bounded; contrast with the divergence experiment's growing column.
    """
    hardy = hardy_norm_estimate(f, p).value
    if hardy == 0.0:
        raise ValueError("monitor needs a nonzero function")
    spectrum = fwht_forward(f)
    out = []
    for n in range(f.resolution.bits + 1):
        mean = norlund_mean_multiplier(spectrum, 1 << n, w)
        out.append((n, lp_quasinorm(mean, p).value / hardy))
    return tuple(out)


def default_alpha_schedule(
    p: float,
    weights: WeightFamily,
    alpha_exp: float = 0.0,
    beta_exp: float = 0.0,
    cap_bits: int = 15,
) -> tuple[int, ...]:
    """Geometric schedule a_0 * 4^k capped at 2a+1 <= cap_bits, with the
    smallest a_0 whose schedule passes the spectral-mass screen (cond4)."""
    for a0 in range(1, max((cap_bits - 1) // 2, 1) + 1):
        schedule = []
        a = a0
        while 2 * a + 1 <= cap_bits:
            schedule.append(a)
            a *= 4
        if len(schedule) < 2:
            break
        cfg = CounterexampleConfig(
            p=p,
            weights=weights,
            alphas=tuple(schedule),
            alpha_exp=alpha_exp,
            beta_exp=beta_exp,
            c_const=1.0,
        )
        if check_conditions(cfg).cond4_all:
            return tuple(schedule)
    raise ValueError(f"no feasible schedule of length >= 2 under {cap_bits} bits")
