"""Nörlund weight families and the means they generate.

A weight family is a nonnegative sequence q_0, q_1, ... with prefix sums
Q_n = q_0 + ... + q_(n-1).  The Nörlund mean of order n averages the
Walsh partial sums S_1 f .. S_n f with weights read backwards:

    t_n f = (1/Q_n) * sum_{k=1}^{n} q_(n-k) S_k f.

Exchanging the two sums turns this into a spectral multiplier,
t_n f = sum_{j<n} (Q_(n-j)/Q_n) f^(j) w_j, which is the production
evaluation path; the literal weighted accumulation is kept as
``norlund_mean_naive`` so the two routes can be checked against each
other.

Built-in families:

    fejer         q_j = 1
    log           q_j = 1/(j+1)
    cesaro:A      q_j = binom(j+A-1, j)   (the (C,A) weights, 0 < A < 1)
    ualpha:A      q_j = (j+1)^(A-1)
    vlog[:q0]     q_j = 1/ln(j+1) for j >= 1, q_0 a free parameter
    custom        explicit finite sequence

All of these except fejer are non-increasing and convex, which is what
the kernel lower bound downstream needs.  The quantity

    kappa = q_1 - (3/2) q_3

is that bound's floor constant; families with kappa <= 0 (fejer among
them) fall outside the divergence machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFunction, Resolution
from .errors import DegenerateWeightsError, DegreeError, ResourceCapError
from .transform import WalshSpectrum, _sign_table, fwht_forward, fwht_inverse

__all__ = [
    "DEFAULT_VLOG_Q0",
    "WeightFamily",
    "parse_family",
    "cesaro_A",
    "StructureReport",
    "validate_structure",
    "KappaReport",
    "kappa",
    "cesaro_kappa_threshold",
    "ualpha_kappa_threshold",
    "norlund_multipliers",
    "norlund_mean_naive",
    "norlund_mean_multiplier",
    "kernel_sum",
]

# Smallest q_0 keeping (q_0, q_1, q_2) convex: 2/ln2 - 1/ln3.
DEFAULT_VLOG_Q0 = 2.0 / math.log(2.0) - 1.0 / math.log(3.0)

# Refuse to materialize weight prefixes past this horizon.
MAX_WEIGHT_HORIZON = 1 << 22

_STRUCTURE_TOL = 1e-12


def cesaro_A(n: int, alpha: float) -> float:
    """The Cesàro number A_n^alpha = (alpha+1)(alpha+2)...(alpha+n)/n!.

    A_0^alpha = 1 (empty product).  Requires alpha not a negative integer.
    """
    if n < 0:
        raise ValueError(f"Cesàro number index must be >= 0, got {n}")
    if alpha < 0 and float(alpha).is_integer():
        raise ValueError(f"Cesàro numbers undefined for alpha = {alpha}")
    return float(_cesaro_prefix(alpha, n + 1)[-1])


def _cesaro_prefix(alpha: float, count: int) -> np.ndarray:
    # A_j^alpha for j = 0..count-1 via the one-term recurrence.
    if count <= 0:
        return np.zeros(0)
    j = np.arange(1, count, dtype=np.float64)
    factors = (alpha + j) / j
    return np.concatenate(([1.0], np.cumprod(factors)))


class WeightFamily:
    """A Nörlund weight sequence with lazily grown, cached prefix sums."""

    __slots__ = ("kind", "params", "_q", "_qsum")

    def __init__(self, kind: str, params: tuple, q_values: np.ndarray) -> None:
        # Use the fejer()/logarithmic()/... constructors instead.
        self.kind = kind
        self.params = params
        self._q = q_values
        self._qsum = np.concatenate(([0.0], np.cumsum(q_values)))

    # -- constructors ------------------------------------------------

    @classmethod
    def fejer(cls) -> "WeightFamily":
        """Constant weights; t_n is the Fejér (arithmetic) mean."""
        return cls("fejer", (), np.ones(4))

    @classmethod
    def logarithmic(cls) -> "WeightFamily":
        """q_j = 1/(j+1); Q_n is the n-th harmonic number."""
        return cls("log", (), 1.0 / np.arange(1.0, 5.0))

    @classmethod
    def cesaro(cls, alpha: float) -> "WeightFamily":
        """q_j = A_j^(alpha-1) for 0 < alpha < 1."""
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"cesaro order must lie in (0, 1), got {alpha}")
        return cls("cesaro", (alpha,), _cesaro_prefix(alpha - 1.0, 4))

    @classmethod
    def ualpha(cls, alpha: float) -> "WeightFamily":
        """Pure power weights q_j = (j+1)^(alpha-1) for 0 < alpha < 1."""
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"ualpha order must lie in (0, 1), got {alpha}")
        return cls("ualpha", (alpha,), np.arange(1.0, 5.0) ** (alpha - 1.0))

    @classmethod
    def vlog(cls, q0: float = DEFAULT_VLOG_Q0) -> "WeightFamily":
        """q_j = 1/ln(j+1) for j >= 1, with adjustable q_0."""
        q0 = float(q0)
        if not math.isfinite(q0) or q0 < 0:
            raise ValueError(f"vlog q0 must be finite and >= 0, got {q0}")
        head = np.concatenate(([q0], 1.0 / np.log(np.arange(2.0, 5.0))))
        return cls("vlog", (q0,), head)

    @classmethod
    def custom(cls, values) -> "WeightFamily":
        """An explicit finite weight sequence (nonnegative, finite)."""
        arr = np.array(values, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            raise ValueError("custom weights need at least one value")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("custom weights must be finite and nonnegative")
        return cls("custom", tuple(float(v) for v in arr), arr)

    # -- cache plumbing ----------------------------------------------

    def _generate(self, count: int) -> np.ndarray:
        if self.kind == "fejer":
            return np.ones(count)
        if self.kind == "log":
            return 1.0 / np.arange(1.0, count + 1.0)
        if self.kind == "cesaro":
            return _cesaro_prefix(self.params[0] - 1.0, count)
        if self.kind == "ualpha":
            return np.arange(1.0, count + 1.0) ** (self.params[0] - 1.0)
        if self.kind == "vlog":
            out = np.empty(count)
            out[0] = self.params[0]
            if count > 1:
                out[1:] = 1.0 / np.log(np.arange(2.0, count + 1.0))
            return out
        raise AssertionError(f"no generator for kind {self.kind!r}")

    def _ensure(self, count: int) -> None:
        """Grow the cache so q_0..q_(count-1) and Q_0..Q_count exist."""
        if count <= self._q.size:
            return
        if self.kind == "custom":
            raise DegreeError(
                f"custom weight family defines only {self._q.size} weights, "
                f"{count} requested"
            )
        if count > MAX_WEIGHT_HORIZON:
            raise ResourceCapError(
                f"weight horizon {count} exceeds cap {MAX_WEIGHT_HORIZON}"
            )
        grown = max(count, 2 * self._q.size)
        self._q = self._generate(grown)
        self._qsum = np.concatenate(([0.0], np.cumsum(self._q)))

    # -- access ------------------------------------------------------

    def q(self, j: int) -> float:
        """The weight q_j."""
        if j < 0:
            raise ValueError(f"weight index must be >= 0, got {j}")
        self._ensure(j + 1)
        return float(self._q[j])

    def q_array(self, count: int) -> np.ndarray:
        """q_0..q_(count-1) as a fresh array."""
        self._ensure(count)
        return self._q[:count].copy()

    def Q(self, n: int) -> float:
        """Prefix sum Q_n = q_0 + ... + q_(n-1); Q_0 = 0."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        if n > 0:
            self._ensure(n)
        return float(self._qsum[n])

    @property
    def label(self) -> str:
        """Canonical name; reparses to an equal family."""
        if self.kind in ("fejer", "log"):
            return self.kind
        if self.kind == "custom":
            return "custom"
        if self.kind == "vlog" and self.params[0] == DEFAULT_VLOG_Q0:
            return "vlog"
        return f"{self.kind}:{self.params[0]!r}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightFamily)
            and self.kind == other.kind
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    def __repr__(self) -> str:
        return f"WeightFamily({self.label!r})"


def parse_family(label: str) -> WeightFamily:
    """Build a family from CLI syntax: fejer | log | cesaro:A | ualpha:A
    | vlog[:q0] | custom:path (one weight value per line)."""
    name, _, arg = label.strip().partition(":")
    try:
        if name == "fejer":
            return WeightFamily.fejer()
        if name == "log":
            return WeightFamily.logarithmic()
        if name == "cesaro":
            return WeightFamily.cesaro(float(arg))
        if name == "ualpha":
            return WeightFamily.ualpha(float(arg))
        if name == "vlog":
            return WeightFamily.vlog(float(arg)) if arg else WeightFamily.vlog()
        if name == "custom":
            if not arg:
                raise ValueError("custom needs a file path: custom:PATH")
            text = open(arg, "r", encoding="utf-8").read()
            vals = [float(tok) for tok in text.replace(",", " ").split()]
            return WeightFamily.custom(vals)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot parse weight family {label!r}: {exc}") from exc
    raise ValueError(f"unknown weight family {label!r}")


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the monotonicity/convexity screen of a weight prefix."""

    family: str
    horizon: int
    non_increasing: bool
    convex: bool
    second_gap: bool

    @property
    def ok(self) -> bool:
        return self.non_increasing and self.convex and self.second_gap


def validate_structure(w: WeightFamily, n_max: int) -> StructureReport:
    """Screen q_0..q_(n_max) for the kernel-bound hypotheses.

    Checks, with 1e-12 slack: the prefix is non-increasing, convex
    (q_(n-1) + q_(n+1) >= 2 q_n), and convex across gaps of two
    (q_(n-2) + q_(n+2) >= 2 q_n).
    """
    if n_max < 2:
        raise ValueError(f"structure check needs n_max >= 2, got {n_max}")
    q = w.q_array(n_max + 1)
    non_inc = bool(np.all(np.diff(q) <= _STRUCTURE_TOL))
    convex = bool(np.all(q[:-2] + q[2:] - 2.0 * q[1:-1] >= -_STRUCTURE_TOL))
    gap2 = bool(np.all(q[:-4] + q[4:] - 2.0 * q[2:-2] >= -_STRUCTURE_TOL))
    return StructureReport(w.label, n_max, non_inc, convex, gap2)


@dataclass(frozen=True)
class KappaReport:
    """The kernel floor constant kappa = q_1 - (3/2) q_3 of a family."""

    family: str
    kappa: float
    positive: bool


def kappa(w: WeightFamily) -> KappaReport:
    """Compute kappa = q_1 - (3/2) q_3 and report its sign."""
    value = w.q(1) - 1.5 * w.q(3)
    return KappaReport(w.label, value, value > 0.0)


def cesaro_kappa_threshold() -> float:
    """The cesaro:A floor constant is positive exactly for A below this
    root of A^2 + 3A - 2: (sqrt(17) - 3)/2."""
    return (math.sqrt(17.0) - 3.0) / 2.0


def ualpha_kappa_threshold() -> float:
    """The ualpha:A floor constant is positive exactly for A < 2 - log2(3)."""
    return 2.0 - math.log2(3.0)


def _checked_Q(w: WeightFamily, n: int) -> float:
    Qn = w.Q(n)
    if Qn <= 0.0:
        raise DegenerateWeightsError(f"Q_{n} = {Qn} for family {w.label}")
    return Qn


def norlund_multipliers(w: WeightFamily, n: int) -> np.ndarray:
    """The spectral multipliers Q_(n-j)/Q_n for j = 0..n-1."""
    if n < 1:
        raise ValueError(f"mean order must be >= 1, got {n}")
    Qn = _checked_Q(w, n)
    w._ensure(n)
    return w._qsum[1 : n + 1][::-1] / Qn


def norlund_mean_multiplier(
    spectrum: WalshSpectrum, n: int, w: WeightFamily
) -> DyadicFunction:
    """Evaluate t_n f from the spectrum: scale f^(j) by Q_(n-j)/Q_n and
    synthesize.  Production path."""
    size = spectrum.resolution.size
    if not 1 <= n <= size:
        raise DegreeError(f"mean order {n} out of range (1..{size})")
    scaled = np.zeros(size)
    scaled[:n] = spectrum.coefficients[:n] * norlund_multipliers(w, n)
    return fwht_inverse(WalshSpectrum(spectrum.resolution, scaled))


def norlund_mean_naive(f: DyadicFunction, n: int, w: WeightFamily) -> DyadicFunction:
    """Evaluate t_n f by the definition: accumulate q_(n-k) S_k f with the
    partial sums built incrementally.  Test oracle; O(n 2^N)."""
    size = f.resolution.size
    if not 1 <= n <= size:
        raise DegreeError(f"mean order {n} out of range (1..{size})")
    Qn = _checked_Q(w, n)
    coeff = fwht_forward(f).coefficients
    running = np.full(size, coeff[0])  # S_1 f
    acc = w.q(n - 1) * running
    for k in range(2, n + 1):
        running = running + coeff[k - 1] * _sign_table(k - 1, size)
        acc = acc + w.q(n - k) * running
    return DyadicFunction(f.resolution, acc / Qn)


def kernel_sum(w: WeightFamily, a: int, b: int, resolution: Resolution) -> DyadicFunction:
    """The windowed kernel sum_{j=a}^{b} q_(b-j) D_j, evaluated exactly.

    Collecting the Walsh coefficient of each character gives the
    synthesis form sum_{m<b} Q_(b - max(a, m+1) + 1) w_m, which one
    inverse transform evaluates on the whole grid.
    """
    size = resolution.size
    if not 1 <= a <= b <= size:
        raise DegreeError(f"kernel window [{a}, {b}] out of range (1..{size})")
    w._ensure(b - a + 1)
    coeffs = np.zeros(size)
    coeffs[:a] = w._qsum[b - a + 1]
    if b > a:
        coeffs[a:b] = w._qsum[1 : b - a + 1][::-1]
    return fwht_inverse(WalshSpectrum(resolution, coeffs))
