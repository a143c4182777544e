"""Nörlund weight families and the means they generate.

A weight family is a nonnegative sequence q_0, q_1, ... with prefix sums
Q_n = q_0 + ... + q_(n-1).  The Nörlund mean of order n averages the
Walsh partial sums S_1 f .. S_n f with weights read backwards:

    t_n f = (1/Q_n) * sum_{k=1}^{n} q_(n-k) S_k f.

Exchanging the two sums turns this into a spectral multiplier,
t_n f = sum_{j<n} (Q_(n-j)/Q_n) f^(j) w_j, which is how
``norlund_mean_multiplier`` evaluates it.

Built-in families:

    fejer         q_j = 1
    log           q_j = 1/(j+1)
    cesaro:A      q_j = binom(j+A-1, j)   (the (C,A) weights, 0 < A < 1)
    ualpha:A      q_j = (j+1)^(A-1)
    vlog[:q0]     q_j = 1/ln(j+1) for j >= 1, q_0 a free parameter
    custom        explicit finite sequence

The built-in families are non-increasing and convex (fejer's constant
weights trivially, vlog for q_0 >= DEFAULT_VLOG_Q0), which is what the
kernel lower bound downstream needs; ``validate_structure`` proves it
past their first five weights and screens those, and custom sequences
whole.  The quantity

    kappa = q_1 - (3/2) q_3

is that bound's floor constant; families with kappa <= 0 (fejer among
them) fall outside the divergence machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_RESOLUTION_BITS, DyadicFunction
from .errors import DegenerateWeightsError, DegreeError, ResourceCapError
from .transform import WalshSpectrum, synthesize_in_place

__all__ = [
    "DEFAULT_VLOG_Q0",
    "WeightFamily",
    "parse_family",
    "StructureReport",
    "validate_structure",
    "kappa",
    "cesaro_kappa_threshold",
    "ualpha_kappa_threshold",
    "norlund_mean_multiplier",
]

# Smallest q_0 keeping (q_0, q_1, q_2) convex: 2/ln2 - 1/ln3.
DEFAULT_VLOG_Q0 = 2.0 / math.log(2.0) - 1.0 / math.log(3.0)

# Refuse to materialize weight prefixes past this horizon: the largest
# grid admits means of order 2^N, which read Q_0..Q_(2^N), the sums of
# q_0..q_(2^N - 1).
MAX_WEIGHT_HORIZON = 1 << MAX_RESOLUTION_BITS

_STRUCTURE_TOL = 1e-12


def _cesaro_prefix(alpha: float, count: int) -> np.ndarray:
    # A_j^alpha for j = 0..count-1 via the one-term recurrence.
    # Built in place: out holds 1 and the factors (alpha + j)/j, then
    # their running products.
    out = np.empty(count)
    out[:1] = 1.0
    j = np.arange(1, count, dtype=np.float64)
    factors = out[1:]
    np.add(j, alpha, out=factors)
    factors /= j
    np.cumprod(out, out=out)
    return out


class WeightFamily:
    """A Nörlund weight sequence with lazily grown, cached prefix sums.

    ``params`` is a built-in kind's tuple of parameters, or a custom
    family's weights as one read-only float64 array.
    """

    __slots__ = ("kind", "params", "_qsum")

    def __init__(self, kind: str, params: tuple) -> None:
        # Use the fejer()/logarithmic()/... constructors instead.  A custom
        # family is cached whole; built-in kinds start with a 4-term head.
        self.kind = kind
        self.params = params
        self._qsum = np.zeros(1)  # Q_0
        self._ensure(len(params) if kind == "custom" else 4)

    # -- constructors ------------------------------------------------

    @classmethod
    def fejer(cls) -> "WeightFamily":
        """Constant weights; t_n is the Fejér (arithmetic) mean."""
        return cls("fejer", ())

    @classmethod
    def logarithmic(cls) -> "WeightFamily":
        """q_j = 1/(j+1); Q_n is the n-th harmonic number."""
        return cls("log", ())

    @classmethod
    def cesaro(cls, alpha: float) -> "WeightFamily":
        """q_j = A_j^(alpha-1) for 0 < alpha < 1."""
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"cesaro order must lie in (0, 1), got {alpha}")
        return cls("cesaro", (alpha,))

    @classmethod
    def ualpha(cls, alpha: float) -> "WeightFamily":
        """Pure power weights q_j = (j+1)^(alpha-1) for 0 < alpha < 1."""
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"ualpha order must lie in (0, 1), got {alpha}")
        return cls("ualpha", (alpha,))

    @classmethod
    def vlog(cls, q0: float = DEFAULT_VLOG_Q0) -> "WeightFamily":
        """q_j = 1/ln(j+1) for j >= 1, with adjustable q_0."""
        q0 = float(q0)
        if not math.isfinite(q0) or q0 < 0:
            raise ValueError(f"vlog q0 must be finite and >= 0, got {q0}")
        return cls("vlog", (q0,))

    @classmethod
    def custom(cls, values) -> "WeightFamily":
        """An explicit finite weight sequence (nonnegative, finite)."""
        arr = np.array(values, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            raise ValueError("custom weights need at least one value")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("custom weights must be finite and nonnegative")
        arr.setflags(write=False)
        return cls("custom", arr)

    # -- cache plumbing ----------------------------------------------

    def _generate(self, count: int, odd: bool = False) -> np.ndarray:
        """q_0..q_(count-1) as a new array, or with ``odd`` only its odd
        entries q_(count-1), q_(count-3), ..., q_1 of an even count; entry
        j does not depend on count."""
        if self.kind == "custom":
            if count > len(self.params):
                raise DegreeError(
                    f"custom weight family defines only {len(self.params)} weights, "
                    f"{count} requested"
                )
            return (self.params[1:count:2][::-1] if odd else self.params[:count]).copy()
        if count > MAX_WEIGHT_HORIZON:
            # a huge horizon is named by its length, not by all its digits
            shown = count if count < 1 << 64 else f"of {count.bit_length()} bits"
            raise ResourceCapError(
                f"weight horizon {shown} exceeds cap {MAX_WEIGHT_HORIZON}"
            )
        if self.kind == "fejer":
            return np.ones(count // 2 if odd else count)
        if self.kind == "cesaro":
            # a running product cannot skip terms
            q = _cesaro_prefix(self.params[0] - 1.0, count)
            return q[1::2][::-1] if odd else q
        # the rest transform x = j + 1 in place: 1, 2, ..., count, or for
        # the odd entries count, count - 2, ..., 2
        out = np.arange(count, 1.0, -2.0) if odd else np.arange(1.0, count + 1.0)
        if self.kind == "log":
            np.divide(1.0, out, out=out)
        elif self.kind == "ualpha":
            out **= self.params[0] - 1.0
        elif self.kind == "vlog":
            tail = out if odd else out[1:]
            np.log(tail, out=tail)
            np.divide(1.0, tail, out=tail)
            if not odd:
                out[0] = self.params[0]
        else:
            raise AssertionError(f"no generator for kind {self.kind!r}")
        return out

    def _ensure(self, count: int) -> None:
        """Grow the cache so Q_0..Q_count exist."""
        if count < self._qsum.size:
            return
        if self.kind != "custom" and count <= MAX_WEIGHT_HORIZON:
            # at least double, so rising orders regenerate the prefix rarely
            count = min(max(count, 2 * (self._qsum.size - 1)), MAX_WEIGHT_HORIZON)
        q = self._generate(count)  # raises past a custom family's end or the horizon
        # Q_0 = 0 and Q_1..Q_count, accumulated straight into one array
        self._qsum = np.empty(count + 1)
        self._qsum[0] = 0.0
        np.cumsum(q, out=self._qsum[1:])

    # -- access ------------------------------------------------------

    def q(self, j: int) -> float:
        """The weight q_j."""
        if j < 0:
            raise ValueError(f"weight index must be >= 0, got {j}")
        return float(self._generate(j + 1)[j])

    def q_array(self, count: int) -> np.ndarray:
        """q_0..q_(count-1) as a fresh array."""
        return self._generate(count)

    def q_odd(self, count: int) -> np.ndarray:
        """q_(count-1), q_(count-3), ..., q_1 as a fresh array, for an even
        count: the odd-indexed weights below count, highest index first.
        Bit for bit ``q_array(count)[count - 1 :: -2]``, without making the
        even-indexed half where the closed form can skip it."""
        if count % 2:
            raise ValueError(f"odd weights need an even count, got {count}")
        return self._generate(count, odd=True)

    def Q(self, n: int) -> float:
        """Prefix sum Q_n = q_0 + ... + q_(n-1); Q_0 = 0."""
        return float(self.Q_array(n)[n])

    def Q_array(self, n: int) -> np.ndarray:
        """Q_0..Q_n as a read-only view of the cached prefix sums (no copy)."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        self._ensure(n)
        view = self._qsum[: n + 1]
        view.flags.writeable = False
        return view

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
            and bool(np.array_equal(self.params, other.params))
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.kind, (np.asarray(self.params, dtype=np.float64) + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"WeightFamily({self.label!r})"


def parse_family(label: str) -> WeightFamily:
    """Build a family from CLI syntax: fejer | log | cesaro:A | ualpha:A
    | vlog[:q0] | custom:path (one weight value per line)."""
    name, _, arg = label.strip().partition(":")
    try:
        if name in ("fejer", "log") and arg:
            raise ValueError(f"{name} takes no argument")
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
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
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
    (q_(n-2) + q_(n+2) >= 2 q_n).  A custom family is finite and is
    screened whole.  A built-in family needs only its head
    q_0..q_min(n_max, 4), because every later window holds by proof:

    log, cesaro:A and ualpha:A (0 < A < 1) are Hausdorff moment sequences.
    1/(j+1) are the moments of dt on [0, 1], A_j^(A-1) those of
    Beta(A, 1-A), and (j+1)^(A-1) = Gamma(1-A)^(-1) int_0^1 t^j (-ln t)^(-A) dt.
    So they are completely monotone: (-1)^k Delta^k q_j >= 0 for all k and
    j, where Delta q_j = q_(j+1) - q_j.  fejer is constant.  vlog's tail
    1/ln(j+1), j >= 1, samples 1/ln(1+x), completely monotone as the
    reciprocal of the Bernstein function ln(1+x), and by the mean value
    theorem its differences have the signs of its derivatives.  k = 1, 2
    are the first two screens at every j; the third follows from convexity,

        q_(n-2) + q_(n+2) - 2 q_n = Delta^2 q_(n-2) + 2 Delta^2 q_(n-1) + Delta^2 q_n.

    vlog's free q_0 enters only windows inside q_0..q_4.  The numbers are
    screened against this over the whole weight horizon in the tests.
    """
    if n_max < 2:
        raise ValueError(f"structure check needs n_max >= 2, got {n_max}")
    q = w.q_array((n_max if w.kind == "custom" else min(n_max, 4)) + 1)
    return StructureReport(
        w.label,
        n_max,
        bool(np.all(np.diff(q) <= _STRUCTURE_TOL)),
        bool(np.all(q[:-2] + q[2:] - 2.0 * q[1:-1] >= -_STRUCTURE_TOL)),
        bool(np.all(q[:-4] + q[4:] - 2.0 * q[2:-2] >= -_STRUCTURE_TOL)),
    )


def kappa(w: WeightFamily) -> float:
    """The kernel floor constant kappa = q_1 - (3/2) q_3 of a family."""
    return w.q(1) - 1.5 * w.q(3)


def cesaro_kappa_threshold() -> float:
    """The cesaro:A floor constant is positive exactly for A below this
    root of A^2 + 3A - 2: (sqrt(17) - 3)/2."""
    return (math.sqrt(17.0) - 3.0) / 2.0


def ualpha_kappa_threshold() -> float:
    """The ualpha:A floor constant is positive exactly for A < 2 - log2(3)."""
    return 2.0 - math.log2(3.0)


def norlund_mean_multiplier(
    spectrum: WalshSpectrum, n: int, w: WeightFamily
) -> DyadicFunction:
    """Evaluate t_n f from the spectrum: scale f^(j) by Q_(n-j)/Q_n and
    synthesize.  Production path."""
    size = spectrum.resolution.size
    if not 1 <= n <= size:
        raise DegreeError(f"mean order {n} out of range (1..{size})")
    Qn = w.Q(n)
    if Qn <= 0.0:
        raise DegenerateWeightsError(f"Q_{n} = {Qn} for family {w.label}")
    coeffs = np.zeros(size)
    head = coeffs[:n]
    np.divide(w.Q_array(n)[n:0:-1], Qn, out=head)
    head *= spectrum.coefficients[:n]
    return synthesize_in_place(spectrum.resolution, coeffs)
