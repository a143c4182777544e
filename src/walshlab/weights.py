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
from typing import Iterator

import numpy as np

from .dyadic import MAX_RESOLUTION_BITS, DyadicFunction, Resolution
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
    "norlund_mean_in_place",
]

# Smallest q_0 keeping (q_0, q_1, q_2) convex: 2/ln2 - 1/ln3.
DEFAULT_VLOG_Q0 = 2.0 / math.log(2.0) - 1.0 / math.log(3.0)

# Refuse to materialize weight prefixes past this horizon: the largest
# grid admits means of order 2^N, which read Q_0..Q_(2^N), the sums of
# q_0..q_(2^N - 1).
MAX_WEIGHT_HORIZON = 1 << MAX_RESOLUTION_BITS

_STRUCTURE_TOL = 1e-12


# Weights are generated this many at a time, each chunk written into the
# array that keeps it.
_CHUNK = 1 << 16


class WeightFamily:
    """A Nörlund weight sequence, generated and summed on demand, a chunk
    at a time; a family keeps nothing but its kind and parameters.

    ``params`` is a built-in kind's tuple of parameters, or a custom
    family's weights as one read-only float64 array.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple) -> None:
        # Use the fejer()/logarithmic()/... constructors instead.
        self.kind = kind
        self.params = params

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

    # -- generation --------------------------------------------------

    def _admit(self, count: int) -> None:
        """Refuse q_0..q_(count-1) past a custom family's end or the weight
        horizon, before anything of their size is allocated."""
        if self.kind == "custom":
            if count > len(self.params):
                raise DegreeError(
                    f"custom weight family defines only {len(self.params)} weights, "
                    f"{count} requested"
                )
        elif count > MAX_WEIGHT_HORIZON:
            # a huge horizon is named by its length, not by all its digits
            shown = count if count < 1 << 64 else f"of {count.bit_length()} bits"
            raise ResourceCapError(
                f"weight horizon {shown} exceeds cap {MAX_WEIGHT_HORIZON}"
            )

    def _closed_form(self, x: np.ndarray) -> None:
        """Turn x = j + 1 into q_j in place, for j >= 1 (vlog's q_0 is free)."""
        if self.kind == "log":
            np.divide(1.0, x, out=x)
        elif self.kind == "ualpha":
            x **= self.params[0] - 1.0
        elif self.kind == "vlog":
            np.log(x, out=x)
            np.divide(1.0, x, out=x)
        else:
            raise AssertionError(f"no closed form for kind {self.kind!r}")

    def _chunks(
        self, count: int, out: np.ndarray | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Write q_0..q_(count-1) _CHUNK weights at a time into ``out`` (of
        count entries), or into one scratch chunk, and yield each chunk with
        its first index as soon as it is written; the caller may overwrite
        it.  Entry j does not depend on count, and is bit for bit the value
        of a whole-array generation: the closed forms act elementwise, and
        cesaro's running product is carried across chunks, its first
        factor times the product so far."""
        j = np.arange(float(min(count, _CHUNK)))  # the chunk's indices, moved on each chunk
        scratch = np.empty(j.size) if out is None else None
        carry = 1.0  # cesaro's q_(start-1)
        for start in range(0, count, _CHUNK):
            if start:
                j += _CHUNK
            stop = min(start + _CHUNK, count)
            chunk = scratch[: stop - start] if out is None else out[start:stop]
            x = j[: stop - start]
            if self.kind == "custom":
                np.copyto(chunk, self.params[start:stop])
            elif self.kind == "fejer":
                chunk.fill(1.0)
            elif self.kind == "cesaro":
                # cesaro:A's factors (j + A - 1)/j and their running
                # product; q_0 = 1 has no factor, which keeps j = 0 from 0/0
                skip = 0 if start else 1
                chunk[:skip] = 1.0
                np.add(x[skip:], self.params[0] - 1.0, out=chunk[skip:])
                chunk[skip:] /= x[skip:]
                if start:
                    chunk[0] *= carry
                np.cumprod(chunk, out=chunk)
                carry = float(chunk[-1])
            else:
                np.add(x, 1.0, out=chunk)
                if self.kind == "vlog" and not start:
                    self._closed_form(chunk[1:])
                    chunk[0] = self.params[0]
                else:
                    self._closed_form(chunk)
            yield start, chunk

    # -- access ------------------------------------------------------

    def q(self, j: int) -> float:
        """The weight q_j."""
        if j < 0:
            raise ValueError(f"weight index must be >= 0, got {j}")
        return float(self.q_array(j + 1)[j])

    def q_array(self, count: int) -> np.ndarray:
        """q_0..q_(count-1) as a fresh array."""
        self._admit(count)
        out = np.empty(count)
        for _ in self._chunks(count, out):
            pass
        return out

    def coset_differences(self, count: int) -> np.ndarray:
        """d_m = q_(count-4m-1) - q_(count-4m-3), m < count/4, as a fresh
        array for a multiple of 4: bit for bit ``q[count - 1 :: -4] -
        q[count - 3 :: -4]`` of ``q_array(count)``.  The closed forms make
        only the weights they difference, in d's own buffer and one scratch
        chunk, and cesaro's running product is streamed, each chunk
        differenced into d."""
        if count < 4 or count % 4:
            raise ValueError(f"coset differences need a positive multiple of 4, got {count}")
        self._admit(count)
        if self.kind == "custom":
            return self.params[count - 1 :: -4] - self.params[count - 3 :: -4]
        if self.kind == "fejer":
            return np.zeros(count // 4)
        if self.kind == "cesaro":
            d = np.empty(count // 4)
            for start, chunk in self._chunks(count):
                # j = start + 4k + 3 and j - 2 land at m = (count - 1 - j)/4
                stop = (count - start) // 4
                np.subtract(chunk[-1::-4], chunk[-3::-4], out=d[stop - chunk.size // 4 : stop])
            return d
        # x = j + 1 at j = count - 4m - 1 is count - 4m, and at j - 2 it is
        # 2 less: exact integers, each chunk's lower ones in one scratch chunk
        d = np.arange(float(count), 0.0, -4.0)
        scratch = np.empty(min(d.size, _CHUNK))
        for start in range(0, d.size, _CHUNK):
            hi = d[start : start + _CHUNK]
            lo = scratch[: hi.size]
            np.subtract(hi, 2.0, out=lo)
            self._closed_form(hi)
            self._closed_form(lo)
            hi -= lo
        return d

    def Q_chunks(
        self, count: int, out: np.ndarray | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Stream the prefix sums Q_1..Q_count: yield (start, chunk), where
        chunk holds Q_(start+1)..Q_(start+chunk.size), _CHUNK sums at a
        time.

        They are written into ``out`` (of count entries) when it is given,
        and otherwise into one scratch chunk that the next step reuses, so
        a caller keeps what it needs of a chunk before asking for the next.
        The weights are written into the chunk and summed in place, the sum
        carried across chunks; numpy accumulates in order, so every sum is
        bit for bit that of one cumsum, whatever the count.  Every prefix
        sum the package reads is made here."""
        self._admit(count)
        carry = 0.0
        for start, chunk in self._chunks(count, out):
            if start:
                chunk[0] += carry
            np.cumsum(chunk, out=chunk)
            carry = float(chunk[-1])
            yield start, chunk

    def Q(self, n: int) -> float:
        """Prefix sum Q_n = q_0 + ... + q_(n-1); Q_0 = 0: the last sum of
        one ``Q_chunks`` stream, which holds two chunks of scratch."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        chunk = np.zeros(1)  # Q_0
        for _, chunk in self.Q_chunks(n):
            pass
        return float(chunk[-1])

    def Q_array(self, n: int) -> np.ndarray:
        """Q_0..Q_n as a fresh array, ``Q_chunks`` streamed into it."""
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        self._admit(n)  # before the array; the stream admits it again
        out = np.empty(n + 1)
        out[0] = 0.0  # Q_0
        for _ in self.Q_chunks(n, out[1:]):
            pass
        return out

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
    """Evaluate t_n f from the spectrum: ``norlund_mean_in_place`` run on
    the first n coefficients, zero-padded.  Production path."""
    coeffs = np.zeros(spectrum.resolution.size)
    coeffs[:n] = spectrum.coefficients[:n]
    return norlund_mean_in_place(coeffs, n, w)


def norlund_mean_in_place(coefficients: np.ndarray, n: int, w: WeightFamily) -> DyadicFunction:
    """t_n f from a buffer of f's Walsh coefficients the caller gives up.

    ``coefficients`` must be a writable, contiguous 1-D float64 array of
    2^N entries, N >= 1, and the grid is read from its length
    (``Resolution.of_buffer``); the order n is checked against it after
    the buffer.  Each f^(j) with j < n is scaled by Q_(n-j)/Q_n, the
    multipliers formed in a fresh array of the prefix sums, every f^(j)
    with j >= n is zeroed, and the buffer is synthesized in place; the
    mean adopts it, so no copy is made and the caller must not use it
    again.
    """
    size = Resolution.of_buffer(coefficients).size
    if not 1 <= n <= size:
        raise DegreeError(f"mean order {n} out of range (1..{size})")
    Q = w.Q_array(n)
    Qn = float(Q[n])
    if Qn <= 0.0:
        raise DegenerateWeightsError(f"Q_{n} = {Qn} for family {w.label}")
    Q /= Qn
    coefficients[:n] *= Q[n:0:-1]
    del Q  # freed before the butterfly takes its own scratch
    coefficients[n:] = 0.0
    return synthesize_in_place(coefficients)
