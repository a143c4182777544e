"""Exhaustive desk-scale verification of the kernel lower bound.

The central fact: for a non-increasing convex weight family, the
windowed kernel sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j has
absolute value at least kappa = q_1 - (3/2) q_3 everywhere on the
quarter cell (both leading coordinates 1).  ``block_kernel`` evaluates
that kernel on the whole grid, and ``kernel_lower_bound_check`` verifies
the bound at every cell of the quarter cell.  ``block_kernel`` lays out
the window's Walsh coefficients; the divergence experiment writes the
upper ones too, divided by Q_(2^(2a+1)), as a row mean's newest block.

The check needs only a quarter of the kernel.  Let A = 2^(2a).  The
window kernel's Walsh coefficients are Q_(A+1) below A and
e_i = Q_(A-i) at A + i, so

    window = Q_(A+1) D_A + r_(2a) F_A,   F_A = sum_{i<A} Q_(A-i) w_i,

where F_A is the unnormalized Nörlund kernel of order A, a function on
2a bits.  D_A vanishes off the rank-2a cell at 0, hence on the quarter
cell, and there the window is +F_A or -F_A as the coordinate x_(2a) is
0 or 1.  On the coset x = 3 mod 4 a character w_(4m+r) equals
(-1)^popcount(r) w_m(x >> 2), so F_A restricted to it is the Walsh
series on 2a - 2 bits with coefficients

    d_m = (e_(4m) - e_(4m+1)) - (e_(4m+2) - e_(4m+3)) = q_(A-4m-1) - q_(A-4m-3),

since Q_n - Q_(n-1) = q_(n-1).  The check takes d straight from the
weights (``WeightFamily.coset_differences``), never from a prefix sum:
differences of Q would lose about eps Q_A per coefficient, and Q_A grows
with A.  Against an np.longdouble recomputation from the weights at
a = 10, the coset's largest error is 2.6e-16 (log), 1.3e-16
(cesaro:0.25), 3.0e-16 (ualpha:0.3), 1.8e-14 (vlog) and 1.3e-12
(cesaro:0.8, whose running-product weights carry it) from q, against
1.7e-12, 4.8e-12, 2.7e-11, 7.9e-9 and 7.4e-9 from Q.  So the check's
minimum matches block_kernel's window, which reads Q, to that window's
roundoff and not bit for bit.

Every row's coset is an intermediate of the widest row's synthesis.  Row
a's coefficients are the last 4^(a-1) of the widest row's d, and they
split as [2q | q | q], q = 4^(a-2), where the last q are row a-1's.  The
butterfly synthesizes a buffer by its halves and then joins them with
its last stride, so completing the synthesis of the upper half [q | q]
and then of the whole (``complete_synthesis_in_place``, which
synthesizes a lower half and joins it to a synthesized upper one) turns
row a-1's values into row a's, bit for bit the synthesis of row a's own
coefficients.  The check runs the rows bottom-up in d's one buffer and
reads each row's minimum before the next row's joins overwrite it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFunction, Resolution
from .errors import DegreeError, PreconditionError
from .transform import complete_synthesis_in_place, synthesize_in_place
from .weights import WeightFamily, kappa, validate_structure

__all__ = [
    "KernelBoundReport",
    "block_kernel",
    "kernel_lower_bound_check",
]

_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class KernelBoundReport:
    """Minimum of |windowed kernel| on the quarter cell vs the floor."""

    family: str
    block_exp: int
    bits: int
    min_abs_kernel: float
    kappa: float
    passed: bool


def block_kernel(w: WeightFamily, a: int, resolution: Resolution) -> DyadicFunction:
    """The windowed kernel sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j.

    It needs at least 2a+1 bits, the coarsest grid on which every
    character in the window is resolved.  With A = 2^(2a), one inverse
    transform synthesizes its Walsh coefficients: Q_(A+1) below A, and
    e_i = Q_(A-i) at A + i.
    """
    if a < 0:
        raise PreconditionError(f"block exponent must be >= 0, got {a}")
    if resolution.bits < 2 * a + 1:
        raise DegreeError(f"block exponent {a} needs at least {2 * a + 1} bits")
    A = 1 << (2 * a)
    Q = w.Q_array(A + 1)
    coeffs = np.zeros(resolution.size)
    coeffs[:A] = Q[A + 1]
    coeffs[A : 2 * A] = Q[A:0:-1]
    del Q  # freed before the butterfly takes its own scratch
    return synthesize_in_place(coeffs)


def kernel_lower_bound_check(
    w: WeightFamily, block_exps: Sequence[int]
) -> list[KernelBoundReport]:
    """Check min |block_kernel(w, a)| >= kappa on the quarter cell, for
    each a in ``block_exps``; one report per exponent, in their order.

    The kernel is a step function at rank 2a+1, so its minimum over the
    quarter cell of the 2a+1-bit grid is exact; each report's ``bits``
    names that grid.  The grid is never built, so it may pass the
    resolution cap; the weights q_0..q_(4^a - 1) must fit under the
    weight horizon.  The minimum is read from the 2^(2a-2) values of the
    Nörlund kernel F_A on its quarter-cell coset, whose coefficients are
    differences of the odd-indexed weights (see the module docstring),
    made once for the widest window and synthesized there once, bottom-up:
    each row's coset is the previous row's, joined with its fresh
    coefficients, and no row is copied.

    Families failing the structure screen over the widest window's
    weights are rejected (for built-in families the screen reads only
    the head; see validate_structure); a nonpositive kappa makes the
    check pass vacuously (the bound claims nothing).  A coset value that
    is not finite, in any row, survives every later join into the widest
    row, whose adoption raises ValueError before a report is returned.
    """
    low = min(block_exps, default=None)
    if low is None or low < 1:
        raise PreconditionError(f"block exponents must be >= 1, got {low}")
    top = max(block_exps)
    widest = 1 << (2 * top)
    structure = validate_structure(w, widest + 2)
    if not structure.ok:
        raise PreconditionError(
            f"weight family {w.label} fails the structure screen: {structure}"
        )
    d = w.coset_differences(widest)
    kap = kappa(w)
    wanted = set(block_exps)
    minima = {}
    for a in range(1, top + 1):
        # row a is d's last 4^(a-1) entries; on 0 bits, at a = 1, the one
        # coefficient is its own synthesis
        coset = d[d.size - (1 << (2 * a - 2)) :]
        if a > 1:
            # [2q fresh | q fresh | q of row a-1, synthesized], q = 4^(a-2):
            # the upper half first, then the whole
            complete_synthesis_in_place(coset[coset.size // 2 :])
            complete_synthesis_in_place(coset)
        if a in wanted and a < top:  # the widest row is read in place below
            minima[a] = float(np.abs(coset).min())
    np.abs(d, out=d)  # not finite exactly where d is not
    if d.size > 1:
        DyadicFunction.adopt(Resolution.of_buffer(d), d)
    minima[top] = float(d.min())
    return [
        KernelBoundReport(w.label, a, 2 * a + 1, minima[a], kap, minima[a] >= kap - _BOUND_TOL)
        for a in block_exps
    ]
