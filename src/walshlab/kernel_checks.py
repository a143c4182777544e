"""Exhaustive desk-scale verification of the kernel lower bound.

The central fact: for a non-increasing convex weight family, the
windowed kernel sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j has
absolute value at least kappa = q_1 - (3/2) q_3 everywhere on the
quarter cell (both leading coordinates 1).  ``block_kernel`` evaluates
that kernel on the whole grid, and ``kernel_lower_bound_check`` verifies
the bound at every cell of the quarter cell.  This module is the one
place that lays out the window's Walsh coefficients.

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

    d_m = (e_(4m) - e_(4m+1)) - (e_(4m+2) - e_(4m+3)).

The result is bit-identical to reading the 2a+1-bit window, not merely
close.  On lane 3 of the upper half of the window's coefficients, the
butterfly's first two strides compute exactly d_m; on lane 3 of the
lower half they compute (Q_(A+1) - Q_(A+1)) - (Q_(A+1) - Q_(A+1)) = 0.
The strides from 4 to A/2 act on each lane and half alone, as the
2a-2-bit butterfly acts on d.  The last stride, A, sends (0, G) to
(0 + G, 0 - G) = (G, -G) without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFunction, Resolution
from .errors import DegreeError, PreconditionError
from .transform import synthesize_in_place
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
    coeffs = np.zeros(resolution.size)
    coeffs[:A] = w.Q(A + 1)
    coeffs[A : 2 * A] = _window_tail(w, A)
    return synthesize_in_place(resolution, coeffs)


def _window_tail(w: WeightFamily, A: int) -> np.ndarray:
    # e_0..e_(A-1), e_i = Q_(A-i): the window's coefficients at A..2A-1
    return w.Q_array(A)[A:0:-1]


def _quarter_cell_coset(w: WeightFamily, a: int) -> np.ndarray:
    # F_A on the cells x = 3 mod 4 of its 2a-bit grid, in the order of
    # x >> 2: the lane-3 coefficients d, synthesized on 2a - 2 bits
    # row m holds e_(4m)..e_(4m+3)
    lanes = _window_tail(w, 1 << (2 * a)).reshape(-1, 4)
    d = np.subtract(lanes[:, 0], lanes[:, 1])
    d -= np.subtract(lanes[:, 2], lanes[:, 3])
    if a == 1:
        return d  # one coefficient: the synthesis on 0 bits is d_0 itself
    return synthesize_in_place(Resolution(2 * a - 2), d).values


def kernel_lower_bound_check(w: WeightFamily, block_exp: int) -> KernelBoundReport:
    """Check min |block_kernel(w, a)| >= kappa on the quarter cell, for
    a = ``block_exp``.

    The kernel is a step function at rank 2a+1, so its minimum over the
    quarter cell of the 2a+1-bit grid is exact; the report's ``bits``
    names that grid, which must fit under the resolution cap.  The
    minimum is read from the 2^(2a-2) values of the Nörlund kernel F_A
    on its quarter-cell coset (see the module docstring), which the
    window takes with both signs, bit for bit.

    Families failing the structure screen over the window's weights are
    rejected (for built-in families the screen reads only the head; see
    validate_structure); a nonpositive kappa makes the check pass
    vacuously (the bound claims nothing).
    """
    if block_exp < 1:
        raise PreconditionError(f"block exponent must be >= 1, got {block_exp}")
    resolution = Resolution(2 * block_exp + 1)
    structure = validate_structure(w, (1 << (2 * block_exp)) + 2)
    if not structure.ok:
        raise PreconditionError(
            f"weight family {w.label} fails the structure screen: {structure}"
        )
    min_abs = float(np.abs(_quarter_cell_coset(w, block_exp)).min())
    kap = kappa(w).kappa
    return KernelBoundReport(
        w.label, block_exp, resolution.bits, min_abs, kap, min_abs >= kap - _BOUND_TOL
    )
