"""Exhaustive desk-scale verification of the kernel lower bound.

The central fact: for a non-increasing convex weight family, the
windowed kernel sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j has
absolute value at least kappa = q_1 - (3/2) q_3 everywhere on the
quarter cell (both leading coordinates 1).  ``block_kernel`` evaluates
that kernel, and ``kernel_lower_bound_check`` verifies the bound at
every grid cell of the quarter cell at the resolution where the
evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import DyadicFunction, Resolution, quarter_cell_min
from .errors import DegreeError, PreconditionError
from .weights import WeightFamily, kappa, kernel_sum, validate_structure

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
    character in the window is resolved.
    """
    if a < 0:
        raise PreconditionError(f"block exponent must be >= 0, got {a}")
    if resolution.bits < 2 * a + 1:
        raise DegreeError(f"block exponent {a} needs at least {2 * a + 1} bits")
    return kernel_sum(w, 1 << (2 * a), 1 << (2 * a + 1), resolution)


def kernel_lower_bound_check(w: WeightFamily, block_exp: int) -> KernelBoundReport:
    """Check min |block_kernel(w, a)| >= kappa on the quarter cell, for
    a = ``block_exp``.

    The kernel is a step function at rank 2a+1, so its minimum on the
    2a+1-bit grid is exact and a finer grid would only repeat it.
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
    min_abs = quarter_cell_min(block_kernel(w, block_exp, resolution))
    kap = kappa(w).kappa
    return KernelBoundReport(
        w.label, block_exp, resolution.bits, min_abs, kap, min_abs >= kap - _BOUND_TOL
    )
