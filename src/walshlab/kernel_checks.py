"""Exhaustive desk-scale verification of the kernel lower bound.

The central fact: for a non-increasing convex weight family, the
windowed kernel sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j has
absolute value at least kappa = q_1 - (3/2) q_3 everywhere on the
quarter cell (both leading coordinates 1).  ``kernel_lower_bound_check``
verifies this by evaluating the kernel at every grid cell of the quarter
cell at a resolution where the evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import QUARTER_CELL, Resolution, cell_indices
from .errors import DegreeError, PreconditionError
from .weights import WeightFamily, kappa, kernel_sum, validate_structure

__all__ = [
    "KernelBoundReport",
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


def kernel_lower_bound_check(
    w: WeightFamily, block_exp: int, resolution: Resolution | None = None
) -> KernelBoundReport:
    """Check min |sum_{j=2^(2a)}^{2^(2a+1)} q_(2^(2a+1)-j) D_j| >= kappa
    on the quarter cell, for a = ``block_exp``.

    The default resolution, 2a+1 bits, is the coarsest on which every
    character in the window is resolved; the kernel is a step function
    at that rank, so the minimum is exact.  Families failing the
    structure screen are rejected; a nonpositive kappa makes the check
    pass vacuously (the bound claims nothing).
    """
    if block_exp < 1:
        raise PreconditionError(f"block exponent must be >= 1, got {block_exp}")
    if resolution is None:
        resolution = Resolution(2 * block_exp + 1)
    lo = 1 << (2 * block_exp)
    hi = 1 << (2 * block_exp + 1)
    if hi > resolution.size:
        raise DegreeError(
            f"block exponent {block_exp} needs at least {2 * block_exp + 1} bits"
        )
    structure = validate_structure(w, hi - lo + 2)
    if not structure.ok:
        raise PreconditionError(
            f"weight family {w.label} fails the structure screen: {structure}"
        )
    kernel = kernel_sum(w, lo, hi, resolution)
    on_cell = np.abs(kernel.values[cell_indices(QUARTER_CELL, resolution)])
    min_abs = float(on_cell.min())
    kap = kappa(w).kappa
    return KernelBoundReport(
        w.label, block_exp, resolution.bits, min_abs, kap, min_abs >= kap - _BOUND_TOL
    )
