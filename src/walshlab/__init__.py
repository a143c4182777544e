"""walshlab: a numerical laboratory for Walsh-Fourier summability.

The package works on the finite dyadic group at resolution N (2^N
cells).  It provides the Walsh-Paley basis and fast transform, Dirichlet
kernels in exact integer arithmetic, Nörlund means for a catalogue of
weight families, exact weak-L_p and dyadic maximal-function sizes, an
exhaustively verified lower bound for windowed Nörlund kernels on the
quarter cell, and a block-martingale construction whose means blow up in
weak-L_p relative to the Hardy size once the kernel floor constant
kappa = q_1 - (3/2) q_3 is positive and p is small.
"""

from .dyadic import (
    MAX_RESOLUTION_BITS,
    DyadicFunction,
    Resolution,
    quarter_cell_min,
)
from .errors import (
    ConfigError,
    DegenerateWeightsError,
    DegreeError,
    PreconditionError,
    ResourceCapError,
    WalshLabError,
)
from .transform import (
    WalshSpectrum,
    dirichlet_kernel,
    fwht_forward,
    fwht_inverse,
    walsh_function,
)
from .weights import (
    DEFAULT_VLOG_Q0,
    KappaReport,
    StructureReport,
    WeightFamily,
    cesaro_kappa_threshold,
    kappa,
    kernel_sum,
    norlund_mean_multiplier,
    norlund_multipliers,
    parse_family,
    ualpha_kappa_threshold,
    validate_structure,
)
from .norms import (
    NormValue,
    hardy_norm_estimate,
    lp_quasinorm,
    maximal_function,
    weak_lp,
)
from .counterexample import (
    ConditionsReport,
    CounterexampleConfig,
    DivergenceReport,
    DivergenceRow,
    JigReport,
    atom_block,
    bounded_case_monitor,
    build_martingale,
    check_conditions,
    check_jig,
    divergence_experiment,
    guaranteed_floor,
    martingale_spectrum,
)
from .kernel_checks import (
    KernelBoundReport,
    block_kernel,
    kernel_lower_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_RESOLUTION_BITS",
    "DEFAULT_VLOG_Q0",
    "Resolution",
    "DyadicFunction",
    "WalshSpectrum",
    "WeightFamily",
    "NormValue",
    "KappaReport",
    "StructureReport",
    "KernelBoundReport",
    "CounterexampleConfig",
    "ConditionsReport",
    "JigReport",
    "DivergenceRow",
    "DivergenceReport",
    "WalshLabError",
    "DegreeError",
    "DegenerateWeightsError",
    "PreconditionError",
    "ResourceCapError",
    "ConfigError",
    "quarter_cell_min",
    "walsh_function",
    "fwht_forward",
    "fwht_inverse",
    "dirichlet_kernel",
    "parse_family",
    "validate_structure",
    "kappa",
    "cesaro_kappa_threshold",
    "ualpha_kappa_threshold",
    "norlund_multipliers",
    "norlund_mean_multiplier",
    "kernel_sum",
    "block_kernel",
    "lp_quasinorm",
    "weak_lp",
    "maximal_function",
    "hardy_norm_estimate",
    "atom_block",
    "build_martingale",
    "martingale_spectrum",
    "check_conditions",
    "check_jig",
    "guaranteed_floor",
    "divergence_experiment",
    "bounded_case_monitor",
    "kernel_lower_bound_check",
]
