"""walshlab: a numerical laboratory for Walsh-Fourier summability.

The package works on the finite dyadic group at resolution N (2^N
cells).  It provides the Walsh-Paley basis and fast transform, Dirichlet
kernels, Nörlund means for a catalogue of weight families, exact
weak-L_p and dyadic maximal-function sizes, an exhaustively verified
lower bound for windowed Nörlund kernels on the quarter cell, and a
block-martingale construction whose means blow up in weak-L_p relative
to the Hardy size once the kernel floor constant kappa = q_1 - (3/2) q_3
is positive and p is small.

Each module lists its public names in its own ``__all__``; the package
re-exports exactly their union.
"""

from . import counterexample, dyadic, errors, kernel_checks, norms, transform, weights
from .counterexample import *  # noqa: F403
from .dyadic import *  # noqa: F403
from .errors import *  # noqa: F403
from .kernel_checks import *  # noqa: F403
from .norms import *  # noqa: F403
from .transform import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (dyadic, errors, transform, weights, norms, counterexample, kernel_checks)
    for name in module.__all__
]
