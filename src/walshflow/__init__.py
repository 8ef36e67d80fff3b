"""Walsh Brownian motion and stochastic flows on star graphs.

Simulation and verification toolkit: closed-form semigroup evaluation,
path constructions (excursion flips, Skorokhod reflection, scaled random
walks), lattice flows of mappings and kernels with shared noise, and the
statistical checks that tie the simulations back to the analytic laws.
"""

import os

# One OpenBLAS thread unless the caller chose: numpy starts its thread pool
# on import, which costs start-up, and a threaded dot product splits its sum
# by the core count, which moves the last bits of the Ito residual on long
# grids. Every walshflow entry point imports this file before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from walshflow.graph import (  # noqa: E402
    GraphPoint,
    GraphSpec,
    PiecewiseFunction,
    flux_defect,
    validate_spec,
)

__version__ = "0.1.0"

__all__ = [
    "GraphSpec",
    "GraphPoint",
    "PiecewiseFunction",
    "validate_spec",
    "flux_defect",
    "__version__",
]
