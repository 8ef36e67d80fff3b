"""Walsh Brownian motion and stochastic flows on star graphs.

Simulation and verification toolkit: closed-form semigroup evaluation,
path constructions (excursion flips, Skorokhod reflection, scaled random
walks), lattice flows of mappings and kernels with shared noise, and the
statistical checks that tie the simulations back to the analytic laws.
"""

from walshflow.graph import (
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
