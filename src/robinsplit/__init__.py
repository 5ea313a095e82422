"""Robin-Robin splitting schemes for a two-field parabolic interface problem.

The package discretizes heat-type equations on two stacked rectangles
coupled through their shared horizontal interface, using P1 or P2 elements
and an interface flux variable.  Besides the plain splitting scheme it
implements a start-up variant that solves the first three time levels as
one coupled system, and a monolithic reference.
"""

from .diagnostics import (
    ConvergenceTable,
    ErrorReport,
    convergence_orders,
    run_with_errors,
)
from .errors import ConfigurationError, SingularSystemError
from .fem import FeSpace
from .manufactured import ManufacturedCase, case_names, default_order, get_case
from .mesh import TwoDomainMesh, build_two_domain_mesh
from .schemes import (
    VARIANTS,
    Discretization,
    DiscreteState,
    SchemeConfig,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConvergenceTable",
    "Discretization",
    "DiscreteState",
    "ErrorReport",
    "FeSpace",
    "ManufacturedCase",
    "SchemeConfig",
    "SingularSystemError",
    "TwoDomainMesh",
    "VARIANTS",
    "build_two_domain_mesh",
    "case_names",
    "convergence_orders",
    "default_order",
    "get_case",
    "run",
    "run_with_errors",
]
