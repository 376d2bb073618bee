"""Iterated tangent jets, spray lifts, and the geodesic machinery on top."""

__version__ = "0.1.0"

from .errors import (DomainError, InconsistentTrajectoryError,
                     IntegrationBlowupError, InvalidLevelError)
from .jetspace import (EPS_SLASHED, ChartTransition, JetPoint, clift, ddproject,
                       dkappa, dproject, is_slashed, jet_apply, kappa, liouville,
                       project, pushforward, shear_chart, vlift)
from .spray import (ChristoffelField, Spray, acceleration_jet, complete_lift,
                    homogeneity_check, make_finsler_example, make_flat,
                    make_riemannian, make_round_sphere, make_sphere, project_spray,
                    pushforward_spray)
from .geodesic import Trajectory, flow, integrate, residual
from .jacobi import (ConjugateScan, JacobiField, conjugate_search, flow_tangent_fd,
                     jacobi_from_initial, lift_conjugate_check, new_from_old_suite,
                     variation_oracle)
from . import subspray

__all__ = [
    "__version__",
    "DomainError", "InconsistentTrajectoryError", "IntegrationBlowupError",
    "InvalidLevelError",
    "EPS_SLASHED", "ChartTransition", "JetPoint", "clift", "ddproject",
    "dkappa", "dproject", "is_slashed", "jet_apply", "kappa", "liouville",
    "project", "pushforward", "shear_chart", "vlift",
    "ChristoffelField", "Spray", "acceleration_jet", "complete_lift",
    "homogeneity_check", "make_finsler_example", "make_flat",
    "make_riemannian", "make_round_sphere", "make_sphere", "project_spray",
    "pushforward_spray",
    "Trajectory", "flow", "flow_tangent_fd", "integrate", "residual",
    "ConjugateScan", "JacobiField", "conjugate_search", "jacobi_from_initial",
    "lift_conjugate_check", "new_from_old_suite", "variation_oracle",
    "subspray",
]
