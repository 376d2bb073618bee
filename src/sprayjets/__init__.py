"""Iterated tangent jets, spray lifts, and the geodesic machinery on top."""

__version__ = "0.1.0"

from .errors import (DomainError, InconsistentTrajectoryError,
                     IntegrationBlowupError, InvalidLevelError)
from .jetspace import (EPS_SLASHED, ChartTransition, JetPoint, clift, clift_fn,
                       ddproject, dkappa, dproject, identity_chart,
                       inverse_transition, is_slashed, jet_apply, kappa,
                       liouville, project, pushforward, shear_chart, vlift,
                       vlift_fn)
from .spray import (ChristoffelField, Spray, acceleration_jet, complete_lift,
                    homogeneity_check, make_finsler_example, make_flat,
                    make_riemannian, make_round_sphere, make_sphere, project_spray,
                    pushforward_spray, sphere_christoffels, spray_value)
from .geodesic import Trajectory, flow, integrate, residual
from .jacobi import (ConjugateScan, JacobiField, conjugate_search,
                     decompose_double_lift, flow_tangent_fd, jacobi_from_initial,
                     lift_conjugate_check, new_from_old_suite, variation_oracle)
from . import subspray

__all__ = [
    "__version__",
    "DomainError", "InconsistentTrajectoryError", "IntegrationBlowupError",
    "InvalidLevelError",
    "EPS_SLASHED", "ChartTransition", "JetPoint", "clift", "clift_fn",
    "ddproject", "dkappa", "dproject", "identity_chart", "inverse_transition",
    "is_slashed", "jet_apply", "kappa", "liouville", "project", "pushforward",
    "shear_chart", "vlift", "vlift_fn",
    "ChristoffelField", "Spray", "acceleration_jet", "complete_lift",
    "homogeneity_check", "make_finsler_example", "make_flat",
    "make_riemannian", "make_round_sphere", "make_sphere", "project_spray",
    "pushforward_spray", "sphere_christoffels", "spray_value",
    "Trajectory", "flow", "flow_tangent_fd", "integrate", "residual",
    "ConjugateScan", "JacobiField", "conjugate_search",
    "decompose_double_lift", "jacobi_from_initial", "lift_conjugate_check",
    "new_from_old_suite", "variation_oracle",
    "subspray",
]
