"""Numerical lab for homogeneous Ricci flow on three-summand flag manifolds.

The package traces one pipeline: symbolic-free evaluation of the curvature
field on the coefficient simplex (`fields`), adaptive integration of the
projected flow and equilibrium classification (`flow`), realization of
simplex points by torus frames (`realize`), adjoint-orbit clouds in a
concrete matrix model (`orbits`), and Hausdorff-distance tracking of
collapsing trajectories (`collapse`). `verify.run_all` cross-checks the
pieces against each other.
"""

from .collapse import (
    CollapseRun,
    CollapseVerdict,
    NonRealizableError,
    collapse_run,
    collapse_verdict,
    hausdorff,
    is_subalgebra,
    kernel_summands,
    orbit_distance,
    sampling_resolution,
)
from .fields import (
    cone_flux,
    cone_flux_closed_form,
    cone_form,
    cone_form_grad,
    projected_field,
    reduced_field,
    ricci_field,
)
from .flags import FlagSpec, make_flag, parse_flag
from .flow import (
    Equilibrium,
    IntegrationError,
    Trajectory,
    classify_limit,
    find_equilibria,
    integrate,
    integrate_many,
    jacobian,
)
from .orbits import (
    LieModel,
    OrbitCloud,
    TorusElement,
    build_model,
    haar_unitaries,
    induced_metric,
    sample_orbit,
)
from .realize import (
    circle_point,
    coeffs_to_psd,
    disk_membership,
    frame_metric,
    gram,
    is_psd,
    psd_to_coeffs,
    rank1_decompose,
    realizing_frame,
    sample_cone,
    sample_disk,
    sym_sqrt,
)

__version__ = "0.1.0"

__all__ = [
    "CollapseRun",
    "CollapseVerdict",
    "Equilibrium",
    "FlagSpec",
    "IntegrationError",
    "LieModel",
    "NonRealizableError",
    "OrbitCloud",
    "Trajectory",
    "TorusElement",
    "build_model",
    "circle_point",
    "classify_limit",
    "coeffs_to_psd",
    "collapse_run",
    "collapse_verdict",
    "cone_flux",
    "cone_flux_closed_form",
    "cone_form",
    "cone_form_grad",
    "disk_membership",
    "find_equilibria",
    "frame_metric",
    "gram",
    "haar_unitaries",
    "hausdorff",
    "induced_metric",
    "integrate",
    "integrate_many",
    "is_psd",
    "is_subalgebra",
    "jacobian",
    "kernel_summands",
    "make_flag",
    "orbit_distance",
    "parse_flag",
    "projected_field",
    "psd_to_coeffs",
    "rank1_decompose",
    "realizing_frame",
    "reduced_field",
    "ricci_field",
    "sample_cone",
    "sample_disk",
    "sample_orbit",
    "sampling_resolution",
    "sym_sqrt",
]
