"""Disk-type surfaces of prescribed mean curvature spanning Jordan curves
in cones, with numerical verification of their geometric properties:
cone enclosure, stability, radial normal positivity, and representability
as radial graphs over spherical domains."""

from . import errors
from .boundary import (
    AxisMap,
    FourierScalar,
    RadialGraphCurve,
    SphericalBoundary,
    build_curve,
    is_beta_convex,
    is_convex,
    orientation_sign,
)
from .cone_smoothing import (
    SmoothedConeProfile,
    cap_curvature_lower_bound,
    check_enclosure_curvature,
    junction_jumps,
    make_profile,
    min_cap_curvature,
    profile_mean_curvature,
    profile_point,
    revolution_mean_curvature,
    select_delta,
)
from .fields import CurvatureField, build_potential_Q, check_growth, check_monotonicity
from .geometry import c_beta, winding_degree
from .mesh import DiskMesh, build_disk_mesh
from .solver import (
    SolveConfig,
    SurfaceState,
    conformality_defect,
    energies,
    energy_F,
    energy_G,
    solve,
)
from .verifier import (
    check_enclosure,
    check_radial_normal,
    domain_grid,
    extract_radial_graph,
    jacobian_identity_check,
    projection_degree,
    stability_eigenvalue,
    surface_geometry,
    verify_surface,
)

__version__ = "0.1.0"
