"""Metric geometry of spherical rank-one tensor manifolds.

Computes the reach, extremal curvature, shape operators, matching-based
curvature coefficients, and tube volumes of spherical Segre-Veronese
manifolds, and cross-validates every closed form against independent brute
force, quadrature, and Monte Carlo oracles.
"""

from .bw_algebra import (
    SpaceSpec,
    Tensor,
    angular_distance,
    apply_orthogonal,
    basis_rank,
    bw_inner,
    evaluate,
    gaussian_tensor,
    multi_indices,
    random_orthogonal,
)
from .errors import DomainError, ResourceError
from .geodesics_reach import (
    ReachReport,
    bottleneck_check,
    curvature_closed_form,
    extremal_curvature,
    geodesic_eval,
    reach,
    rho1,
    rho2,
)
from .manifold import (
    NormalSplit,
    SegrePoint,
    base_point,
    embed,
    max_correlation_batch,
    normal_split,
    project_components,
    random_segre_point,
    rank_one_distance,
    tangent_frame,
    veronese_embed,
)
from .matchings import (
    MatchingProblem,
    expected_det_isserlis,
    expected_minor_sum,
    expected_minor_sum_exact,
    matching_count,
    matching_determinant,
    matching_determinant_exact,
    weighted_matching_sum,
)
from .montecarlo import (
    McConfig,
    mc_expected_det,
    mc_minor_sum,
    mc_tube_volume,
)
from .tube import (
    TubeReport,
    chi2_moment,
    manifold_volume,
    radial_integral,
    radial_integral_quadrature,
    sphere_volume,
    tube_coefficient,
    tube_volume,
)
from .weingarten import (
    VarianceProfile,
    WeingartenMatrix,
    assemble_weingarten,
    sample_gaussian_weingarten,
    second_fundamental_form_fd,
    variance_profile,
)

__version__ = "0.1.0"
