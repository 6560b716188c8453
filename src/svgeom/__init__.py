"""Metric geometry of spherical rank-one tensor manifolds.

Computes the reach, extremal curvature, shape operators, matching-based
curvature coefficients, and tube volumes of spherical Segre-Veronese
manifolds.  The curvature and tube closed forms are cross-validated against
independent brute force, quadrature, finite-difference, Monte Carlo and
Gauss-Bonnet oracles; the reach has no independent oracle yet.

The package root exports the library's entry points, the ones the command
line calls; everything else is imported from the module that defines it.
"""

from .bw_algebra import SpaceSpec
from .errors import DomainError, ResourceError
from .geodesics_reach import reach
from .matchings import (
    MatchingProblem,
    expected_minor_sum,
    matching_count,
    matching_determinant,
)
from .montecarlo import McConfig, mc_expected_det, mc_minor_sum, mc_tube_volume
from .tube import tube_volume
from .weingarten import variance_profile
