"""Geodesic spanners for points in 3-space amid axis-parallel box obstacles.

Builds sparse spanners whose graph distance approximates the L1 geodesic
distance within a factor of 8 (8 * sqrt(3) in the Euclidean norm) using
O(n log^3 n) edges, plus the machinery to verify those bounds empirically.
"""

from .cspd import CONES, ConeId, Cspd, CspdPair, build_cspd, certify_cspd
from .generators import CrowdedRegionError, GenConfig, random_instance, slab_instance
from .geodesic import GeodesicSolver, GridTooLargeError, oracle_fine_grid_distance
from .geometry import AxisBox, Environment, Point3, validate_environment
from .spanner import SpannerGraph, build_spanner
from .verification import (STRETCH_BOUND_L1, STRETCH_SLACK, VIA_DETOUR_FACTOR, VIA_SLACK,
                           StretchReport, check_via_triples, norm_conversion_check,
                           scaling_sweep, spanning_ratio, via_triples)

__all__ = [
    "AxisBox", "CONES", "ConeId", "CrowdedRegionError", "Cspd", "CspdPair",
    "Environment",
    "GenConfig", "GeodesicSolver", "GridTooLargeError",
    "Point3", "SpannerGraph", "STRETCH_BOUND_L1", "STRETCH_SLACK", "StretchReport",
    "VIA_DETOUR_FACTOR", "VIA_SLACK", "build_cspd", "build_spanner",
    "certify_cspd", "check_via_triples",
    "norm_conversion_check", "oracle_fine_grid_distance",
    "random_instance", "scaling_sweep", "slab_instance", "spanning_ratio",
    "validate_environment", "via_triples",
]

__version__ = "0.1.0"
