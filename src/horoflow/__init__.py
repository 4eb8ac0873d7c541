"""Computational toolkit for horocycle dynamics on the hyperbolic plane.

Core layers:

* :mod:`horoflow.halfplane` — points, boundary points, Moebius maps, the
  distance and Busemann cocycle, cross-ratios, intersection angles;
* :mod:`horoflow.group` — finitely generated groups, word-ball enumeration,
  isometry classification, preset families;
* :mod:`horoflow.limits` — finite-depth evidence classification of boundary
  points;
* :mod:`horoflow.flows` — geodesic/horocycle flows on unit tangent frames
  and injectivity-radius profiles;
* :mod:`horoflow.dichotomy` — bounded escaping sequences and the
  recurrence-versus-non-minimality diagnostics;
* :mod:`horoflow.groupio`, :mod:`horoflow.verify`, :mod:`horoflow.cli` —
  JSON group files, the randomized identity suite, and the command line.
"""

from .dichotomy import (ConvergenceVerdict, DiagnosticsReport, DichotomyVerdict,
                        SequenceCandidate, check_coefficient_asymptotics,
                        find_bounded_escaping_sequence, run_dichotomy,
                        synthetic_candidate, test_recurrence, test_return_time)
from .errors import (BallTooLarge, CoefficientOverflow, DegeneratePoints,
                     EllipticElement, EmptyBall, HoroflowError, InvalidGenerator,
                     InvalidPoint, NegativeTime, NoIntersection, NoSequenceFound,
                     ParseError)
from .flows import (BASE_TANGENT, RayProfile, UnitTangent, geodesic_flow,
                    horocycle_flow, injectivity_profile, orbit_points,
                    ray_point)
from .group import (Ball, GroupElement, GroupSpec, IsometryClass, ball_arrays,
                    check_elliptic_free, classify_isometry, conjugate_spec,
                    cyclic_hyperbolic, cyclic_parabolic, enumerate_ball,
                    fixed_points, hyperbolic_element, isometric_circle,
                    schottky_pair, truncated_flute)
from .groupio import dump_group_spec, load_group_spec, parse_group_spec
from .halfplane import (INFINITY, POINT_I, BoundaryPoint, Geodesic, Horocycle,
                        Mobius, PointH, angle_between, apply, apply_boundary,
                        bp, busemann, cross_ratio, dist, harmonic_conjugate,
                        height)
from .limits import (LimitPointEvidence, LimitVerdict, classify_boundary_point,
                     orbit_heights)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "BASE_TANGENT", "Ball", "BallTooLarge", "BoundaryPoint", "CoefficientOverflow",
    "ConvergenceVerdict", "DegeneratePoints", "DiagnosticsReport", "DichotomyVerdict",
    "EllipticElement", "EmptyBall", "Geodesic", "GroupElement", "GroupSpec",
    "Horocycle", "HoroflowError", "INFINITY", "InvalidGenerator", "InvalidPoint",
    "IsometryClass", "LimitPointEvidence", "LimitVerdict", "Mobius",
    "NegativeTime", "NoIntersection", "NoSequenceFound", "POINT_I",
    "ParseError", "PointH", "RayProfile", "SequenceCandidate", "UnitTangent",
    "VerificationReport", "angle_between", "apply", "apply_boundary",
    "ball_arrays", "bp", "busemann", "check_coefficient_asymptotics",
    "check_elliptic_free", "classify_boundary_point", "classify_isometry",
    "conjugate_spec", "cross_ratio", "cyclic_hyperbolic", "cyclic_parabolic",
    "dist", "dump_group_spec", "enumerate_ball", "find_bounded_escaping_sequence",
    "fixed_points", "geodesic_flow", "harmonic_conjugate", "height",
    "horocycle_flow", "hyperbolic_element", "injectivity_profile",
    "isometric_circle", "load_group_spec", "orbit_heights", "orbit_points",
    "parse_group_spec", "ray_point", "run_dichotomy", "run_verification",
    "schottky_pair", "synthetic_candidate", "test_recurrence",
    "test_return_time", "truncated_flute",
]
