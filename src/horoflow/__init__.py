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

Names resolve lazily: ``horoflow.run_dichotomy`` imports
:mod:`horoflow.dichotomy` on first use, so a command-line call loads only
the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "dichotomy": ("ConvergenceVerdict", "DiagnosticsReport", "DichotomyVerdict",
                  "SequenceCandidate", "check_coefficient_asymptotics",
                  "find_bounded_escaping_sequence", "run_dichotomy",
                  "synthetic_candidate", "test_recurrence", "test_return_time"),
    "errors": ("BallTooLarge", "CoefficientOverflow", "DegeneratePoints",
               "EllipticElement", "EmptyBall", "HoroflowError", "InvalidGenerator",
               "InvalidPoint", "NegativeTime", "NoIntersection", "NoSequenceFound",
               "ParseError"),
    "flows": ("BASE_TANGENT", "RayProfile", "UnitTangent", "geodesic_flow",
              "horocycle_flow", "injectivity_profile", "orbit_points", "ray_point"),
    "group": ("Ball", "GroupElement", "GroupSpec", "IsometryClass", "ball_arrays",
              "check_elliptic_free", "classify_isometry", "conjugate_spec",
              "cyclic_hyperbolic", "cyclic_parabolic", "enumerate_ball",
              "fixed_points", "hyperbolic_element", "isometric_circle",
              "schottky_pair", "truncated_flute"),
    "groupio": ("dump_group_spec", "load_group_spec", "parse_group_spec"),
    "halfplane": ("INFINITY", "POINT_I", "BoundaryPoint", "Geodesic", "Horocycle",
                  "Mobius", "PointH", "angle_between", "apply", "apply_boundary",
                  "bp", "busemann", "cross_ratio", "dist", "harmonic_conjugate",
                  "height"),
    "limits": ("LimitPointEvidence", "LimitVerdict", "classify_boundary_point",
               "orbit_heights"),
    "verify": ("VerificationReport", "run_verification"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # nothing is stored here, so a name always reads its module's current
    # binding (bench/trace.py rebinds module globals and restores them)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
