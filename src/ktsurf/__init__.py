"""Kirby-Thompson invariants of bridge-trisected surfaces in the 4-sphere.

Exact combinatorial curves on punctured spheres, pants-complex search,
shadow tangles, spines of bridge trisections, and certified upper/lower
bounds for the two Kirby-Thompson invariants.

Importing the package loads only what building spines needs.  The names of
the Farey oracle, the invariants and the lemma verifiers resolve on first
use (PEP 562), and are looked up in their module on every access rather than
stored here.
"""

import importlib

from .curves import (ArcSystem, Curve, CurveError, PuncturedSphere,
                     apply_half_twist, apply_word, arc_intersection,
                     enclosed_punctures, format_arcs, format_curve,
                     geometric_intersection, parse_arcs, parse_curve,
                     parse_word, round_curve)
from .pants import (DistanceResult, PantsDecomposition, PantsError,
                    distance_upper, format_pants, is_dual_edge, is_pants_edge,
                    neighbor_candidates, parse_pants, validate_pants)
from .tangles import (BridgeSplitUnlink, EfficientPair, ShadowTangle,
                      TangleError, check_edp_structure, check_parity,
                      component_count, efficient_defining_pairs,
                      enumerate_efficient, is_c_reducing, is_compressing,
                      is_cut, is_cut_reducing, is_efficient, is_reducing)
from .trisection import (Spine, SpineError, SurfaceExpr, c_reducing_witness,
                         connected_sum, distant_sum, format_spine,
                         parse_expression, parse_spine, spine_of_expression,
                         standard, validate_spine)

__version__ = "0.1.0"

_LAZY = {
    "farey": ("curve_of_slope", "farey_distance", "slope_of_curve"),
    "invariants": ("KTCertificate", "InvariantError",
                   "find_torus_cut_reducers", "format_certificate",
                   "kt_bounds", "kt_lower", "kt_upper", "parse_certificate",
                   "verify_certificate"),
    "lemmas": ("LEMMA_IDS", "LemmaReport", "verify_all", "verify_lemma"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items()
              for name in names}


def __getattr__(name: str):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_HOME))
