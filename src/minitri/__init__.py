"""Simplicial complex toolkit.

Facet-list complexes with exact integer homology, edge-path fundamental
group analysis, vertex-count lower bounds for manifold triangulations,
and combinatoriality certificates driven by link size and homology.

``errors``, ``complexes``, ``snf`` and ``homology`` load with the package,
other names on first use.  ``homology`` stays eager: importing its
submodule binds the module over the function; the eager import rebinds it.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .complexes import PseudomanifoldReport, SimplicialComplex, from_facets
from .errors import (
    CoefficientError,
    ComplexError,
    ConnectivityError,
    CrossCheckError,
    DimensionError,
    FacetInputError,
    FixtureError,
    HypothesisError,
    MissingSimplexError,
    NotPseudomanifoldError,
    VertexSetError,
)
from .homology import (
    HomologyProfile,
    boundary_matrix,
    cohomology,
    euler_characteristic,
    homology,
    is_homology_sphere,
)
from .snf import SNFResult, rank_mod_p, smith_normal_form

_LAZY = {
    "bounds": (
        "BoundReport", "analyze", "cat_vertex_bound", "homology_sphere_verdict",
        "nonfree_pi1_bound", "simply_connected_bound", "sphere_recognition_threshold",
    ),
    "combinatorial": (
        "BistellarMove", "CombinatorialityCertificate", "LevelSummary", "apply_bistellar_move",
        "bistellar_moves", "certified_sphere", "recognize_2sphere", "recognize_circle",
        "small_link_certificate",
    ),
    "facetio": ("dump", "dumps", "load", "load_assertions", "loads", "parse_assertions"),
    "fixtures": ("fixture", "fixture_names"),
    "pi1": (
        "AbelianInvariants", "FreenessVerdict", "GroupPresentation", "abelianization",
        "edge_path_presentation", "find_symmetric_quotient", "freeness_verdict",
        "tietze_simplify", "validate_not_free_certificate",
    ),
    "verify": (
        "CheckReport", "GroupComparison", "LinkSphereCheck", "alexander_duality_check",
        "complement_homology_check", "local_homology_sweep",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

# The public names bound above, less the submodules, and the lazy ones.
__all__ = sorted([
    *_SOURCE,
    *(name for name, value in globals().items()
      if not name.startswith("_") and not isinstance(value, _ModuleType)),
])


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached, so the name follows a patch of the submodule and its undoing.
    return getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
