"""Polynomials of graphs embedded in surfaces.

The package is organized bottom-up:

  multigraph   abstract multigraphs, components/rank, minors
  matroid      rank-oracle matroids, duality, strong-map pairs
  mpoly        integer polynomials with half-integer exponents
  ribbon       rotation systems with signs, boundary tracing, duals,
               partial duals via twisting, medial graphs, and the
               frontier tallies the expansions and checks read
  embedding    region data on top of a rotation system, pseudo-surface
               invariants, edge classification, topological minors
  fileformat   the text format the CLI reads and writes
  poly         the polynomials themselves and the identity suite
  states       medial state counting and the low-genus formulas
  cli          the command line front end

matroid and states load on first use, by __getattr__ below or inside
the functions that read them: trace, validate and poly never load them.
"""

import importlib

from .embedding import (EmbeddedGraph, EmbeddingError, EmbeddingScheme,
                        classify_edge, complement_stats, derive_dagger,
                        scheme_perspective, validate, with_disc_regions)
from .mpoly import MPolynomial
from .multigraph import Multigraph
from .poly import (CapError, CheckResult, PolyError, bollobas_riordan,
                   dichromatic, krushkal, las_vergnas_cellular,
                   las_vergnas_embedded, tutte, tutte_perspective,
                   verify_identities)
from .ribbon import (RibbonError, RotationSystem, boundary_count, dual,
                     euler_genus, is_orientable, medial, trace_boundary,
                     twist)

__version__ = "0.1.0"

_LAZY = {name: module for module, names in (
    ("matroid", ("MatroidError", "MatroidPerspective", "RankMatroid",
                 "bond_matroid", "cycle_matroid", "make_perspective")),
    ("states", ("GenusRangeError", "StateError", "lr_relation",
                "lv_component_formula", "medial_state_components",
                "run_state_checks", "state_components")),
) for name in (module, *names)}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "CapError", "CheckResult", "EmbeddedGraph", "EmbeddingError",
    "EmbeddingScheme", "GenusRangeError", "MPolynomial", "MatroidError",
    "MatroidPerspective", "Multigraph", "PolyError", "RankMatroid",
    "RibbonError", "RotationSystem", "StateError", "bollobas_riordan",
    "bond_matroid", "boundary_count", "classify_edge", "complement_stats",
    "cycle_matroid", "derive_dagger", "dichromatic", "dual", "euler_genus",
    "is_orientable", "krushkal", "las_vergnas_cellular", "las_vergnas_embedded",
    "lr_relation", "lv_component_formula", "make_perspective", "medial",
    "medial_state_components", "run_state_checks",
    "scheme_perspective", "state_components", "trace_boundary", "tutte",
    "tutte_perspective", "twist", "validate", "verify_identities",
    "with_disc_regions",
]
