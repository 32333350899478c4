"""Exact computation with the generalized Thompson groups F_{n,infinity}.

Modules by concern:

    words       word arithmetic, seminormal/normal forms, the word problem
    plrep       exact piecewise-linear representation (the oracle)
    charspace   characters, the sphere, Sigma membership, kernel types
    autos       shift/flip automorphisms on character space
    lattices    finite-index subgroups as integer lattices in HNF
    complexes   cell-count calculus, generator and deficiency bounds
    gradients   rank / deficiency / chi_m gradient series along chains
    cli         the `thompson-sigma` command

Everything is exact: integers, `fractions.Fraction`, no floating point.

Importing the package loads none of these modules: each public name below
imports its home module on first use (PEP 562), so a caller of the word
problem never pays for lattices or gradients.  `cli` calls the layers
through these names only, so each command loads just the layers it calls.
"""

import importlib

_NAMES = {
    "autos": ("d_orbit", "matrix_A", "matrix_C"),
    "charspace": (
        "Character", "FinitenessReport", "SpherePoint", "character", "chi1", "chi2",
        "in_sigma1", "in_sigma_m", "kernel_finiteness", "parse_character", "sphere_point",
    ),
    "complexes": (
        "AffineTail", "BoundReport", "CellVector", "cell_vector",
        "cells_for_subgroup_F", "chi_m", "d_bound", "deficiency_bounds",
        "graph_of_groups_cells", "hnn_cells", "stack_cells",
    ),
    "gradients": (
        "GradientRow", "GradientSeries", "certify_convergence", "chi_m_gradient_series",
        "deficiency_gradient_series", "rank_gradient_series",
    ),
    "lattices": (
        "ChainSpec", "SubgroupLattice", "alpha", "chain", "enumerate_subgroups", "hnf",
        "hnf_bases", "index", "intersect_with_M", "restrict_character",
    ),
    "plrep": ("PLMap", "compose", "evaluate_word", "generator_map", "invert_map", "maps_equal"),
    "words": (
        "GeneratorLetter", "GroupWord", "SeminormalForm", "abelianize", "are_equal",
        "format_word", "invert", "multiply", "normal_form", "parse_word",
        "rewrite_to_seminormal", "word",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
