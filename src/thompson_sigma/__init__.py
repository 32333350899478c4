"""Exact computation with the generalized Thompson groups F_{n,infinity}.

Subpackages by concern:

    words       word arithmetic, seminormal/normal forms, the word problem
    plrep       exact piecewise-linear representation (the oracle)
    charspace   characters, the sphere, Sigma membership, kernel types
    autos       shift/flip automorphisms on character space
    lattices    finite-index subgroups as integer lattices in HNF
    complexes   cell-count calculus, generator and deficiency bounds
    gradients   rank / deficiency / chi_m gradient series along chains
    cli         the `thompson-sigma` command

Everything is exact: integers, `fractions.Fraction`, no floating point.
"""

from .charspace import (
    Character,
    FinitenessReport,
    SpherePoint,
    character,
    chi1,
    chi2,
    in_sigma1,
    in_sigma_m,
    kernel_finiteness,
    sphere_point,
)
from .complexes import (
    AffineTail,
    BoundReport,
    CellVector,
    cell_vector,
    cells_for_subgroup_F,
    chi_m,
    d_bound,
    deficiency_bounds,
    graph_of_groups_cells,
    hnn_cells,
    stack_cells,
)
from .gradients import (
    GradientRow,
    GradientSeries,
    certify_convergence,
    chi_m_gradient_series,
    deficiency_gradient_series,
    rank_gradient_series,
)
from .lattices import (
    ChainSpec,
    SubgroupLattice,
    alpha,
    chain,
    enumerate_subgroups,
    hnf,
    index,
    intersect_with_M,
    restrict_character,
)
from .plrep import PLMap, compose, evaluate_word, generator_map, invert_map, maps_equal
from .words import (
    GeneratorLetter,
    GroupWord,
    SeminormalForm,
    abelianize,
    are_equal,
    format_word,
    invert,
    multiply,
    normal_form,
    parse_word,
    rewrite_to_seminormal,
    word,
)

__all__ = [
    "Character", "FinitenessReport", "SpherePoint", "character", "chi1", "chi2",
    "in_sigma1", "in_sigma_m", "kernel_finiteness", "sphere_point",
    "AffineTail", "BoundReport", "CellVector", "cell_vector",
    "cells_for_subgroup_F", "chi_m", "d_bound", "deficiency_bounds",
    "graph_of_groups_cells", "hnn_cells", "stack_cells",
    "GradientRow", "GradientSeries", "certify_convergence", "chi_m_gradient_series",
    "deficiency_gradient_series", "rank_gradient_series",
    "ChainSpec", "SubgroupLattice", "alpha", "chain", "enumerate_subgroups", "hnf",
    "index", "intersect_with_M", "restrict_character",
    "PLMap", "compose", "evaluate_word", "generator_map", "invert_map",
    "maps_equal",
    "GeneratorLetter", "GroupWord", "SeminormalForm", "abelianize", "are_equal",
    "format_word", "invert", "multiply", "normal_form", "parse_word",
    "rewrite_to_seminormal", "word",
]
__version__ = "0.1.0"
