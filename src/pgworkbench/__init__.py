"""Workbench for finite projective spaces PG(n,q): multiple blocking
sets, t (mod p) sets, rainbow-free colorings, and exact transversal /
upper-chromatic-number solvers with re-checkable certificates."""

from .fields import GF, FieldError, field_for_order
from .geometry import (EMPTY_SUBSPACE, GeometryError, Hypergraph, ProjectiveSpace,
                       Subspace, count_subspaces, theta)
from .blocking import (BlockingError, WeightedPointSet, construct_union,
                       enumerate_t_mod_p_sets, essential_points,
                       harrach_uniqueness_limit, is_minimal, is_t_fold_blocking,
                       is_t_mod_p_set, minimal_reduction)
from .coloring import (Coloring, ColoringError, is_proper, is_trivial_coloring,
                       make_coloring, trivial_coloring)
from .solvers import (BoundsReport, SolveResult, SolverError, bounds_report,
                      exact_tau, exact_ucn, verify_tmodp_theorem)
from .certificates import make_certificate, recheck

__all__ = [name for name in dir() if not name.startswith("_")]
