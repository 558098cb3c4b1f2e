"""The library's records: namedtuples whose field names, order, defaults
and refusals callers rely on, and the one plain class, ExperimentConfig."""

import pytest

from pgworkbench.blocking import BlockingError, TModPEnumeration, WeightedPointSet
from pgworkbench.coloring import Coloring
from pgworkbench.experiments import ExperimentConfig, SummaryRow, default_grid
from pgworkbench.geometry import Hypergraph, ProjectiveSpace
from pgworkbench.solvers import (OPTIMAL, BoundsReport, SolveResult, TModPVerification,
                                 bounds_report, verify_tmodp_theorem)

RECORDS = [
    (Hypergraph, "num_vertices edges params", {"params": None},
     lambda: Hypergraph(3, (0b011, 0b110))),
    (Coloring, "assignment", {}, lambda: Coloring((1, 2, 1))),
    (WeightedPointSet, "space weights", {},
     lambda: WeightedPointSet(ProjectiveSpace.of_order(2, 2), [1] * 7)),
    (TModPEnumeration, "sets kernel_dim num_solution_classes exhaustive sampled",
     {"sampled": 0}, lambda: TModPEnumeration([], 6, 729, False)),
    (SolveResult, "objective witness nodes status lower_bound upper_bound",
     {"lower_bound": None, "upper_bound": None}, lambda: SolveResult(3, (0, 1, 2), 0, OPTIMAL)),
    (TModPVerification, "p t k max_size weight_cap kernel_dim num_solution_classes "
     "exhaustive num_found num_unions expected_size violations verified sets",
     {"sets": ()}, lambda: verify_tmodp_theorem(2, 1)),
    (BoundsReport, "n k q p h t theta_n theta_k trivial_lower tau2_known delta_prime "
     "delta_ext delta_strong blsetthm_threshold dbhszvdv_size bruen_lower_ceil blokhuis "
     "flags", {}, lambda: bounds_report(2, 1, 3, 2)),
    (SummaryRow, "instance quantity value expected match", {},
     lambda: SummaryRow("task000_tau", "tau_2", "6", "6", "yes")),
]


@pytest.mark.parametrize("cls,names,defaults,make", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_defaults_and_immutability(cls, names, defaults, make):
    assert cls._fields == tuple(names.split())
    assert cls._field_defaults == defaults
    rec = make()
    assert tuple(rec) == tuple(getattr(rec, name) for name in cls._fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


@pytest.mark.parametrize("fields", [(7, (0b11, 0b1100), (2, 1, 2)), (3, (0b011,), None)])
def test_hypergraph_and_coloring_hash_and_compare_as_their_field_tuple(fields):
    H = Hypergraph(*fields)
    assert H == fields and hash(H) == hash(fields)
    C = Coloring((1, 2, 1))
    assert C == ((1, 2, 1),) and hash(C) == hash(((1, 2, 1),))


def test_hypergraph_views_are_cached_on_the_instance():
    level = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    H = Hypergraph(level.num_vertices, tuple(reversed(level.edges)), (2, 1, 3))
    first = H.geometry
    assert first == (2, 1, 3) and vars(H)["geometry"] is first and H.geometry is first
    assert H.edge_points is H.edge_points and H.vertex_edges is H.vertex_edges


def test_weighted_point_set_refusals():
    space = ProjectiveSpace.of_order(2, 2)
    # the length is checked first
    with pytest.raises(BlockingError, match="^weight array length does not match the "
                                            "point count$"):
        WeightedPointSet(space, [-1] * 6)
    with pytest.raises(BlockingError, match="^weights must be nonnegative$"):
        WeightedPointSet(space, [1] * 6 + [-1])
    B = WeightedPointSet(space=space, weights=[0] * 7)
    with pytest.raises(BlockingError, match="nonnegative"):
        B._replace(weights=[-1] * 7)
    assert B._replace(weights=[1] * 7).size == 7


def test_experiment_config_gets_a_fresh_default_grid():
    a, b = ExperimentConfig(), ExperimentConfig()
    assert a.grid == b.grid == default_grid() and a.grid is not b.grid
    assert (a.outdir, a.seed) == ("certificates", 0)
    grid = [{"kind": "tau"}]
    assert ExperimentConfig(grid, "out", 5).__dict__ == {"grid": grid, "outdir": "out",
                                                         "seed": 5}
