"""Property test of the column-major coset walk of enumerate_t_mod_p_sets
against the coordinate-by-coordinate reference walk."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_blocking import reference_t_mod_p_walk  # noqa: E402

from pgworkbench import blocking  # noqa: E402
from pgworkbench.blocking import enumerate_t_mod_p_sets, solve_mod_p  # noqa: E402
from pgworkbench.geometry import ProjectiveSpace  # noqa: E402

# p = 127 reduces its byte lanes after every term, p = 131 needs 2-byte lanes
SPACES = [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (3, 2), (2, 5), (1, 127), (1, 131)]


@st.composite
def walks(draw):
    n, q = draw(st.sampled_from(SPACES))
    space = ProjectiveSpace.of_order(n, q)
    return dict(space=space, k=draw(st.integers(0, n)), t=draw(st.integers(0, 2 * q)),
                weight_cap=draw(st.integers(0, q - 1)),
                max_size=draw(st.integers(0, space.num_points * (q - 1) + 2)),
                coset_limit=draw(st.sampled_from([1, 30, 3000])),
                sample_count=draw(st.integers(0, 150 if q < 100 else 15)),
                seed=draw(st.integers(0, 2**32)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(walks(), st.sampled_from([1, 3, 8, blocking._COSET_CHUNK]))
def test_walk_matches_reference(case, chunk):
    # small chunks put chunk boundaries inside the walk in both modes
    space, k, t = case["space"], case["k"], case["t"]
    with mock.patch.object(blocking, "_COSET_CHUNK", chunk):
        enum = enumerate_t_mod_p_sets(**case)
    p = space.field.p
    rows = [[S.mask >> i & 1 for i in range(space.num_points)] for S in space.subspaces(k)]
    if solve_mod_p(rows, [t] * len(rows), p) is None:
        assert (enum.sets, enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
            ([], 0, 0, True)
        return
    args = {key: case[key] for key in ("max_size", "weight_cap", "coset_limit",
                                       "sample_count", "seed")}
    ref_sets, kdim, total, exhaustive, sampled = reference_t_mod_p_walk(space, k, t, **args)
    assert [B.weights for B in enum.sets] == ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive, enum.sampled) == \
        (kdim, total, exhaustive, sampled)
