"""Property test of the coset walk of enumerate_t_mod_p_sets against the
coordinate-by-coordinate reference walk."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_blocking import reference_t_mod_p_walk  # noqa: E402

from pgworkbench import blocking  # noqa: E402
from pgworkbench.blocking import enumerate_t_mod_p_sets, solve_mod_p  # noqa: E402
from pgworkbench.geometry import ProjectiveSpace  # noqa: E402

# p = 127 and p = 131 walk only the one coset of k = 0
SPACES = [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (3, 2), (2, 5), (1, 127), (1, 131)]


@st.composite
def walks(draw):
    n, q = draw(st.sampled_from(SPACES))
    space = ProjectiveSpace.of_order(n, q)
    return dict(space=space, k=draw(st.integers(0, n)), t=draw(st.integers(0, 2 * q)),
                max_size=draw(st.integers(0, space.num_points * (q - 1) + 2)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(walks(), st.sampled_from([1, 30, 3000]))
def test_walk_matches_reference(case, coset_limit):
    # small limits leave most kernels unwalked
    space, k, t = case["space"], case["k"], case["t"]
    p = space.field.p
    rows = [[S.mask >> i & 1 for i in range(space.num_points)] for S in space.subspaces(k)]
    with mock.patch.object(blocking, "COSET_LIMIT", coset_limit):
        enum = enumerate_t_mod_p_sets(**case)
        if solve_mod_p(rows, [t] * len(rows), p) is None:
            assert (enum.sets, enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
                ([], 0, 0, True)
            return
        ref_sets, kdim, total, exhaustive, sampled = reference_t_mod_p_walk(
            space, k, t, case["max_size"])
    assert [B.weights for B in enum.sets] == ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive, enum.sampled) == \
        (kdim, total, exhaustive, sampled)
