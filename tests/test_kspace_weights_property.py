"""Property test of blocking.kspace_weights, which reads the level's masks,
against the sum of the weights over each k-space's points, for every k
from 0 to n: the t (mod p) claim reads k = 0 and k = n too.  Weights are
all zero, sparse or large."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pgworkbench.blocking import WeightedPointSet, kspace_weights  # noqa: E402
from pgworkbench.geometry import ProjectiveSpace, theta  # noqa: E402

SPACES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]


@st.composite
def weighted_sets(draw):
    n, q = draw(st.sampled_from(SPACES))
    num = theta(n, q)
    kind = draw(st.sampled_from(["zero", "sparse", "large"]))
    weights = [0] * num
    if kind == "sparse":
        for i in draw(st.lists(st.integers(0, num - 1), max_size=6)):
            weights[i] = draw(st.integers(1, 3))
    elif kind == "large":
        weights = draw(st.lists(st.one_of(st.integers(0, 2), st.integers(0, 2**80)),
                                min_size=num, max_size=num))
    return n, q, weights


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_sets())
def test_kspace_weights_sum_the_weights_of_each_kspace(case):
    n, q, weights = case
    space = ProjectiveSpace.of_order(n, q)
    B = WeightedPointSet(space, weights)
    for k in range(n + 1):
        assert kspace_weights(B, k) == [sum(weights[i] for i in S.point_indices())
                                        for S in space.subspaces(k)]
