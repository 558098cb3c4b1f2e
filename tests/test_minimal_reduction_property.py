"""Property test of blocking.minimal_reduction, one pass over the order,
against the fixed-point loop it replaced (reference_reduction below): equal
on random t-fold blocking sets of small spaces, for every k from 1 to n - 1,
with no order, a shuffled order of all points, and a shuffled subset with
repeats."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pgworkbench.blocking import WeightedPointSet, minimal_reduction  # noqa: E402
from pgworkbench.geometry import ProjectiveSpace, theta  # noqa: E402

SPACES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]


def reference_reduction(B, t, k, order=None):
    """The removed loop: lower each point in order while every k-space
    through it weighs more than t, until a whole pass changes nothing."""
    space = B.space
    subs = space.subspaces(k)
    point_spaces = [[] for _ in range(space.num_points)]
    for si, S in enumerate(subs):
        for i in S.point_indices():
            point_spaces[i].append(si)
    sums = [sum(B.weights[i] for i in S.point_indices()) for S in subs]
    order = list(range(space.num_points) if order is None else order)
    w = list(B.weights)
    changed = True
    while changed:
        changed = False
        for i in order:
            while w[i] > 0 and all(sums[si] > t for si in point_spaces[i]):
                w[i] -= 1
                for si in point_spaces[i]:
                    sums[si] -= 1
                changed = True
    return w


@st.composite
def reductions(draw):
    n, q = draw(st.sampled_from(SPACES))
    space = ProjectiveSpace.of_order(n, q)
    num = theta(n, q)
    k = draw(st.integers(1, n - 1))
    t = draw(st.integers(1, 3))
    # t on an (n-k)-space, which meets every k-space, makes B t-fold blocking
    core = draw(st.sampled_from(space.subspaces(n - k)))
    weights = draw(st.lists(st.integers(0, 3), min_size=num, max_size=num))
    for i in core.point_indices():
        weights[i] += t
    kind = draw(st.sampled_from(["none", "all", "some"]))
    order = None
    if kind == "all":
        order = draw(st.permutations(range(num)))
    elif kind == "some":
        order = draw(st.lists(st.integers(0, num - 1), max_size=2 * num))
    return WeightedPointSet(space, weights), t, k, order


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reductions())
def test_one_pass_equals_the_fixed_point_loop(case):
    B, t, k, order = case
    assert minimal_reduction(B, t, k, order).weights == reference_reduction(B, t, k, order)
