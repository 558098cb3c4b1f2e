"""Property test of the mask builder: the span of random points of small
spaces PG(n,q), over prime fields and over GF(p^h) with p = 2 and odd p,
has the mask of the reference scaled-row walk."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pgworkbench.geometry import ProjectiveSpace, theta  # noqa: E402
from test_geometry import _reference_mask  # noqa: E402

SPACES = [(1, 25), (1, 27), (2, 4), (2, 5), (2, 8), (2, 9), (2, 16), (2, 25), (2, 27),
          (3, 3), (3, 4), (3, 8), (3, 9), (4, 2), (4, 4), (5, 3)]


@st.composite
def point_sets(draw):
    n, q = draw(st.sampled_from(SPACES))
    points = draw(st.lists(st.integers(0, theta(n, q) - 1), min_size=1, max_size=n + 2,
                           unique=True))
    return n, q, points


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_span_masks_match_the_reference_walk(case):
    n, q, points = case
    space = ProjectiveSpace.of_order(n, q)
    S = space.span(*points)
    assert S.mask == _reference_mask(space, S.basis)
    assert S.mask.bit_count() == theta(S.dim, q)
    assert all(S.mask >> i & 1 for i in points)
