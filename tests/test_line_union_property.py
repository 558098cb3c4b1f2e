"""Property test of the facts that count and recognise the unions of t
lines of PG(2,p) for t < p: a union has size t*(p+1), every line weighs
t plus p times its multiplicity, and so the multiset comes back from the
weights alone."""

import collections

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pgworkbench.geometry import ProjectiveSpace  # noqa: E402


@st.composite
def line_multisets(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    num_lines = p * p + p + 1
    t = draw(st.integers(0, p - 1))
    return p, draw(st.lists(st.integers(0, num_lines - 1), min_size=t, max_size=t))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(line_multisets())
def test_a_union_of_lines_gives_back_its_multiset(case):
    p, chosen = case
    t = len(chosen)
    lines = [S.point_indices() for S in ProjectiveSpace.of_order(2, p).subspaces(1)]
    w = [0] * (p * p + p + 1)
    for j in chosen:
        for i in lines[j]:
            w[i] += 1
    assert sum(w) == t * (p + 1) and max(w) <= t
    mult = collections.Counter(chosen)
    for j, pts in enumerate(lines):
        weight = sum(w[i] for i in pts)
        assert weight % p == t % p and (weight - t) // p == mult[j]
