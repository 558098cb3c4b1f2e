"""Property test of the coset walk of enumerate_t_mod_p_sets against the
coordinate-by-coordinate reference walk."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_blocking import reference_t_mod_p_walk  # noqa: E402

from pgworkbench import blocking  # noqa: E402
from pgworkbench.blocking import enumerate_t_mod_p_sets  # noqa: E402
from pgworkbench.geometry import ProjectiveSpace  # noqa: E402

# p = 127, 131 and 257 walk only the one coset of k = 0; at p = 257 its
# residues reach 256, which no byte lane holds
SPACES = [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (3, 2), (2, 5), (1, 127), (1, 131),
          (1, 257)]


@st.composite
def walks(draw):
    n, q = draw(st.sampled_from(SPACES))
    space = ProjectiveSpace.of_order(n, q)
    # t = q - 1 and 2q - 1 give the residue p - 1, the widest lane, and
    # max_size = top keeps every coset, the one of weight p - 1 everywhere too
    top = space.num_points * (q - 1)
    t = draw(st.integers(0, 2 * q) | st.sampled_from([q - 1, 2 * q - 1]))
    return dict(space=space, k=draw(st.integers(0, n)), t=t,
                max_size=draw(st.integers(0, top + 2) | st.just(top)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(walks(), st.sampled_from([1, 30, 3000]))
def test_walk_matches_reference(case, coset_limit):
    # small limits leave most kernels unwalked
    space, k, t = case["space"], case["k"], case["t"]
    p = space.field.p
    # a k-space has theta(k) = 1 (mod p) points, so the constant weight t
    # solves the system, and the walk always has a particular solution
    assert all(S.mask.bit_count() % p == 1 for S in space.subspaces(k))
    with mock.patch.object(blocking, "COSET_LIMIT", coset_limit):
        enum = enumerate_t_mod_p_sets(**case)
        ref_sets, kdim, total, exhaustive = reference_t_mod_p_walk(
            space, k, t, case["max_size"])
    assert enum.sets == ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
        (kdim, total, exhaustive)
