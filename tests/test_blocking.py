import itertools
import time

import pytest

from pgworkbench import blocking
from pgworkbench.blocking import (BlockingError, WeightedPointSet, construct_union,
                                  enumerate_t_mod_p_sets, essential_points,
                                  harrach_uniqueness_limit, is_minimal,
                                  is_t_fold_blocking, is_t_mod_p_set, judge_claim,
                                  kspace_weights, minimal_reduction, solve_mod_p)
from pgworkbench.geometry import ProjectiveSpace, theta
from pgworkbench.solvers import tmodp_frame


def two_line_union(space, i=0, j=1):
    lines = space.subspaces(1)
    return construct_union(space, [(lines[i], 1), (lines[j], 1)])


def test_weighted_point_set_validation():
    space = ProjectiveSpace.of_order(2, 2)
    with pytest.raises(BlockingError):
        WeightedPointSet(space, [1] * 6)
    with pytest.raises(BlockingError):
        WeightedPointSet(space, [1] * 6 + [-1])
    B = WeightedPointSet(space, [1, 0, 2, 0, 0, 0, 0])
    assert B.size == 3
    assert B.support == [0, 2]


def test_two_line_union_is_double_blocking():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    assert B.size == 2 * theta(1, 3) == 8  # intersection point carries weight 2
    ok, witness = is_t_fold_blocking(B, 2, 1)
    assert ok and witness is None
    ok, witness = is_t_fold_blocking(B, 3, 1)
    assert not ok and B.subspace_weight(witness) == 2


def test_kspace_weights_profile():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    sums = sorted(kspace_weights(B, 1))
    # the two member lines weigh 5 each, every other line is a 2-secant
    assert sums == [2] * 11 + [5, 5]


def test_essential_points_and_minimality():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    assert essential_points(B, 2, 1) == set(B.support)
    assert is_minimal(B, 2, 1)
    C = B.copy()
    extra = next(i for i, w in enumerate(C.weights) if w == 0)
    C.weights[extra] += 1
    assert not is_minimal(C, 2, 1)
    assert extra not in essential_points(C, 2, 1)


def test_judge_claim_shares_one_pass_per_k(monkeypatch):
    passes = []
    monkeypatch.setattr(blocking, "kspace_weights",
                        lambda B, k: passes.append(k) or kspace_weights(B, k))
    B = two_line_union(ProjectiveSpace.of_order(2, 3))
    sums = {}
    verdicts = [judge_claim(B, kind, 2, 1, sums)
                for kind in ("t_fold_blocking", "t_mod_p", "minimal")]
    assert verdicts == [(True, None)] * 3 and passes == [1]
    # a 3-fold claim fails on a 2-secant, from the same weights
    ok, witness = judge_claim(B, "t_fold_blocking", 3, 1, sums)
    assert not ok and B.subspace_weight(witness) == 2 and passes == [1]


def test_judge_claim_reads_a_set_that_is_not_blocking_as_not_minimal():
    B = WeightedPointSet(ProjectiveSpace.of_order(2, 2), [1, 1, 0, 0, 0, 0, 0])
    ok, witness = judge_claim(B, "minimal", 1, 1, {})
    assert not ok and B.subspace_weight(witness) == 0
    assert (ok, witness) == is_t_fold_blocking(B, 1, 1)
    # the public predicate still refuses to answer
    with pytest.raises(BlockingError, match="not a 1-fold blocking set"):
        is_minimal(B, 1, 1)


def test_judge_claim_refuses_other_kinds_and_ranges():
    B = two_line_union(ProjectiveSpace.of_order(2, 3))
    with pytest.raises(BlockingError, match="unknown claim type 'maximal'"):
        judge_claim(B, "maximal", 2, 1, {})
    for kind in ("t_fold_blocking", "minimal"):
        with pytest.raises(BlockingError, match="k = 0 out of range"):
            judge_claim(B, kind, 2, 0, {})
    # k = 0 is in range for a t (mod p) claim: the first point of weight 1 fails it
    ok, witness = judge_claim(B, "t_mod_p", 2, 0, {})
    assert not ok and B.subspace_weight(witness) == 1


def test_frame_and_walk_read_one_plane_rule(monkeypatch):
    # tmodp_frame and the walk both take the plane's cosets from
    # plane_cosets, so a lowered limit reaches both
    monkeypatch.setattr(blocking, "COSET_LIMIT", 10)
    frame = tmodp_frame(3, 1)
    enum = enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=1, t=1,
                                  max_size=frame["max_size"])
    assert (frame["kernel_dim"], frame["num_solution_classes"], frame["exhaustive"]) == \
        (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == (6, 729, False)


def test_minimal_reduction_recovers_union():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    C = B.copy()
    extra = next(i for i, w in enumerate(C.weights) if w == 0)
    C.weights[extra] += 1
    R = minimal_reduction(C, 2, 1)
    assert R.weights == B.weights
    assert is_minimal(R, 2, 1)
    # reduction of an already-minimal set is the identity
    assert minimal_reduction(B, 2, 1).weights == B.weights


def test_minimal_reduction_requires_blocking():
    space = ProjectiveSpace.of_order(2, 3)
    B = WeightedPointSet(space, [0] * space.num_points)
    with pytest.raises(BlockingError):
        minimal_reduction(B, 2, 1)


def test_harrach_uniqueness_limit_values():
    assert harrach_uniqueness_limit(ProjectiveSpace.of_order(2, 3), 2, 1) == 10
    assert harrach_uniqueness_limit(ProjectiveSpace.of_order(3, 2), 2, 2) == 7
    assert harrach_uniqueness_limit(ProjectiveSpace.of_order(3, 2), 2, 1) == 3 * 4 + 3


def test_is_t_mod_p_set():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    ok, _ = is_t_mod_p_set(B, 2, 1)
    assert ok
    ok, witness = is_t_mod_p_set(B, 1, 1)
    assert not ok and witness is not None


def test_construct_union_rejects_negative_multiplicity():
    space = ProjectiveSpace.of_order(2, 2)
    line = space.subspaces(1)[0]
    with pytest.raises(BlockingError):
        construct_union(space, [(line, -1)])


def test_solve_mod_p_small_systems():
    particular, kernel = solve_mod_p([[1, 1], [0, 1]], [0, 1], 2)
    assert particular == [1, 1] and kernel == []
    assert solve_mod_p([[1, 1], [1, 1]], [0, 1], 2) is None
    particular, kernel = solve_mod_p([[1, 1, 1]], [2], 3)
    assert len(kernel) == 2
    for vec in kernel:
        assert sum(vec) % 3 == 0
    assert sum(particular) % 3 == 2


def naive_fano_solutions(max_size):
    """All 0/1 weight vectors on PG(2,2) with every line sum odd."""
    space = ProjectiveSpace.of_order(2, 2)
    supports = [S.point_indices() for S in space.subspaces(1)]
    out = []
    for w in itertools.product(range(2), repeat=7):
        if sum(w) <= max_size and all(sum(w[i] for i in sup) % 2 == 1
                                      for sup in supports):
            out.append(w)
    return sorted(out)


def test_enumerate_t_mod_p_sets_fano_oracle():
    space = ProjectiveSpace.of_order(2, 2)
    enum = enumerate_t_mod_p_sets(space, k=1, t=1, max_size=7)
    assert enum.exhaustive
    assert enum.kernel_dim == 3 and enum.num_solution_classes == 8
    got = sorted(tuple(B.weights) for B in enum.sets)
    assert got == naive_fano_solutions(7)
    # the 8 solutions are the 7 lines plus the full plane
    assert len(got) == 8
    # the size bound of the structure theorem excludes the full plane
    enum6 = enumerate_t_mod_p_sets(space, k=1, t=1, max_size=6)
    line_weights = sorted(tuple(1 if i in set(L.point_indices()) else 0
                                for i in range(7))
                          for L in space.subspaces(1))
    assert sorted(tuple(B.weights) for B in enum6.sets) == line_weights


def test_enumerate_t_mod_p_sets_empty_below_minimum():
    space = ProjectiveSpace.of_order(2, 3)
    enum = enumerate_t_mod_p_sets(space, k=1, t=2, max_size=7)
    assert enum.exhaustive and enum.sets == []
    assert enum.num_solution_classes == 3**6


def test_enumerate_t_mod_p_sets_past_the_coset_limit(monkeypatch):
    # past COSET_LIMIT no coset is walked: the kernel is reported, no sets
    monkeypatch.setattr(blocking, "COSET_LIMIT", 10)
    enum = enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=1, t=2, max_size=13)
    assert (enum.exhaustive, enum.sets, enum.kernel_dim, enum.num_solution_classes,
            enum.sampled) == (False, [], 6, 729, 0)


def reference_t_mod_p_walk(space, k, t, max_size):
    """The coset walk written coordinate by coordinate over
    itertools.product, as a reference for the walk of
    enumerate_t_mod_p_sets: the same solve, coset limit, filter and sort;
    past the limit it walks no coset."""
    p = space.field.p
    npts = space.num_points
    rows = [[S.mask >> i & 1 for i in range(npts)] for S in space.subspaces(k)]
    particular, kernel = solve_mod_p(rows, [t] * len(rows), p)
    kdim = len(kernel)
    exhaustive = p**kdim <= blocking.COSET_LIMIT
    if exhaustive:
        walk = itertools.product(range(p), repeat=kdim)
    else:
        walk = set()
    found = []
    for coeffs in walk:
        w = list(particular)
        for c, vec in zip(coeffs, kernel):
            if c:
                for j in range(npts):
                    if vec[j]:
                        w[j] = (w[j] + c * vec[j]) % p
        if sum(w) <= max_size:
            found.append(w)
    return (sorted(found), kdim, p**kdim, exhaustive,
            0 if exhaustive else len(walk))


@pytest.mark.parametrize("n, q, k, t, cap, coset_limit", [
    (2, 2, 1, 1, 1, 3**13),   # exhaustive
    (2, 3, 1, 2, 2, 3**13),   # 729 cosets
    (3, 2, 2, 1, 1, 3**13),   # 2048 cosets
    (2, 5, 1, 2, 4, 3**13),   # past the coset limit
    (3, 3, 2, 1, 2, 3**13),
    (2, 11, 1, 3, 10, 3**13),
    (2, 3, 1, 1, 2, 10),      # past a lowered limit
    (2, 5, 1, 2, 4, 10),
])
def test_enumerate_t_mod_p_sets_matches_coordinate_walk(monkeypatch, n, q, k, t, cap,
                                                        coset_limit):
    monkeypatch.setattr(blocking, "COSET_LIMIT", coset_limit)
    space = ProjectiveSpace.of_order(n, q)
    max_size = space.num_points * (q - 1) // 2
    enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=max_size)
    ref_sets, kdim, total, exhaustive, sampled = reference_t_mod_p_walk(space, k, t, max_size)
    assert [B.weights for B in enum.sets] == ref_sets and (ref_sets or not exhaustive)
    # the walk reduces every weight mod p, so no weight passes cap = p - 1
    assert all(max(B.weights) <= cap for B in enum.sets)
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive, enum.sampled) == \
        (kdim, total, exhaustive, sampled)
    assert exhaustive == ((n, q) in {(2, 2), (2, 3), (3, 2)} and coset_limit > 10)


def test_enumerate_t_mod_p_sets_parameter_errors():
    space9 = ProjectiveSpace.of_order(2, 4)
    with pytest.raises(BlockingError, match=r"needs a prime field, not GF\(4\)"):
        enumerate_t_mod_p_sets(space9, k=1, t=1, max_size=5)  # h = 2


@pytest.mark.parametrize("q", [19, 127])
def test_enumerate_t_mod_p_sets_refuses_large_incidence_matrices(q):
    # PG(2,19) has 381^2 = 145161 line/point entries, above 10^5; the
    # refusal comes before the matrix is built
    space = ProjectiveSpace.of_order(2, q)
    start = time.perf_counter()
    with pytest.raises(BlockingError, match="entries, above the limit 100000"):
        enumerate_t_mod_p_sets(space, k=1, t=1, max_size=5)
    assert time.perf_counter() - start < 0.1


def test_enumerate_t_mod_p_sets_answers_below_the_matrix_limit():
    # PG(2,17) has 307^2 = 94249 entries, within the matrix limit; the
    # closed-form kernel dimension puts it past the coset limit before any
    # elimination
    enum = enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 17), k=1, t=1, max_size=5)
    assert (enum.kernel_dim, enum.exhaustive, enum.sets) == (153, False, [])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_enumerate_t_mod_p_sets_plane_kernel_needs_no_elimination(monkeypatch, p):
    # past the coset limit the closed form answers before the matrix is
    # built, with the kernel dimension that elimination gives
    space = ProjectiveSpace.of_order(2, p)
    rows = [[S.mask >> i & 1 for i in range(space.num_points)] for S in space.subspaces(1)]
    kdim = len(solve_mod_p(rows, [1] * len(rows), p)[1])

    def refuse(*args):
        raise AssertionError("the plane was eliminated")
    monkeypatch.setattr(blocking, "solve_mod_p", refuse)
    monkeypatch.setattr(blocking, "COSET_LIMIT", p**kdim - 1)
    enum = enumerate_t_mod_p_sets(space, k=1, t=1, max_size=space.num_points)
    assert (enum.sets, enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
        ([], kdim, p**kdim, False)


def assert_matches_reference(space, k, t, max_size):
    enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=max_size)
    ref_sets, kdim, total, exhaustive, sampled = reference_t_mod_p_walk(space, k, t, max_size)
    assert [B.weights for B in enum.sets] == ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive, enum.sampled) == \
        (kdim, total, exhaustive, sampled)
    return enum


@pytest.mark.parametrize("chunk", [1, 2, 5, 7, 64])
@pytest.mark.parametrize("n, q, k, t, coset_limit", [
    (2, 3, 1, 2, 3**13),   # exhaustive, 729 cosets
    (3, 2, 2, 1, 3**13),   # exhaustive, 2048 cosets
    (2, 5, 1, 2, 10),      # past the limit
    (2, 3, 1, 1, 10),
])
def test_enumerate_t_mod_p_sets_chunk_boundaries(monkeypatch, chunk, n, q, k, t, coset_limit):
    # max_size cut every `chunk` points from 0 to the top: each cut keeps
    # exactly the sets of the uncut walk up to that size, in the same order
    monkeypatch.setattr(blocking, "COSET_LIMIT", coset_limit)
    space = ProjectiveSpace.of_order(n, q)
    top = space.num_points * (q - 1) // 2
    full = assert_matches_reference(space, k, t, max_size=top)
    assert bool(full.sets) == full.exhaustive
    for cut in sorted(set(range(0, top, chunk)) | {top}):
        enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=cut)
        assert [B.weights for B in enum.sets] == \
            [B.weights for B in full.sets if sum(B.weights) <= cut]
        assert (enum.kernel_dim, enum.exhaustive) == (full.kernel_dim, full.exhaustive)


@pytest.mark.parametrize("q, k, t, coset_limit", [
    (127, 1, 5, 40),
    (131, 1, 3, 40),
    (131, 0, 3, 40),   # one coset, walked
    (251, 1, 0, 20),
    (257, 0, 1, 40),
    (257, 1, 1, 40),
])
def test_enumerate_t_mod_p_sets_large_primes(monkeypatch, q, k, t, coset_limit):
    # k = 1 leaves a kernel of dimension q, past any small coset limit
    monkeypatch.setattr(blocking, "COSET_LIMIT", coset_limit)
    space = ProjectiveSpace.of_order(1, q)
    for max_size in (q * (q + 1) // 2, 10**6):
        enum = assert_matches_reference(space, k, t, max_size)
        assert enum.exhaustive == (k == 0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_size=None), "max_size must be an int >= 0, not None"),
    (dict(max_size=-1), "max_size must be an int >= 0, not -1"),
    (dict(max_size=5.0), "max_size must be an int >= 0, not 5.0"),
])
def test_enumerate_t_mod_p_sets_rejects_bad_arguments(kwargs, message):
    with pytest.raises(BlockingError, match=message):
        enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=1, t=1, **kwargs)
