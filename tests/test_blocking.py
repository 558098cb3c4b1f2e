import itertools
import time

import pytest

from pgworkbench import blocking
from pgworkbench.blocking import (BlockingError, WeightedPointSet, construct_union,
                                  enumerate_t_mod_p_sets, essential_points,
                                  harrach_uniqueness_limit, is_minimal,
                                  is_t_fold_blocking, is_t_mod_p_set, judge_claim,
                                  kspace_weights, minimal_reduction, solve_mod_p)
from pgworkbench.geometry import GeometryError, ProjectiveSpace, theta
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
    C = WeightedPointSet(space, list(B.weights))
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


@pytest.mark.parametrize("k", ["1", None, [1], 1.0, True, -1, 3])
def test_judge_claim_gates_k_before_comparing_it(k):
    # a blocking or minimal claim compared k with 1 before any type test:
    # "1" and None raised "'<' not supported between instances", and a list
    # k of a t (mod p) claim "unhashable type" from the shared sums
    B = two_line_union(ProjectiveSpace.of_order(2, 3))
    reason = f"m = {k} out of range for PG(2,3)" if type(k) is int else \
        f"(n, m, q) = (2, {k!r}, 3) are not all integers"
    for judge in (lambda k: judge_claim(B, "t_fold_blocking", 2, k, {}),
                  lambda k: judge_claim(B, "minimal", 2, k, {}),
                  lambda k: judge_claim(B, "t_mod_p", 2, k, {}),
                  lambda k: is_t_fold_blocking(B, 2, k), lambda k: is_t_mod_p_set(B, 2, k)):
        with pytest.raises(GeometryError) as info:
            judge(k)
        assert str(info.value) == reason
    # an int k that is a level of the plane but no blocking level keeps the
    # judge's refusal
    for k in (0, 2):
        with pytest.raises(BlockingError, match=f"^k = {k} out of range$"):
            is_t_fold_blocking(B, 2, k)


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
    C = WeightedPointSet(space, list(B.weights))
    extra = next(i for i, w in enumerate(C.weights) if w == 0)
    C.weights[extra] += 1
    R = minimal_reduction(C, 2, 1)
    assert R.weights == B.weights
    assert is_minimal(R, 2, 1)
    # reduction of an already-minimal set is the identity
    assert minimal_reduction(B, 2, 1).weights == B.weights


def test_kspace_weights_take_a_pass_per_bit_not_per_distinct_weight():
    # 5220 distinct weights on the planes of PG(3,17) are 13 bits: a pass
    # over the masks per distinct weight took about 17 s there
    space = ProjectiveSpace.of_order(3, 17)
    space.subspaces(2)
    B = WeightedPointSet(space, list(range(space.num_points)))
    start = time.perf_counter()
    sums = kspace_weights(B, 2)
    assert time.perf_counter() - start < 2
    assert sums == [sum(S.point_indices()) for S in space.subspaces(2)]


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
    got = sorted(enum.sets)
    assert got == naive_fano_solutions(7)
    # the 8 solutions are the 7 lines plus the full plane
    assert len(got) == 8
    # the size bound of the structure theorem excludes the full plane
    enum6 = enumerate_t_mod_p_sets(space, k=1, t=1, max_size=6)
    line_weights = sorted(tuple(1 if i in set(L.point_indices()) else 0
                                for i in range(7))
                          for L in space.subspaces(1))
    assert sorted(enum6.sets) == line_weights


def test_enumerate_t_mod_p_sets_empty_below_minimum():
    space = ProjectiveSpace.of_order(2, 3)
    enum = enumerate_t_mod_p_sets(space, k=1, t=2, max_size=7)
    assert enum.exhaustive and enum.sets == []
    assert enum.num_solution_classes == 3**6


def test_enumerate_t_mod_p_sets_past_the_coset_limit(monkeypatch):
    # past COSET_LIMIT no coset is walked: the kernel is reported, no sets
    monkeypatch.setattr(blocking, "COSET_LIMIT", 10)
    enum = enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=1, t=2, max_size=13)
    assert (enum.exhaustive, enum.sets, enum.kernel_dim, enum.num_solution_classes) == \
        (False, [], 6, 729)


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
    walk = itertools.product(range(p), repeat=kdim) if exhaustive else ()
    found = []
    for coeffs in walk:
        w = list(particular)
        for c, vec in zip(coeffs, kernel):
            if c:
                for j in range(npts):
                    if vec[j]:
                        w[j] = (w[j] + c * vec[j]) % p
        if sum(w) <= max_size:
            found.append(tuple(w))
    return sorted(found), kdim, p**kdim, exhaustive


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
    ref_sets, kdim, total, exhaustive = reference_t_mod_p_walk(space, k, t, max_size)
    assert enum.sets == ref_sets and (ref_sets or not exhaustive)
    # the walk reduces every weight mod p, so no weight passes cap = p - 1
    assert all(max(w) <= cap for w in enum.sets)
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
        (kdim, total, exhaustive)
    assert exhaustive == ((n, q) in {(2, 2), (2, 3), (3, 2)} and coset_limit > 10)


def test_enumerate_t_mod_p_sets_parameter_errors():
    space9 = ProjectiveSpace.of_order(2, 4)
    with pytest.raises(BlockingError, match=r"^p = 4 is not prime$"):
        enumerate_t_mod_p_sets(space9, k=1, t=1, max_size=5)  # h = 2


@pytest.mark.parametrize("k", ["1", None, 1.0, True])
def test_enumerate_t_mod_p_sets_refuses_a_k_that_is_not_an_int(k):
    # the subspace count once raised a raw TypeError for these, and True
    # counted as 1
    with pytest.raises(BlockingError) as info:
        enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=k, t=1, max_size=5)
    assert str(info.value) == f"k {k!r} is not an int"


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
    ref_sets, kdim, total, exhaustive = reference_t_mod_p_walk(space, k, t, max_size)
    assert enum.sets == ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
        (kdim, total, exhaustive)
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
        assert enum.sets == [w for w in full.sets if sum(w) <= cut]
        assert (enum.kernel_dim, enum.exhaustive) == (full.kernel_dim, full.exhaustive)


@pytest.mark.parametrize("q, k, t, coset_limit", [
    (127, 1, 5, 40),
    (131, 1, 3, 40),
    (131, 0, 3, 40),   # one coset, walked
    (251, 1, 0, 20),
    (257, 0, 1, 40),
    (257, 1, 1, 40),
    (257, 0, 256, 40),  # residues past a byte, in the one coset of k = 0
    (313, 0, 312, 40),
])
def test_enumerate_t_mod_p_sets_large_primes(monkeypatch, q, k, t, coset_limit):
    # k = 1 leaves a kernel of dimension q, past any small coset limit; k = 0
    # leaves an empty kernel, whose one coset is taken unpacked, as no byte
    # lane holds a residue of 256
    monkeypatch.setattr(blocking, "COSET_LIMIT", coset_limit)
    space = ProjectiveSpace.of_order(1, q)
    for max_size in (q * (q + 1) // 2, 10**6):
        enum = assert_matches_reference(space, k, t, max_size)
        assert enum.exhaustive == (k == 0)


def test_enumerate_t_mod_p_sets_refuses_a_kernel_past_the_byte_lanes(monkeypatch):
    # PG(1,17) at k = 1 has a kernel of dimension 17: under a coset limit
    # raised to 17^17 a lane could reach 16 * 18 = 288, past a byte, so the
    # walk is refused before it reads a vector of the solve to build a coset
    class Unread(list):
        def __iter__(self):
            raise AssertionError("a coset was built")

    solve = blocking.solve_mod_p

    def unread_solve(rows, rhs, p):
        particular, kernel = solve(rows, rhs, p)
        return Unread(particular), [Unread(vec) for vec in kernel]
    monkeypatch.setattr(blocking, "solve_mod_p", unread_solve)
    monkeypatch.setattr(blocking, "COSET_LIMIT", 17**17)
    with pytest.raises(BlockingError,
                       match=r"^a kernel of dimension 17 over GF\(17\) overflows a byte lane$"):
        enumerate_t_mod_p_sets(ProjectiveSpace.of_order(1, 17), k=1, t=1, max_size=5)


def vectors_of_sum(length, top, total):
    """The vectors of {0..top}^length with the given sum, by stars and bars."""
    out = []
    for bars in itertools.combinations(range(total + length - 1), length - 1):
        cuts = (-1,) + bars + (total + length - 1,)
        parts = tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))
        if max(parts) <= top:
            out.append(parts)
    return out


@pytest.mark.parametrize("t, max_size, count", [(3, 5, 120), (3, 10, 18608), (6, 10, 1716)])
def test_enumerate_t_mod_p_sets_widest_shipped_lanes(t, max_size, count):
    # PG(1,7) at k = 1: a kernel of dimension 7, whose 7^7 cosets are under
    # the shipped COSET_LIMIT; at t = 6 its lanes reach 6 * 8 = 48, the
    # widest of any walk that the shipped limit admits.  The t (mod 7) sets
    # are the vectors of {0..6}^8 whose sum is t (mod 7), listed by their sums
    enum = enumerate_t_mod_p_sets(ProjectiveSpace.of_order(1, 7), k=1, t=t,
                                  max_size=max_size)
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == (7, 7**7, True)
    assert blocking.COSET_LIMIT == 3**13
    expected = sorted(w for s in range(t, max_size + 1, 7) for w in vectors_of_sum(8, 6, s))
    assert len(expected) == count and enum.sets == expected


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_size=None), "max_size must be an integer >= 0, not None"),
    (dict(max_size=-1), "max_size must be an integer >= 0, not -1"),
    (dict(max_size=5.0), "max_size must be an integer >= 0, not 5.0"),
    # t = True listed t = 1's 482 sets; 2.5 and "1" raised raw TypeErrors
    (dict(t=True), "t True is not an int"),
    (dict(t=2.5), "t 2.5 is not an int"),
    (dict(t="1"), "t '1' is not an int"),
])
def test_enumerate_t_mod_p_sets_rejects_bad_arguments(kwargs, message):
    with pytest.raises(BlockingError, match=message):
        enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3),
                               **{"k": 1, "t": 1, "max_size": 13, **kwargs})


def _no_build(self, *args):
    raise AssertionError("a field or space was built")


@pytest.mark.parametrize("args, message", [
    ((2, 1, 2.0, 1, 13), "p 2.0 is not an int"),
    ((2, 1, True, 1, 13), "p True is not an int"),
    ((2, 1, 3, 1.0, 13), "t 1.0 is not an int"),
    ((2, 1, 3, False, 13), "t False is not an int"),
    ((2, 1, 3, 1, None), "max_size must be an integer >= 0, not None"),
    ((2, 1, 3, 1, -1), "max_size must be an integer >= 0, not -1"),
    ((2, 1, 3, 1, True), "max_size must be an integer >= 0, not True"),
    # a prime whose trial division would take minutes
    ((2, 1, 2**61 - 1, 1, 13), f"p = {2**61 - 1} exceeds the limit 65536"),
    ((2, 1, 4, 1, 13), "p = 4 is not prime"),
    ((2, 1, 1, 1, 13), "p = 1 is not prime"),
    ((2, 1, 19, 1, 13), "the 1-space/point incidence matrix of PG(2,19) has 145161 entries, "
                        "above the limit 100000"),
    ((3, 1, 7, 1, 13), "the 1-space/point incidence matrix of PG(3,7) has 1140000 entries, "
                       "above the limit 100000"),
], ids=["p-float", "p-bool", "t-float", "t-bool", "max-size-none", "max-size-negative",
        "max-size-bool", "p-past-max-q", "p-not-prime", "p-one", "matrix-past-the-limit",
        "matrix-of-a-solid-past-the-limit"])
def test_mod_p_gate_refuses_by_counts_alone(monkeypatch, args, message):
    # the one gate of the enumeration and of tmodp_frame, each fault in one
    # text; the frame reads a max_size of None as its default
    monkeypatch.setattr(blocking.GF, "__init__", _no_build)
    monkeypatch.setattr(ProjectiveSpace, "__init__", _no_build)
    assert blocking.mod_p_gate(2, 1, 17, 7, 0) is None
    with pytest.raises(BlockingError) as info:
        blocking.mod_p_gate(*args)
    assert str(info.value) == message
    n, k, p, t, max_size = args
    if (n, k) == (2, 1) and max_size is not None:
        with pytest.raises(BlockingError) as info:
            tmodp_frame(p, t, max_size)
        assert str(info.value) == message


@pytest.mark.parametrize("weights", ["abc", None, 3, {"0": 1}, [1.0] + [1] * 6,
                                     [True] + [1] * 6, [None] + [1] * 6, [[1]] + [1] * 6],
                         ids=["str", "null", "int", "object", "float", "bool", "list-null",
                              "list-list"])
def test_weights_from_outside_are_read_by_one_reader(weights):
    space = ProjectiveSpace.of_order(2, 2)
    with pytest.raises(BlockingError) as info:
        WeightedPointSet.from_json(space, weights)
    assert str(info.value) == "weights must be a list of ints"


def test_the_weights_reader_keeps_the_constructors_tests():
    space = ProjectiveSpace.of_order(2, 2)
    weights = [1, 1, 1, 0, 0, 0, 0]
    B = WeightedPointSet.from_json(space, weights)
    assert B == WeightedPointSet(space, weights) and B.weights is weights
    with pytest.raises(BlockingError, match="^weight array length does not match"):
        WeightedPointSet.from_json(space, weights[1:])
    with pytest.raises(BlockingError, match="^weights must be nonnegative$"):
        WeightedPointSet.from_json(space, [-1] + weights[1:])
