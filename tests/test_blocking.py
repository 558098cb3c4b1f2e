import hashlib
import itertools
import json
import random

import pytest

from pgworkbench import blocking
from pgworkbench.blocking import (FULL, LONG, T_SECANT, BlockingError,
                                  WeightedPointSet, _randrange_draws, classify_lines,
                                  construct_qplus1_fold, construct_union,
                                  enumerate_t_mod_p_sets, essential_points,
                                  folklore_bound_margin,
                                  harrach_uniqueness_limit, is_minimal,
                                  is_t_fold_blocking, is_t_mod_p_set,
                                  kspace_weights, largest_mod_exponent,
                                  minimal_reduction, solve_mod_p)
from pgworkbench.geometry import ProjectiveSpace, theta


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
    with pytest.raises(BlockingError):
        is_t_mod_p_set(B, 2, 1, p=5)


def test_largest_mod_exponent():
    space = ProjectiveSpace.of_order(2, 3)
    line = space.subspaces(1)[0]
    B = construct_union(space, [(line, 1)])
    rep = largest_mod_exponent(B, 1, 1)
    # line sums are 4 and 1: congruent mod 3 but not mod 9
    assert rep.p == 3 and rep.e == 1 and not rep.capped
    assert rep.size_lower_bound > 0
    with pytest.raises(BlockingError):
        largest_mod_exponent(B, 2, 1)


def test_largest_mod_exponent_capped():
    # the full plane meets every line in exactly 3 points
    space = ProjectiveSpace.of_order(2, 2)
    B = WeightedPointSet(space, [1] * 7)
    rep = largest_mod_exponent(B, 3, 1)
    assert rep.capped


def test_classify_lines_two_line_union():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    rep = classify_lines(B, 2)
    assert rep.classes.count(T_SECANT) == 11
    assert rep.h1 == 2 and rep.h2 == 0
    assert rep.s_min is None  # no long lines at all
    assert len(rep.outer_points) == 13 - 7
    assert sorted(rep.line_weights) == [2] * 11 + [5, 5]


def test_classify_lines_long_lines():
    # complement of a line in the Fano plane: a 0 (mod 2) set
    space = ProjectiveSpace.of_order(2, 2)
    removed = space.subspaces(1)[0]
    w = [1] * 7
    for i in removed.point_indices():
        w[i] = 0
    B = WeightedPointSet(space, w)
    ok, _ = is_t_mod_p_set(B, 0, 1)
    assert ok
    rep = classify_lines(B, 0)
    assert rep.classes.count(T_SECANT) == 1   # the removed line itself
    assert rep.h1 == 0 and rep.h2 == 6
    assert rep.s_min == 1                      # long lines weigh 0 + 1*2


def test_folklore_bound_margin():
    space = ProjectiveSpace.of_order(2, 3)
    B = two_line_union(space)
    assert folklore_bound_margin(B, 2, 1) == 0
    with pytest.raises(BlockingError):
        folklore_bound_margin(B, 4, 1)  # t > q


def test_construct_qplus1_fold():
    for n, q, k in [(2, 2, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1)]:
        space = ProjectiveSpace.of_order(n, q)
        B = construct_qplus1_fold(space, k)
        assert B.size == theta(n - k + 1, q)
        assert B.size < (q + 1) * theta(n - k, q)
        ok, _ = is_t_fold_blocking(B, q + 1, k)
        assert ok


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


def test_enumerate_t_mod_p_sets_sampling_mode():
    space = ProjectiveSpace.of_order(2, 3)
    enum = enumerate_t_mod_p_sets(space, k=1, t=2, max_size=8,
                                  coset_limit=10, sample_count=2000, seed=1)
    assert not enum.exhaustive
    assert enum.sampled <= 2000
    for B in enum.sets:
        ok, _ = is_t_mod_p_set(B, 2, 1)
        assert ok and B.size <= 8
    # determinism for a fixed seed
    again = enumerate_t_mod_p_sets(space, k=1, t=2, max_size=8,
                                   coset_limit=10, sample_count=2000, seed=1)
    assert [b.weights for b in again.sets] == [b.weights for b in enum.sets]
    # the draws, their deduplication and the sorted output are pinned
    assert enum.sampled == 678 and len(enum.sets) == 85
    digest = hashlib.sha256(json.dumps([B.weights for B in enum.sets],
                                       separators=(",", ":")).encode()).hexdigest()
    assert digest == "2f11204b5b4984c1ffae7574e0dfdf29a51c17da1bb604867a620e2d3d6441cd"


def reference_t_mod_p_walk(space, k, t, max_size, weight_cap, coset_limit,
                           sample_count, seed):
    """The coset walk written coordinate by coordinate, as a reference for
    the packed-lane walk of enumerate_t_mod_p_sets: the same solve, draws,
    deduplication, filter and sort."""
    p = space.field.p
    npts = space.num_points
    rows = [[S.mask >> i & 1 for i in range(npts)] for S in space.subspaces(k)]
    particular, kernel = solve_mod_p(rows, [t] * len(rows), p)
    kdim = len(kernel)
    exhaustive = p**kdim <= coset_limit
    if exhaustive:
        walk = itertools.product(range(p), repeat=kdim)
    else:
        rng = random.Random(seed)
        walk = {tuple(rng.randrange(p) for _ in range(kdim)) for _ in range(sample_count)}
    found = []
    for coeffs in walk:
        w = list(particular)
        for c, vec in zip(coeffs, kernel):
            if c:
                for j in range(npts):
                    if vec[j]:
                        w[j] = (w[j] + c * vec[j]) % p
        if max(w) <= weight_cap and sum(w) <= max_size:
            found.append(w)
    return (sorted(found), kdim, p**kdim, exhaustive,
            0 if exhaustive else len(walk))


@pytest.mark.parametrize("n, q, k, t, weight_cap, lane_bits", [
    (2, 2, 1, 1, 1, 8),   # exhaustive
    (2, 3, 1, 2, 2, 8),
    (2, 3, 1, 1, 1, 8),   # a weight cap below p - 1 keeps 14 of 482 sets
    (3, 2, 2, 1, 1, 8),
    (2, 5, 1, 2, 4, 8),   # sampled
    (3, 3, 2, 1, 2, 8),
    (2, 11, 1, 3, 10, 16),
])
def test_enumerate_t_mod_p_sets_matches_coordinate_walk(n, q, k, t, weight_cap, lane_bits):
    space = ProjectiveSpace.of_order(n, q)
    max_size = space.num_points * (q - 1) // 2
    args = dict(coset_limit=3**13, sample_count=300, seed=7)
    enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=max_size,
                                  weight_cap=weight_cap, **args)
    ref_sets, kdim, total, exhaustive, sampled = reference_t_mod_p_walk(
        space, k, t, max_size, weight_cap, **args)
    assert [B.weights for B in enum.sets] == ref_sets and ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive, enum.sampled) == \
        (kdim, total, exhaustive, sampled)
    assert exhaustive == ((n, q) in {(2, 2), (2, 3), (3, 2)})
    # a lane holds the unreduced sum of kdim + 1 residues below p: up to 255
    # fits 8-bit lanes, and PG(2,11) needs 16-bit ones
    assert ((q - 1) * (kdim + 1) > 255) == (lane_bits == 16)


def test_enumerate_t_mod_p_sets_parameter_errors():
    space9 = ProjectiveSpace.of_order(2, 4)
    with pytest.raises(BlockingError):
        enumerate_t_mod_p_sets(space9, k=1, t=1, max_size=5)  # h = 2
    space = ProjectiveSpace.of_order(2, 3)
    with pytest.raises(BlockingError):
        enumerate_t_mod_p_sets(space, k=1, t=1, max_size=5, weight_cap=3)
    # k = n leaves a kernel of dimension 257 on the line PG(1,257): sampled,
    # and its draws do not fit in bytes
    with pytest.raises(BlockingError, match="mod-p enumeration needs p < 256"):
        enumerate_t_mod_p_sets(ProjectiveSpace.of_order(1, 257), k=1, t=1, max_size=5)


def assert_matches_reference(space, k, t, max_size, weight_cap, **args):
    enum = enumerate_t_mod_p_sets(space, k=k, t=t, max_size=max_size,
                                  weight_cap=weight_cap, **args)
    ref_sets, kdim, total, exhaustive, sampled = reference_t_mod_p_walk(
        space, k, t, max_size, weight_cap, **args)
    assert [B.weights for B in enum.sets] == ref_sets
    assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive, enum.sampled) == \
        (kdim, total, exhaustive, sampled)
    return enum


@pytest.mark.parametrize("chunk", [1, 2, 5, 7, 64])
@pytest.mark.parametrize("n, q, k, t, coset_limit", [
    (2, 3, 1, 2, 3**13),   # exhaustive, 729 cosets
    (3, 2, 2, 1, 3**13),   # exhaustive, 2048 cosets
    (2, 5, 1, 2, 10),      # sampled, 300 draws
    (2, 3, 1, 1, 10),      # sampled, with repeated draws
])
def test_enumerate_t_mod_p_sets_chunk_boundaries(monkeypatch, chunk, n, q, k, t, coset_limit):
    # a coset's lane must not depend on where the chunks of the walk end:
    # exhaustive chunks of p^m cosets (p^0 = 1 when chunk < p) and sampled
    # chunks that do not divide the draws
    monkeypatch.setattr(blocking, "_COSET_CHUNK", chunk)
    space = ProjectiveSpace.of_order(n, q)
    enum = assert_matches_reference(space, k, t, max_size=space.num_points * (q - 1) // 2,
                                    weight_cap=q - 1, coset_limit=coset_limit,
                                    sample_count=300, seed=5)
    assert enum.sets


def test_enumerate_t_mod_p_sets_duplicate_draws_across_chunks():
    # 40000 draws from the 3^6 = 729 cosets of PG(2,3) span ten chunks and
    # repeat every coset; each is kept once and counted once
    space = ProjectiveSpace.of_order(2, 3)
    enum = assert_matches_reference(space, 1, 2, max_size=13, weight_cap=2,
                                    coset_limit=10, sample_count=40000, seed=0)
    assert enum.sampled == 729 and not enum.exhaustive
    exhaustive = enumerate_t_mod_p_sets(space, k=1, t=2, max_size=13)
    assert [B.weights for B in enum.sets] == [B.weights for B in exhaustive.sets]


@pytest.mark.parametrize("q, k, t, sample_count", [
    (127, 1, 5, 40),   # 1-byte lanes reduced after every term
    (131, 1, 3, 40),   # 2-byte lanes: two residues overflow a byte
    (131, 0, 3, 40),
    (251, 1, 0, 20),
])
def test_enumerate_t_mod_p_sets_large_primes(q, k, t, sample_count):
    space = ProjectiveSpace.of_order(1, q)
    for max_size in (q * (q + 1) // 2, 10**6):
        assert_matches_reference(space, k, t, max_size, q - 1, coset_limit=3**13,
                                 sample_count=sample_count, seed=3)


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_size=None), "max_size must be an int >= 0, not None"),
    (dict(max_size=-1), "max_size must be an int >= 0, not -1"),
    (dict(max_size=5.0), "max_size must be an int >= 0, not 5.0"),
    (dict(max_size=5, weight_cap=-1), r"weight_cap must be an int in \[0, 2\], not -1"),
    (dict(max_size=5, weight_cap=3), r"weight_cap must be an int in \[0, 2\], not 3"),
    (dict(max_size=5, sample_count=-5), "sample_count must be an int >= 0, not -5"),
    (dict(max_size=5, coset_limit=0), "coset_limit must be an int >= 1, not 0"),
])
def test_enumerate_t_mod_p_sets_rejects_bad_arguments(kwargs, message):
    with pytest.raises(BlockingError, match=message):
        enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=1, t=1, **kwargs)


def test_enumerate_t_mod_p_sets_rejects_p_from_256_in_both_modes():
    # k = 0 leaves one coset, walked exhaustively: it answered before the
    # residues moved to byte lanes, and now raises like the sampled k = 1
    space = ProjectiveSpace.of_order(1, 257)
    for k in (0, 1):
        with pytest.raises(BlockingError, match="mod-p enumeration needs p < 256"):
            enumerate_t_mod_p_sets(space, k=k, t=1, max_size=5)


def test_randrange_draws_match_randrange():
    # the sampled walk reads randrange(p) in bulk from the Mersenne Twister
    # words; this pins that read to the calls it stands for, rng state included
    primes = [p for p in range(2, 256) if all(p % d for d in range(2, p))]
    assert len(primes) == 54
    for p in primes:
        for seed in (0, 1, 7):
            rng, ref = random.Random(seed), random.Random(seed)
            for count in (0, 1, 15, 40000):
                got = _randrange_draws(rng, p, count)
                assert got == bytes(ref.randrange(p) for _ in range(count)), (p, seed, count)
                assert rng.getstate() == ref.getstate(), (p, seed, count)
