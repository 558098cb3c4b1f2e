import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from pgworkbench import solvers
from pgworkbench.blocking import BlockingError, enumerate_t_mod_p_sets
from pgworkbench.coloring import is_proper, make_coloring
from pgworkbench.fields import GF, FieldError
from pgworkbench.geometry import Hypergraph, ProjectiveSpace, theta
from pgworkbench.solvers import (BOUND_ONLY, OPTIMAL, SolverError,
                                 _sqrt2_combo_nonneg, bounds_report, exact_tau,
                                 exact_ucn, tmodp_frame, verify_tmodp_theorem)

FANO = ProjectiveSpace.of_order(2, 2).hypergraph(1)


def brute_force_tau(H, t):
    best = None
    for r in range(H.num_vertices + 1):
        for combo in itertools.combinations(range(H.num_vertices), r):
            mask = sum(1 << v for v in combo)
            if all((e & mask).bit_count() >= t for e in H.edges):
                return r
    return best


def set_partitions(n):
    """All set partitions of range(n) as restricted-growth label lists."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield list(labels)
            return
        for c in range(used + 1):
            labels[i] = c
            yield from rec(i + 1, used + (1 if c == used else 0))

    yield from rec(0, 0)


def brute_force_ucn(H):
    edge_pts = H.edge_points
    best = 0
    for labels in set_partitions(H.num_vertices):
        classes = max(labels) + 1
        if classes <= best or any(len({labels[v] for v in pts}) == len(pts)
                                  for pts in edge_pts):
            continue
        best = classes
    return best


def _every_point(H, t):
    """A seed of every vertex, in place of solvers._seed_transversal, so
    that exact_tau searches below its root."""
    return set(range(H.num_vertices))


def test_exact_tau_fano_matches_brute_force():
    for t in (1, 2):
        res = exact_tau(FANO, t)
        assert res.status == OPTIMAL
        assert res.objective == brute_force_tau(FANO, t)
        mask = sum(1 << v for v in res.witness)
        assert all((e & mask).bit_count() >= t for e in FANO.edges)
    assert exact_tau(FANO, 1).objective == 3
    assert exact_tau(FANO, 2).objective == 6


def test_exact_tau_plane_hypergraphs():
    H2 = ProjectiveSpace.of_order(3, 2).hypergraph(2)
    res = exact_tau(H2, 2)
    assert res.objective == 6 == 2 * theta(1, 2)
    res = exact_tau(ProjectiveSpace.of_order(3, 3).hypergraph(2), 2)
    assert res.objective == 8 == 2 * theta(1, 3)
    assert res.lower_bound == 8


def test_exact_tau_plane_of_pg34_seeded_and_searched(monkeypatch):
    # 85 points: the two disjoint lines meet the folklore bound at once;
    # seeded with every point instead, the search still finds 10 below
    # the default node ceiling
    H = ProjectiveSpace.of_order(3, 4).hypergraph(2)
    res = exact_tau(H, 2)
    assert (res.status, res.objective, res.nodes) == (OPTIMAL, 10, 0)
    assert res.lower_bound == 10 == 2 * theta(1, 4)
    monkeypatch.setattr(solvers, "_seed_transversal", _every_point)
    res = exact_tau(H, 2)
    assert (res.status, res.objective, res.nodes) == (OPTIMAL, 10, 438)


def test_exact_tau_planes_of_pg37_at_the_seed():
    # 400 points: from the greedy incumbent the search needs 160,894 nodes,
    # from the two disjoint lines none
    H = ProjectiveSpace.of_order(3, 7).hypergraph(2)
    res = exact_tau(H, 2)
    assert (res.status, res.objective, res.nodes) == (OPTIMAL, 16, 0)
    mask = sum(1 << v for v in res.witness)
    assert mask.bit_count() == 16 and all((e & mask).bit_count() >= 2 for e in H.edges)


@pytest.mark.parametrize("t, message", [
    (2.0, "t must be an int, not 2.0"), (True, "t must be an int, not True"),
    ("2", "t must be an int, not '2'"), (0, "t must be >= 1"),
], ids=["float", "bool", "str", "zero"])
def test_exact_tau_refuses_a_t_that_is_not_an_int(t, message):
    # 2.0 answered with the float lower_bound 6.0, True solved tau_1, and
    # "2" raised a bare TypeError
    with pytest.raises(SolverError) as info:
        exact_tau(FANO, t)
    assert str(info.value) == message


def test_exact_tau_infeasible_and_limits(monkeypatch):
    H = Hypergraph(3, (0b001,))
    with pytest.raises(SolverError):
        exact_tau(H, 2)
    with pytest.raises(SolverError):
        exact_tau(FANO, 0)
    # seeded with every point, the search must run; at the ceiling 0 it
    # gives up at its first node and answers from that seed
    monkeypatch.setattr(solvers, "NODE_LIMIT", 0)
    monkeypatch.setattr(solvers, "_seed_transversal", _every_point)
    res = exact_tau(FANO, 2)
    assert res.status == BOUND_ONLY and res.objective is None and res.nodes == 1
    assert (res.lower_bound, res.upper_bound, res.witness) == (6, 7, tuple(range(7)))


def test_exact_tau_deterministic():
    a = exact_tau(FANO, 2)
    b = exact_tau(FANO, 2)
    assert a.witness == b.witness and a.nodes == b.nodes


def test_exact_tau_matches_brute_force_random_corpus():
    rng = random.Random(20261018)
    for t in (1, 2, 3):
        for _ in range(40):
            V = rng.randrange(5, 11)
            num_edges = rng.randrange(2, 12)
            edges = []
            while len(edges) < num_edges:
                size = rng.randrange(t, min(6, V) + 1)
                e = sum(1 << v for v in rng.sample(range(V), size))
                if e not in edges:
                    edges.append(e)
            H = Hypergraph(V, tuple(edges))
            res = exact_tau(H, t)
            assert res.status == OPTIMAL
            assert res.objective == len(res.witness) == brute_force_tau(H, t)
            mask = sum(1 << v for v in res.witness)
            assert all((e & mask).bit_count() >= t for e in H.edges)


def test_exact_ucn_fano():
    res = exact_ucn(FANO)
    assert res.status == OPTIMAL
    assert res.objective == brute_force_ucn(FANO) == 3
    assert res.objective >= 7 - 6 + 1  # trivial bound from tau_2 = 6
    ok, _ = is_proper(res.witness, FANO)
    assert ok


def test_exact_ucn_matches_brute_force_random_corpus():
    # no params, so this checks the apart masks of the Zykov branching
    rng = random.Random(20240817)
    for _ in range(300):
        V = rng.randrange(2, 9)
        num_edges = rng.randrange(1, min(8, 2**V - V - 1) + 1)
        edges = set()
        while len(edges) < num_edges:
            size = rng.randrange(2, V + 1)
            pts = rng.sample(range(V), size)
            edges.add(sum(1 << v for v in pts))
        H = Hypergraph(V, tuple(sorted(edges)))
        res = exact_ucn(H)
        assert res.objective == brute_force_ucn(H)
        ok, _ = is_proper(res.witness, H)
        assert ok and res.witness.N == res.objective


def test_exact_ucn_plane_hypergraph_of_pg32():
    H = ProjectiveSpace.of_order(3, 2).hypergraph(2)
    res = exact_ucn(H)
    assert res.objective == 11
    assert res.lower_bound == 10  # trivial bound; exceeded here at tiny q
    ok, _ = is_proper(res.witness, H)
    assert ok


def test_no_proper_twelve_class_coloring_of_pg32_planes():
    # independent upper-bound check for the previous test: properness is
    # preserved under class merges, so UCN < 12 iff no 12-class partition
    # of the 15 points is proper
    H = ProjectiveSpace.of_order(3, 2).hypergraph(2)
    edge_pts = H.edge_points
    n = H.num_vertices
    labels = [0] * n
    found = []

    def rec(i, used):
        if found:
            return
        if used + (n - i) < 12:
            return
        if i == n:
            if used == 12 and not any(
                    len({labels[v] for v in pts}) == len(pts)
                    for pts in edge_pts):
                found.append(list(labels))
            return
        for c in range(min(used + 1, 12)):
            labels[i] = c
            rec(i + 1, used + (1 if c == used else 0))

    rec(0, 0)
    assert not found


def test_exact_ucn_limits_and_errors(monkeypatch):
    with pytest.raises(SolverError):
        exact_ucn(Hypergraph(3, (0b001, 0b110)))
    # the greedy 2-transversal of the Fano plane meets the folklore bound,
    # so the seed is the trivial 2-coloring; case A stops at its first
    # node, and case B is not entered
    monkeypatch.setattr(solvers, "NODE_LIMIT", 0)
    res = exact_ucn(FANO)
    assert res.status == BOUND_ONLY and res.objective is None and res.nodes == 1
    assert (res.lower_bound, res.upper_bound) == (2, None)
    assert is_proper(res.witness, FANO)[0] and res.witness.N == 2


def test_exact_ucn_past_the_node_limit_is_bound_only(monkeypatch):
    # 57 points: both searches stop at a lowered ceiling, and the bound
    # comes from the coloring that the UCN search holds then, at least the
    # trivial one on the 2-transversal that exact_tau holds
    H = ProjectiveSpace.of_order(2, 7).hypergraph(1)
    monkeypatch.setattr(solvers, "NODE_LIMIT", 1000)
    start = time.perf_counter()
    res = exact_ucn(H)
    assert time.perf_counter() - start < 1
    tau = exact_tau(H, 2)
    assert (res.status, tau.status) == (BOUND_ONLY, BOUND_ONLY)
    assert res.nodes == 1001 == tau.nodes and res.objective is None
    assert res.lower_bound == 37
    assert tau.upper_bound == len(tau.witness) and tau.lower_bound == 16
    assert is_proper(res.witness, H)[0]
    assert res.witness.N == res.lower_bound >= 58 - len(tau.witness)


def test_exact_ucn_without_edges(monkeypatch):
    # tau_2 = 0: the seed is the all-distinct coloring, and the bound is V
    H = Hypergraph(3, ())
    res = exact_ucn(H)
    assert (res.objective, res.status, res.lower_bound) == (3, OPTIMAL, 3)
    assert res.witness.assignment == (1, 2, 3)
    monkeypatch.setattr(solvers, "NODE_LIMIT", 0)
    res = exact_ucn(H)
    assert (res.status, res.lower_bound) == (BOUND_ONLY, 3)
    assert res.witness.assignment == (1, 2, 3)


def test_exact_ucn_rejects_zero_vertices():
    # no vertex leaves no coloring to witness; exact_tau still answers 0
    H = Hypergraph(0, ())
    assert exact_tau(H, 2).objective == 0
    with pytest.raises(SolverError, match="the hypergraph has 0 vertices"):
        exact_ucn(H)


def test_exact_ucn_relabeling_invariance():
    rng = random.Random(99)
    H = Hypergraph(6, (0b000111, 0b011100, 0b110001))
    base = exact_ucn(H).objective
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        edges = tuple(sum(1 << perm[v] for v in pts) for pts in H.edge_points)
        assert exact_ucn(Hypergraph(6, edges)).objective == base


def _digest(values):
    return hashlib.sha256(json.dumps(list(values), separators=(",", ":")).encode()).hexdigest()


# Search effort and witnesses of the benchmark's solve tasks.  The nodes are
# pinned from the search with the root fixes, the Zykov apart masks and the
# counting bounds (the cover prefix of exact_tau, the class degrees of
# exact_ucn), so a faster inner loop must visit the same nodes; the
# witnesses are those the searches without any of them gave, and stay.
def test_exact_tau_search_effort_pinned():
    res = exact_tau(ProjectiveSpace.of_order(2, 4).hypergraph(1), 2)
    assert (res.nodes, res.objective) == (385, 12)
    assert _digest(res.witness) == \
        "25de17e2fea885085c7a167e7323c1d190f620478904b783ef487693fb114900"


def test_exact_tau_plane_of_order_5_pinned():
    # the root holds the frame 0, 1, 6, 12 of PG(2,5)
    res = exact_tau(ProjectiveSpace.of_order(2, 5).hypergraph(1), 2)
    assert (res.nodes, res.objective, res.status) == (13391, 15, OPTIMAL)
    assert _digest(res.witness) == \
        "c19bba64109514d733407a49468d81278f3fee6c2527c13791bae4071bc63b0d"


# edges of sizes 3 to 9 on 30 points: the packing bound takes open edges by
# size, ties in edge order, which the uniform H(n,k,q) never tell apart
MIXED_SIZES = Hypergraph(30, (
    0x12d00900, 0x5104083, 0x8008808, 0x61008, 0x802041, 0x29001020,
    0x3000014, 0xa084051, 0x38220660, 0x20401a61, 0x734, 0x206c0605,
    0x4408600, 0x408022, 0x8801801, 0x2022000, 0x4045001, 0x480020,
    0x21000088, 0x38054908, 0x3002a46, 0x20090810, 0x20420104, 0x2200620,
    0x900010, 0x8a8226, 0x880982, 0x24102012, 0x6948450, 0x24002a3a,
    0x28084000, 0x41c000, 0x10009718, 0x4128420, 0x18104, 0xd470804,
    0x1620b02, 0x5508720, 0x9028501, 0x4314b00, 0x4900900, 0x24404820,
    0x4010070, 0x28408200, 0xa02000, 0x210c0000, 0x13a2200, 0x840061,
    0x13800a0, 0x508002, 0x10000032, 0x8420, 0x26002, 0x2c1004,
    0x10400880, 0x1900, 0xa4a280a, 0x30608, 0x6042a10, 0xe5830,
    0x280854, 0x1408, 0x201e0410, 0x2400a280, 0x2a081320, 0xa701,
    0x208019, 0x2005292, 0x28100, 0x22008002))


@pytest.mark.parametrize("t, nodes, objective, digest", [
    (2, 680, 14, "355f4ce158c58ffe2ceac585249b944f1455bf217ee51e5d7e2c26c15974d515"),
    (3, 139, 22, "9e0ffcb710ffa63338dc0a41f3ccd225ffda0465caa9455f91956c71b042aff7"),
], ids=["t2", "t3"])
def test_exact_tau_search_effort_pinned_mixed_sizes(t, nodes, objective, digest):
    res = exact_tau(MIXED_SIZES, t)
    assert (res.nodes, res.objective) == (nodes, objective)
    assert _digest(res.witness) == digest


def _mixed_size_hypergraph(rng, V, num_edges, sizes):
    """num_edges distinct edges on V vertices with sizes drawn from
    range(*sizes), in a shuffled order, so that the order by size differs
    from the edge order."""
    edges = set()
    while len(edges) < num_edges:
        edges.add(sum(1 << v for v in rng.sample(range(V), rng.randrange(*sizes))))
    edges = sorted(edges)
    rng.shuffle(edges)
    return Hypergraph(V, tuple(edges))


def test_search_effort_pinned_on_a_mixed_size_corpus():
    # one digest over (nodes, objective, witness) of exact_tau for t = 1..3
    # on 12 hypergraphs of 24 to 32 vertices, then of exact_ucn on 12 of 12
    # to 16, about 6,100 and 21,400 nodes: the packing order by size, its
    # tie-break in edge order and the tie-break of the branching edge all
    # show in the nodes
    rng = random.Random(2027)
    rows = []
    for _ in range(12):
        H = _mixed_size_hypergraph(rng, rng.randrange(24, 33), rng.randrange(40, 71), (3, 10))
        for t in (1, 2, 3):
            res = exact_tau(H, t)
            rows.append([res.nodes, res.objective, list(res.witness)])
    for _ in range(12):
        H = _mixed_size_hypergraph(rng, rng.randrange(12, 17), rng.randrange(12, 21), (3, 8))
        res = exact_ucn(H)
        rows.append([res.nodes, res.objective, list(res.witness.assignment)])
    assert _digest(rows) == \
        "bf2430cd82b6489ce5933d1f6446879b400d7fa8c6abf75ebc201df6a84a791d"


@pytest.mark.parametrize("n, k, q, nodes, objective, digest", [
    (2, 1, 3, 726, 6, "232c5b95c3aac4081da890de590d09571c9874cb8ece222d4ee4934d64a870ba"),
    (3, 2, 2, 57, 11, "293457e67e07e2c24c6063f0a22f750faf3b7bdb059d05895370f300e0b7909b"),
    (3, 1, 2, 2000, 4, "da83a276cc2807790005fec7bb6fde011b53a5c8f22668a4d371bfcf6c915be6"),
], ids=["2-1-3", "3-2-2", "3-1-2"])
def test_exact_ucn_search_effort_pinned(n, k, q, nodes, objective, digest):
    res = exact_ucn(ProjectiveSpace.of_order(n, q).hypergraph(k))
    assert (res.nodes, res.objective) == (nodes, objective)
    assert _digest(res.witness.assignment) == digest


def test_exact_ucn_search_effort_pinned_without_params():
    # the same edges as H(2,1,3) with no params: the Zykov apart masks
    # alone, with no fixed first merge
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    res = exact_ucn(Hypergraph(H.num_vertices, H.edges))
    assert (res.nodes, res.objective) == (7740, 6)
    assert _digest(res.witness.assignment) == \
        "232c5b95c3aac4081da890de590d09571c9874cb8ece222d4ee4934d64a870ba"


def test_exact_ucn_solids_of_pg42_pinned():
    # 31 points, solved at the default node ceiling
    H = ProjectiveSpace.of_order(4, 2).hypergraph(3)
    res = exact_ucn(H)
    assert (res.nodes, res.objective, res.status) == (297, 27, OPTIMAL)
    assert _digest(res.witness.assignment) == \
        "e69f6504ea086b61d5448d2167ef76c3ae8c33148517a87a0d409df20ae1396d"


def _differential_corpus():
    """Seeded hypergraphs on at most 9 vertices with edges of mixed sizes:
    most with no params, some claiming (2, 1, 2) falsely, and the lines of
    PG(2,2) in a shuffled order, whose params are valid."""
    rng = random.Random(20261018)
    corpus = []
    for i in range(160):
        if i % 8 == 7:
            lines = list(FANO.edges)
            rng.shuffle(lines)
            corpus.append(Hypergraph(7, tuple(lines), (2, 1, 2)))
            continue
        V = rng.randrange(2, 10)
        edges = tuple(sum(1 << v for v in rng.sample(range(V), rng.randrange(2, min(V, 6) + 1)))
                      for _ in range(rng.randrange(1, 11)))
        corpus.append(Hypergraph(V, edges, (2, 1, 2) if V == 7 and i % 2 else None))
    return corpus


def test_exact_solvers_match_brute_force_on_a_differential_corpus(monkeypatch):
    # both counting bounds, the edge-index masks and the root fixes against
    # plain enumeration; duplicate edges may occur and count twice.  At the
    # default node ceiling every answer is optimal; at the lowered ones a
    # search that stops must answer bound_only with a valid witness and
    # bounds that hold the optimum
    corpus = _differential_corpus()
    assert sum(H.geometry is not None for H in corpus) == 20
    assert sum(H.params is not None and H.geometry is None for H in corpus) > 0
    optima = [(H, brute_force_ucn(H), [(t, brute_force_tau(H, t))
                                        for t in range(1, min(map(int.bit_count, H.edges)) + 1)])
              for H in corpus]
    default = solvers.NODE_LIMIT
    for limit in (default, 0, 1, 10, 100):
        monkeypatch.setattr(solvers, "NODE_LIMIT", limit)
        stopped = 0
        for H, ucn, taus in optima:
            res = exact_ucn(H)
            assert is_proper(res.witness, H)[0]
            if res.status == OPTIMAL:
                assert res.objective == ucn == res.witness.N and res.nodes <= limit
            else:
                assert (res.status, res.objective, res.upper_bound) == (BOUND_ONLY, None, None)
                assert res.witness.N == res.lower_bound <= ucn and res.nodes == limit + 1
                stopped += 1
            for t, tau in taus:
                res = exact_tau(H, t)
                mask = sum(1 << v for v in res.witness)
                assert all((e & mask).bit_count() >= t for e in H.edges)
                assert res.upper_bound == len(res.witness)
                if res.status == OPTIMAL:
                    assert res.objective == tau == res.upper_bound and res.nodes <= limit
                else:
                    assert res.status == BOUND_ONLY and res.objective is None
                    assert (res.lower_bound or 0) <= tau <= res.upper_bound
                    assert res.nodes == limit + 1
                    stopped += 1
        assert (stopped > 0) == (limit < default), limit


def test_cover_prefix_bound_skips_unavailable_vertices():
    # 3 more vertices, one available count of 5 and one of 4 against an
    # open deficit of 9: the two available vertices can cover it, while a
    # sum over the 3 largest counts, -12 included, falls short.  exact_tau
    # reaches such nodes (fewer vertices available than room - 1) only
    # where an open edge also lacks candidates, so its results cannot show
    # this fault, and the bound is tested here on its own
    cover = [-12, -13, 5, -14, 4]
    assert not solvers._cover_falls_short(cover, 3, 9)
    assert solvers._cover_falls_short(cover, 3, 10)
    assert solvers._cover_falls_short([3, 3, 3, 3], 2, 7)
    assert not solvers._cover_falls_short([3, 3, 3, 3], 3, 7)


@pytest.mark.parametrize("n, k, q", [(2, 1, 2), (2, 1, 3), (3, 2, 2), (3, 1, 2)])
def test_exact_ucn_fixed_first_merge_keeps_the_objective(n, k, q):
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    plain = Hypergraph(H.num_vertices, H.edges)
    assert H.geometry == (n, k, q) and plain.geometry is None
    assert exact_ucn(H).objective == exact_ucn(plain).objective


@pytest.mark.parametrize("n, k, q", [(2, 1, 4), (3, 2, 3)])
def test_exact_tau_fixed_root_pair_keeps_the_objective(n, k, q):
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    plain = Hypergraph(H.num_vertices, H.edges)
    assert exact_tau(H, 2).objective == exact_tau(plain, 2).objective


ROOTED_TAU_CASES = [(n, k, q, t) for n, k, q in [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2),
                                                 (3, 2, 2), (3, 2, 3), (4, 3, 2), (4, 1, 2)]
                    for t in (1, 2, 3) if (n, k, q, t) != (3, 2, 3, 3)]


@pytest.mark.parametrize("n, k, q, t", ROOTED_TAU_CASES,
                         ids=["-".join(map(str, c)) for c in ROOTED_TAU_CASES])
def test_exact_tau_fixed_root_points_keep_the_objective(monkeypatch, n, k, q, t):
    # the root of (L1) and (L2) against the same edges with no params,
    # also seeded with every point so that the search runs below the root
    # even where the seed meets the folklore bound; the cases hold t = 1
    # with k = n - 1, where only two points may be fixed, and t > q, where
    # the folklore bound does not apply
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    plain = Hypergraph(H.num_vertices, H.edges)
    assert exact_tau(H, t).objective == exact_tau(plain, t).objective
    monkeypatch.setattr(solvers, "_seed_transversal", _every_point)
    assert exact_tau(H, t).objective == exact_tau(plain, t).objective


ROOT_BRUTE_FORCE_CASES = [(n, k, q, t) for n, k, q in [(2, 1, 2), (2, 1, 3), (2, 1, 4),
                                                       (3, 1, 2), (3, 2, 2), (4, 3, 2)]
                          for t in (1, 2, 3)]


@pytest.mark.parametrize("n, k, q, t", ROOT_BRUTE_FORCE_CASES,
                         ids=["-".join(map(str, c)) for c in ROOT_BRUTE_FORCE_CASES])
def test_fixed_root_points_lie_in_a_minimum_transversal(n, k, q, t):
    # the claim of (L1) and (L2) itself, apart from any objective: tau_t
    # comes from the search with no params, so no root is fixed; then some
    # tau_t-set holding every root point must be a t-transversal, tried
    # over every choice of its other points.  A third independent point at
    # t = 1 with k = n - 1, which no minimum blocking set holds, fails here
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    tau = exact_tau(Hypergraph(H.num_vertices, H.edges), t).objective
    root = solvers._root_points(n, k, q, t)
    rest = [v for v in range(H.num_vertices) if v not in root]
    masks = (sum(1 << v for v in root + list(extra))
             for extra in itertools.combinations(rest, tau - len(root)))
    assert any(all((e & mask).bit_count() >= t for e in H.edges) for mask in masks)


# edges on 7 points that claim (2, 1, 2) but are not the lines of PG(2,2):
# the greedy incumbent has 6 points, which met the claimed bound 2*theta(1)
# and stopped the search, while the optimum is 5
LYING_FANO_EDGES = (50, 104, 14, 25, 84, 37, 70)


def test_lying_params_get_no_geometric_bound():
    H = Hypergraph(7, LYING_FANO_EDGES, (2, 1, 2))
    assert H.geometry is None
    res = exact_tau(H, 2)
    assert (res.objective, res.status, res.lower_bound) == (5, OPTIMAL, None)
    assert res.objective == brute_force_tau(H, 2)
    res = exact_tau(Hypergraph(7, (0b11,), (2, 1, 2)), 2)
    assert (res.objective, res.lower_bound) == (2, None)


def test_lying_params_get_no_root_fix():
    # a fixed root pair would add points 0 and 1 to the optimum {2, 3}
    res = exact_tau(Hypergraph(7, (0b1100,), (2, 1, 2)), 2)
    assert res.objective == 2 and res.witness == (2, 3)
    # the 2-point edges force 0 ~ 2 and 1 ~ 3; a fixed first merge of 0 and
    # 1 would join all four and leave 4 classes, not 5
    H = Hypergraph(7, (0b101, 0b1010), (2, 1, 2))
    assert exact_ucn(H).objective == brute_force_ucn(H) == 5


def test_exact_ucn_self_check_raises(monkeypatch):
    # a plain raise, not an assert, so the check also runs under python -O
    monkeypatch.setattr(solvers, "is_proper", lambda coloring, H: (False, 0))
    with pytest.raises(SolverError, match="not a proper"):
        exact_ucn(FANO)


def test_verify_tmodp_theorem_p2():
    rep = verify_tmodp_theorem(2, 1)
    assert rep.max_size == 6
    assert rep.kernel_dim == 3 and rep.num_solution_classes == 8
    assert rep.exhaustive and rep.verified
    assert rep.num_found == rep.num_unions == 7
    assert rep.expected_size == 3
    assert all(B.size == 3 for B in rep.sets)


def test_verify_tmodp_theorem_p3_boundary_failure():
    # ground truth at (p,t) = (3,2): the 91 two-line unions of size 8 are
    # joined by 234 sets of size 11 that meet every congruence hypothesis
    # but are not line unions; the structure claim fails at this boundary
    rep = verify_tmodp_theorem(3, 2)
    assert rep.max_size == 13
    assert rep.kernel_dim == 6 and rep.num_solution_classes == 729
    assert rep.exhaustive
    assert rep.num_unions == 91
    assert rep.num_found == 325
    assert len(rep.violations) == 234
    assert not rep.verified
    sizes = sorted({B.size for B in rep.sets})
    assert sizes == [8, 11]
    assert sum(1 for B in rep.sets if B.size == 8) == 91
    for v in rep.violations:
        assert sum(v["weights"]) == 11


def test_verify_tmodp_theorem_hypothesis_guard():
    with pytest.raises(SolverError):
        verify_tmodp_theorem(2, 2)  # t > 3p/8 + 1


@pytest.mark.parametrize("t, max_size", [(0, None), (-1, None), (1, -5), (1, 6.0), (1, True),
                                          (1.0, None), (True, None)])
def test_verify_tmodp_theorem_rejects_bad_parameters(t, max_size):
    with pytest.raises(SolverError):
        verify_tmodp_theorem(2, t, max_size=max_size)


@pytest.mark.parametrize("p, t, message", [
    (2, 1.0, "t must be an int, not 1.0"), (2, True, "t must be an int, not True"),
    (2.0, 1, "p must be an int, not 2.0"), (True, 1, "p must be an int, not True"),
], ids=["t-float", "t-bool", "p-float", "p-bool"])
def test_verify_tmodp_theorem_names_a_non_int_argument(p, t, message):
    # (2, 1.0) ran the enumeration up to a BlockingError about max_size 6.0,
    # and (2.0, 1) raised a TypeError
    with pytest.raises(SolverError) as info:
        verify_tmodp_theorem(p, t)
    assert str(info.value) == message


@pytest.mark.parametrize("p, t, count", [(11, 3, 400995), (11, 4, 13633830),
                                         (13, 3, 1038220)])
def test_verify_tmodp_theorem_counts_the_line_unions(p, t, count):
    # comb(theta(2) + t - 1, t), with no multiset listed: listing the 400995
    # multisets of (11, 3) took about 5 s, the count and the elimination
    # about 0.2 s; no coset is searched at these kernel dimensions
    start = time.perf_counter()
    rep = verify_tmodp_theorem(p, t)
    assert time.perf_counter() - start < 2
    assert rep.num_unions == count == math.comb(theta(2, p) + t - 1, t)
    assert rep.kernel_dim == p * (p + 1) // 2 and not rep.exhaustive
    assert (rep.num_found, rep.violations, rep.verified) == (0, [], False)


@pytest.mark.parametrize("p, t", [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 2), (17, 1)])
def test_tmodp_frame_agrees_with_the_report_and_the_walk(p, t):
    # recheck compares a report's search-free fields with tmodp_frame, so
    # the report builder and the enumeration must give the same ones, by
    # value and by type; at t*(p+1) - 1 the size bound leaves no union
    space = ProjectiveSpace.of_order(2, p)
    for max_size in [None, t * (p + 1) - 1]:
        frame = tmodp_frame(p, t, max_size)
        data = verify_tmodp_theorem(p, t, max_size).to_json()
        assert {key: data[key] for key in frame} == frame
        assert [type(data[key]) for key in frame] == list(map(type, frame.values()))
        enum = enumerate_t_mod_p_sets(space, k=1, t=t, max_size=frame["max_size"])
        assert (enum.kernel_dim, enum.num_solution_classes, enum.exhaustive) == \
            (frame["kernel_dim"], frame["num_solution_classes"], frame["exhaustive"])


def _no_build(self, *args):
    raise AssertionError("a field or space was built")


@pytest.mark.parametrize("p, error", [(4, BlockingError), (6, FieldError), (127, BlockingError),
                                      (997, BlockingError), (65537, FieldError)])
def test_tmodp_frame_builds_no_field_or_space(monkeypatch, p, error):
    # a plane with a report and planes without one are told apart by counts
    monkeypatch.setattr(GF, "__init__", _no_build)
    monkeypatch.setattr(ProjectiveSpace, "__init__", _no_build)
    assert tmodp_frame(17, 7)["num_unions"] == math.comb(307 + 6, 7)
    with pytest.raises(error):
        tmodp_frame(p, 1)


def test_sqrt2_combo_sign():
    F = Fraction
    assert _sqrt2_combo_nonneg(F(1), F(-1))       # sqrt(2) - 1 >= 0
    assert not _sqrt2_combo_nonneg(F(-5), F(7))   # 7 - 5*sqrt(2) < 0
    assert _sqrt2_combo_nonneg(F(-7), F(10))      # 10 - 7*sqrt(2) > 0
    assert _sqrt2_combo_nonneg(F(0), F(0))
    assert not _sqrt2_combo_nonneg(F(0), F(-1))
    assert not _sqrt2_combo_nonneg(F(-1), F(0))


def test_bounds_report_values():
    rep = bounds_report(3, 1, 17, 2)
    assert rep.theta_n == 5220 and rep.theta_k == 18
    assert rep.trivial_lower == 5185
    assert rep.tau2_known == 36
    assert rep.flags["ucnthm"]
    assert rep.bruen_lower_ceil == 17 + 4 + 1 + 1  # sqrt(17) rounded up

    assert bounds_report(3, 1, 5, 2).blsetthm_threshold == 12
    assert bounds_report(3, 1, 121, 2).dbhszvdv_size == 266

    rep = bounds_report(5, 2, 121, 2)
    assert rep.flags["ucnstabq"]           # h = 2, p = 11, q^k large
    assert not bounds_report(3, 1, 121, 2).flags["ucnstabq"]  # q^k = 121 < 239
    assert not bounds_report(5, 2, 121, 2).flags["tmodpsetthm"]  # h = 2

    rep = bounds_report(3, 1, 4, 2)
    assert rep.tau2_known == 2 * theta(1, 4)
    assert not rep.flags["ucnthm"]  # q = 4 below the q >= 17 regime


def test_bounds_report_refuses_a_huge_q_and_k_out_of_range():
    start = time.perf_counter()
    with pytest.raises(FieldError, match="exceeds the limit 65536"):
        bounds_report(3, 1, 100000000000031, 2)
    assert time.perf_counter() - start < 0.05
    # (2, 5, 3, 2) gave trivial_lower -714, and its certificate rechecked
    for n, k in [(2, 5), (2, 0), (2, 2), (3, -1), (1, 1)]:
        with pytest.raises(SolverError, match=f"k = {k} is not an integer in"):
            bounds_report(n, k, 3, 2)


@pytest.mark.parametrize("t", [0, -3, True, 2.5])
def test_bounds_report_refuses_a_t_that_is_not_an_int_at_least_1(t):
    with pytest.raises(SolverError, match=f"t must be an int >= 1, not {t!r}"):
        bounds_report(3, 1, 4, t)


def test_bounds_report_json_exact_fractions():
    data = bounds_report(3, 1, 17, 2).to_json()
    assert data["trivial_lower"] == 5185
    assert data["delta_prime"]["sqrt2_coeff"] == "17/2"
    assert data["blokhuis"] == "27/1"
    assert data["delta_ext"] is None
