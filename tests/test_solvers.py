import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_geometry import gate_refusal

from pgworkbench import blocking, solvers
from pgworkbench.blocking import BlockingError, enumerate_t_mod_p_sets
from pgworkbench.coloring import is_proper, make_coloring, trivial_coloring
from pgworkbench.fields import GF, FieldError, factor_prime_power
from pgworkbench.geometry import Hypergraph, ProjectiveSpace, count_subspaces, mask_bits, theta
from pgworkbench.solvers import (BOUND_ONLY, OPTIMAL, SolverError, bounds_report,
                                 exact_tau, exact_ucn, tmodp_frame, verify_tmodp_theorem)

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
    edge_pts = H.edge_points()
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


def reference_greedy(H, t):
    """The greedy t-transversal on its own counts: add the first vertex on
    the most open edges until none is open; gains[v] is the number of open
    edges through v, or -1 once v is chosen."""
    edge_points = [mask_bits(e) for e in H.edges]
    vertex_edges = [[ei for ei, pts in enumerate(edge_points) if v in pts]
                    for v in range(H.num_vertices)]
    deficits = [t] * len(H.edges)
    gains = [len(eis) for eis in vertex_edges]
    num_open = len(H.edges)
    chosen = set()
    while num_open:
        v = gains.index(max(gains))
        chosen.add(v)
        gains[v] = -1
        for ei in vertex_edges[v]:
            deficits[ei] -= 1
            if deficits[ei] == 0:
                num_open -= 1
                for u in edge_points[ei]:
                    if u not in chosen:
                        gains[u] -= 1
    return chosen


@st.composite
def hypergraphs_with_t(draw):
    """A hypergraph of up to 12 vertices and 24 edges of mixed sizes, each
    with at least t vertices, and t in 1..3."""
    t = draw(st.integers(1, 3))
    V = draw(st.integers(t, 12))
    edges = draw(st.lists(st.sets(st.integers(0, V - 1), min_size=t), max_size=24))
    return Hypergraph(V, tuple(sum(1 << v for v in e) for e in edges)), t


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hypergraphs_with_t())
def test_the_greedy_seed_is_the_reference_greedy(case):
    # at the ceiling 0 the search answers from its seed, which exact_tau
    # takes on its own search state and must leave as it was found
    H, t = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "NODE_LIMIT", 0)
        res = exact_tau(H, t)
    assume(res.nodes > 0)
    assert res.witness == tuple(sorted(reference_greedy(H, t)))
    assert exact_tau(H, t).objective == brute_force_tau(H, t)


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
    edge_pts = H.edge_points()
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
    # so the seed is the trivial 2-coloring, and the search stops at its
    # first node.  The upper bound is the shape bound of tau_2 = 6
    monkeypatch.setattr(solvers, "NODE_LIMIT", 0)
    res = exact_ucn(FANO)
    assert res.status == BOUND_ONLY and res.objective is None and res.nodes == 1
    assert (res.lower_bound, res.upper_bound) == (2, 3)
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
    assert tau.upper_bound == len(tau.witness) and tau.lower_bound == 17
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
        edges = tuple(sum(1 << perm[v] for v in pts) for pts in H.edge_points())
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
    # the greedy seed meets _plane_tau2(4) = 12, so no node is searched
    assert (res.nodes, res.objective) == (0, 12)
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
    # to 16, about 6,100 and 22,400 nodes: exact_tau's packing order by
    # size, its tie-break in edge order and the tie-break of the branching
    # edge all show in the nodes.  A second digest over (objective,
    # witness) alone must hold when a sound prune is added or dropped,
    # which moves only the nodes
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
    assert _digest(row[1:] for row in rows) == \
        "6c134814b702119c2d74e0a133887df0a5836819dd63b1a688ce4d78295e6a46"
    assert _digest(rows) == \
        "00724d948226355894027fa4798ddc5fc44918763e8a1f052c882d344d723ab7"


# exact_ucn stops at its first incumbent that meets the shape bound; the
# full searches with a fixed first merge took 726, 57, 2000, 9, 1353 and
# 5769 nodes to the same witnesses
@pytest.mark.parametrize("n, k, q, nodes, objective, digest", [
    (2, 1, 3, 121, 6, "232c5b95c3aac4081da890de590d09571c9874cb8ece222d4ee4934d64a870ba"),
    (3, 2, 2, 11, 11, "293457e67e07e2c24c6063f0a22f750faf3b7bdb059d05895370f300e0b7909b"),
    (3, 1, 2, 1538, 4, "da83a276cc2807790005fec7bb6fde011b53a5c8f22668a4d371bfcf6c915be6"),
    (2, 1, 2, 7, 3, "d2d44fe81ba5232b40c1225592d891e247ca97aeac3c4cb3cfcee312544d8a9b"),
    (5, 4, 2, 35, 59, "f4de761385bc9b09aee587c821f78239ce4d111b5da1ac6e1e274544b6d00522"),
    (6, 5, 2, 67, 123, "b82a97e02331562d10da7d6ca3f4ddda15898306368b91fdb2caae1a394d081b"),
], ids=["2-1-3", "3-2-2", "3-1-2", "2-1-2", "5-4-2", "6-5-2"])
def test_exact_ucn_search_effort_pinned(n, k, q, nodes, objective, digest):
    res = exact_ucn(ProjectiveSpace.of_order(n, q).hypergraph(k))
    assert (res.nodes, res.objective) == (nodes, objective)
    assert _digest(res.witness.assignment) == digest


def test_exact_ucn_search_effort_pinned_without_params():
    # the same edges as H(2,1,3) with no params: the optimal tau_2 and the
    # largest pair degree give the same shape bound, so the search stops
    # where it does with params (7740 nodes with no shape stop)
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    res = exact_ucn(Hypergraph(H.num_vertices, H.edges))
    assert (res.nodes, res.objective, res.upper_bound) == (121, 6, 6)
    assert _digest(res.witness.assignment) == \
        "232c5b95c3aac4081da890de590d09571c9874cb8ece222d4ee4934d64a870ba"


def test_exact_ucn_solids_of_pg42_pinned():
    # 31 points: the shape bound 27 is met at node 19 (the full search with
    # a fixed first merge took 297)
    H = ProjectiveSpace.of_order(4, 2).hypergraph(3)
    res = exact_ucn(H)
    assert (res.nodes, res.objective, res.status) == (19, 27, OPTIMAL)
    assert _digest(res.witness.assignment) == \
        "e69f6504ea086b61d5448d2167ef76c3ae8c33148517a87a0d409df20ae1396d"


@pytest.mark.parametrize("n, k, q, nodes, objective, digest", [
    (3, 2, 2, 11, 11, "293457e67e07e2c24c6063f0a22f750faf3b7bdb059d05895370f300e0b7909b"),
    (4, 3, 2, 19, 27, "e69f6504ea086b61d5448d2167ef76c3ae8c33148517a87a0d409df20ae1396d"),
    (6, 5, 2, 67, 123, "b82a97e02331562d10da7d6ca3f4ddda15898306368b91fdb2caae1a394d081b"),
], ids=["3-2-2", "4-3-2", "6-5-2"])
def test_exact_ucn_builds_no_point_list(monkeypatch, n, k, q, nodes, objective, digest):
    # the inner tau_2 ends at 0 nodes on the union seed, which reads the
    # masks only, and exact_ucn reads the edge masks and their transpose:
    # the same nodes and witnesses with the list builder gone
    def refuse(self):
        raise AssertionError("a point list was built")

    monkeypatch.setattr(Hypergraph, "edge_points", refuse)
    res = exact_ucn(ProjectiveSpace.of_order(n, q).hypergraph(k))
    assert (res.nodes, res.objective, res.status) == (nodes, objective, OPTIMAL)
    assert _digest(res.witness.assignment) == digest


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
    # both counting bounds, the edge-index masks, the root fixes and the
    # shape stop against plain enumeration; duplicate edges may occur and
    # count twice.  At the default node ceiling every answer is optimal; at
    # the lowered ones a search that stops must answer bound_only with a
    # valid witness and bounds that hold the optimum; a UCN upper bound is
    # the shape bound, missing only when neither the params are valid nor
    # the inner tau_2 is optimal
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
                assert res.objective == ucn == res.witness.N == res.upper_bound
                assert res.nodes <= limit
            else:
                assert (res.status, res.objective) == (BOUND_ONLY, None)
                assert res.witness.N == res.lower_bound <= ucn and res.nodes == limit + 1
                assert (res.upper_bound is None) == \
                    (H.geometry is None and exact_tau(H, 2).status != OPTIMAL)
                assert res.upper_bound is None or ucn <= res.upper_bound
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


@pytest.mark.parametrize("n, k, q", [(2, 1, 2), (2, 1, 3), (3, 2, 2), (3, 1, 2), (4, 3, 2)])
def test_exact_ucn_fixed_first_merge_keeps_the_objective(n, k, q):
    # exact_ucn fixes no first merge, so the params only feed the inner
    # tau_2 and the pair degree of the shape bound; the same edges with no
    # params read the pair degree from the edges, and give the same search
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    plain = Hypergraph(H.num_vertices, H.edges)
    assert H.geometry == (n, k, q) and plain.geometry is None
    res, bare = exact_ucn(H), exact_ucn(plain)
    assert (res.objective, res.nodes, res.witness, res.upper_bound) == \
        (bare.objective, bare.nodes, bare.witness, bare.upper_bound)


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


def test_exact_ucn_refuses_an_optimum_above_the_shape_bound(monkeypatch):
    # one merge more than the seed's is never an improvement, so a bound
    # one below the trivial one is never met, and the search finds UCN 3
    monkeypatch.setattr(solvers, "_shape_bound", lambda V, E, pair_edges, tau2: V - tau2)
    with pytest.raises(SolverError, match="above the shape bound 1"):
        exact_ucn(FANO)


# Item 20 of the ROADMAP baseline: (n, m, q, tau_2 or, for H(2,1,7), the
# lower bound 16 on it, the shape bound on the UCN of H(n,m,q))
SHAPE_ROWS = [
    (2, 1, 2, 6, 3), (2, 1, 3, 9, 6), (2, 1, 4, 12, 12), (2, 1, 5, 15, 20),
    (3, 1, 2, 14, 4), (3, 2, 2, 6, 11), (3, 1, 3, 30, 17), (3, 2, 3, 8, 34),
    (4, 1, 2, 30, 8), (4, 2, 2, 14, 21), (4, 3, 2, 6, 27), (5, 4, 2, 6, 59),
    (6, 5, 2, 6, 123), (4, 3, 3, 8, 115), (3, 2, 4, 10, 78), (2, 1, 7, 16, 44),
    (3, 2, 17, 36, 5190), (3, 2, 19, 40, 7207),
]


def _geometric_shape_bound(n, m, q, tau2):
    """The shape bound on the m-spaces of PG(n,q): theta_n points,
    count_subspaces(n, m, q) edges, and e_L of them through a point pair."""
    pair_edges = 1 if m == 1 else count_subspaces(n - 2, m - 2, q)
    return solvers._shape_bound(theta(n, q), count_subspaces(n, m, q), pair_edges, tau2)


def test_shape_bound_on_the_baseline_rows():
    for n, m, q, tau2, bound in SHAPE_ROWS:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert _geometric_shape_bound(n, m, q, tau2) == bound, (n, m, q)
            times.append(time.perf_counter() - start)
        assert min(times) < 1e-3, (n, m, q)
    # the folklore tau_2 >= 8 of H(2,1,3) leaves a shape of 6 merges (6, 2),
    # which the exact tau_2 = 9 excludes: so exact_ucn reads its own tau_2
    assert _geometric_shape_bound(2, 1, 3, 8) == 7


@pytest.mark.parametrize("n, m, q, ucn", [
    (2, 1, 2, 3), (2, 1, 3, 6), (3, 1, 2, 4), (3, 2, 2, 11), (4, 3, 2, 27), (5, 4, 2, 59),
    (6, 5, 2, 123),
])
def test_shape_bound_is_the_ucn_of_the_solved_rows(n, m, q, ucn):
    # ucn: the optimum of the full search, which ran to its end before the
    # shape stop; the nodes of the stop are pinned above
    H = ProjectiveSpace.of_order(n, q).hypergraph(m)
    res = exact_ucn(H)
    assert res.status == OPTIMAL
    assert res.objective == res.upper_bound == ucn == \
        _geometric_shape_bound(n, m, q, exact_tau(H, 2).objective)


def test_exact_ucn_returns_a_seed_that_meets_the_shape_bound_at_0_nodes(monkeypatch):
    # with a bound at the trivial one, the seed is optimal and no node runs
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    seed = trivial_coloring(exact_tau(H, 2).witness, H)
    monkeypatch.setattr(solvers, "_shape_bound",
                        lambda V, E, pair_edges, tau2: V - tau2 + 1)
    res = exact_ucn(H)
    assert (res.status, res.nodes, res.objective, res.upper_bound) == (OPTIMAL, 0, 5, 5)
    assert res.witness == seed


def test_exact_ucn_has_no_shape_bound_without_valid_params(monkeypatch):
    # the lines of PG(2,3) with points 0 and 5 swapped are no longer the
    # lines, so a claim of (2, 1, 3) is false and is read as no params.
    # Each point pair still lies on one edge, so the optimal tau_2 = 9 of
    # the inner search (205 nodes) gives the shape bound 6, met at node 8.
    # Past a lowered ceiling that stops the inner search too there is no
    # tau_2 and so no upper_bound, while the true lines carry the shape
    # bound 6 from their params there
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    swap = {0: 5, 5: 0}
    edges = tuple(sum(1 << swap.get(v, v) for v in pts) for pts in H.edge_points())
    plain, claimed = Hypergraph(13, edges), Hypergraph(13, edges, (2, 1, 3))
    assert claimed.geometry is None
    full = exact_ucn(plain)
    assert exact_ucn(claimed) == full
    assert (full.status, full.objective, full.upper_bound, full.nodes) == (OPTIMAL, 6, 6, 8)
    assert exact_tau(plain, 2).nodes == 205
    monkeypatch.setattr(solvers, "NODE_LIMIT", 100)
    for G in (plain, claimed):
        res = exact_ucn(G)
        assert (res.status, res.upper_bound) == (BOUND_ONLY, None)
    res = exact_ucn(H)
    assert (res.status, res.lower_bound, res.upper_bound) == (BOUND_ONLY, 5, 6)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_no_affine_blocking_set_below_2q_minus_1(q):
    # Jamison, Brouwer-Schrijver: the affine lines of AG(2,q) = PG(2,q) - L
    # meet no 2q - 2 points all, and some 2q - 1 points meet them all
    L, *others = ProjectiveSpace.of_order(2, q).hypergraph(1).edges
    affine = [e & ~L for e in others]
    points = mask_bits(((1 << theta(2, q)) - 1) & ~L)

    def blocking(size):
        return any(all(e & sum(1 << v for v in combo) for e in affine)
                   for combo in itertools.combinations(points, size))

    assert not blocking(2 * q - 2) and blocking(2 * q - 1)


@pytest.mark.parametrize("q", [2, 3])
def test_every_2_transversal_of_a_small_plane_holds_a_line(q):
    # the discriminant of the line-free count is negative for q <= 3
    lines = ProjectiveSpace.of_order(2, q).hypergraph(1).edges
    for B in range(1 << theta(2, q)):
        if all((e & B).bit_count() >= 2 for e in lines):
            assert any(e & B == e for e in lines), bin(B)


def test_the_plane_bound_is_the_tau_2_found_by_search(monkeypatch):
    # with the folklore bound alone the search runs (11 and 385 nodes at
    # q = 3 and 4) and proves the plane bound optimal, with the same witness
    stopped = {q: exact_tau(ProjectiveSpace.of_order(2, q).hypergraph(1), 2)
               for q in (2, 3, 4)}
    bounds = {q: solvers._plane_tau2(q) for q in stopped}
    monkeypatch.setattr(solvers, "_plane_tau2", lambda q: 2 * (q + 1))
    for q, res in stopped.items():
        searched = exact_tau(ProjectiveSpace.of_order(2, q).hypergraph(1), 2)
        assert (res.status, res.nodes, res.lower_bound) == (OPTIMAL, 0, bounds[q])
        assert searched.objective == res.objective == bounds[q] == 3 * q
        assert searched.witness == res.witness
        assert searched.lower_bound == 2 * (q + 1)


def test_the_plane_bound_is_the_least_size_the_count_allows():
    for q in range(2, 98):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        allowed = [b for b in range(3 * q)
                   if b * b - (q * q + 2 * q + 2) * b + 2 * q * (q * q + q + 1) <= 0]
        bound = solvers._plane_tau2(q)
        assert 2 * (q + 1) <= bound <= 3 * q
        assert bound == (allowed[0] if allowed else 3 * q), q
        assert bound == (3 * q if q <= 4 else 2 * q + 3), q
        # t = 2 <= q in every plane, so exact_tau always has a folklore bound
        assert solvers._tau_facts(2, 1, q, 2)[0] == 2 * (q + 1)


def test_the_plane_bound_needs_t_2_and_a_validated_plane():
    H = ProjectiveSpace.of_order(2, 4).hypergraph(1)
    res = exact_tau(H, 3)
    assert (res.objective, res.lower_bound) == (15, 15)
    # the lines of PG(2,4) with points 0 and 5 swapped are no lines, so a
    # claim of (2, 1, 4) gets no bound, and the search runs
    swap = {0: 5, 5: 0}
    edges = tuple(sum(1 << swap.get(v, v) for v in pts) for pts in H.edge_points())
    claimed = Hypergraph(21, edges, (2, 1, 4))
    assert claimed.geometry is None
    res = exact_tau(claimed, 2)
    assert (res.objective, res.status, res.lower_bound) == (12, OPTIMAL, None)
    assert res.nodes > 0
    assert exact_tau(Hypergraph(21, edges), 2) == res


def test_the_plane_bound_lifts_the_paper_rows_past_the_ceiling(monkeypatch):
    # tau_2 of PG(2,7): the bound 2q + 3 = 17 against the folklore 16
    res = exact_tau(ProjectiveSpace.of_order(2, 7).hypergraph(1), 2)
    assert (res.status, res.lower_bound, res.upper_bound) == (BOUND_ONLY, 17, 21)
    # UCN of PG(2,9): the shape bound of tau_2 >= 21 is 74, of the folklore 20 75
    monkeypatch.setattr(solvers, "NODE_LIMIT", 100)
    res = exact_ucn(ProjectiveSpace.of_order(2, 9).hypergraph(1))
    assert (res.status, res.lower_bound, res.upper_bound) == (BOUND_ONLY, 65, 74)
    assert _geometric_shape_bound(2, 1, 9, 20) == 75


def test_verify_tmodp_theorem_p2():
    rep = verify_tmodp_theorem(2, 1)
    assert rep.max_size == 6
    assert rep.kernel_dim == 3 and rep.num_solution_classes == 8
    assert rep.exhaustive and rep.verified
    assert rep.num_found == rep.num_unions == 7
    assert rep.expected_size == 3
    assert all(sum(w) == 3 for w in rep.sets)


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
    sizes = sorted(set(map(sum, rep.sets)))
    assert sizes == [8, 11]
    assert sum(1 for w in rep.sets if sum(w) == 8) == 91
    for v in rep.violations:
        assert sum(v["weights"]) == 11


def test_tmodp_sets_stay_the_walks_weight_tuples(monkeypatch):
    # a report lists the weight tuples of the walk as they are: no
    # WeightedPointSet is built for them, and the report is unchanged
    reports = {args: verify_tmodp_theorem(*args).to_json() for args in ((2, 1), (3, 2))}

    def refuse(cls, *args):
        raise AssertionError("a WeightedPointSet was built")

    monkeypatch.setattr(blocking.WeightedPointSet, "__new__", staticmethod(refuse))
    for args, payload in reports.items():
        assert verify_tmodp_theorem(*args).to_json() == payload
    sets = enumerate_t_mod_p_sets(ProjectiveSpace.of_order(2, 3), k=1, t=2, max_size=13).sets
    assert type(sets) is list and len(sets) == 325 and sets == sorted(sets)
    assert all(type(w) is tuple and len(w) == 13 and all(type(x) is int for x in w)
               for w in sets)


def test_verify_tmodp_theorem_hypothesis_guard():
    with pytest.raises(SolverError):
        verify_tmodp_theorem(2, 2)  # t > 3p/8 + 1


# mod_p_gate refuses the type of t and the type and range of max_size, and
# the frame itself t < 1
@pytest.mark.parametrize("t, max_size, error", [
    (0, None, SolverError), (-1, None, SolverError), (1, -5, BlockingError),
    (1, 6.0, BlockingError), (1, True, BlockingError), (1.0, None, BlockingError),
    (True, None, BlockingError),
], ids=["0-None", "-1-None", "1--5", "1-6.0", "1-True", "1.0-None", "True-None"])
def test_verify_tmodp_theorem_rejects_bad_parameters(t, max_size, error):
    with pytest.raises(error):
        verify_tmodp_theorem(2, t, max_size=max_size)


@pytest.mark.parametrize("p, t, message", [
    (2, 1.0, "t 1.0 is not an int"), (2, True, "t True is not an int"),
    (2.0, 1, "p 2.0 is not an int"), (True, 1, "p True is not an int"),
], ids=["t-float", "t-bool", "p-float", "p-bool"])
def test_verify_tmodp_theorem_names_a_non_int_argument(p, t, message):
    # (2, 1.0) ran the enumeration up to a BlockingError about max_size 6.0,
    # and (2.0, 1) raised a TypeError; mod_p_gate refuses them
    with pytest.raises(BlockingError) as info:
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


def _no_walk(*args, **kwargs):
    raise AssertionError("enumerate_t_mod_p_sets was called")


@pytest.mark.parametrize("p, t", [(5, 2), (7, 2), (17, 1)])
def test_verify_tmodp_theorem_walks_no_plane_past_the_coset_limit(monkeypatch, p, t):
    # past COSET_LIMIT the report lists no sets, so no enumeration is called
    want = verify_tmodp_theorem(p, t).to_json()
    monkeypatch.setattr(solvers, "enumerate_t_mod_p_sets", _no_walk)
    monkeypatch.setattr(blocking, "enumerate_t_mod_p_sets", _no_walk)
    assert verify_tmodp_theorem(p, t).to_json() == want
    assert (want["exhaustive"], want["sets"], want["num_found"]) == (False, [], 0)


def _no_build(self, *args):
    raise AssertionError("a field or space was built")


@pytest.mark.parametrize("p, error", [(4, BlockingError), (6, BlockingError), (127, BlockingError),
                                      (997, BlockingError), (65537, BlockingError)])
def test_tmodp_frame_builds_no_field_or_space(monkeypatch, p, error):
    # a plane with a report and planes without one are told apart by counts
    monkeypatch.setattr(GF, "__init__", _no_build)
    monkeypatch.setattr(ProjectiveSpace, "__init__", _no_build)
    assert tmodp_frame(17, 7)["num_unions"] == math.comb(307 + 6, 7)
    with pytest.raises(error):
        tmodp_frame(p, 1)


@pytest.mark.parametrize("n, k, q, nonnegative", [
    (3, 1, 25, False), (3, 1, 27, True), (3, 2, 9, False), (3, 2, 11, True)])
def test_delta_prime_sign_at_both_outcomes(n, k, q, nonnegative):
    # delta_prime = a*sqrt(2) + b with a = q^k/2 > 0 > b; each pair of rows
    # straddles the order where it turns nonnegative, for k = 1 and k = 2
    dp = bounds_report(n, k, q, 2).delta_prime
    a, b = dp["sqrt2_coeff"], dp["rational"]
    assert a == Fraction(q**k, 2) and b == Fraction(-q**k - 3 * theta(k - 1, q) - 8, 2)
    assert a > 0 > b
    assert dp["nonnegative"] is nonnegative
    assert (float(a) * math.sqrt(2) + float(b) >= 0) is nonnegative


def test_tau2_known_is_tau_2_of_the_hypergraph_of_the_n_minus_k_spaces():
    # bounds_report's k is the dimension of the blocking subspaces, the
    # hypergraph's is that of its edges: the report for (n, k, q) is about
    # H(n, n-k, q).  Every such row past the level gate is left out
    rows = [(n, k, q) for n in range(2, 6) for k in range(1, n) for q in (2, 3, 4)
            if bounds_report(n, k, q, 2).tau2_known is not None
            and gate_refusal(n, n - k, q) is None]
    assert len(rows) == 11 and (5, 2, 4) not in rows
    for n, k, q in rows:
        res = exact_tau(ProjectiveSpace.of_order(n, q).hypergraph(n - k), 2)
        assert (res.objective, res.status, res.nodes) == \
            (bounds_report(n, k, q, 2).tau2_known, OPTIMAL, 0), (n, k, q)


def test_trivial_lower_is_the_formula_where_tau2_is_not_known():
    # a known discrepancy, pinned and not hidden: where tau2_known is None,
    # trivial_lower is theta_n - 2*theta_k + 1, not theta_n - tau_2 + 1.
    # On the lines of PG(2,4) exact tau_2 is 12, which gives 10, not 12
    rep = bounds_report(2, 1, 4, 2)
    assert rep.tau2_known is None
    assert rep.trivial_lower == 21 - 2 * 5 + 1 == 12
    res = exact_tau(ProjectiveSpace.of_order(2, 4).hypergraph(1), 2)
    assert (res.objective, res.status) == (12, OPTIMAL)
    assert rep.theta_n - res.objective + 1 == 10
    # (3, 2, 3), about the lines of PG(3,3): the formula gives 15
    assert bounds_report(3, 2, 3, 2).trivial_lower == 15
    # a recheck tamper adds +-1 to it in reports over n = 2..5 and every k
    assert all(type(bounds_report(n, k, q, t).trivial_lower) is int
               for n in range(2, 6) for k in range(1, n) for q in (2, 3, 4, 5, 7, 8, 9, 17)
               for t in (1, 2, 3))


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
