import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from pgworkbench import solvers
from pgworkbench.coloring import is_proper, make_coloring
from pgworkbench.geometry import Hypergraph, ProjectiveSpace, theta
from pgworkbench.solvers import (BOUND_ONLY, OPTIMAL, SolverError,
                                 _sqrt2_combo_nonneg, bounds_report, exact_tau,
                                 exact_ucn, require_line_multiset_limit,
                                 verify_tmodp_theorem)

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
        if any(len({labels[v] for v in pts}) == len(pts) for pts in edge_pts):
            continue
        best = max(best, max(labels) + 1)
    return best


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
    space3 = ProjectiveSpace.of_order(3, 3)
    H3 = space3.hypergraph(2)
    seed = sorted(set().union(*(S.point_indices()
                                for S in space3.disjoint_subspaces(1, 2))))
    res = exact_tau(H3, 2, initial_witness=seed)
    assert res.objective == 8 == 2 * theta(1, 3)
    assert res.lower_bound == 8


def test_exact_tau_infeasible_and_limits():
    H = Hypergraph(3, (0b001,))
    with pytest.raises(SolverError):
        exact_tau(H, 2)
    with pytest.raises(SolverError):
        exact_tau(FANO, 0)
    res = exact_tau(FANO, 2, vertex_limit=3)
    assert res.status == BOUND_ONLY and res.objective is None
    assert res.lower_bound == 6 and res.upper_bound >= 6
    with pytest.raises(SolverError):
        exact_tau(FANO, 2, initial_witness=[0, 1])


@pytest.mark.parametrize("witness", [[1, 2, 9], [1, 2, -3], [1, 1, 2], [1, "2"], [True, 2], 3])
def test_exact_tau_rejects_malformed_initial_witness(witness):
    H = Hypergraph(4, (0b0011, 0b0110, 0b1100))
    with pytest.raises(SolverError, match="initial witness"):
        exact_tau(H, 1, initial_witness=witness)


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
    rng = random.Random(20240817)
    for _ in range(50):
        V = rng.randrange(4, 9)
        num_edges = rng.randrange(3, 9)
        edges = set()
        while len(edges) < num_edges:
            size = rng.randrange(2, min(4, V) + 1)
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


def test_exact_ucn_limits_and_errors():
    with pytest.raises(SolverError):
        exact_ucn(Hypergraph(3, (0b001, 0b110)))
    res = exact_ucn(FANO, vertex_limit=3)
    assert res.status == BOUND_ONLY and res.objective is None
    assert res.lower_bound == 2


def test_exact_ucn_without_edges():
    # tau_2 = 0: the seed is the all-distinct coloring, and the bound is V
    H = Hypergraph(3, ())
    res = exact_ucn(H)
    assert (res.objective, res.status, res.lower_bound) == (3, OPTIMAL, 3)
    assert res.witness.assignment == (1, 2, 3)
    res = exact_ucn(H, vertex_limit=2)
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


# Search effort and witnesses of the benchmark's solve tasks: a faster inner
# loop must visit the same nodes and return the same witness.
def test_exact_tau_search_effort_pinned():
    res = exact_tau(ProjectiveSpace.of_order(2, 4).hypergraph(1), 2)
    assert (res.nodes, res.objective) == (9011, 12)
    assert _digest(res.witness) == \
        "25de17e2fea885085c7a167e7323c1d190f620478904b783ef487693fb114900"


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
    (2, 726, 14, "355f4ce158c58ffe2ceac585249b944f1455bf217ee51e5d7e2c26c15974d515"),
    (3, 143, 22, "9e0ffcb710ffa63338dc0a41f3ccd225ffda0465caa9455f91956c71b042aff7"),
])
def test_exact_tau_search_effort_pinned_mixed_sizes(t, nodes, objective, digest):
    res = exact_tau(MIXED_SIZES, t)
    assert (res.nodes, res.objective) == (nodes, objective)
    assert _digest(res.witness) == digest


@pytest.mark.parametrize("n, k, q, nodes, objective, digest", [
    (2, 1, 3, 56713, 6, "232c5b95c3aac4081da890de590d09571c9874cb8ece222d4ee4934d64a870ba"),
    (3, 2, 2, 9871, 11, "293457e67e07e2c24c6063f0a22f750faf3b7bdb059d05895370f300e0b7909b"),
    (3, 1, 2, 96754, 4, "da83a276cc2807790005fec7bb6fde011b53a5c8f22668a4d371bfcf6c915be6"),
])
def test_exact_ucn_search_effort_pinned(n, k, q, nodes, objective, digest):
    res = exact_ucn(ProjectiveSpace.of_order(n, q).hypergraph(k))
    assert (res.nodes, res.objective) == (nodes, objective)
    assert _digest(res.witness.assignment) == digest


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


@pytest.mark.parametrize("t, max_size", [(0, None), (-1, None), (1, -5), (1, 6.0), (1, True)])
def test_verify_tmodp_theorem_rejects_bad_parameters(t, max_size):
    with pytest.raises(SolverError):
        verify_tmodp_theorem(2, t, max_size=max_size)


@pytest.mark.parametrize("p, t, count", [(11, 4, 13633830), (13, 3, 1038220)])
def test_verify_tmodp_theorem_refuses_too_many_line_multisets(p, t, count):
    # refused before the space is built
    start = time.perf_counter()
    with pytest.raises(SolverError, match=f"PG\\(2,{p}\\) has {count} multisets of {t} lines"):
        verify_tmodp_theorem(p, t)
    assert time.perf_counter() - start < 0.1


def test_line_multiset_limit_admits_p11_t3():
    # 400995 multisets, below 5 * 10^5: the full verification takes seconds
    require_line_multiset_limit(11, 3)


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


def test_bounds_report_json_exact_fractions():
    data = bounds_report(3, 1, 17, 2).to_json()
    assert data["trivial_lower"] == 5185
    assert data["delta_prime"]["sqrt2_coeff"] == "17/2"
    assert data["blokhuis"] == "27/1"
    assert data["delta_ext"] is None
