"""Acceptance gate: ten criteria, one printed pass/fail line each.

Criterion 6 pins the exact classification of the bounded 2 (mod 3) sets
of PG(2,3) against a brute force over {0,1,2}^13: the 91 two-line unions
of size 8 and 234 further sets of size 11 that are not line unions.  The
verifier must report each of the 234 as a violation and must not claim
the structure statement verified at (p, t) = (3, 2).
"""

import itertools
import json
import random

from pgworkbench.blocking import (WeightedPointSet, construct_union,
                                  harrach_uniqueness_limit, is_minimal,
                                  is_t_mod_p_set, minimal_reduction)
from pgworkbench.certificates import canonical_json, make_certificate, recheck
from pgworkbench.coloring import is_proper, is_strict, is_trivial_coloring, trivial_coloring
from pgworkbench.geometry import (Hypergraph, ProjectiveSpace,
                                  count_subspaces, theta)
from pgworkbench.solvers import (bounds_report, exact_tau, exact_ucn,
                                 verify_tmodp_theorem)

GRID = [(n, q) for n in range(1, 5) for q in (2, 3, 4, 5)]
SUBSPACE_CAP = 5 * 10**6

_spaces = {}


def space(n, q):
    if (n, q) not in _spaces:
        _spaces[(n, q)] = ProjectiveSpace.of_order(n, q)
    return _spaces[(n, q)]


def check(num, desc, body):
    try:
        body()
    except AssertionError as exc:
        print(f"[FAIL] criterion {num}: {desc} :: {exc}", flush=True)
        raise
    print(f"[PASS] criterion {num}: {desc}", flush=True)


# -- 1: counting suite ---------------------------------------------------

def test_criterion_01_counting_suite():
    def body():
        for n, q in GRID:
            sp = space(n, q)
            assert sp.num_points == theta(n, q)
            for m in range(n + 1):
                expect = count_subspaces(n, m, q)
                if expect > SUBSPACE_CAP:
                    continue
                assert len(sp.subspaces(m)) == expect
        assert len(space(3, 2).subspaces(1)) == 35
        assert len(space(3, 2).subspaces(2)) == 15
        assert len(space(2, 3).subspaces(1)) == 13
    check(1, "point and subspace counts across the (n <= 4, q <= 5) grid", body)


# -- 2: pencil identity --------------------------------------------------

def test_criterion_02_pencil_identity():
    def body():
        for n, q in GRID:
            sp = space(n, q)
            for k in range(n):
                assert sp.verify_pencil_identity(k), (n, q, k)
    check(2, "every k-space lies in exactly theta(n-k-1) many (k+1)-spaces", body)


# -- 3: tau_2 exactness for k < n/2 --------------------------------------

def tau2_results():
    return {q: exact_tau(space(3, q).hypergraph(2), 2) for q in (2, 3)}


def test_criterion_03_tau2_exactness():
    def body():
        res = tau2_results()
        assert res[2].objective == 6 == 2 * theta(1, 2)
        assert res[3].objective == 8 == 2 * theta(1, 3)
        for q in (2, 3):
            assert res[q].status == "optimal"
            assert res[q].lower_bound == res[q].objective
    check(3, "exact tau_2 closes the folklore/construction gap on plane hypergraphs", body)


# -- 4: trivial-bound round trip -----------------------------------------

def test_criterion_04_trivial_bound_round_trip():
    def body():
        expected_colors = {2: 10, 3: 33}
        res = tau2_results()
        for q in (2, 3):
            sp = space(3, q)
            H = sp.hypergraph(2)
            c = trivial_coloring(res[q].witness, H)
            ok, _ = is_proper(c, H)
            assert ok and is_strict(c, H.num_vertices)
            assert c.N == theta(3, q) - 2 * theta(2 - 1, q) + 1 == expected_colors[q]
            triv, _ = is_trivial_coloring(c, H)
            assert triv
    check(4, "trivial colorings on tau_2 witnesses are proper, strict and trivial", body)


# -- 5: exact UCN vs brute force -----------------------------------------

def set_partitions(n):
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


def test_criterion_05_ucn_vs_brute_force():
    def body():
        fano = space(2, 2).hypergraph(1)
        # tau_2(Fano) = 6, by exhausting all 2^7 subsets
        tau2 = min(len(pts) for r in range(8)
                   for pts in itertools.combinations(range(7), r)
                   if all((e & sum(1 << v for v in pts)).bit_count() >= 2
                          for e in fano.edges))
        assert tau2 == 6
        res = exact_ucn(fano)
        assert res.objective == brute_force_ucn(fano) == 3
        assert res.objective >= 7 - tau2 + 1 >= 2
        rng = random.Random(424242)
        for _ in range(50):
            V = rng.randrange(4, 9)
            edges = set()
            while len(edges) < rng.randrange(3, 9):
                size = rng.randrange(2, min(4, V) + 1)
                edges.add(sum(1 << v for v in rng.sample(range(V), size)))
            H = Hypergraph(V, tuple(sorted(edges)))
            assert exact_ucn(H).objective == brute_force_ucn(H)
    check(5, "exact UCN equals the all-partitions oracle on a 50-instance corpus plus Fano", body)


# -- 6: modular-set theorem verification -------------------------------

def test_criterion_06_tmodp_verification():
    def body():
        small = verify_tmodp_theorem(2, 1, max_size=6)
        # independent 2^7 exhaustion: the solutions are the 7 Fano lines
        sp = space(2, 2)
        supports = [S.point_indices() for S in sp.subspaces(1)]
        naive = sorted(w for w in itertools.product(range(2), repeat=7)
                       if sum(w) <= 6 and all(sum(w[i] for i in sup) % 2 == 1
                                              for sup in supports))
        assert sorted(tuple(B.weights) for B in small.sets) == naive
        assert small.verified and small.num_found == 7

        rep = verify_tmodp_theorem(3, 2, max_size=13)
        assert rep.num_solution_classes == 3**6 == 729
        assert rep.exhaustive
        assert rep.num_unions == 91  # 13 doubled lines + C(13,2) pairs
        # independent 3^13 exhaustion of the weights <= 2, size <= 13
        sp = space(2, 3)
        supports = [S.point_indices() for S in sp.subspaces(1)]
        naive = sorted(w for w in itertools.product(range(3), repeat=13)
                       if sum(w) <= 13 and all(sum(w[i] for i in sup) % 3 == 2
                                               for sup in supports))
        found = sorted(tuple(B.weights) for B in rep.sets)
        assert found == naive, f"{len(found)} sets found, brute force has {len(naive)}"
        unions = {tuple((i in a) + (i in b) for i in range(13))
                  for a, b in itertools.combinations_with_replacement(supports, 2)}
        assert len(unions) == 91 and unions <= set(found)
        others = [w for w in found if w not in unions]
        assert len(others) == 234 and all(sum(w) == 11 for w in others)
        reported = sorted((tuple(v["weights"]), v["reason"]) for v in rep.violations)
        assert reported == [(w, "size 11 != 8") for w in others], \
            f"{len(reported)} violations reported, expected 234"
        assert not rep.verified
    check(6, "bounded 2 (mod 3) sets in PG(2,3) match a 3^13 brute force: "
             "91 two-line unions plus 234 size-11 violations, not verified", body)


# -- 7: uniqueness of minimal reductions ---------------------------------

def test_criterion_07_reduction_uniqueness():
    def body():
        rng = random.Random(7777)
        sp2 = space(2, 3)
        lines2 = sp2.subspaces(1)
        limit2 = harrach_uniqueness_limit(sp2, 2, 1)
        for _ in range(25):
            i, j = rng.sample(range(len(lines2)), 2)
            B = construct_union(sp2, [(lines2[i], 1), (lines2[j], 1)])
            B.weights[rng.randrange(sp2.num_points)] += 1
            assert B.size < limit2
            results = []
            for _ in range(10):
                order = list(range(sp2.num_points))
                rng.shuffle(order)
                R = minimal_reduction(B, 2, 1, order=order)
                assert is_minimal(R, 2, 1)
                results.append(tuple(R.weights))
            assert len(set(results)) == 1

        sp3 = space(3, 2)
        lines3 = sp3.subspaces(1)
        limit3 = harrach_uniqueness_limit(sp3, 2, 2)
        pairs = [(A, B) for A, B in itertools.combinations(lines3, 2)
                 if A.mask & B.mask == 0]
        for _ in range(25):
            A, B = rng.choice(pairs)
            W = construct_union(sp3, [(A, 1), (B, 1)])
            assert W.size < limit3  # size 6 < 7: no room for extra weight
            results = []
            for _ in range(10):
                order = list(range(sp3.num_points))
                rng.shuffle(order)
                R = minimal_reduction(W, 2, 2, order=order)
                assert is_minimal(R, 2, 2)
                results.append(tuple(R.weights))
            assert len(set(results)) == 1
    check(7, "minimal reductions below the uniqueness limit are order independent", body)


# -- 8: projection identity suite ----------------------------------------

def test_criterion_08_projection_identities():
    def body():
        sp = space(3, 3)
        rng = random.Random(333)
        all_lines = sp.subspaces(1)
        for _ in range(100):
            w = [rng.choice((0, 0, 0, 1, 2)) for _ in range(sp.num_points)]
            zeros = [i for i, wi in enumerate(w) if wi == 0]
            P = rng.choice(zeros)
            H = sp.hyperplane_avoiding(P)
            img = sp.project_from_point(P, H, w)
            assert sum(img) == sum(w)
            for W in all_lines:
                if W.mask & H.mask != W.mask:
                    continue
                plane = sp.span(W, P)
                assert plane.dim == 2
                assert (sum(img[i] for i in W.point_indices())
                        == sum(w[i] for i in plane.point_indices()))
        # modular transfer: 2 (mod 3) wrt planes projects to 2 (mod 3)
        # wrt the lines of the target hyperplane
        planes = sp.subspaces(2)
        for _ in range(10):
            a, b = rng.sample(range(len(planes)), 2)
            B = construct_union(sp, [(planes[a], 1), (planes[b], 1)])
            ok, _ = is_t_mod_p_set(B, 2, 2)
            assert ok
            P = rng.choice([i for i, wi in enumerate(B.weights) if wi == 0])
            H = sp.hyperplane_avoiding(P)
            img = sp.project_from_point(P, H, B.weights)
            for W in all_lines:
                if W.mask & H.mask != W.mask:
                    continue
                assert sum(img[i] for i in W.point_indices()) % 3 == 2
    check(8, "point projections preserve weight, line pencils and mod-p structure", body)


# -- 9: bounds calculator conformance ------------------------------------

def test_criterion_09_bounds_conformance():
    def body():
        rep = bounds_report(3, 1, 17, 2)
        # theta_3 - 2*theta_1 + 1 at q = 17, computed inline
        assert rep.trivial_lower == (17**3 + 17**2 + 17 + 1) - 2 * (17 + 1) + 1 == 5185
        for n, k, q in [(3, 1, 17), (3, 1, 16), (5, 2, 13), (5, 2, 11), (4, 2, 13)]:
            flags = bounds_report(n, k, q, 2).flags
            applicable = 2 * k < n and ((k == 1 and q >= 17) or (k >= 2 and q >= 13))
            assert flags["ucnthm"] == (n >= 3 and applicable), (n, k, q)
        from pgworkbench.fields import factor_prime_power
        for n, k, q in [(5, 2, 121), (3, 1, 121), (3, 1, 125), (5, 2, 169), (3, 1, 243)]:
            p, h = factor_prime_power(q)
            flags = bounds_report(n, k, q, 2).flags
            assert flags["ucnstabq"] == (p >= 11 and q**k >= 239 and h >= 2), (n, k, q)
        assert bounds_report(3, 1, 5, 2).blsetthm_threshold == 12
        assert bounds_report(3, 1, 121, 2).dbhszvdv_size == 2 * 121 + 2 * 120 // 10 == 266
    check(9, "bound formulas and applicability flags reproduce their defining arithmetic", body)


# -- 10: certificate integrity -------------------------------------------

def test_criterion_10_certificate_integrity():
    def body():
        res = tau2_results()[2]
        certs = []
        certs.append(make_certificate("transversal", {
            "n": 3, "k": 2, "q": 2, "t": 2,
            "points": list(res.witness), "objective": res.objective}))
        ucn = exact_ucn(space(2, 2).hypergraph(1))
        certs.append(make_certificate("coloring", {
            "n": 2, "k": 1, "q": 2,
            "assignment": list(ucn.witness.assignment),
            "N": ucn.witness.N, "trivial": False}))
        lines = space(2, 3).subspaces(1)
        B = construct_union(space(2, 3), [(lines[0], 1), (lines[1], 1)])
        certs.append(make_certificate("blocking_set", {
            "space": {"n": 2, "q": 3}, "weights": list(B.weights),
            "claims": [{"type": "t_fold_blocking", "t": 2, "k": 1, "verified": True},
                       {"type": "minimal", "t": 2, "k": 1, "verified": True}]}))
        certs.append(make_certificate("tmodp_report",
                                      verify_tmodp_theorem(2, 1).to_json()))
        certs.append(make_certificate("bounds", {
            "n": 3, "k": 1, "q": 17, "t": 2,
            "report": bounds_report(3, 1, 17, 2).to_json()}))
        for cert in certs:
            ok, detail = recheck(cert)
            assert ok, (cert["kind"], detail)
            tampered = json.loads(canonical_json(cert))
            payload = tampered["payload"]
            for key in ("points", "weights", "assignment", "sets", "report"):
                if key in payload:
                    target = payload[key]
                    if key == "sets":
                        target[0][0] += 1
                    elif key == "report":
                        target["trivial_lower"] += 1
                    else:
                        target[0] += 1
                    break
            ok, _ = recheck(tampered)
            assert not ok, cert["kind"]
    check(10, "all emitted certificates recheck and single-entry tampering is caught", body)
