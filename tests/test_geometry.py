import dataclasses
import itertools
import json
import random

import pytest

from pgworkbench import geometry
from pgworkbench.fields import field_for_order
from pgworkbench.geometry import (EMPTY_SUBSPACE, GeometryError, Hypergraph,
                                  ProjectiveSpace, count_subspaces,
                                  hypergraph_from_file, hypergraph_to_file,
                                  mask_bits, theta)
from pgworkbench.solvers import exact_tau, exact_ucn


def test_theta_values():
    assert theta(-1, 5) == 0
    assert theta(0, 5) == 1
    assert theta(1, 2) == 3
    assert theta(2, 2) == 7
    assert theta(3, 2) == 15
    assert theta(2, 3) == 13
    assert theta(3, 17) == 17**3 + 17**2 + 17 + 1 == 5220


def test_count_subspaces_examples():
    assert count_subspaces(3, 1, 2) == 35
    assert count_subspaces(3, 2, 2) == 15
    assert count_subspaces(2, 1, 3) == 13
    assert count_subspaces(2, 0, 4) == 21
    assert count_subspaces(4, 4, 5) == 1
    with pytest.raises(GeometryError):
        count_subspaces(3, 4, 2)


def test_point_enumeration_normalized_and_sorted():
    space = ProjectiveSpace.of_order(2, 4)
    assert space.num_points == theta(2, 4) == 21
    assert len(set(space.points)) == 21
    assert list(space.points) == sorted(space.points)
    for pt in space.points:
        lead = next(c for c in pt if c)
        assert lead == 1


def test_normalize():
    space = ProjectiveSpace.of_order(2, 3)
    assert space.normalize((2, 1, 0)) == (1, 2, 0)  # scaled by 2^{-1} = 2
    assert space.normalize((0, 0, 2)) == (0, 0, 1)
    with pytest.raises(GeometryError):
        space.normalize((0, 0, 0))


def test_subspace_enumeration_counts_and_masks():
    space = ProjectiveSpace.of_order(3, 2)
    for m in range(4):
        subs = space.subspaces(m)
        assert len(subs) == count_subspaces(3, m, 2)
        masks = {S.mask for S in subs}
        assert len(masks) == len(subs)
        for S in subs:
            assert S.mask.bit_count() == theta(m, 2)
            assert S.dim == m


def test_subspace_bases_are_rref_fixed_points():
    space = ProjectiveSpace.of_order(2, 3)
    for S in space.subspaces(1):
        assert space.rref(S.basis) == S.basis


def test_span_meet_dimension_formula():
    space = ProjectiveSpace.of_order(3, 2)
    rng = random.Random(5)
    subs = list(space.subspaces(1)) + list(space.subspaces(2))
    for _ in range(100):
        U, V = rng.choice(subs), rng.choice(subs)
        S = space.span(U, V)
        M = space.meet(U, V)
        assert (U.dim + 1) + (V.dim + 1) == (S.dim + 1) + (M.dim + 1)
        assert M.mask == U.mask & V.mask
        assert S.mask & U.mask == U.mask and S.mask & V.mask == V.mask


def test_meet_disjoint_is_empty():
    space = ProjectiveSpace.of_order(3, 2)
    A, B = space.disjoint_subspaces(1, 2)
    assert space.meet(A, B) is EMPTY_SUBSPACE
    assert A.mask & B.mask == 0


def test_line_through_and_incidence():
    space = ProjectiveSpace.of_order(2, 2)
    line = space.line_through(0, 1)
    assert line.dim == 1
    assert space.incident(0, line) and space.incident(1, line)
    assert line.mask.bit_count() == 3
    # the same line from any two of its points
    pts = line.point_indices()
    for i, j in itertools.combinations(pts, 2):
        assert space.line_through(i, j).mask == line.mask


def test_incidence_matches_subspace_masks():
    space = ProjectiveSpace.of_order(3, 2)
    assert ProjectiveSpace.of_order(3, 2) is space
    for m in range(space.n + 1):
        inc = space.incidence(m)
        assert inc is space.incidence(m)
        assert inc == tuple(tuple(i for i in range(space.num_points) if S.mask >> i & 1)
                            for S in space.subspaces(m))
    assert mask_bits(0) == [] and mask_bits(0b101001) == [0, 3, 5]


def test_span_points_matches_span():
    space = ProjectiveSpace.of_order(3, 3)
    line = space.span_points([0, 7])
    assert line.mask == space.span(0, 7).mask
    assert line.mask.bit_count() == 4


def test_subspaces_through():
    space = ProjectiveSpace.of_order(3, 2)
    line = space.subspaces(1)[0]
    planes = space.subspaces_through(line, 2)
    assert len(planes) == theta(3 - 1 - 1, 2) == 3
    for P in planes:
        assert P.mask & line.mask == line.mask


def test_disjoint_subspaces_error():
    space = ProjectiveSpace.of_order(3, 2)
    with pytest.raises(GeometryError):
        space.disjoint_subspaces(2, 2)  # two disjoint planes cannot fit


def test_hyperplane_avoiding():
    space = ProjectiveSpace.of_order(3, 2)
    for pt in (0, 7, 14):
        H = space.hyperplane_avoiding(pt)
        assert H.dim == 2
        assert not space.incident(pt, H)


def test_project_from_point_weight_conservation():
    space = ProjectiveSpace.of_order(2, 2)
    rng = random.Random(3)
    for _ in range(20):
        center = rng.randrange(space.num_points)
        H = space.hyperplane_avoiding(center)
        w = [rng.randrange(3) for _ in range(space.num_points)]
        w[center] = 0
        img = space.project_from_point(center, H, w)
        assert sum(img) == sum(w)
        # image is supported on the target hyperplane
        for i, wi in enumerate(img):
            assert wi == 0 or space.incident(i, H)


def test_project_from_point_strictness():
    space = ProjectiveSpace.of_order(2, 2)
    H = space.hyperplane_avoiding(0)
    w = [1] * space.num_points
    with pytest.raises(GeometryError):
        space.project_from_point(0, H, w)
    img = space.project_from_point(0, H, w, strict=False)
    assert sum(img) == sum(w) - 1
    line = space.subspaces(1)[0]
    with pytest.raises(GeometryError):
        space.project_from_point(0, line, w)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_pencil_identity_small(n, q):
    space = ProjectiveSpace.of_order(n, q)
    for k in range(n - 1):
        assert space.verify_pencil_identity(k)


@pytest.mark.parametrize("n,q,k", [(2, 3, 0), (3, 2, 0), (3, 2, 1)])
def test_pencil_identity_detects_tampered_caches(n, q, k):
    # a fresh space each time: the tampering must not reach the shared ones
    space = ProjectiveSpace(n, field_for_order(q))
    space._subspace_cache[k + 1] = space.subspaces(k + 1)[:-1]
    assert not space.verify_pencil_identity(k)

    space = ProjectiveSpace(n, field_for_order(q))
    subs = list(space.subspaces(k))
    S = subs[3]
    outside = (~S.mask & ((1 << space.num_points) - 1)).bit_length() - 1
    subs[3] = dataclasses.replace(S, mask=S.mask | 1 << outside)
    space._subspace_cache[k] = tuple(subs)
    assert not space.verify_pencil_identity(k)

    assert ProjectiveSpace(n, field_for_order(q)).verify_pencil_identity(k)


def test_point_subspaces_match_incidence():
    space = ProjectiveSpace.of_order(3, 2)
    for m in range(4):
        through = space.point_subspaces(m)
        for i in range(space.num_points):
            assert through[i] == tuple(si for si, pts in enumerate(space.incidence(m))
                                       if i in pts)


def test_hypergraph_construction_and_roundtrip(tmp_path):
    space = ProjectiveSpace.of_order(2, 2)
    H = space.hypergraph(1)
    assert H.num_vertices == 7
    assert len(H.edges) == 7
    assert H.params == (2, 1, 2)
    path = tmp_path / "fano.json"
    hypergraph_to_file(H, str(path))
    H2 = hypergraph_from_file(str(path))
    assert H2 == H


def test_hypergraph_json_without_params():
    H = Hypergraph(4, (0b0011, 0b1100))
    data = H.to_json()
    assert data["num_vertices"] == 4
    assert Hypergraph.from_json(json.loads(json.dumps(data))) == H


@pytest.mark.parametrize("index", [99, 7, -1, "0", 1.0, None, True])
def test_hypergraph_from_json_rejects_bad_edge_index(index):
    with pytest.raises(GeometryError, match="edge index"):
        Hypergraph.from_json({"n": 2, "k": 1, "q": 2, "edges": [[0, 1, index]]})
    with pytest.raises(GeometryError, match="edge index"):
        Hypergraph.from_json({"num_vertices": 7, "edges": [[index]]})


MALFORMED_HYPERGRAPHS = [
    {"num_vertices": "7", "edges": [[0, 1]]},
    {"num_vertices": -1, "edges": []},
    {"num_vertices": 10**7, "edges": []},  # above the point limit of a space
    {"num_vertices": 7, "edges": 5},
    {"num_vertices": 7, "edges": [[0, 1], 5]},
    {"edges": [[0, 1]]},
    {"num_vertices": 7},
    {"n": 2, "q": 2, "edges": [[0, 1]]},
    [[0, 1]],
    None,
]


@pytest.mark.parametrize("data", MALFORMED_HYPERGRAPHS)
def test_hypergraph_from_json_rejects_malformed_input(data):
    with pytest.raises(GeometryError):
        Hypergraph.from_json(data)


def test_levels_are_one_shared_structure():
    space = ProjectiveSpace.of_order(3, 2)
    for k in (1, 2):
        H = space.hypergraph(k)
        assert space.hypergraph(k) is H
        assert space.incidence(k) is H.edge_points
        assert space.point_subspaces(k) is H.vertex_edges
        assert H.edges == tuple(S.mask for S in space.subspaces(k))
    for m in (0, space.n):
        assert space.point_subspaces(m) is space._level(m).vertex_edges
        assert space.incidence(m) is space._level(m).edge_points


def test_vertex_edges_match_edge_points():
    H = Hypergraph(5, (0b00111, 0b11100, 0b10001, 0))
    assert H.edge_points == ((0, 1, 2), (2, 3, 4), (0, 4), ())
    assert H.vertex_edges == ((0, 2), (0,), (0, 1), (1,), (1, 2))


@pytest.mark.parametrize("n, k, q", [(2, 1, 2), (2, 1, 3), (3, 2, 2)])
def test_shuffled_geometric_file_solves_like_canonical(tmp_path, n, k, q):
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    edges = [list(e) for e in H.edge_points]
    rng = random.Random(5)
    rng.shuffle(edges)
    for e in edges:
        rng.shuffle(e)
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps({"n": n, "k": k, "q": q, "edges": edges}))
    H2 = hypergraph_from_file(str(path))
    # the loaded hypergraph keeps the file's edge order
    assert H2.edges != H.edges and sorted(H2.edges) == sorted(H.edges)
    assert exact_tau(H2, 2).objective == exact_tau(H, 2).objective
    assert exact_ucn(H2).objective == exact_ucn(H).objective


# edges that claim (3, 2, 2) but are not the planes of PG(3,2): exact_tau
# applied the bound t*theta(1) = 6 to them, while their optimum is 5
MISLABELLED = {"n": 3, "k": 2, "q": 2,
               "edges": [[1, 4, 8, 11], [2, 4, 5, 10], [2, 10], [0, 2, 7, 11], [8, 9]]}


def test_hypergraph_from_json_checks_claimed_params():
    with pytest.raises(GeometryError, match="not the 2-spaces of PG"):
        Hypergraph.from_json(MISLABELLED)
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    edges = H.to_json()["edges"]
    # the edges in any order, each listed in any order, are accepted
    shuffled = [list(reversed(e)) for e in reversed(edges)]
    H2 = Hypergraph.from_json({"n": 2, "k": 1, "q": 3, "edges": shuffled})
    assert sorted(H2.edges) == sorted(H.edges) and H2.params == (2, 1, 3)
    # the edges are compared as a multiset, not as a set
    for bad in (edges[1:], edges + edges[:1], [edges[0]] + edges[2:] + edges[:1]):
        with pytest.raises(GeometryError, match="not the 1-spaces"):
            Hypergraph.from_json({"n": 2, "k": 1, "q": 3, "edges": bad})
    with pytest.raises(GeometryError):
        Hypergraph.from_json({"n": 2, "k": 2, "q": 3, "edges": edges})  # k out of range
    with pytest.raises(GeometryError, match="integers"):
        Hypergraph.from_json({"n": 2.0, "k": 1, "q": 3, "edges": edges})


def test_subspace_count_mismatch_raises(monkeypatch):
    # a plain raise, not an assert, so the check also runs under python -O
    monkeypatch.setattr(geometry, "count_subspaces", lambda n, m, q: 8)
    space = ProjectiveSpace(2, field_for_order(2))
    with pytest.raises(GeometryError, match="enumerated 7 1-spaces"):
        space.subspaces(1)


def test_hypergraph_k_range_errors():
    space = ProjectiveSpace.of_order(2, 2)
    with pytest.raises(GeometryError):
        space.hypergraph(0)
    with pytest.raises(GeometryError):
        space.hypergraph(2)


def test_size_limits():
    with pytest.raises(GeometryError):
        ProjectiveSpace.of_order(3, 3, max_points=10)
    space = ProjectiveSpace.of_order(3, 3, max_subspaces=10)
    with pytest.raises(GeometryError):
        space.subspaces(1)
