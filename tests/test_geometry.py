import errno
import gc
import hashlib
import itertools
import json
import os
import random
import threading
import time
import tracemalloc
import weakref

import pytest

from pgworkbench import geometry
from pgworkbench.blocking import (WeightedPointSet, construct_union, essential_points,
                                  is_t_fold_blocking, is_t_mod_p_set, judge_claim,
                                  kspace_weights, minimal_reduction)
from pgworkbench.certificates import make_certificate, recheck, tmodp_certificate
from pgworkbench.cli import build_parser, cmd_space
from pgworkbench.fields import FieldError, field_for_order
from pgworkbench.geometry import (EMPTY_SUBSPACE, GeometryError, Hypergraph,
                                  ProjectiveSpace, Subspace, count_subspaces,
                                  hypergraph_from_file, hypergraph_to_file,
                                  incidence_gate, level_gate, mask_bits, mask_columns, theta,
                                  write_text)
from pgworkbench.solvers import exact_tau, exact_ucn, verify_tmodp_theorem


def gate_refusal(n, m, q, gate=level_gate):
    """The text of the gate's refusal of (n, m, q), None when it passes."""
    try:
        gate(n, m, q)
    except GeometryError as exc:
        return str(exc)
    return None


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
    # the gate's words, the order included
    with pytest.raises(GeometryError) as info:
        count_subspaces(2, 5, 3)
    assert str(info.value) == "m = 5 out of range for PG(2,3)" == gate_refusal(2, 5, 3)


def test_point_enumeration_normalized_and_sorted():
    space = ProjectiveSpace.of_order(2, 4)
    assert repr(space) == "PG(2,4)"
    assert space.num_points == theta(2, 4) == 21
    assert len(set(space.points)) == 21
    assert list(space.points) == sorted(space.points)
    for pt in space.points:
        lead = next(c for c in pt if c)
        assert lead == 1


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


def _reference_mask(space, basis):
    """The scaled-row walk that the lattice replaced: per row a table of
    its q multiples, and per normalized coefficient vector the sum of the
    chosen multiples."""
    f = space.field
    scaled = [[tuple(f.mul(c, x) for x in row) for c in range(space.q)] for row in basis]
    mask = 0
    for coeffs in geometry._normalized_vectors(len(basis), space.q):
        vec = None
        for i, c in enumerate(coeffs):
            if not c:
                continue
            row = scaled[i][c]
            vec = row if vec is None else tuple(f.add(a, b) for a, b in zip(vec, row))
        mask |= 1 << space.point_index[vec]
    return mask


@pytest.mark.parametrize("n,q", [(1, 16), (2, 8), (2, 9), (2, 25), (2, 27), (3, 4), (3, 9),
                                 (4, 3), (5, 2)])
def test_lattice_matches_reference_walk(n, q):
    # a fresh space, so every level is built by this test
    space = ProjectiveSpace(n, field_for_order(q))
    for m in range(1, n + 1):
        subs = space.subspaces(m)
        bases = [S.basis for S in subs]
        # distinct RREF bases, as many as there are m-spaces, in sorted
        # order: every m-space once, in canonical order
        assert bases == sorted(set(bases))
        assert len(bases) == count_subspaces(n, m, q)
        assert all(space.rref(B) == B for B in bases)
        assert [S.mask for S in subs] == [_reference_mask(space, B) for B in bases]
    rng = random.Random(n * 100 + q)
    ranks = set()
    for size in range(1, n + 3):
        for _ in range(3):
            pts = rng.sample(range(space.num_points), min(size, space.num_points))
            basis = space.rref([space.points[i] for i in pts])
            ranks.add(len(basis))
            want = _reference_mask(space, basis)
            S = space.span(*pts)
            assert (S.basis, S.mask, S.dim) == (basis, want, len(basis) - 1)
            U = space.span(*pts[1:]) if len(pts) > 1 else space.subspaces(0)[pts[0]]
            assert space.span(U, pts[0]).mask == want
    assert ranks == set(range(1, n + 2))


@pytest.mark.parametrize("n,q,size", [(3, 31, 3), (2, 125, 2)])
def test_span_of_large_q_matches_reference_walk(n, q, size):
    # a plane over a prime field with p - 1 = 30 moves per row, and a line
    # over GF(5^3), whose wrap moves reach the third base-p digit
    space = ProjectiveSpace(n, field_for_order(q))
    pts = random.Random(q).sample(range(space.num_points), size)
    S = space.span(*pts)
    assert S.dim == size - 1
    assert S.mask == _reference_mask(space, S.basis)


@pytest.mark.parametrize("basis", [((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (1, 0, 0)),
                                   ((1, 2, 0), (0, 1, 0)), ((1, 0, 0), (0, 2, 1)),
                                   ((1, 0, 0), (0, 0, 0))])
def test_mask_for_basis_rejects_non_rref_basis(basis):
    # the walk adds only the coordinates a row below changes, which gives
    # a wrong point unless every sum is normalized
    space = ProjectiveSpace.of_order(2, 3)
    with pytest.raises(GeometryError, match="not a reduced row echelon basis"):
        space.subspace_from_basis(basis)


@pytest.mark.parametrize("how", ["extra point", "dropped point"])
def test_subspaces_rejects_a_mask_of_the_wrong_size(monkeypatch, how):
    # a fresh space, whose mask builder is made to return one bad plane
    space = ProjectiveSpace(3, field_for_order(2))
    build = space._masks

    def tampered(bases):
        masks = build(bases)
        M = masks[3]
        if how == "extra point":
            masks[3] = M | 1 << (~M & ((1 << space.num_points) - 1)).bit_length() - 1
        else:
            masks[3] = M & (M - 1)
        return masks

    monkeypatch.setattr(space, "_masks", tampered)
    with pytest.raises(GeometryError, match="2-space of PG.3,2. does not have 7 points"):
        space.subspaces(2)


def test_hyperplanes_build_no_lower_level(monkeypatch):
    # PG(3,3) has 40 planes and 130 lines, 520 point incidences each: the
    # planes' masks alone, 40 * 40 bits, fit the limit
    monkeypatch.setattr(geometry, "DEFAULT_MAX_MASK_BITS", 1600)
    space = ProjectiveSpace(3, field_for_order(3))
    assert len(space.subspaces(2)) == 40
    assert len(space.hypergraph(2).edges) == 40
    assert space.hyperplane_avoiding(0).mask >> 0 & 1 == 0
    assert set(space._levels) == {2}
    with pytest.raises(GeometryError, match="1-spaces of PG.3,3. may need 5200 bits"):
        space.subspaces(1)


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
        # the meet has theta(r - 1, 2) points, r its vector-space dimension
        common = (U.mask & V.mask).bit_count()
        meet_rank = next(r for r in range(5) if theta(r - 1, 2) == common)
        assert (U.dim + 1) + (V.dim + 1) == (S.dim + 1) + meet_rank
        assert S.mask & U.mask == U.mask and S.mask & V.mask == V.mask


def test_the_span_of_two_points_is_their_line():
    space = ProjectiveSpace.of_order(2, 2)
    line = space.span(0, 1)
    assert line.dim == 1
    assert line.mask >> 0 & 1 and line.mask >> 1 & 1
    assert line.mask.bit_count() == 3
    # the same line from any two of its points
    pts = line.point_indices()
    for i, j in itertools.combinations(pts, 2):
        assert space.span(i, j).mask == line.mask


def test_incidence_matches_subspace_masks():
    # a level's point lists are built from its masks at each call and kept
    # nowhere
    space = ProjectiveSpace.of_order(3, 2)
    assert ProjectiveSpace.of_order(3, 2) is space
    for k in (1, 2):
        H = space.hypergraph(k)
        inc = H.edge_points()
        assert inc == H.edge_points() and inc is not H.edge_points()
        assert inc == [[i for i in range(space.num_points) if S.mask >> i & 1]
                       for S in space.subspaces(k)]
        assert set(vars(H)) <= {"geometry"}
    assert mask_bits(0) == [] and mask_bits(0b101001) == [0, 3, 5]


def test_vertex_edges_of_a_level_match_incidence():
    # per point, the k-spaces through it, as mask_columns reads them from the
    # level's edges, are those whose point lists hold it
    space = ProjectiveSpace.of_order(3, 2)
    for k in (1, 2):
        columns = list(mask_columns(space.hypergraph(k).edges, space.num_points))
        assert len(columns) == space.num_points
        for i, digits in enumerate(columns):
            assert mask_bits(int(digits, 2)) == [
                si for si, S in enumerate(space.subspaces(k)) if i in S.point_indices()]


@pytest.mark.parametrize("num_points", [1, 7, 8, 13, 31])
def test_mask_columns_read_the_masks_per_point(num_points):
    # digit j of point i's column, the last mask first, is bit i of masks[j];
    # with no masks each point's column is empty
    rng = random.Random(num_points)
    for count in (0, 1, 5, 20):
        masks = [rng.getrandbits(num_points) for _ in range(count)]
        columns = list(mask_columns(masks, num_points))
        assert columns == [bytes(48 + (m >> i & 1) for m in reversed(masks))
                           for i in range(num_points)]


def test_span_of_points_and_of_nothing():
    space = ProjectiveSpace.of_order(3, 3)
    line = space.span(0, 7)
    assert line.mask == space.span(line, 7).mask == space.span(space.span(0), 7).mask
    assert line.mask.bit_count() == 4
    assert space.subspace_from_basis(()) is EMPTY_SUBSPACE
    with pytest.raises(GeometryError, match="span of nothing"):
        space.span()


def test_disjoint_subspaces_error():
    space = ProjectiveSpace.of_order(3, 2)
    with pytest.raises(GeometryError):
        space.disjoint_subspaces(2, 2)  # two disjoint planes cannot fit
    A, B = space.disjoint_subspaces(1, 2)
    assert A.mask & B.mask == 0


def test_hyperplane_avoiding():
    space = ProjectiveSpace.of_order(3, 2)
    for pt in (0, 7, 14):
        H = space.hyperplane_avoiding(pt)
        assert H.dim == 2
        assert not H.mask >> pt & 1


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
            assert wi == 0 or H.mask >> i & 1


def test_project_from_point_strictness():
    space = ProjectiveSpace.of_order(2, 2)
    H = space.hyperplane_avoiding(0)
    w = [1] * space.num_points
    with pytest.raises(GeometryError):
        space.project_from_point(0, H, w)
    line = space.subspaces(1)[0]
    with pytest.raises(GeometryError):
        space.project_from_point(0, line, w)
    w[0] = 0
    with pytest.raises(GeometryError, match="projection target must be a hyperplane"):
        space.project_from_point(0, space.subspaces(0)[1], w)


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_pencil_identity_small(n, q):
    space = ProjectiveSpace.of_order(n, q)
    for k in range(n):
        assert space.verify_pencil_identity(k)


def _tamper(space, m, subs):
    """Put the records subs in place of level m's, which must be cached."""
    space._levels[m] = (tuple(subs), space._levels[m][1])


@pytest.mark.parametrize("n,q,k", [(2, 3, 0), (3, 2, 0), (3, 2, 1),
                                   (1, 3, 0), (2, 3, 1), (3, 2, 2)])
def test_pencil_identity_detects_tampered_caches(n, q, k):
    # a fresh space each time: the tampering must not reach the shared ones
    space = ProjectiveSpace(n, field_for_order(q))
    _tamper(space, k + 1, space.subspaces(k + 1)[:-1])
    assert not space.verify_pencil_identity(k)

    # a k-space or a (k+1)-space with one more point inside the range (the
    # n-space has none to add): at k = n-1 the one (k+1)-space is the
    # whole space, which contains any set of points, and for k >= 1 an
    # extra point of a (k+1)-space adds no k-space to it, so only the
    # point counts see these
    for m in range(k, min(k + 2, n)):
        space = ProjectiveSpace(n, field_for_order(q))
        subs = list(space.subspaces(m))
        S = subs[3]
        outside = (~S.mask & ((1 << space.num_points) - 1)).bit_length() - 1
        subs[3] = S._replace(mask=S.mask | 1 << outside)
        _tamper(space, m, subs)
        assert not space.verify_pencil_identity(k)

    if 1 <= k < n - 1:
        # as many points as a k-space, one of them swapped for a point
        # outside: only span(S, outside) contains the set.  At k = n-1 the
        # swap keeps the point count and the whole space contains it, so
        # the check cannot see it there
        space = ProjectiveSpace(n, field_for_order(q))
        subs = list(space.subspaces(k))
        S = subs[3]
        outside = (~S.mask & ((1 << space.num_points) - 1)).bit_length() - 1
        subs[3] = S._replace(mask=(S.mask & (S.mask - 1)) | 1 << outside)
        _tamper(space, k, subs)
        assert not space.verify_pencil_identity(k)

    # a (k+1)-space with one point dropped from its mask (at k = n-1 the
    # whole space): the k-spaces in it through that point lose it from
    # their pencils
    space = ProjectiveSpace(n, field_for_order(q))
    uppers = list(space.subspaces(k + 1))
    j = min(2, len(uppers) - 1)
    U = uppers[j]
    uppers[j] = U._replace(mask=U.mask & (U.mask - 1))
    _tamper(space, k + 1, uppers)
    assert not space.verify_pencil_identity(k)

    # a bit at num_points in a k-space or in a (k+1)-space is no point
    for m in (k, k + 1):
        space = ProjectiveSpace(n, field_for_order(q))
        subs = list(space.subspaces(m))
        subs[-1] = subs[-1]._replace(mask=subs[-1].mask | 1 << space.num_points)
        _tamper(space, m, subs)
        assert not space.verify_pencil_identity(k)

    assert ProjectiveSpace(n, field_for_order(q)).verify_pencil_identity(k)


def _digit_moves(space, row, columns):
    """The (place, digit) pair of each nonzero base-p digit of row's
    coordinates in the given columns."""
    p, out = space.field.p, set()
    for j in columns:
        a, P = row[j], space.q ** (space.n - j)
        while a:
            a, x = divmod(a, p)
            if x:
                out.add((P, x))
            P *= p
    return out


@pytest.mark.parametrize("n,q", [(1, 27), (2, 25), (2, 27), (3, 8), (3, 9), (4, 3)])
def test_one_basis_builds_a_wrap_mask_per_nonzero_digit(n, q):
    # a basis moves the span of its rows below the first by each multiple
    # x^i * r of each of those rows r, i < h, in the columns after r's
    # pivot (at the pivot that move is a shift), and then by its first row
    # in the columns where a row below is nonzero (elsewhere every vector
    # of the span is 0): exactly the wrap masks of the nonzero digits of
    # those vectors in those columns are built
    space = ProjectiveSpace(n, field_for_order(q))
    f = space.field
    rng = random.Random(n * 100 + q)
    for _ in range(20):
        space._wrap_masks.clear()
        pts = rng.sample(range(space.num_points), rng.randint(1, n + 1))
        basis = space.rref([space.points[i] for i in pts])
        below = [j for j in range(n + 1) if any(r[j] for r in basis[1:])]
        want = _digit_moves(space, basis[0], below)
        for r in basis[1:]:
            for i in range(f.h):
                want |= _digit_moves(space, tuple(f.mul(f.p**i, a) for a in r),
                                     range(r.index(1) + 1, n + 1))
        assert space.mask_for_basis(basis) == _reference_mask(space, basis)
        assert set(space._wrap_masks) == want
    if n == 1:
        # the one line of PG(1,q) adds x^i to its span at the pivot of
        # (0, 1), for each i < h: every move is a shift
        space._wrap_masks.clear()
        space.subspaces(1)
        assert space._wrap_masks == {}


def test_a_level_keeps_its_masks_alone(tmp_path):
    # every reader builds what it needs from a level's masks and drops it
    # on return: after a tau_2 on the search state, a UCN search, a
    # four-claim recheck, a reduction, a t (mod p) recheck and an export,
    # the space holds what it held before, and each level's hypergraph at
    # most its checked geometry
    geometry._SPACES.pop((2, 3), None)
    space = ProjectiveSpace.of_order(2, 3)
    H = space.hypergraph(1)
    ucn = exact_ucn(H)
    assert exact_tau(H, 2).objective == 9 and ucn.nodes > 0 and ucn.objective == 6
    lines = space.subspaces(1)
    B = construct_union(space, [(lines[0], 1), (lines[1], 1), (lines[5], 1)])
    claims = [{"type": kind, "t": t, "k": 1, "verified": judge_claim(B, kind, t, 1, {})[0]}
              for kind, t in (("t_fold_blocking", 1), ("t_mod_p", 3), ("minimal", 1),
                              ("t_fold_blocking", 4))]
    assert [claim["verified"] for claim in claims] == [True, True, False, False]
    cert = make_certificate("blocking_set", {**B.to_json(), "claims": claims})
    assert recheck(cert) == (True, "all claims verified")
    assert minimal_reduction(B, 1, 1).size < B.size
    report = tmodp_certificate(verify_tmodp_theorem(3, 1))
    assert recheck(report) == (True, "report sets verified")
    hypergraph_to_file(H, str(tmp_path / "lines.json"))
    assert ProjectiveSpace.of_order(2, 3) is space
    assert set(vars(space)) == {"n", "field", "num_points", "_place", "_levels",
                                "_wrap_masks", "points", "point_index"}
    assert list(space._levels) == [1]
    for records, level in space._levels.values():
        assert set(vars(level)) <= {"geometry"}


@pytest.mark.parametrize("n,q", [(3, 3), (2, 4)])
def test_a_cold_space_is_freed_without_the_cycle_collector(n, q):
    # no cache of a space may refer back to it: a cycle would keep every
    # level alive until the cycle collector runs
    gc.collect()
    gc.disable()
    try:
        space = ProjectiveSpace(n, field_for_order(q))
        for m in range(n + 1):
            space.subspaces(m)
        assert all(space.verify_pencil_identity(k) for k in range(n))
        for k in range(1, n):
            H = space.hypergraph(k)
            assert H.edge_points() and H.geometry == (n, k, q)
        assert space._wrap_masks
        ref = weakref.ref(space)
        del space, H
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n,q", [(3, 4), (5, 2)])
def test_basis_rows_are_the_shared_point_tuples(n, q):
    space = ProjectiveSpace(n, field_for_order(q))
    for m in range(n + 1):
        for S in space.subspaces(m):
            assert all(row is space.points[space.point_index[row]] for row in S.basis)


# the tracemalloc peak of this build when the guard was written, in MiB
@pytest.mark.parametrize("n,q,peak_mib", [(2, 32, 1.18), (3, 7, 1.15)])
def test_levels_and_pencil_checks_peak_memory(n, q, peak_mib):
    field = field_for_order(q)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        space = ProjectiveSpace(n, field)
        for m in range(n + 1):
            space.subspaces(m)
        assert all(space.verify_pencil_identity(k) for k in range(n))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * peak_mib * 2**20, peak / 2**20


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


def test_write_text_over_a_longer_file_leaves_no_old_tail(tmp_path):
    # the file is written in place and then cut to the new length
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 5000)
    write_text(str(path), "caf\u00e9\n")
    assert path.read_bytes() == "caf\u00e9\n".encode()
    write_text(str(path), "")
    assert path.read_bytes() == b""
    write_text(str(tmp_path / "new.txt"), "a\r\nb")
    assert (tmp_path / "new.txt").read_bytes() == b"a\r\nb"


def test_write_text_to_a_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        write_text(str(tmp_path), "{}")


def test_write_text_to_files_that_cannot_be_cut(tmp_path):
    # ftruncate fails on anything but a regular file, so it is not called there
    write_text(os.devnull, "x" * 10000)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    write_text(str(fifo), "caf\u00e9\n" * 1000)
    reader.join(timeout=10)
    assert received == ["caf\u00e9\n".encode() * 1000]


@pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, "no space"), KeyboardInterrupt()])
def test_write_text_failing_part_way_leaves_a_prefix_of_the_new_text(tmp_path, monkeypatch,
                                                                      fault):
    path = tmp_path / "summary.txt"
    path.write_bytes(b"old row\n" * 1000)
    real_write, calls = os.write, []

    def write_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise fault
        return real_write(fd, data[:10])

    with monkeypatch.context() as m:
        m.setattr(os, "write", write_then_fail)
        with pytest.raises(type(fault)):
            write_text(str(path), "new row\n" * 100)
    assert path.read_bytes() == b"new row\nne"


def test_hypergraph_file_overwrites_in_place_and_round_trips(tmp_path):
    H = ProjectiveSpace.of_order(3, 2).hypergraph(2)
    path = tmp_path / "planes.json"
    path.write_text("{" * 10000)
    hypergraph_to_file(H, str(path))
    # the bytes of json.dumps with the arguments the file always had
    assert path.read_text() == json.dumps(H.to_json(), sort_keys=True, separators=(",", ":"))
    H2 = hypergraph_from_file(str(path))
    assert H2 == H and H2.geometry == (3, 2, 2)


def test_exported_hypergraph_bytes_are_pinned(tmp_path):
    # the Fano plane's lines and the planes of PG(3,2), through the
    # canonical encoder of certificates and command line output
    path = tmp_path / "h.json"
    hypergraph_to_file(ProjectiveSpace.of_order(2, 2).hypergraph(1), str(path))
    assert path.read_bytes() == (b'{"edges":[[0,1,2],[0,3,4],[1,3,5],[2,3,6],[1,4,6],[2,4,5],'
                                 b'[0,5,6]],"k":1,"n":2,"q":2}')
    hypergraph_to_file(ProjectiveSpace.of_order(3, 2).hypergraph(2), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "a244070e916919a8df43e45b88ef582e80deb59eba31e5cd5562918f34088568"


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


def test_hypergraph_from_json_refuses_huge_masks_before_building_them():
    # about 100 KB of JSON asking for 10^4 masks of 10^6 bits, 1.25 GB
    data = {"num_vertices": 10**6, "edges": [[999999]] * 10**4}
    start = time.perf_counter()
    with pytest.raises(GeometryError, match="the edge masks need 10000000000 bits"):
        Hypergraph.from_json(data)
    assert time.perf_counter() - start < 0.1
    # the limit itself is allowed, and one bit more is not
    at_limit = [[geometry.DEFAULT_MAX_MASK_BITS // 100 - 1]] * 100
    assert len(Hypergraph.from_json({"num_vertices": 10**6, "edges": at_limit}).edges) == 100
    with pytest.raises(GeometryError, match="more than the limit"):
        Hypergraph.from_json({"num_vertices": 10**6, "edges": at_limit + [[0]]})


def test_levels_are_one_shared_structure():
    space = ProjectiveSpace.of_order(3, 2)
    for k in (1, 2):
        H = space.hypergraph(k)
        assert space.hypergraph(k) is H and space._levels[k][1] is H
        assert H.edges == tuple(S.mask for S in space.subspaces(k))
    # every level, the points and the whole space included, is one cached
    # record that its records and its masks are read from
    for m in range(space.n + 1):
        records = space.subspaces(m)
        assert space._levels[m][0] is records
        H = space._levels[m][1]
        assert H.edges == tuple(S.mask for S in records)
        assert H.params == (space.n, m, space.q)


def test_edge_points_are_read_from_the_masks():
    H = Hypergraph(5, (0b00111, 0b11100, 0b10001, 0))
    assert H.edge_points() == [[0, 1, 2], [2, 3, 4], [0, 4], []]
    assert vars(H) == {}


@pytest.mark.parametrize("n, k, q", [(2, 1, 2), (2, 1, 3), (3, 2, 2)])
def test_shuffled_geometric_file_solves_like_canonical(tmp_path, n, k, q):
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    edges = [list(e) for e in H.edge_points()]
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
    # 43 = theta(2, 6) = the count of its 1-spaces, but GF(6) is no field
    with pytest.raises(GeometryError) as info:
        Hypergraph.from_json({"n": 2, "k": 1, "q": 6, "edges": [[i] for i in range(43)]})
    assert str(info.value) == "the edges are not the 1-spaces of PG(2,6)"


def test_hypergraph_geometry_trusts_only_matching_params():
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    assert H.geometry == (2, 1, 3)
    shuffled = Hypergraph(H.num_vertices, tuple(reversed(H.edges)), (2, 1, 3))
    assert shuffled.geometry == (2, 1, 3)
    assert Hypergraph(H.num_vertices, H.edges).geometry is None
    for bad in (H.edges[1:], H.edges + H.edges[:1], (H.edges[0],) + H.edges[2:] + H.edges[:1]):
        assert Hypergraph(H.num_vertices, bad, (2, 1, 3)).geometry is None
    for params in [(2, 2, 3), (2, 0, 3), (2, 1, 2), (1, 1, 12), (2, 1, 1), (2, 1, 3.0),
                   (0, 1, 3)]:
        assert Hypergraph(H.num_vertices, H.edges, params).geometry is None
    # 43 = theta(2, 6), but 6 is no prime power
    assert Hypergraph(43, (0b11,), (2, 1, 6)).geometry is None


def test_hypergraph_geometry_tests_the_vertex_count_first():
    # a claim of PG(2,127) on 7 vertices builds no space of 16257 points
    start = time.perf_counter()
    assert Hypergraph(7, (0b11,), (2, 1, 127)).geometry is None
    assert time.perf_counter() - start < 0.1


def test_subspace_count_mismatch_raises(monkeypatch):
    # a plain raise, not an assert, so the check also runs under python -O
    monkeypatch.setattr(geometry, "count_subspaces", lambda n, m, q: 8)
    space = ProjectiveSpace(2, field_for_order(2))
    with pytest.raises(GeometryError, match="enumerated 7 1-spaces"):
        space.subspaces(1)


def test_a_level_with_a_basis_missing_is_refused_and_not_cached(monkeypatch):
    space = ProjectiveSpace(3, field_for_order(2))
    enumerate_bases = ProjectiveSpace._enumerate_rref_bases
    monkeypatch.setattr(ProjectiveSpace, "_enumerate_rref_bases",
                        lambda self, nrows: enumerate_bases(self, nrows)[1:])
    # twice: a refused level is not cached, so the second call checks again
    for _ in range(2):
        with pytest.raises(GeometryError) as info:
            space.subspaces(2)
        assert str(info.value) == "enumerated 14 2-spaces of PG(3,2), expected 15"
        assert 2 not in space._levels


def test_subspace_records():
    space = ProjectiveSpace(3, field_for_order(2))
    S = space.subspaces(1)[3]
    with pytest.raises(AttributeError):
        S.mask = 0
    T = Subspace(S.dim, S.basis, S.mask)
    assert T is not S and T == S and hash(T) == hash(S)
    assert S == (S.dim, S.basis, S.mask) and tuple(S) == (1, S.basis, S.mask)
    mask = S.mask
    R = S._replace(mask=mask & (mask - 1))
    assert S.mask == mask and R.mask == mask & (mask - 1) and R != S
    assert (R.dim, R.basis) == (S.dim, S.basis)
    # every record of every level, the points included, is the record of
    # its basis, as subspace_from_basis makes it
    for m in range(space.n + 1):
        for U in space.subspaces(m):
            assert type(U) is Subspace and U.dim == m
            assert U == Subspace(m, U.basis, space.mask_for_basis(U.basis))
            assert U.point_indices() == mask_bits(U.mask)


def test_hypergraph_k_range_errors():
    space = ProjectiveSpace.of_order(2, 2)
    with pytest.raises(GeometryError):
        space.hypergraph(0)
    with pytest.raises(GeometryError):
        space.hypergraph(2)


def test_size_limits(monkeypatch):
    # the limits are read at call time, on a fresh space: of_order's cache
    # holds one space per (n, q)
    assert ProjectiveSpace.of_order(3, 3) is ProjectiveSpace.of_order(3, 3)
    monkeypatch.setattr(geometry, "DEFAULT_MAX_MASK_BITS", 400)
    space = ProjectiveSpace(3, field_for_order(3))
    with pytest.raises(GeometryError):
        space.subspaces(1)
    monkeypatch.setattr(geometry, "DEFAULT_MAX_POINTS", 10)
    with pytest.raises(GeometryError):
        ProjectiveSpace(3, field_for_order(3))


@pytest.mark.parametrize("n, m, q, reason", [
    *[pytest.param(*args, f"(n, m, q) = {args!r} are not all integers", id=repr(args))
      for args in [(True, 0, 2), (2.0, 0, 2), (2, True, 2), (2, 1.0, 2), (2, 1, True),
                   (2, 1, 2.0), ("2", 1, 2), (2, 1, None)]],
    (0, 0, 2, "projective dimension n = 0 must be >= 1"),
    (2, 1, 1, "q = 1 is not a prime power"),
    (2, -1, 2, "m = -1 out of range for PG(2,2)"),
    (2, 3, 2, "m = 3 out of range for PG(2,2)"),
    # the order of the tests: type, n, q, the space's limits, m, the level's
    (0, 1.0, 1, "(n, m, q) = (0, 1.0, 1) are not all integers"),
    (0, 5, 1, "projective dimension n = 0 must be >= 1"),
    (2, 5, 0, "q = 0 is not a prime power"),
    (40, 50, 2, "PG(40,2) exceeds the limits q <= 65536 and 1000000 points"),
    (2, 3, 101, "m = 3 out of range for PG(2,101)"),
    # the points and the whole space pass
    (2, 0, 2, None),
    (2, 2, 2, None),
])
def test_level_gate_refusals(n, m, q, reason):
    assert gate_refusal(n, m, q) == reason


@pytest.mark.parametrize("n, m, q, reason", [
    # level_gate's refusals come first, in its words
    (2, 1.0, 3, "(n, m, q) = (2, 1.0, 3) are not all integers"),
    (2, 1, 101, "the masks of the 1-spaces of PG(2,101) may need 106151809 bits, "
                "more than the limit 100000000"),
    # the planes of PG(3,17) pass level_gate: 5220^2 mask bits
    (3, 2, 17, "the 2-spaces of PG(3,17) have 1602540 point incidences, "
               "more than the limit 1000000"),
    (7, 3, 2, "the 3-spaces of PG(7,2) have 3011805 point incidences, "
              "more than the limit 1000000"),
    (2, 1, 97, None),
    (4, 3, 3, None),
])
def test_incidence_gate_refusals(n, m, q, reason):
    assert gate_refusal(n, m, q, incidence_gate) == reason
    if reason is not None and "incidences" in reason:
        assert gate_refusal(n, m, q) is None


SOLIDS_OF_PG72 = (7, 3, 2, r"the 3-spaces of PG\(7,2\) have 3011805 point incidences, "
                            r"more than the limit 1000000")
LINES_OF_PG2_101 = (2, 1, 101, r"the masks of the 1-spaces of PG\(2,101\) may need 106151809 "
                               r"bits, more than the limit 100000000")

LIST_CALLS = {
    # a hypergraph that claims the level asks the gate before any list
    "edge_points": (*SOLIDS_OF_PG72, lambda space, path:
                    Hypergraph(space.num_points, (), (7, 3, 2)).edge_points()),
    # an export asks it before the space builds the level's masks
    "export": (*SOLIDS_OF_PG72, lambda space, path: cmd_space(build_parser().parse_args(
        ["space", "--n", "7", "--q", "2", "--k", "3", "--export-hypergraph", path]))),
    # a claim reads the masks, so it asks level_gate: the 3-spaces of PG(7,2)
    # pass it, the lines of PG(2,101), with 1050906 point incidences, do not
    "kspace_weights": (*LINES_OF_PG2_101, lambda space, path:
                       kspace_weights(WeightedPointSet(space, [1] * space.num_points), 1)),
    "minimal_reduction": (*LINES_OF_PG2_101, lambda space, path: minimal_reduction(
        WeightedPointSet(space, [1] * space.num_points), 1, 1)),
}


@pytest.mark.parametrize("n, k, q, message, call", LIST_CALLS.values(), ids=list(LIST_CALLS))
def test_a_level_past_the_incidence_limit_builds_no_mask(n, k, q, message, call, tmp_path):
    # the masks of the 3-spaces of PG(7,2) pass level_gate and take about a
    # second to build; the lists that a search or an export reads are
    # refused by counts.  A claim or minimal_reduction reads the masks and
    # is refused by level_gate alone
    assert count_subspaces(n, k, q) * theta(k, q) > 10**6
    space = ProjectiveSpace(n, field_for_order(q))
    geometry._SPACES.pop((n, q), None)
    path = str(tmp_path / "solids.json")
    start = time.perf_counter()
    with pytest.raises(GeometryError, match=message):
        call(space, path)
    assert time.perf_counter() - start < 0.1
    assert not space._levels and (n, q) not in geometry._SPACES
    assert not os.path.exists(path)


def test_a_space_builds_its_points_at_its_first_level():
    # PG(2,997) has 995,007 points: building them with the space took
    # 0.55 s and 162 MiB, though a refused level or weight list reads none
    geometry._SPACES.pop((2, 997), None)
    start = time.perf_counter()
    space = ProjectiveSpace.of_order(2, 997)
    assert time.perf_counter() - start < 0.05
    assert "points" not in vars(space) and "point_index" not in vars(space)
    assert space.num_points == 995007 and space.field.q == 997
    assert ProjectiveSpace.of_order(2, 997) is space
    small = ProjectiveSpace(2, field_for_order(3))
    assert "points" not in vars(small)
    small.subspaces(1)
    assert len(small.points) == len(small.point_index) == small.num_points == 13


@pytest.mark.parametrize("n, q, error, needle", [
    ([2], 3, GeometryError, "(n, m, q) = ([2], [2], 3) are not all integers"),
    ({}, 3, GeometryError, "(n, m, q) = ({}, {}, 3) are not all integers"),
    (2, {}, FieldError, "q = {} is not an int"),
    (2, [3], FieldError, "q = [3] is not an int"),
    (True, 3, GeometryError, "(n, m, q) = (True, True, 3) are not all integers"),
    (2, True, FieldError, "q = True is not an int"),
])
def test_of_order_gives_the_gates_refusal_for_any_other_n_or_q(n, q, error, needle):
    # a list or dict n or q raised "unhashable type" from the cache lookup
    spaces = dict(geometry._SPACES)
    with pytest.raises(error) as info:
        ProjectiveSpace.of_order(n, q)
    assert type(info.value) is error and str(info.value) == needle
    assert geometry._SPACES == spaces


def test_no_bool_reaches_a_space_or_level_cache():
    # True == 1 and hashes as 1, so a cache keyed by it answered for 1
    space = ProjectiveSpace.of_order(2, 3)
    space.hypergraph(1)
    with pytest.raises(GeometryError, match="not all integers"):
        ProjectiveSpace.of_order(True, 3)
    assert type(ProjectiveSpace.of_order(1, 3).n) is int
    with pytest.raises(GeometryError, match="is not an integer in"):
        space.hypergraph(True)
    with pytest.raises(GeometryError, match="not all integers"):
        ProjectiveSpace(2, field_for_order(3)).subspaces(True)
    # once level 1's records were cached, a lookup by True made a
    # hypergraph and cached it under True, with params (2, True, 3)
    cold = ProjectiveSpace(2, field_for_order(3))
    cold.subspaces(1)
    with pytest.raises(GeometryError, match="not all integers"):
        is_t_mod_p_set(WeightedPointSet(cold, [1] * cold.num_points), 1, True)
    for S in (space, cold):
        assert {type(m) for m in S._levels} == {int}


WARM_LEVEL_CALLS = {
    "is_t_mod_p_set(B, 1, True)": (True, lambda space, B: is_t_mod_p_set(B, 1, True)),
    "essential_points(B, 1, 1.0)": (1.0, lambda space, B: essential_points(B, 1, 1.0)),
    "minimal_reduction(B, 1, True)": (True, lambda space, B: minimal_reduction(B, 1, True)),
    "subspaces(1.0)": (1.0, lambda space, B: space.subspaces(1.0)),
    "kspace_weights(B, 1.0)": (1.0, lambda space, B: kspace_weights(B, 1.0)),
    "is_t_fold_blocking(B, 2, 1.0)": (1.0, lambda space, B: is_t_fold_blocking(B, 2, 1.0)),
}


@pytest.mark.parametrize("m, call", WARM_LEVEL_CALLS.values(), ids=list(WARM_LEVEL_CALLS))
def test_a_warm_level_refuses_what_a_cold_one_does(m, call):
    # True == 1 == 1.0 hash alike, so a lookup of any of them found level
    # 1 once it was built, where a cold space asks the gate
    for warm in (False, True):
        space = ProjectiveSpace(2, field_for_order(3))
        if warm:
            space.hypergraph(1)
        B = WeightedPointSet(space, [1] * space.num_points)
        with pytest.raises(GeometryError) as info:
            call(space, B)
        assert str(info.value) == gate_refusal(2, m, 3)
        assert [(key, type(key)) for key in space._levels] == ([(1, int)] if warm else [])


def test_level_builds_and_recheck_agree_with_the_gate(monkeypatch):
    # limits low enough that each rule refuses some level: PG(4,5) has 781
    # points, the points of PG(4,3) need 121^2 mask bits, and the lines of
    # PG(3,3) need 130 * 40 mask bits but have 520 point incidences
    monkeypatch.setattr(geometry, "DEFAULT_MAX_POINTS", 500)
    monkeypatch.setattr(geometry, "DEFAULT_MAX_MASK_BITS", 10**4)
    rules, refused = ("exceeds the limits", "may need", "point incidences"), set()
    lists_only = []
    for n, q in itertools.product(range(1, 5), (2, 3, 4, 5)):
        for m in range(n + 1):
            fault = gate_refusal(n, m, q)
            list_fault = gate_refusal(n, m, q, incidence_gate)
            # the list gate asks level_gate first
            assert fault is None or list_fault == fault
            refused.update(rule for rule in rules if list_fault and rule in list_fault)
            space = None
            try:
                space = ProjectiveSpace(n, field_for_order(q))
                count = len(space.subspaces(m))
            except GeometryError as exc:
                assert str(exc) == fault
                assert space is None or m not in space._levels
            else:
                assert fault is None and count == count_subspaces(n, m, q)
                level = space._levels[m][1]
                if list_fault is None:
                    assert len(level.edge_points()) == count
                else:
                    with pytest.raises(GeometryError) as info:
                        level.edge_points()
                    assert str(info.value) == list_fault
                    lists_only.append((n, m, q))
                assert set(vars(level)) <= {"geometry"}
            if 1 <= m <= n - 1:
                cert = make_certificate("transversal", {
                    "n": n, "k": m, "q": q, "t": 1, "points": list(range(theta(n, q)))})
                assert recheck(cert) == ((True, "t-transversal verified") if fault is None
                                         else (False, fault))
                # a claim reads the masks: refused by level_gate's counts,
                # with no level built, and answered past the list rule
                cert = make_certificate("blocking_set", {
                    "space": {"n": n, "q": q}, "weights": [1] * theta(n, q),
                    "claims": [{"type": "t_fold_blocking", "t": 1, "k": m}]})
                geometry._SPACES.clear()
                assert recheck(cert) == ((True, "all claims verified") if fault is None
                                         else (False, fault))
                # a space past the point rule is not kept, and a space kept
                # when its level is refused has no point and no level built
                if fault is not None and "exceeds the limits" in fault:
                    assert geometry._SPACES == {}
                elif fault is not None:
                    kept = geometry._SPACES[n, q]
                    assert "points" not in vars(kept) and kept._levels == {}
    # the point, mask-bit and list rules each refused a level, and a level
    # past the list rule alone had its masks built, and a transversal and a
    # claim rechecked
    assert refused == set(rules)
    assert (3, 1, 3) in lists_only
