import itertools
import json
import math
import time

import pytest

from pgworkbench.blocking import WeightedPointSet, is_t_mod_p_set, solve_mod_p
from pgworkbench.certificates import (CertificateError, _plane_kernel_dim, canonical_json,
                                      checksum, coloring_certificate, load_certificate,
                                      make_certificate, recheck,
                                      tmodp_certificate, transversal_certificate,
                                      write_certificate)
from pgworkbench.coloring import trivial_coloring
from pgworkbench.geometry import Hypergraph, ProjectiveSpace
from pgworkbench.solvers import bounds_report, exact_tau, exact_ucn, verify_tmodp_theorem


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json(json.loads(a))
    assert a == b == '{"a":[2,3],"b":1}'


def test_canonical_json_is_the_bytes_of_json_dumps():
    # the shared encoder skips only the circular-reference check
    for payload in [verify_tmodp_theorem(3, 2).to_json(), bounds_report(3, 1, 4, 2).to_json(),
                    {"\u00e9": [1.5, None, True, -0.0], "a": {"z": "\u2603\n", "b": [[]]}}]:
        assert canonical_json(payload) == json.dumps(payload, sort_keys=True,
                                                     separators=(",", ":"))


def test_make_certificate_and_roundtrip(tmp_path):
    payload = {"n": 2, "k": 1, "q": 2, "t": 2, "points": [0, 1, 2, 3, 4, 5],
               "objective": 6}
    cert = make_certificate("transversal", payload)
    assert cert["schema_version"] == 1
    assert cert["checksum"] == checksum(payload)
    path = tmp_path / "cert.json"
    write_certificate(cert, str(path))
    loaded = load_certificate(str(path))
    assert loaded == cert
    # writing the loaded certificate again is byte identical
    path2 = tmp_path / "cert2.json"
    write_certificate(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_make_certificate_rejects_unknown_kind():
    with pytest.raises(CertificateError):
        make_certificate("mystery", {})


def test_certificates_refuse_a_hypergraph_not_matching_its_params():
    # one edge on points 2 and 3 is not the lines of PG(2,2): a certificate
    # naming PG(2,2) with the witness [2] or [3] would fail its recheck
    H = Hypergraph(7, (0b1100,), (2, 1, 2))
    with pytest.raises(CertificateError, match="edges are not the k-spaces"):
        transversal_certificate(H, 1, exact_tau(H, 1))
    with pytest.raises(CertificateError, match="edges are not the k-spaces"):
        coloring_certificate(H, exact_ucn(H).witness)


def test_recheck_transversal():
    res = exact_tau(ProjectiveSpace.of_order(2, 2).hypergraph(1), 2)
    payload = {"n": 2, "k": 1, "q": 2, "t": 2,
               "points": list(res.witness), "objective": res.objective}
    cert = make_certificate("transversal", payload)
    ok, detail = recheck(cert)
    assert ok, detail

    tampered = json.loads(canonical_json(cert))
    tampered["payload"]["points"][0] = (tampered["payload"]["points"][0] + 1) % 7
    ok, detail = recheck(tampered)
    assert not ok and "checksum" in detail

    # a consistent checksum over a false claim is still rejected
    bad_payload = dict(payload, points=payload["points"][:-1],
                       objective=res.objective - 1)
    ok, detail = recheck(make_certificate("transversal", bad_payload))
    assert not ok


def test_recheck_coloring():
    H = ProjectiveSpace.of_order(2, 2).hypergraph(1)
    res = exact_ucn(H)
    payload = {"n": 2, "k": 1, "q": 2,
               "assignment": list(res.witness.assignment),
               "N": res.witness.N, "trivial": False}
    ok, detail = recheck(make_certificate("coloring", payload))
    assert ok, detail
    # rainbow assignment fails
    bad = dict(payload, assignment=list(range(1, 8)), N=7)
    ok, detail = recheck(make_certificate("coloring", bad))
    assert not ok and "rainbow" in detail
    # a falsely-claimed trivial coloring fails
    bad = dict(payload, trivial=True)
    ok, detail = recheck(make_certificate("coloring", bad))
    assert not ok


def test_recheck_coloring_refuses_a_trivial_coloring_claimed_not_trivial():
    # until the flag was compared either way, a false "trivial": false
    # rechecked (True, 'proper strict coloring verified')
    H = ProjectiveSpace.of_order(2, 3).hypergraph(1)
    coloring = trivial_coloring(exact_tau(H, 2).witness, H)
    cert = coloring_certificate(H, coloring)
    assert cert["payload"]["trivial"] and recheck(cert) == (True, "proper strict coloring verified")
    payload = dict(cert["payload"], trivial=False)
    assert recheck(make_certificate("coloring", payload)) == \
        (False, "claimed not trivial but a class contains a 2-transversal")


def test_recheck_blocking_set():
    space = ProjectiveSpace.of_order(2, 3)
    from pgworkbench.blocking import construct_union
    lines = space.subspaces(1)
    B = construct_union(space, [(lines[0], 1), (lines[1], 1)])
    claims = [{"type": "t_fold_blocking", "t": 2, "k": 1, "verified": True},
              {"type": "t_mod_p", "t": 2, "k": 1, "verified": True},
              {"type": "minimal", "t": 2, "k": 1, "verified": True}]
    payload = {"space": {"n": 2, "q": 3}, "weights": list(B.weights),
               "claims": claims}
    ok, detail = recheck(make_certificate("blocking_set", payload))
    assert ok, detail
    bad = json.loads(canonical_json(payload))
    bad["claims"][0]["t"] = 3
    ok, detail = recheck(make_certificate("blocking_set", bad))
    assert not ok


def test_recheck_tmodp_report():
    rep = verify_tmodp_theorem(2, 1)
    ok, detail = recheck(tmodp_certificate(rep))
    assert ok, detail
    bad = rep.to_json()
    bad["sets"][0][0] = (bad["sets"][0][0] + 1) % 2
    ok, detail = recheck(make_certificate("tmodp_report", bad))
    assert not ok


@pytest.mark.parametrize("extra", [999, 7, -3, "x", 1.0, True, 0])
def test_recheck_transversal_rejects_bad_point(extra):
    # the tau_2 witness of PG(2,2) with one more listed entry: not a point
    # index, or (0) a point listed twice
    res = exact_tau(ProjectiveSpace.of_order(2, 2).hypergraph(1), 2)
    points = list(res.witness) + [extra]
    payload = {"n": 2, "k": 1, "q": 2, "t": 2, "points": points,
               "objective": len(set(points))}
    ok, detail = recheck(make_certificate("transversal", payload))
    assert not ok
    assert ("listed twice" if extra == 0 else "not a point index") in detail


@pytest.mark.parametrize("p, t", [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 2)])
def test_recheck_accepts_every_tmodp_report(p, t):
    # exhaustive ones at p <= 3, past the coset limit from p = 5
    ok, detail = recheck(tmodp_certificate(verify_tmodp_theorem(p, t)))
    assert ok, detail


def test_recheck_refuses_a_tmodp_report_past_the_matrix_limit():
    # no report of PG(2,127) can exist; its lines are never enumerated
    data = dict(verify_tmodp_theorem(2, 1).to_json(), p=127, expected_size=128, sets=[],
                num_found=0, verified=False)
    start = time.perf_counter()
    ok, detail = recheck(make_certificate("tmodp_report", data))
    assert not ok and "refuses this plane" in detail
    assert time.perf_counter() - start < 0.1


def test_recheck_refuses_a_tmodp_report_of_a_huge_plane_before_building_it():
    # PG(2,997) has about 10^6 points and lines: only their counts are read
    data = dict(verify_tmodp_theorem(2, 1).to_json(), p=997, expected_size=998, sets=[],
                num_found=0, verified=False)
    start = time.perf_counter()
    ok, detail = recheck(make_certificate("tmodp_report", data))
    assert not ok and "refuses this plane" in detail
    assert time.perf_counter() - start < 0.1


def _raise_by_p(data, points):
    """Raise the weight of the given points of the first listed set by p:
    every line weight changes by a multiple of p."""
    for i in points:
        data["sets"][0][i] += data["p"]


def _list_first_twice(data):
    data["sets"].append(list(data["sets"][0]))
    data["num_found"] += 1


def _non_union(data):
    """The first listed set of the (3,2) report that is not a line union:
    the 91 unions have size 8, the other 234 sets size 11."""
    return next(wt for wt in data["sets"] if sum(wt) == 11)


def _negate_a_zero(wt):
    wt[wt.index(0)] = -1


def _fails_through_one_point(data):
    """List one set that is 1 (mod 2) on every line but the three through
    one point: no set fails on the last line alone, since the transposed
    incidence has a nonzero kernel mod 2.  The point is the one whose first
    line comes latest in canonical order, so the scan meets the fault only
    that late; the set is the first line plus that point, of size 4."""
    lines = ProjectiveSpace.of_order(2, 2).incidence(1)
    point = max(range(7), key=lambda i: next(j for j, pts in enumerate(lines) if i in pts))
    wt = [int(i in lines[0] or i == point) for i in range(7)]
    data.update(sets=[wt], num_found=1, verified=False, violations=[])


def _bump_last_set(data):
    wt = data["sets"][-1]
    wt[0] = (wt[0] + 1) % data["p"]


# (p, t), a tampering of the report, and the expected rejection; the first
# set of the (3,2) report has size 8 and weight 2 at point 3
TAMPERED_TMODP_REPORTS = [
    # size 47 and weight 5, against max_size 13 and weight_cap 2
    pytest.param((3, 2), lambda d: _raise_by_p(d, range(13)), "weight 5 > weight_cap 2",
                 id="raised-everywhere"),
    # size 11, within max_size, but weight 5 above weight_cap 2
    pytest.param((3, 2), lambda d: _raise_by_p(d, [3]), "weight 5 > weight_cap 2",
                 id="above-weight-cap"),
    # the 234 sets of size 11 lie above a lowered max_size
    pytest.param((3, 2), lambda d: d.update(max_size=10), "size 11 > max_size 10",
                 id="above-max-size"),
    pytest.param((3, 2), lambda d: d.update(weight_cap=3), "above p - 1",
                 id="weight-cap-above-p-1"),
    pytest.param((3, 2), _list_first_twice, "listed twice", id="repeated-set"),
    pytest.param((2, 1), lambda d: d.update(violations=[{"weights": d["sets"][0],
                                                         "reason": "made up"}]),
                 "violations are listed", id="verified-with-violations"),
    # (5, 2) has 5^15 cosets, none searched
    pytest.param((5, 2), lambda d: d.update(verified=True), "without an exhaustive search",
                 id="verified-not-exhaustive"),
    pytest.param((2, 1), lambda d: d.update(sets=d["sets"][1:], num_found=6),
                 "without an exhaustive search finding every union", id="verified-set-dropped"),
    pytest.param((2, 1), lambda d: d.update(kernel_dim=99, num_solution_classes=5),
                 "kernel_dim 99 is not an int in [0, 7]", id="kernel-dim-out-of-range"),
    pytest.param((2, 1), lambda d: d.update(kernel_dim=10**100),
                 "is not an int in [0, 7]", id="kernel-dim-huge"),
    pytest.param((2, 1), lambda d: d.update(num_solution_classes=7),
                 "not p^kernel_dim", id="classes-not-a-power"),
    pytest.param((2, 1), lambda d: d.update(p=4), "p = 4 is not prime", id="p-not-prime"),
    pytest.param((3, 2), lambda d: d.update(exhaustive=False), "exhaustive does not match",
                 id="exhaustive-flipped"),
    pytest.param((3, 2), lambda d: d.update(num_unions=90), "count of the unions",
                 id="num-unions-off"),
    # the (3,2) report lists 234 violations, each a set of size 11
    pytest.param((3, 2), lambda d: d.update(violations=d["violations"][:1]),
                 "violations do not match", id="violations-dropped"),
    pytest.param((3, 2), lambda d: d.update(violations=[]), "violations do not match",
                 id="violations-emptied"),
    pytest.param((3, 2), lambda d: d["violations"][0].update(weights=[0] * 13),
                 "violations do not match", id="violation-zeroed"),
    # a report is about the lines of the plane: unions of points or of the
    # plane itself have another size than expected_size = t*theta(1)
    pytest.param((2, 1), lambda d: d.update(k=0), "k = 0: a report is about the lines",
                 id="point-unions"),
    pytest.param((2, 1), lambda d: d.update(k=2), "k = 2: a report is about the lines",
                 id="plane-unions"),
    # the union count and the size test need t <= weight_cap
    pytest.param((3, 2), lambda d: d.update(weight_cap=1), "t = 2 is above weight_cap 1",
                 id="t-above-weight-cap"),
    # True == 1, and 6.5 compares with every size as 6 does: each of these
    # rechecked true until the verifier tested the type of every field
    pytest.param((2, 1), lambda d: d.update(t=True), "t True is not an int", id="t-bool"),
    pytest.param((2, 1), lambda d: d.update(max_size=6.5), "max_size 6.5 is not an int",
                 id="max-size-float"),
    pytest.param((2, 1), lambda d: d.update(num_found=7.0), "num_found 7.0 is not an int",
                 id="num-found-float"),
    pytest.param((2, 1), lambda d: d.update(verified=1), "verified 1 is not a bool",
                 id="verified-int"),
    pytest.param((3, 2), lambda d: d.update(exhaustive=1), "exhaustive 1 is not a bool",
                 id="exhaustive-int"),
    pytest.param((2, 1), _fails_through_one_point, "listed set of size 4 is not a 1 (mod 2) set",
                 id="fails-on-the-last-k-space"),
    pytest.param((3, 2), _bump_last_set, "is not a 2 (mod 3) set", id="last-set-off-by-one"),
    pytest.param((3, 2), lambda d: _non_union(d).pop(),
                 "weight array length does not match the point count", id="set-one-weight-short"),
    pytest.param((3, 2), lambda d: _negate_a_zero(_non_union(d)), "weights must be nonnegative",
                 id="negative-weight"),
]


@pytest.mark.parametrize("pt, tamper, needle", TAMPERED_TMODP_REPORTS)
def test_recheck_tmodp_report_rejects_inconsistent_lists(pt, tamper, needle):
    data = verify_tmodp_theorem(*pt).to_json()
    assert recheck(make_certificate("tmodp_report", data))[0]
    tamper(data)
    ok, detail = recheck(make_certificate("tmodp_report", data))
    assert not ok and needle in detail


def _retype_entry(entries, to):
    """Replace the first 0 or 1 of a weight list by the same value as `to`."""
    i = next(i for i, w in enumerate(entries) if w in (0, 1))
    entries[i] = to(entries[i])


# a float or bool equals the int it stands for, so these rechecked true
# until the verifiers tested the type of every entry
NON_INT_ENTRIES = [
    pytest.param(kind, to, edit, needle, id=f"{name}-{to.__name__}")
    for name, kind, edit, needle in [
        ("report-set", "tmodp_report", lambda d, to: _retype_entry(d["sets"][0], to),
         "a listed set has a weight that is not an int"),
        ("report-violation", "tmodp_report",
         lambda d, to: _retype_entry(d["violations"][0]["weights"], to),
         "a violation has a weight that is not an int"),
        ("blocking-weight", "blocking_set", lambda d, to: _retype_entry(d["weights"], to),
         "a weight is not an int"),
        ("color", "coloring", lambda d, to: _retype_entry(d["assignment"], to),
         "a color is not an int"),
    ]
    for to in (float, bool)]


def _valid_payload(kind):
    if kind == "tmodp_report":
        return verify_tmodp_theorem(3, 2).to_json()
    space = ProjectiveSpace.of_order(2, 3)
    if kind == "coloring":
        res = exact_ucn(space.hypergraph(1))
        return {"n": 2, "k": 1, "q": 3, "assignment": list(res.witness.assignment),
                "N": res.witness.N}
    from pgworkbench.blocking import construct_union
    lines = space.subspaces(1)
    B = construct_union(space, [(lines[0], 1), (lines[1], 1)])
    return {"space": {"n": 2, "q": 3}, "weights": list(B.weights),
            "claims": [{"type": "t_mod_p", "t": 2, "k": 1, "verified": True}]}


@pytest.mark.parametrize("kind, to, edit, needle", NON_INT_ENTRIES)
def test_recheck_refuses_non_int_entries(kind, to, edit, needle):
    payload = _valid_payload(kind)
    assert recheck(make_certificate(kind, payload)) == (True, {
        "tmodp_report": "report sets verified", "coloring": "proper strict coloring verified",
        "blocking_set": "all claims verified"}[kind])
    edit(payload, to)
    assert recheck(make_certificate(kind, payload)) == (False, needle)


@pytest.mark.parametrize("n, k, q, t, points, detail", [
    (2, 0, 2, 1, list(range(7)), None),
    (2, 0, 2, 1, list(range(6)), "a 0-space meets the set in only 0 < 1 points"),
    (2, 2, 2, 3, [0, 1, 5], None),
    (2, 2, 2, 4, [0, 1, 5], "a 2-space meets the set in only 3 < 4 points"),
    (3, 3, 2, 2, [0, 14], None),
    (2, 3, 2, 1, [0], "verification error: m = 3 out of range for PG(2,2)"),
])
def test_recheck_transversal_for_points_and_the_whole_space(n, k, q, t, points, detail):
    # k = 0 and k = n: the levels that incidence accepts beyond the hyperedges
    ok, got = recheck(make_certificate("transversal", {"n": n, "k": k, "q": q, "t": t,
                                                       "points": points,
                                                       "objective": len(points)}))
    assert (ok, got) == ((True, "t-transversal verified") if detail is None else (False, detail))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_plane_kernel_dim_matches_elimination(p):
    # the 307 lines of PG(2,17) take about 2.7 s to eliminate; the p = 17
    # reports of test_recheck_reference compare with that elimination once
    space = ProjectiveSpace.of_order(2, p)
    rows = [[S.mask >> i & 1 for i in range(space.num_points)] for S in space.subspaces(1)]
    assert _plane_kernel_dim(p) == len(solve_mod_p(rows, [1] * len(rows), p)[1])


def test_plane_kernel_dim_of_the_lines_of_pg2_17():
    # the elimination that test_recheck_reference makes, too slow to rerun here
    assert _plane_kernel_dim(17) == 153


def test_recheck_bounds():
    rep = bounds_report(3, 1, 17, 2)
    payload = {"n": 3, "k": 1, "q": 17, "t": 2, "report": rep.to_json()}
    ok, detail = recheck(make_certificate("bounds", payload))
    assert ok, detail
    bad = json.loads(canonical_json(payload))
    bad["report"]["trivial_lower"] += 1
    ok, detail = recheck(make_certificate("bounds", bad))
    assert not ok


@pytest.mark.parametrize("n, k, q, needle", [
    # 192 bytes that cost 0.81 s of trial division
    (2, 1, 100000000000031, "exceeds the limit 65536"),
    # its report had trivial_lower -714, and rechecked true
    (2, 5, 3, "k = 5 is not an integer in [1, n - 1]"),
])
def test_recheck_bounds_refuses_parameters_out_of_range(n, k, q, needle):
    payload = {"n": n, "k": k, "q": q, "t": 2, "report": {}}
    start = time.perf_counter()
    ok, detail = recheck(make_certificate("bounds", payload))
    assert time.perf_counter() - start < 0.05
    assert not ok and needle in detail


def test_recheck_malformed():
    ok, detail = recheck({"kind": "bounds"})
    assert not ok and "malformed" in detail
    ok, detail = recheck({"schema_version": 1, "kind": "mystery",
                          "payload": {}, "checksum": checksum({})})
    assert not ok and "unknown" in detail


TYPE_MUTATED_TRANSVERSALS = [
    {"n": "2", "k": 1, "q": 2, "t": 2, "points": [0, 1, 2, 3, 4, 5], "objective": 6},
    {"n": 2, "k": 1, "q": 2, "t": 2, "points": None, "objective": 6},
    {"n": 2, "k": 1, "q": 2, "t": None, "points": [0, 1, 2, 3, 4, 5], "objective": 6},
]


@pytest.mark.parametrize("payload", TYPE_MUTATED_TRANSVERSALS)
def test_recheck_type_mutated_payload(payload):
    ok, detail = recheck(make_certificate("transversal", payload))
    assert not ok and detail.startswith("verification error:")


def test_recheck_rejects_non_object_and_unhashable_kind():
    assert recheck([1, 2]) == (False, "malformed certificate: not a JSON object")
    ok, detail = recheck({"schema_version": 1, "kind": ["transversal"],
                          "payload": {}, "checksum": checksum({})})
    assert not ok and "unknown" in detail


def _holds_itself():
    payload = {"n": 2}
    payload["self"] = payload
    return payload


@pytest.mark.parametrize("payload, needle", [
    ({1, 2}, "Object of type set is not JSON serializable"),
    ({1: "a", "b": 2}, "'<' not supported"),
    (_holds_itself(), "maximum recursion depth exceeded"),
], ids=["set", "mixed-keys", "holds-itself"])
def test_recheck_refuses_a_payload_that_is_not_json(payload, needle):
    # the checksum cannot encode these; recheck answers instead of raising
    ok, detail = recheck({"schema_version": 1, "kind": "bounds", "payload": payload,
                          "checksum": "0" * 64})
    assert not ok and detail.startswith("malformed certificate: ") and needle in detail


def heavy_report(sets):
    """A non-exhaustive 16 (mod 17) report listing `sets`, with the
    violations that their sizes give."""
    data = verify_tmodp_theorem(17, 1).to_json()
    data.update(t=16, expected_size=16 * 18, max_size=16 * 307,
                num_unions=math.comb(307 + 15, 16), sets=sets, num_found=len(sets),
                violations=[{"weights": wt, "reason": f"size {sum(wt)} != 288"}
                            for wt in sets])
    return data


def test_recheck_reduces_byte_lanes_within_a_line():
    # c everywhere plus 16 - c lines is a 16 (mod 17) set; at c = 16 every
    # line weighs 18 * 16 = 288, past one byte, so recheck must reduce the
    # lanes mod 17 part way along each line of 18 points
    space = ProjectiveSpace.of_order(2, 17)
    lines = space.incidence(1)
    sets = []
    for c, members in [(16, []), (15, [0]), (14, [3, 200]), (15, [306])]:
        wt = [c] * space.num_points
        for i in itertools.chain.from_iterable(lines[j] for j in members):
            wt[i] += 1
        sets.append(wt)
    assert max(map(max, sets)) == 16
    assert all(is_t_mod_p_set(WeightedPointSet(space, wt), 16, 1)[0] for wt in sets)
    assert recheck(make_certificate("tmodp_report", heavy_report(sets))) == \
        (True, "report sets verified")
    # (set, point, weight) edits; the last set is the top lane, and of two
    # sets that fail on the same lines the first is named
    for edits, detail in [
        ([(3, 5, 13)], "listed set of size 4621 is not a 16 (mod 17) set"),
        ([(0, 0, 15)], "listed set of size 4911 is not a 16 (mod 17) set"),
        ([(2, 0, 13), (0, 0, 15)], "listed set of size 4911 is not a 16 (mod 17) set"),
        ([(2, 306, 300)], "listed set has a point of weight 300 > weight_cap 16"),
        ([(1, 7, -1)], "verification error: weights must be nonnegative"),
    ]:
        edited = [list(wt) for wt in sets]
        for j, i, w in edits:
            edited[j][i] = w
        data = heavy_report(sets)
        data["sets"] = edited
        assert recheck(make_certificate("tmodp_report", data)) == (False, detail)
