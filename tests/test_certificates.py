import itertools
import json
import math
import re
import time

import pytest

from pgworkbench.blocking import (COSET_LIMIT, BlockingError, WeightedPointSet, is_t_mod_p_set,
                                  plane_cosets, solve_mod_p)
from pgworkbench.certificates import (CertificateError, _incidence_fault,
                                      _verify_payload, canonical_json, checksum,
                                      coloring_certificate, load_certificate,
                                      make_certificate, recheck,
                                      tmodp_certificate, transversal_certificate,
                                      write_certificate)
from pgworkbench.coloring import trivial_coloring
from pgworkbench.fields import GF
from pgworkbench.geometry import Hypergraph, ProjectiveSpace, theta
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


@pytest.mark.parametrize("kind", ["transversal", "coloring", "blocking_set", "tmodp_report",
                                  "bounds"])
def test_write_certificate_writes_the_canonical_json(tmp_path, kind):
    # a made certificate is written from the payload text of its checksum;
    # once a field is set after making, the certificate is encoded again
    cert = make_certificate(kind, _valid_payload(kind))
    path = tmp_path / "cert.json"
    write_certificate(cert, str(path))
    assert path.read_text() == canonical_json(dict(cert))
    cert["payload"] = {**cert["payload"], "extra": 1}
    write_certificate(cert, str(path))
    assert path.read_text() == canonical_json(dict(cert))
    assert json.loads(path.read_text())["payload"]["extra"] == 1


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


@pytest.mark.parametrize("verified, detail", [
    (False, "all claims verified"),
    (True, "minimality claim mismatch"),
])
def test_recheck_reads_a_set_that_is_not_blocking_as_not_minimal(verified, detail):
    # two points of the Fano plane miss five lines; recheck used to refuse
    # the true claim with "verification error: not a 1-fold blocking set ..."
    payload = {"space": {"n": 2, "q": 2}, "weights": [1, 1, 0, 0, 0, 0, 0],
               "claims": [{"type": "minimal", "t": 1, "k": 1, "verified": verified}]}
    assert recheck(make_certificate("blocking_set", payload)) == (detail == "all claims verified",
                                                                  detail)


def _fano_coloring(trivial):
    # a proper 3-coloring of the Fano plane, which is not trivial
    res = exact_ucn(ProjectiveSpace.of_order(2, 2).hypergraph(1))
    return {"n": 2, "k": 1, "q": 2, "assignment": list(res.witness.assignment),
            "N": res.witness.N, "trivial": trivial}


@pytest.mark.parametrize("kind, payload, detail", [
    # "false" was read as a claim of triviality, 0 as false and 1.0 as true
    ("coloring", _fano_coloring("false"), "trivial 'false' is not a bool"),
    ("coloring", _fano_coloring(0), "trivial 0 is not a bool"),
    ("blocking_set", {"space": {"n": 2, "q": 2}, "weights": [1] * 7,
                      "claims": [{"type": "t_fold_blocking", "t": 1, "k": 1, "verified": 1.0}]},
     "verified 1.0 is not a bool"),
], ids=["trivial-string", "trivial-zero", "verified-float"])
def test_recheck_reads_claim_flags_as_bools(kind, payload, detail):
    assert recheck(make_certificate(kind, payload)) == (False, detail)


@pytest.mark.parametrize("trivial", [None, False])
def test_recheck_accepts_a_null_or_false_trivial_flag(trivial):
    assert recheck(make_certificate("coloring", _fano_coloring(trivial))) == \
        (True, "proper strict coloring verified")


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


def _no_build(self, *args):
    raise AssertionError("a field was built")


def test_recheck_refuses_a_tmodp_report_past_the_matrix_limit():
    # no report of PG(2,127) can exist; its lines are never enumerated
    data = dict(verify_tmodp_theorem(2, 1).to_json(), p=127, expected_size=128, sets=[],
                num_found=0, verified=False)
    start = time.perf_counter()
    ok, detail = recheck(make_certificate("tmodp_report", data))
    assert (ok, detail) == (False, "verification error: the 1-space/point incidence matrix of "
                                   "PG(2,127) has 264290049 entries, above the limit 100000")
    assert time.perf_counter() - start < 0.1


def test_recheck_refuses_a_tmodp_report_of_a_huge_plane_before_building_it(monkeypatch):
    # PG(2,997) has about 10^6 points and lines: only their counts are read
    data = dict(verify_tmodp_theorem(2, 1).to_json(), p=997, expected_size=998, sets=[],
                num_found=0, verified=False)
    monkeypatch.setattr(GF, "__init__", _no_build)
    start = time.perf_counter()
    ok, detail = recheck(make_certificate("tmodp_report", data))
    assert (ok, detail) == (False, "verification error: the 1-space/point incidence matrix of "
                                   "PG(2,997) has 990038930049 entries, above the limit 100000")
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


def _claim_a_non_union_verified(data):
    """List 90 of the 91 unions and one set of size 11, with no violations,
    as a verified report: only the size test against expected_size fails."""
    unions = [wt for wt in data["sets"] if sum(wt) == 8]
    other = next(wt for wt in data["sets"] if sum(wt) == 11)
    data.update(sets=unions[:90] + [other], num_found=91, violations=[], verified=True)


def _bump_last_set(data):
    wt = data["sets"][-1]
    wt[0] = (wt[0] + 1) % data["p"]


RECOMPUTED = " as recomputed from p, t and max_size"

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
    pytest.param((3, 2), lambda d: d.update(weight_cap=3), "weight_cap 3 is not 2" + RECOMPUTED,
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
                 "kernel_dim 99 is not 3" + RECOMPUTED, id="kernel-dim-out-of-range"),
    pytest.param((2, 1), lambda d: d.update(kernel_dim=10**100),
                 f"kernel_dim {10**100} is not 3" + RECOMPUTED, id="kernel-dim-huge"),
    pytest.param((2, 1), lambda d: d.update(num_solution_classes=7),
                 "num_solution_classes 7 is not 8" + RECOMPUTED, id="classes-not-a-power"),
    pytest.param((2, 1), lambda d: d.update(p=4),
                 "verification error: mod-p enumeration needs a prime field, not GF(4)",
                 id="p-not-prime"),
    pytest.param((3, 2), lambda d: d.update(exhaustive=False),
                 "exhaustive False is not True" + RECOMPUTED, id="exhaustive-flipped"),
    pytest.param((3, 2), lambda d: d.update(num_unions=90), "num_unions 90 is not 91" + RECOMPUTED,
                 id="num-unions-off"),
    pytest.param((3, 2), _claim_a_non_union_verified, "listed set has size 11 != 8",
                 id="verified-with-a-non-union"),
    pytest.param((3, 2), lambda d: d.update(expected_size=9),
                 "expected_size 9 is not 8" + RECOMPUTED, id="expected-size-off"),
    pytest.param((3, 2), lambda d: d.update(num_found=324), "num_found does not match",
                 id="num-found-off"),
    # the (3,2) report lists 234 violations, each a set of size 11
    pytest.param((3, 2), lambda d: d.update(violations=d["violations"][:1]),
                 "violations do not match", id="violations-dropped"),
    pytest.param((3, 2), lambda d: d.update(violations=[]), "violations do not match",
                 id="violations-emptied"),
    pytest.param((3, 2), lambda d: d["violations"][0].update(weights=[0] * 13),
                 "violations do not match", id="violation-zeroed"),
    # a report is about the lines of the plane: unions of points or of the
    # plane itself have another size than expected_size = t*theta(1)
    pytest.param((2, 1), lambda d: d.update(k=0), "k 0 is not 1" + RECOMPUTED,
                 id="point-unions"),
    pytest.param((2, 1), lambda d: d.update(k=2), "k 2 is not 1" + RECOMPUTED,
                 id="plane-unions"),
    # weight_cap is p - 1; below t, the union count and the size test
    # would not hold
    pytest.param((3, 2), lambda d: d.update(weight_cap=1), "weight_cap 1 is not 2" + RECOMPUTED,
                 id="t-above-weight-cap"),
    # a weight_cap below p - 1 with t still within it, and a t past the
    # hypothesis t <= 3p/8 + 1 with expected_size and num_unions to match:
    # each of these rechecked true until the frame fields were recomputed
    pytest.param((3, 1), lambda d: d.update(weight_cap=1), "weight_cap 1 is not 2" + RECOMPUTED,
                 id="weight-cap-below-p-1"),
    pytest.param((5, 2), lambda d: d.update(weight_cap=2), "weight_cap 2 is not 4" + RECOMPUTED,
                 id="weight-cap-at-t"),
    # 3p/8 + 1 = 23/8 at p = 5; the default max_size 21 holds the unions
    # of 3 lines, of size 18, and none of 4
    pytest.param((5, 2), lambda d: d.update(t=3, expected_size=18,
                                            num_unions=math.comb(31 + 2, 3)),
                 "verification error: hypothesis violated: t = 3 > 3p/8 + 1 = 23/8",
                 id="t-past-the-hypothesis"),
    pytest.param((5, 2), lambda d: d.update(t=4, expected_size=24, num_unions=0),
                 "verification error: hypothesis violated: t = 4 > 3p/8 + 1 = 23/8",
                 id="t-far-past-the-hypothesis"),
    # True == 1, and 6.5 compares with every size as 6 does: each of these
    # rechecked true until the verifier tested the type of every field
    pytest.param((2, 1), lambda d: d.update(t=True),
                 "verification error: t must be an int, not True", id="t-bool"),
    pytest.param((2, 1), lambda d: d.update(max_size=6.5),
                 "verification error: max_size must be an integer >= 0, not 6.5",
                 id="max-size-float"),
    pytest.param((2, 1), lambda d: d.update(num_found=7.0), "num_found 7.0 is not an int",
                 id="num-found-float"),
    pytest.param((2, 1), lambda d: d.update(verified=1), "verified 1 is not a bool",
                 id="verified-int"),
    pytest.param((3, 2), lambda d: d.update(exhaustive=1), "exhaustive 1 is not True" + RECOMPUTED,
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


def _retype_bounds_t(payload, t):
    """Set t in the payload and in its report; bounds_report refuses such
    a t, so only the type check of the payload stands between it and a
    recomputation."""
    payload["t"] = payload["report"]["t"] = t


# scalar fields: each of these rechecked true until every verifier tested
# the type of its ints; here `to` is the value itself
NON_INT_ENTRIES += [
    pytest.param("transversal", True, lambda d, to: d.update(n=to),
                 "verification error: n True is not an int", id="transversal-n-bool"),
    pytest.param("bounds", 2.5, _retype_bounds_t, "verification error: t 2.5 is not an int",
                 id="bounds-t-float"),
    pytest.param("bounds", True, _retype_bounds_t, "verification error: t True is not an int",
                 id="bounds-t-bool"),
    pytest.param("blocking_set", 0.5,
                 lambda d, to: d["claims"][0].update(type="t_fold_blocking", t=to),
                 "verification error: t 0.5 is not an int", id="blocking-claim-t-float"),
]


def _valid_payload(kind):
    if kind == "tmodp_report":
        return verify_tmodp_theorem(3, 2).to_json()
    if kind == "transversal":
        # PG(1,2), whose n = 1 a bool can stand for
        return {"n": 1, "k": 0, "q": 2, "t": 1, "points": [0, 1, 2], "objective": 3}
    if kind == "bounds":
        return {"n": 3, "k": 1, "q": 4, "t": 2, "report": bounds_report(3, 1, 4, 2).to_json()}
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
        "blocking_set": "all claims verified", "transversal": "t-transversal verified",
        "bounds": "bounds verified"}[kind])
    edit(payload, to)
    assert recheck(make_certificate(kind, payload)) == (False, needle)


@pytest.mark.parametrize("kind, edit, needle", [
    ("transversal", lambda d: d.update(objective=4),
     "objective does not match the witness size"),
    ("coloring", lambda d: d["assignment"].pop(), "coloring is not strict"),
    ("coloring", lambda d: d.update(N=d["N"] + 1), "N does not match the assignment"),
    ("blocking_set", lambda d: d["claims"][0].update(type="maximal"),
     "unknown claim type 'maximal'"),
], ids=["transversal-objective", "coloring-short", "coloring-N", "blocking-claim-type"])
def test_recheck_refuses_a_payload_at_odds_with_itself(kind, edit, needle):
    payload = _valid_payload(kind)
    assert recheck(make_certificate(kind, payload))[0]
    edit(payload)
    assert recheck(make_certificate(kind, payload)) == (False, needle)


@pytest.mark.parametrize("kind, edit", [
    ("transversal", lambda d: d.update(n=True)),
    ("coloring", lambda d: d.update(N=d["N"] + 1)),
    ("blocking_set", lambda d: d["claims"][0].update(type="maximal")),
    ("tmodp_report", lambda d: _retype_entry(d["sets"][0], float)),
    ("bounds", lambda d: _retype_bounds_t(d, 2.5)),
])
def test_verify_payload_is_recheck_past_the_checksum(kind, edit):
    # the grid runner verifies the certificate it has just made with
    # _verify_payload: on a valid and on a tampered payload of each kind it
    # must give recheck's verdict, also where a verifier raises
    payload = _valid_payload(kind)
    verdict = _verify_payload(kind, payload)
    assert verdict[0] and verdict == recheck(make_certificate(kind, payload))
    edit(payload)
    verdict = _verify_payload(kind, payload)
    assert not verdict[0] and verdict == recheck(make_certificate(kind, payload))


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
    kdim = len(solve_mod_p(rows, [1] * len(rows), p)[1])
    assert plane_cosets(p) == (kdim, p**kdim, p**kdim <= COSET_LIMIT)


def test_plane_kernel_dim_of_the_lines_of_pg2_17():
    # the elimination that test_recheck_reference makes, too slow to rerun here
    assert plane_cosets(17) == (153, 17**153, False)


@pytest.mark.parametrize("p, needle", [
    (4, "mod-p enumeration needs a prime field, not GF(4)"),
    (19, "the 1-space/point incidence matrix of PG(2,19) has 145161 entries"),
])
def test_plane_cosets_checks_the_matrix_first(p, needle):
    with pytest.raises(BlockingError, match=re.escape(needle)):
        plane_cosets(p)


def test_recheck_bounds():
    rep = bounds_report(3, 1, 17, 2)
    payload = {"n": 3, "k": 1, "q": 17, "t": 2, "report": rep.to_json()}
    ok, detail = recheck(make_certificate("bounds", payload))
    assert ok, detail
    bad = json.loads(canonical_json(payload))
    bad["report"]["trivial_lower"] += 1
    ok, detail = recheck(make_certificate("bounds", bad))
    assert not ok


@pytest.mark.parametrize("t", [0, -3])
def test_recheck_refuses_a_bounds_certificate_with_t_below_1(t):
    # its report, with threshold (t + 1/2)p^k - 1/2, rechecked true
    report = bounds_report(3, 1, 4, 2).to_json()
    report.update(t=t, blsetthm_threshold=f"{(2 * t + 1) * 2 - 1}/2")
    payload = {"n": 3, "k": 1, "q": 4, "t": t, "report": report}
    assert recheck(make_certificate("bounds", payload)) == (
        False, f"verification error: t must be an int >= 1, not {t}")


@pytest.mark.parametrize("n, k, q, needle", [
    # 192 bytes that cost 0.81 s of trial division
    (2, 1, 100000000000031, "exceeds the limit 65536"),
    # its report had trivial_lower -714, and rechecked true
    (2, 5, 3, "k = 5 is not an integer in [1, n - 1]"),
    # under 200 bytes, and its theta(n, q) kept recheck busy past 5 s
    (10**9, 1, 4, "n = 1000000000 exceeds the limit 19"),
])
def test_recheck_bounds_refuses_parameters_out_of_range(n, k, q, needle):
    payload = {"n": n, "k": k, "q": q, "t": 2, "report": {}}
    start = time.perf_counter()
    ok, detail = recheck(make_certificate("bounds", payload))
    assert time.perf_counter() - start < 0.05
    assert not ok and needle in detail


@pytest.mark.parametrize("kind, payload, needle", [
    # 184 bytes that cost 1.9 s and 59 MiB: every line of PG(2,127) was
    # built before the one point was found to miss most of them
    ("transversal", {"n": 2, "k": 1, "q": 127, "t": 1, "points": [0], "objective": 1},
     "the 1-spaces of PG(2,127) have 2080896 point incidences, more than the limit"),
    ("coloring", {"n": 2, "k": 1, "q": 127, "assignment": [0, 1], "N": 2},
     "the 1-spaces of PG(2,127) have 2080896 point incidences, more than the limit"),
    ("transversal", {"n": 2, "k": 1, "q": 65521, "t": 1, "points": [0]},
     "PG(2,65521) exceeds the limits"),
    ("coloring", {"n": 10**9, "k": 1, "q": 2, "assignment": [0], "N": 1},
     "PG(1000000000,2) exceeds the limits"),
    # 242 bytes that cost 1.7 s: GF(65536) was built before the point limit
    ("blocking_set", {"space": {"n": 2, "q": 65536}, "weights": [1],
                      "claims": [{"type": "t_fold_blocking", "t": 1, "k": 1}]},
     "PG(2,65536) exceeds the limits"),
    # 134 KB that cost 8.9 s and 777 MiB, and rechecked true
    ("blocking_set", {"space": {"n": 2, "q": 211}, "weights": [1] * theta(2, 211),
                      "claims": [{"type": "t_fold_blocking", "t": 1, "k": 1}]},
     "the 1-spaces of PG(2,211) have 9483396 point incidences, more than the limit"),
    # 60 bytes that cost 12 s and 4 GiB: 249,501 incidences, but each
    # point's mask has as many bits as its index
    ("transversal", {"n": 2, "k": 0, "q": 499, "t": 1, "points": [0]},
     "the masks of the 0-spaces of PG(2,499) may need 62250749001 bits, more than the limit"),
    # a field past the point limit, whatever level is named
    ("coloring", {"n": 2, "k": 3, "q": 65536, "assignment": [0], "N": 1},
     "PG(2,65536) exceeds the limits"),
])
def test_recheck_refuses_a_huge_space_before_any_build(kind, payload, needle):
    cert = make_certificate(kind, payload)
    start = time.perf_counter()
    ok, detail = recheck(cert)
    assert time.perf_counter() - start < 0.1
    assert not ok and detail.startswith(needle)


def test_incidence_limit_sits_between_the_largest_corpus_space_and_pg2_127():
    # PG(4,3) solids (4,840) are the largest that the tests and the
    # benchmark corpus recheck; PG(2,97) lines (931,686) still pass
    assert _incidence_fault(4, 3, 3) is None and _incidence_fault(2, 1, 97) is None
    assert _incidence_fault(2, 1, 101) is not None
    # parameters out of range are left to the build, which names them
    assert _incidence_fault(2, 3, 2) is None and _incidence_fault(2, 1, 1) is None
    # the masks of the points of PG(2,97) may need 9507^2, about 90 million
    # bits, and those of PG(2,101) more than 10^8
    assert _incidence_fault(2, 0, 97) is None and _incidence_fault(2, 0, 101) is not None


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
    """A non-exhaustive 7 (mod 17) report listing `sets`, with the
    violations that their sizes give."""
    data = verify_tmodp_theorem(17, 7, 16 * 307).to_json()
    data.update(sets=sets, num_found=len(sets),
                violations=[{"weights": wt, "reason": f"size {sum(wt)} != 126"}
                            for wt in sets])
    return data


def test_recheck_reduces_byte_lanes_within_a_line():
    # c everywhere plus 24 - c lines is a 7 (mod 17) set: a line weighs
    # 18c + 24 - c, and 17 more if it is one of them.  The lines are taken
    # greedily, from line `first` on, so that no weight passes 16.  At
    # c = 14 a line weighs up to 279, past one byte, so recheck must reduce
    # the lanes mod 17 part way along each line of 18 points
    space = ProjectiveSpace.of_order(2, 17)
    lines = space.incidence(1)
    sets = []
    for c, first in [(13, 0), (12, 0), (11, 0), (14, 306)]:
        wt, members = [c] * space.num_points, 0
        for j in itertools.chain(range(first, len(lines)), range(first)):
            if members < 24 - c and all(wt[i] < 16 for i in lines[j]):
                members += 1
                for i in lines[j]:
                    wt[i] += 1
        sets.append(wt)
    assert [sum(wt) for wt in sets] == [4189, 3900, 3611, 4478]
    assert max(map(max, sets)) == 16
    assert max(sum(wt[i] for i in pts) for wt in sets for pts in lines) == 279
    assert all(is_t_mod_p_set(WeightedPointSet(space, wt), 7, 1)[0] for wt in sets)
    assert recheck(make_certificate("tmodp_report", heavy_report(sets))) == \
        (True, "report sets verified")
    # (set, point, weight) edits; the last set is the top lane, and of two
    # sets that fail on the same lines the first is named
    for edits, detail in [
        ([(3, 5, 13)], "listed set of size 4475 is not a 7 (mod 17) set"),
        ([(0, 0, 16)], "listed set of size 4190 is not a 7 (mod 17) set"),
        ([(2, 0, 12), (0, 0, 16)], "listed set of size 4190 is not a 7 (mod 17) set"),
        ([(2, 306, 300)], "listed set has a point of weight 300 > weight_cap 16"),
        ([(1, 7, -1)], "verification error: weights must be nonnegative"),
    ]:
        edited = [list(wt) for wt in sets]
        for j, i, w in edits:
            edited[j][i] = w
        data = heavy_report(sets)
        data["sets"] = edited
        assert recheck(make_certificate("tmodp_report", data)) == (False, detail)
