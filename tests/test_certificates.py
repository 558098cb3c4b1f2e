import json
import time

import pytest

from pgworkbench.certificates import (CertificateError, canonical_json,
                                      checksum, load_certificate,
                                      make_certificate, recheck,
                                      tmodp_certificate, write_certificate)
from pgworkbench.geometry import ProjectiveSpace
from pgworkbench.solvers import bounds_report, exact_tau, exact_ucn, verify_tmodp_theorem


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json(json.loads(a))
    assert a == b == '{"a":[2,3],"b":1}'


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


def _raise_by_p(data, points):
    """Raise the weight of the given points of the first listed set by p:
    every line weight changes by a multiple of p."""
    for i in points:
        data["sets"][0][i] += data["p"]


def _list_first_twice(data):
    data["sets"].append(list(data["sets"][0]))
    data["num_found"] += 1


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
    pytest.param((3, 2), lambda d: d.update(exhaustive=False), "exhaustive does not match",
                 id="exhaustive-flipped"),
    pytest.param((3, 2), lambda d: d.update(num_unions=90), "recount of the unions",
                 id="num-unions-off"),
]


@pytest.mark.parametrize("pt, tamper, needle", TAMPERED_TMODP_REPORTS)
def test_recheck_tmodp_report_rejects_inconsistent_lists(pt, tamper, needle):
    data = verify_tmodp_theorem(*pt).to_json()
    assert recheck(make_certificate("tmodp_report", data))[0]
    tamper(data)
    ok, detail = recheck(make_certificate("tmodp_report", data))
    assert not ok and needle in detail


def test_recheck_bounds():
    rep = bounds_report(3, 1, 17, 2)
    payload = {"n": 3, "k": 1, "q": 17, "t": 2, "report": rep.to_json()}
    ok, detail = recheck(make_certificate("bounds", payload))
    assert ok, detail
    bad = json.loads(canonical_json(payload))
    bad["report"]["trivial_lower"] += 1
    ok, detail = recheck(make_certificate("bounds", bad))
    assert not ok


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
