import json

import pytest

from pgworkbench.certificates import (CertificateError, canonical_json,
                                      checksum, load_certificate,
                                      make_certificate, recheck,
                                      write_certificate)
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
    ok, detail = recheck(make_certificate("tmodp_report", rep.to_json()))
    assert ok, detail
    bad = rep.to_json()
    bad["sets"][0][0] = (bad["sets"][0][0] + 1) % 2
    ok, detail = recheck(make_certificate("tmodp_report", bad))
    assert not ok


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
