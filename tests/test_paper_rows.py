"""The paper's smallest cases of the sharp trivial bound (flag `ucnthm`):
the planes of PG(3,17) and PG(3,19), H(3,2,q), whose upper chromatic
number is theta_3 - tau_2 + 1, 5185 and 7201.  Both levels are built as
masks only, and their transversal and trivial-coloring certificates
recheck through the ordinary verifiers, which read the masks alone, as
the blocking-set claims and minimal_reduction do."""

import json

import pytest

from pgworkbench import geometry, solvers
from pgworkbench.blocking import (WeightedPointSet, construct_union, is_t_fold_blocking,
                                  kspace_weights, minimal_reduction)
from pgworkbench.certificates import (checksum, coloring_certificate, recheck,
                                      transversal_certificate)
from pgworkbench.cli import main
from pgworkbench.coloring import trivial_coloring
from pgworkbench.experiments import ExperimentConfig, run_experiments
from pgworkbench.geometry import GeometryError, Hypergraph, ProjectiveSpace, theta
from pgworkbench.solvers import OPTIMAL, bounds_report, exact_tau, exact_ucn


@pytest.mark.parametrize("q, tau, N", [(17, 36, 5185), (19, 40, 7201)])
def test_the_trivial_bound_is_witnessed_on_the_planes_of_pg3(monkeypatch, q, tau, N):
    report = bounds_report(3, 1, q, 2)
    assert report.flags["ucnthm"] and report.trivial_lower == N == theta(3, q) - tau + 1
    H = ProjectiveSpace.of_order(3, q).hypergraph(2)
    res = exact_tau(H, 2)
    assert (res.objective, res.status, res.nodes) == (tau, OPTIMAL, 0)
    coloring = trivial_coloring(res.witness, H)
    assert coloring.N == N
    certs = [transversal_certificate(H, 2, res), coloring_certificate(H, coloring)]
    assert certs[1]["payload"]["trivial"] is True
    # exact_ucn reads masks only, but asks the list gate, which refuses by
    # counts, before it builds a list or runs its inner tau_2 search
    incidences = theta(3, q) * theta(2, q)

    def unreached(*args):
        raise AssertionError("reached past the list gate")

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "exact_tau", unreached)
        patch.setattr(Hypergraph, "edge_points", unreached)
        with pytest.raises(GeometryError, match=(
                rf"^the 2-spaces of PG\(3,{q}\) have {incidences} point incidences, "
                r"more than the limit 1000000$")):
            exact_ucn(H)
    assert set(vars(H)) <= {"geometry"}
    # recheck reads the certificates as loaded from a file, on a space of
    # its own
    geometry._SPACES.clear()
    verdicts = [recheck(json.loads(json.dumps(cert))) for cert in certs]
    assert verdicts == [(True, "t-transversal verified"),
                        (True, "proper strict coloring verified")]
    rebuilt = ProjectiveSpace.of_order(3, q).hypergraph(2)
    assert rebuilt is not H and set(vars(rebuilt)) <= {"geometry"}


def test_a_grid_tau_task_reaches_the_planes_of_pg3_17(tmp_path):
    task = {"kind": "tau", "n": 3, "k": 2, "q": 17, "t": 2, "expected": 36}
    rows, ok = run_experiments(ExperimentConfig(grid=[task], outdir=str(tmp_path)))
    assert ok
    assert [tuple(row) for row in rows] == [
        ("task000_tau", "tau_2(H(3,2,17))", "36", "36", "yes")]


def test_a_double_blocking_set_of_the_planes_of_pg3_17_is_checked(tmp_path, capsys):
    # two skew lines meet every plane twice: a plane holds one of them and
    # meets the other once, 19 points, or meets each once.  A claim reads
    # the planes' masks, which pass level_gate, where their 1,602,540
    # point incidences are past the list gate
    space = ProjectiveSpace.of_order(3, 17)
    lines = space.disjoint_subspaces(1, 2)
    B = construct_union(space, [(L, 1) for L in lines])
    assert B.size == 36 and sorted(set(kspace_weights(B, 2))) == [2, 19]
    assert minimal_reduction(B, 2, 2) == B
    wpath, cpath = tmp_path / "weights.json", tmp_path / "blocking.json"
    wpath.write_text(json.dumps(B.weights))
    argv = ["blocking", "--n", "3", "--q", "17", "--k", "2", "--t", "2",
            "--weights", str(wpath), "--out", str(cpath)]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 36
    assert [(c["type"], c["verified"]) for c in out["claims"]] == [
        ("t_fold_blocking", True), ("t_mod_p", True), ("minimal", True)]
    # the certificate rechecks as loaded from its file, on a space of its own
    geometry._SPACES.clear()
    assert main(["recheck", str(cpath)]) == 0
    assert capsys.readouterr().out == "VERDICT true all claims verified\n"
    data = json.loads(cpath.read_text())
    # one point less leaves a plane of weight 1, and the set is refused
    space = ProjectiveSpace.of_order(3, 17)
    weights = list(B.weights)
    weights[lines[0].point_indices()[0]] = 0
    wpath.write_text(json.dumps(weights))
    assert main(argv) == 1
    assert [c["verified"] for c in json.loads(capsys.readouterr().out)["claims"]] == [
        False, False]
    held, plane = is_t_fold_blocking(WeightedPointSet(space, weights), 2, 2)
    assert not held and plane.dim == 2
    assert sum(weights[i] for i in plane.point_indices()) == 1
    data["payload"]["weights"] = weights
    data["checksum"] = checksum(data["payload"])
    ok, detail = recheck(data)
    assert not ok and detail == f"violating 2-space with basis {plane.basis}"
    # exact_tau past its 0-node answers reads point lists, and exact_ucn
    # asks the list gate: both refuse the planes by counts
    H = space.hypergraph(2)
    for solve in (exact_ucn, lambda H: exact_tau(H, 3)):
        with pytest.raises(GeometryError, match=r"^the 2-spaces of PG\(3,17\) have 1602540 "
                                                r"point incidences, more than the limit"):
            solve(H)
        assert set(vars(H)) <= {"geometry"}
