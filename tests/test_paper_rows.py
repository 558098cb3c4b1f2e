"""The paper's smallest cases of the sharp trivial bound (flag `ucnthm`):
the planes of PG(3,17) and PG(3,19), H(3,2,q), whose upper chromatic
number is theta_3 - tau_2 + 1, 5185 and 7201.  Both levels are built as
masks only, and their transversal and trivial-coloring certificates
recheck through the ordinary verifiers, which read the masks alone."""

import json

import pytest

from pgworkbench import geometry
from pgworkbench.certificates import coloring_certificate, recheck, transversal_certificate
from pgworkbench.coloring import trivial_coloring
from pgworkbench.experiments import ExperimentConfig, run_experiments
from pgworkbench.geometry import GeometryError, ProjectiveSpace, theta
from pgworkbench.solvers import OPTIMAL, bounds_report, exact_tau, exact_ucn


@pytest.mark.parametrize("q, tau, N", [(17, 36, 5185), (19, 40, 7201)])
def test_the_trivial_bound_is_witnessed_on_the_planes_of_pg3(q, tau, N):
    report = bounds_report(3, 1, q, 2)
    assert report.flags["ucnthm"] and report.trivial_lower == N == theta(3, q) - tau + 1
    H = ProjectiveSpace.of_order(3, q).hypergraph(2)
    res = exact_tau(H, 2)
    assert (res.objective, res.status, res.nodes) == (tau, OPTIMAL, 0)
    coloring = trivial_coloring(res.witness, H)
    assert coloring.N == N
    certs = [transversal_certificate(H, 2, res), coloring_certificate(H, coloring)]
    assert certs[1]["payload"]["trivial"] is True
    # the search reads the lists, which the list gate refuses by counts
    incidences = theta(3, q) * theta(2, q)
    with pytest.raises(GeometryError, match=(
            rf"^the 2-spaces of PG\(3,{q}\) have {incidences} point incidences, "
            r"more than the limit 1000000$")):
        exact_ucn(H)
    assert not {"edge_points", "vertex_edges"} & set(H.__dict__)
    # recheck reads the certificates as loaded from a file, on a space of
    # its own
    geometry._SPACES.clear()
    verdicts = [recheck(json.loads(json.dumps(cert))) for cert in certs]
    assert verdicts == [(True, "t-transversal verified"),
                        (True, "proper strict coloring verified")]
    rebuilt = ProjectiveSpace.of_order(3, q).hypergraph(2)
    assert rebuilt is not H and not {"edge_points", "vertex_edges"} & set(rebuilt.__dict__)


def test_a_grid_tau_task_reaches_the_planes_of_pg3_17(tmp_path):
    task = {"kind": "tau", "n": 3, "k": 2, "q": 17, "t": 2, "expected": 36}
    rows, ok = run_experiments(ExperimentConfig(grid=[task], outdir=str(tmp_path)))
    assert ok
    assert [tuple(row) for row in rows] == [
        ("task000_tau", "tau_2(H(3,2,17))", "36", "36", "yes")]
