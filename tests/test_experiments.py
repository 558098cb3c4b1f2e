import csv

import pytest

from pgworkbench import experiments, geometry, solvers
from pgworkbench.certificates import make_certificate, recheck
from pgworkbench.experiments import ExperimentConfig, run_experiments
from pgworkbench.fields import FieldError
from pgworkbench.geometry import ProjectiveSpace, load_json

# sha256 checksums of the default-grid certificates: any change to a
# payload, to the enumeration order or to canonical JSON shows up here.
GOLDEN_CHECKSUMS = {
    "task000_tau": "0d4cd6abdd551179588a1f133a4e4f60775d2eac4cd5634d47eb3e1a1e921e7c",
    "task001_tau": "adaa20b73f38cef18d636a8bbf5fe1bae5fa9ca84fc125226a0e0ea9a65a9c93",
    "task002_ucn": "00d46293708817b31f4bb602d7af61de0233f0bf025d65152dd332f2685d03ce",
    "task003_tmodp": "4a4605075b6ae9aa212a31b29dc1e6da90b118c07076d6b3ed4c1551aab4ff93",
    "task004_tmodp": "2b2e473941426d5ffa3efc76137c981c83199666c083874e20642243f7f33ab2",
    "task005_bounds": "f9433e405e97c475e504cc3d6b98be1815c67a54713c55aaafc1dbdb8580b033",
}


def test_default_grid_golden_checksums(tmp_path):
    rows, _ = run_experiments(ExperimentConfig(outdir=str(tmp_path)))
    assert [row.instance for row in rows] == list(GOLDEN_CHECKSUMS)
    for name, digest in GOLDEN_CHECKSUMS.items():
        cert = load_json(str(tmp_path / f"{name}.json"))
        assert cert["checksum"] == digest, name
        assert recheck(cert)[0], name


def test_malformed_grid_tasks_become_error_rows(tmp_path):
    grid = [
        {"kind": "tau", "n": 2},
        {"kind": "ucn", "n": 2, "k": 1, "q": "3"},
        {"kind": "tmodp", "p": 3},
        {"kind": "bounds", "n": 3, "k": 1, "q": 17, "t": 2, "expected": 5185},
        "tau",
        {"kind": "bounds", "n": 3, "k": 1, "q": 17, "t": 2, "expected_at_least": "10"},
        {"kind": "flow", "n": 2},
        # once a tau_2.0 row whose own certificate failed its recheck
        {"kind": "tau", "n": 2, "k": 1, "q": 2, "t": 2.0},
        # a bool k once reached the level caches of PG(2,2), and either
        # failed the valid task after it or read tau_2(H(2,True,2)) as a match
        {"kind": "tau", "n": 2, "k": True, "q": 2, "t": 2},
        {"kind": "tau", "n": 2, "k": 1, "q": 2, "t": 2, "expected": 6},
        # a bool n once built and cached PG(True,3) as PG(1,3)
        {"kind": "ucn", "n": True, "k": 1, "q": 3},
        # each of these gave the row "unhashable type: 'list'" (or 'dict')
        # from a cache lookup, before any refusal
        *({"kind": kind, "n": n, "k": 1, "q": q, "t": 2} for kind in ("tau", "ucn")
          for n, q in (([], 2), ({}, 2), (2, []), (2, {}))),
        {"kind": [], "n": 2},
        {"kind": {}, "n": 2},
    ]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path)))
    assert not ok
    assert [(row.quantity, row.match) for row in rows[:3]] == [("error", "no")] * 3
    assert rows[0].value == "missing task field 'k'"
    assert rows[2].value == "missing task field 't'"
    assert rows[3].match == "yes"
    assert [(row.quantity, row.match) for row in rows[4:9]] == [("error", "no")] * 5
    assert rows[4].value == "task is not an object: 'tau'"
    assert rows[5].value == "expected_at_least '10' is not a number"
    assert rows[6].value == "unknown task kind 'flow'"
    assert rows[7].value == "t must be an int, not 2.0"
    assert not (tmp_path / "task007_tau.json").exists()
    assert rows[8].value == "k = True is not an integer in [1, 1] for hyperedges of PG(2,2)"
    assert (rows[9].quantity, rows[9].match) == ("tau_2(H(2,1,2))", "yes")
    assert (rows[10].quantity, rows[10].match) == ("error", "no")
    assert rows[10].value == "(n, m, q) = (True, True, 3) are not all integers"
    assert [(row.quantity, row.match, row.value) for row in rows[11:]] == [
        ("error", "no", reason) for reason in [
            "(n, m, q) = ([], [], 2) are not all integers",
            "(n, m, q) = ({}, {}, 2) are not all integers",
            "q = [] is not an int", "q = {} is not an int"] * 2
        + ["unknown task kind []", "unknown task kind {}"]]
    assert type(ProjectiveSpace.of_order(1, 3).n) is int
    space = ProjectiveSpace.of_order(2, 2)
    assert {type(m) for m in space._levels} == {int}


@pytest.mark.parametrize("kind", ["tau", "ucn"])
def test_a_level_past_the_gate_is_an_error_row_with_no_space_built(tmp_path, kind):
    # the grid built PG(2,997), 995,007 points, in 0.58 s before its lines
    # were refused; the space is kept with no point and no level built
    task = {"kind": kind, "n": 2, "k": 1, "q": 997, "t": 2}
    geometry._SPACES.clear()
    rows, ok = run_experiments(ExperimentConfig(grid=[task], outdir=str(tmp_path)))
    assert not ok
    assert [(row.quantity, row.value) for row in rows] == [(
        "error", "the masks of the 1-spaces of PG(2,997) may need 990038930049 bits, "
                 "more than the limit 100000000")]
    space = geometry._SPACES.pop((2, 997))
    assert geometry._SPACES == {}
    assert "points" not in vars(space) and space._levels == {}


def test_a_q_that_is_not_an_int_is_the_fields_error_row(tmp_path):
    # each gave the raw row "'float' object cannot be interpreted as an integer"
    grid = [{"kind": "tau", "n": 2, "k": 1, "q": 2.5, "t": 2},
            {"kind": "bounds", "n": 3, "k": 1, "q": 4.0, "t": 2}]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path)))
    assert not ok
    assert [(row.quantity, row.match, row.value) for row in rows] == [
        ("error", "no", "q = 2.5 is not an int"), ("error", "no", "q = 4.0 is not an int")]
    with pytest.raises(FieldError, match="q = '3' is not an int"):
        ProjectiveSpace.of_order(2, "3")


def test_rerun_into_an_existing_outdir_gives_the_same_bytes(tmp_path):
    # every file of the first run is padded first: the second run must
    # leave exactly its own bytes, with no tail of the longer old file
    config = ExperimentConfig(outdir=str(tmp_path))
    run_experiments(config)
    first = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(first) == sorted([f"{name}.json" for name in GOLDEN_CHECKSUMS]
                                   + ["summary.csv", "summary.txt"])
    for path in tmp_path.iterdir():
        path.write_bytes(path.read_bytes() + b" padding" * 1000)
    run_experiments(config)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == first


def test_summary_csv_keeps_crlf_line_endings(tmp_path):
    rows, _ = run_experiments(ExperimentConfig(outdir=str(tmp_path)))
    data = (tmp_path / "summary.csv").read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == len(rows) + 1
    with open(tmp_path / "summary.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["instance", "quantity", "value", "expected", "match"]
    assert [line[0] for line in table[1:]] == [row.instance for row in rows]
    text = (tmp_path / "summary.txt").read_bytes()
    assert b"\r" not in text and text.count(b"\n") == len(rows)


def test_tau_rows_at_t3_where_the_blocks_do_not_all_fit(tmp_path):
    # three disjoint lines fit in PG(5,3) only; in PG(3,2) and PG(4,2) the
    # search starts from the greedy transversal, and t = 3 > q = 2 leaves
    # no folklore bound
    grid = [{"kind": "tau", "n": n, "k": k, "q": q, "t": 3, "expected": expected}
            for n, k, q, expected in [(3, 2, 2, 7), (4, 3, 2, 7), (5, 4, 3, 12)]]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path)))
    assert ok and [row.value for row in rows] == ["7", "7", "12"]
    for row in rows:
        assert recheck(load_json(str(tmp_path / f"{row.instance}.json")))[0]


def test_rows_past_the_node_limit_show_both_bounds(tmp_path, monkeypatch):
    # tau_2 of PG(2,5) = 15 and UCN of PG(2,4) = 12, both past 100 nodes.
    # A row holds the interval; expected never matches it, and
    # expected_at_least matches when the lower bound, here the trivial 10,
    # reaches it.  The tau certificate claims no objective, and all recheck
    monkeypatch.setattr(solvers, "NODE_LIMIT", 100)
    grid = [{"kind": "tau", "n": 2, "k": 1, "q": 5, "t": 2, "expected": 15},
            {"kind": "ucn", "n": 2, "k": 1, "q": 4, "expected_at_least": 10},
            {"kind": "ucn", "n": 2, "k": 1, "q": 4, "expected_at_least": 11}]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path)))
    assert not ok
    tau_lb, tau_ub = rows[0].value.split("..")
    assert int(tau_lb) == 13 and int(tau_ub) >= 15 and rows[0].match == "no"
    # the UCN upper bound is the shape bound of tau_2 = 12, which the plane
    # bound proves at 0 nodes
    assert [(row.value, row.match) for row in rows[1:]] == [("10..12", "yes"), ("10..12", "no")]
    certs = [load_json(str(tmp_path / f"{row.instance}.json")) for row in rows]
    assert "objective" not in certs[0]["payload"]
    assert len(certs[0]["payload"]["points"]) == int(tau_ub)
    assert all(recheck(cert)[0] for cert in certs)


def test_tmodp_rows_with_violations_read_no(tmp_path):
    # PG(2,3) has 2 (mod 3) sets that are no union of two lines, so its
    # report is not verified: the row shows the count with a mark and
    # matches no expectation; the verified p = 2 row still matches
    grid = [{"kind": "tmodp", "p": 3, "t": 2, "expected_at_least": 10},
            {"kind": "tmodp", "p": 3, "t": 2, "expected": 325},
            {"kind": "tmodp", "p": 2, "t": 1, "expected_at_least": 7}]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path)))
    assert not ok
    assert [(row.quantity, row.value, row.expected, row.match) for row in rows] == [
        ("tmodp(p=3,t=2)", "325 (violations!)", ">=10", "no"),
        ("tmodp(p=3,t=2)", "325 (violations!)", "325", "no"),
        ("tmodp(p=2,t=1)", "7", ">=7", "yes")]
    for row in rows:
        assert recheck(load_json(str(tmp_path / f"{row.instance}.json")))[0]


def test_a_certificate_that_fails_its_claims_reads_no(tmp_path, monkeypatch):
    # the in-run check re-derives the claims of the certificate it has just
    # made: a transversal short of one witness point, with its objective and
    # checksum consistent and the row's value still the expected one, reads
    # no, and recheck of the written file refuses it for the same reason
    run_tau = experiments._run_tau

    def run_tau_short(task):
        cert, quantity, value, lower = run_tau(task)
        payload = dict(cert["payload"], points=cert["payload"]["points"][:-1])
        payload["objective"] = len(payload["points"])
        return make_certificate("transversal", payload), quantity, value, lower

    grid = [{"kind": "tau", "n": 2, "k": 1, "q": 2, "t": 2, "expected": 6}]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path / "good")))
    assert ok and (rows[0].value, rows[0].match) == ("6", "yes")
    monkeypatch.setitem(experiments._RUNNERS, "tau", run_tau_short)
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path / "bad")))
    assert not ok and (rows[0].value, rows[0].match) == ("6", "no")
    cert = load_json(str(tmp_path / "bad" / f"{rows[0].instance}.json"))
    assert recheck(cert) == (False, "a 1-space meets the set in only 1 < 2 points")
