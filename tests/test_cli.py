import json
import os
import threading
import time

import pytest

from test_certificates import TYPE_MUTATED_TRANSVERSALS

from pgworkbench import solvers
from pgworkbench.certificates import make_certificate, write_certificate
from pgworkbench.cli import main
from pgworkbench.geometry import ProjectiveSpace, hypergraph_to_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_space_verb(capsys):
    code, out = run_cli(capsys, "space", "--n", "2", "--q", "2")
    assert code == 0
    data = json.loads(out)
    assert data["num_points"] == 7
    assert data["subspace_counts"] == {"0": 7, "1": 7, "2": 1}
    assert data["field"] == "GF(2)"


def test_space_rejects_non_prime_power(capsys):
    code = main(["space", "--n", "2", "--q", "6"])
    assert code == 2


def test_space_export_then_solve_and_recheck(tmp_path, capsys):
    hpath = tmp_path / "fano.json"
    cpath = tmp_path / "tau.json"
    code, _ = run_cli(capsys, "space", "--n", "2", "--q", "2", "--k", "1",
                      "--export-hypergraph", str(hpath))
    assert code == 0
    code, out = run_cli(capsys, "solve", "tau", "--t", "2",
                        "--hypergraph", str(hpath), "--out", str(cpath))
    assert code == 0
    data = json.loads(out)
    assert data["objective"] == 6 and data["status"] == "optimal"
    code, out = run_cli(capsys, "recheck", str(cpath))
    assert code == 0 and out.startswith("VERDICT true")

    # single-character tampering is caught
    raw = cpath.read_text()
    pos = raw.index('"points":[') + len('"points":[')
    tampered = raw[:pos] + ("1" if raw[pos] != "1" else "2") + raw[pos + 1:]
    bad = tmp_path / "bad.json"
    bad.write_text(tampered)
    code, out = run_cli(capsys, "recheck", str(bad))
    assert code == 1 and out.startswith("VERDICT false")


def test_solve_ucn_verb(tmp_path, capsys):
    hpath = tmp_path / "fano.json"
    run_cli(capsys, "space", "--n", "2", "--q", "2", "--export-hypergraph", str(hpath))
    code, out = run_cli(capsys, "solve", "ucn", "--hypergraph", str(hpath),
                        "--out", str(tmp_path / "ucn.json"))
    assert code == 0
    data = json.loads(out)
    assert data["objective"] == 3
    code, out = run_cli(capsys, "recheck", str(tmp_path / "ucn.json"))
    assert code == 0


def test_solve_prints_the_interval_of_a_search_past_the_node_limit(tmp_path, capsys,
                                                                   monkeypatch):
    # the lines of PG(2,4): tau_2 = 12 in 385 nodes and UCN 12 in far more;
    # at 100 nodes both stop, print lower_bound and upper_bound, and write
    # the certificate of their witness, which claims no optimum: the
    # transversal's has no objective, and both recheck
    hpath, cpath = tmp_path / "pg24.json", tmp_path / "cert.json"
    hypergraph_to_file(ProjectiveSpace.of_order(2, 4).hypergraph(1), str(hpath))
    monkeypatch.setattr(solvers, "NODE_LIMIT", 100)
    code, out = run_cli(capsys, "solve", "tau", "--hypergraph", str(hpath), "--out", str(cpath))
    data = json.loads(out)
    assert code == 0
    assert (data["status"], data["objective"], data["nodes"]) == ("bound_only", None, 101)
    assert data["lower_bound"] == 10 <= 12 <= data["upper_bound"] == len(data["witness"])
    payload = json.loads(cpath.read_text())["payload"]
    assert payload["points"] == data["witness"] and "objective" not in payload
    assert run_cli(capsys, "recheck", str(cpath))[0] == 0
    code, out = run_cli(capsys, "solve", "ucn", "--hypergraph", str(hpath), "--out", str(cpath))
    data = json.loads(out)
    assert code == 0
    assert (data["status"], data["objective"], data["upper_bound"]) == ("bound_only", None, None)
    assert 10 <= data["lower_bound"] <= 12 and data["lower_bound"] == max(data["witness"])
    assert json.loads(cpath.read_text())["payload"]["assignment"] == data["witness"]
    assert run_cli(capsys, "recheck", str(cpath))[0] == 0


def test_solve_tau_starts_from_the_disjoint_lines(tmp_path, capsys):
    # the planes of PG(3,3): the solver's own seed, two disjoint lines,
    # meets the folklore bound 8 at 0 nodes, with the points of the grid
    hpath, cpath = tmp_path / "planes.json", tmp_path / "tau.json"
    run_cli(capsys, "space", "--n", "3", "--q", "3", "--k", "2", "--export-hypergraph", str(hpath))
    code, out = run_cli(capsys, "solve", "tau", "--hypergraph", str(hpath), "--out", str(cpath))
    data = json.loads(out)
    assert code == 0
    assert (data["status"], data["objective"], data["nodes"]) == ("optimal", 8, 0)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": [{"kind": "tau", "n": 3, "k": 2, "q": 3, "t": 2}]}))
    assert main(["run", "--config", str(grid), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    grid_cert = json.loads((tmp_path / "run" / "task000_tau.json").read_text())
    assert grid_cert["payload"]["points"] == data["witness"]
    assert json.loads(cpath.read_text()) == grid_cert


def test_solve_ucn_of_hypergraph_without_edges(tmp_path, capsys):
    # no edge is rainbow, so all three points get distinct colors; tau_2 = 0
    # must give neither the bound V + 1 nor the non-strict witness (2, 3, 4)
    hpath = tmp_path / "empty.json"
    hpath.write_text(json.dumps({"num_vertices": 3, "edges": []}))
    code, out = run_cli(capsys, "solve", "ucn", "--hypergraph", str(hpath))
    assert code == 0
    data = json.loads(out)
    assert (data["objective"], data["status"], data["witness"]) == (3, "optimal", [1, 2, 3])


@pytest.mark.parametrize("problem", ["tau", "ucn"])
def test_solve_out_of_a_hypergraph_that_is_not_h_nkq_is_an_error(tmp_path, capsys, problem):
    # a certificate names its space, so there is none to write; this exited
    # 0 and wrote nothing
    hpath, cpath = tmp_path / "two.json", tmp_path / "cert.json"
    hpath.write_text(json.dumps({"num_vertices": 4, "edges": [[0, 1, 2], [1, 2, 3]]}))
    code = main(["solve", problem, "--hypergraph", str(hpath), "--out", str(cpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not cpath.exists()
    assert captured.err.startswith("error: the edges are not the k-spaces of any PG(n,q)")


def test_solve_ucn_of_hypergraph_without_vertices(tmp_path, capsys):
    hpath = tmp_path / "none.json"
    hpath.write_text(json.dumps({"num_vertices": 0, "edges": []}))
    code, out = run_cli(capsys, "solve", "tau", "--hypergraph", str(hpath))
    assert code == 0 and json.loads(out)["objective"] == 0
    code = main(["solve", "ucn", "--hypergraph", str(hpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: UCN needs at least one vertex; "
                                   "the hypergraph has 0 vertices")


def test_blocking_verb(tmp_path, capsys):
    space = ProjectiveSpace.of_order(2, 3)
    from pgworkbench.blocking import construct_union
    lines = space.subspaces(1)
    B = construct_union(space, [(lines[0], 1), (lines[1], 1)])
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps(list(B.weights)))
    code, out = run_cli(capsys, "blocking", "--n", "2", "--q", "3",
                        "--t", "2", "--k", "1", "--weights", str(wpath),
                        "--out", str(tmp_path / "blocking.json"))
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 8
    assert all(c["verified"] for c in data["claims"])
    code, out = run_cli(capsys, "recheck", str(tmp_path / "blocking.json"))
    assert code == 0


UNION_CLAIMS = ('[{"k":1,"t":2,"type":"t_fold_blocking","verified":true},'
                '{"k":1,"t":2,"type":"t_mod_p","verified":true},'
                '{"k":1,"t":2,"type":"minimal","verified":true}]')
FOUR_CLAIMS = ('[{"k":1,"t":2,"type":"t_fold_blocking","verified":false},'
               '{"k":1,"t":2,"type":"t_mod_p","verified":false}]')


@pytest.mark.parametrize("weights, code, claims, digest", [
    # the union of the first two lines of PG(2,3): blocking, so minimality is claimed
    ([2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0], 0, UNION_CLAIMS,
     "ecf14e391c4a940bd5b5c2b19d799af005b76876ac4e4811f9451fe728a94f9e"),
    # not 2-fold blocking: no minimal claim is written
    ([1, 1, 1, 1] + [0] * 9, 1, FOUR_CLAIMS,
     "551cca24ec47d78a13285831e6cc64912d8ab75da57aa601dda64ffbfd976b99"),
], ids=["union", "four"])
def test_blocking_verb_output_and_one_pass(tmp_path, capsys, monkeypatch, weights, code,
                                           claims, digest):
    # the stdout, exit code and certificate bytes that the three separate
    # predicates gave, now from one pass over the lines
    from pgworkbench import blocking
    passes = []
    kspace_weights = blocking.kspace_weights
    monkeypatch.setattr(blocking, "kspace_weights",
                        lambda B, k: passes.append(k) or kspace_weights(B, k))
    wpath, cert = tmp_path / "weights.json", tmp_path / "blocking.json"
    wpath.write_text(json.dumps(weights))
    got = run_cli(capsys, "blocking", "--n", "2", "--q", "3", "--t", "2", "--k", "1",
                  "--weights", str(wpath), "--out", str(cert))
    assert got == (code, f'{{"claims":{claims},"size":{sum(weights)}}}\n')
    assert passes == [1]
    assert cert.read_text() == (
        f'{{"checksum":"{digest}","kind":"blocking_set","payload":{{"claims":{claims},'
        f'"space":{{"n":2,"q":3}},"weights":{json.dumps(weights, separators=(",", ":"))}}},'
        f'"schema_version":1}}')
    assert run_cli(capsys, "recheck", str(cert)) == (0, "VERDICT true all claims verified\n")


def test_blocking_verb_refuses_k_0(tmp_path, capsys):
    wpath, cert = tmp_path / "weights.json", tmp_path / "blocking.json"
    wpath.write_text(json.dumps([1] * 13))
    code = main(["blocking", "--n", "2", "--q", "3", "--t", "2", "--k", "0",
                 "--weights", str(wpath), "--out", str(cert)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: k = 0 out of range\n")
    assert not cert.exists()


def test_color_verbs(tmp_path, capsys):
    hpath = tmp_path / "fano.json"
    run_cli(capsys, "space", "--n", "2", "--q", "2", "--export-hypergraph", str(hpath))
    from pgworkbench.solvers import exact_tau
    from pgworkbench.geometry import hypergraph_from_file
    H = hypergraph_from_file(str(hpath))
    witness = exact_tau(H, 2).witness
    tpath = tmp_path / "transversal.json"
    tpath.write_text(json.dumps(list(witness)))
    code, out = run_cli(capsys, "color", "--mode", "trivialize",
                        "--hypergraph", str(hpath), "--transversal", str(tpath))
    assert (witness, code, out) == ((0, 1, 2, 3, 4, 6), 0,
                                    '{"N":2,"assignment":[1,1,1,1,1,2,1]}\n')
    coloring = json.loads(out)
    cpath = tmp_path / "coloring.json"
    cpath.write_text(json.dumps(coloring))
    code, out = run_cli(capsys, "color", "--mode", "analyze",
                        "--hypergraph", str(hpath), "--coloring", str(cpath))
    assert code == 0
    data = json.loads(out)
    assert data["proper"] and data["trivial"] and data["witness_class"] == 1


@pytest.mark.parametrize("transversal", [["a"], [[0]], {"x": 1}, None,
                                         [0, 1, 2, 3, 4, 6, 999], [0, 1, 2, 3, 4, 6, 1.0],
                                         [0, 1, 2, 3, 4, 6, 6]])
def test_color_trivialize_rejects_bad_transversal(tmp_path, capsys, transversal):
    # [0, 1, 2, 3, 4, 6] is a 2-transversal of the Fano plane; an entry
    # that is not a distinct point index is refused, as recheck refuses it
    hpath = tmp_path / "fano.json"
    run_cli(capsys, "space", "--n", "2", "--q", "2", "--export-hypergraph", str(hpath))
    tpath = tmp_path / "transversal.json"
    tpath.write_text(json.dumps(transversal))
    code = main(["color", "--mode", "trivialize", "--hypergraph", str(hpath),
                 "--transversal", str(tpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("mode", ["verify", "analyze"])
@pytest.mark.parametrize("coloring", [[1], {"assignment": [[1], 1, 1, 1, 1, 1, 1]},
                                      {"assignment": "1111111"}, {"N": 1}])
def test_color_rejects_malformed_coloring(tmp_path, capsys, mode, coloring):
    hpath = tmp_path / "fano.json"
    run_cli(capsys, "space", "--n", "2", "--q", "2", "--export-hypergraph", str(hpath))
    cpath = tmp_path / "coloring.json"
    cpath.write_text(json.dumps(coloring))
    code = main(["color", "--mode", mode, "--hypergraph", str(hpath), "--coloring", str(cpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: a coloring is a JSON object")


@pytest.mark.parametrize("mode, flag", [("verify", "--coloring"),
                                        ("trivialize", "--transversal")])
def test_color_reports_a_missing_input_flag(tmp_path, capsys, mode, flag):
    # each mode reads one file; without its flag it gave a TypeError
    hpath = tmp_path / "fano.json"
    run_cli(capsys, "space", "--n", "2", "--q", "2", "--export-hypergraph", str(hpath))
    code = main(["color", "--mode", mode, "--hypergraph", str(hpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --mode {mode} needs {flag}\n"


def test_verify_verb(tmp_path, capsys):
    code, out = run_cli(capsys, "verify", "tmodp", "--p", "2", "--t", "1",
                        "--out", str(tmp_path / "rep.json"))
    assert code == 0
    data = json.loads(out)
    assert data["verified"] and data["num_found"] == 7
    code, out = run_cli(capsys, "recheck", str(tmp_path / "rep.json"))
    assert code == 0


def test_verify_verb_reports_failure_honestly(capsys):
    code, out = run_cli(capsys, "verify", "tmodp", "--p", "3", "--t", "2")
    assert code == 1
    data = json.loads(out)
    assert not data["verified"]
    assert data["num_found"] == 325 and len(data["violations"]) == 234


@pytest.mark.parametrize("argv, message", [
    (("--t", "-1"), "error: t must be >= 1"),
    (("--t", "0"), "error: t must be >= 1"),
    (("--t", "1", "--max-size", "-5"), "error: max_size must be an integer >= 0"),
])
def test_verify_verb_rejects_bad_parameters(capsys, argv, message):
    code = main(["verify", "tmodp", "--p", "5", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(message)


def test_verify_verb_refuses_a_large_plane(capsys):
    # PG(2,127): the line/point incidence matrix is above its entry limit
    code = main(["verify", "tmodp", "--p", "127", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the 1-space/point incidence matrix of PG(2,127)")


def test_bounds_verb(tmp_path, capsys):
    code, out = run_cli(capsys, "bounds", "--n", "3", "--k", "1", "--q", "17",
                        "--t", "2", "--out", str(tmp_path / "bounds.json"))
    assert code == 0
    data = json.loads(out)
    assert data["trivial_lower"] == 5185
    code, out = run_cli(capsys, "recheck", str(tmp_path / "bounds.json"))
    assert code == 0


def test_bounds_verb_refuses_t_below_1(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--n", "3", "--k", "1", "--q", "4", "--t", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err.startswith("error: t must be an int >= 1, not 0")


def test_solve_out_to_a_directory_is_an_error(tmp_path, capsys):
    hpath = tmp_path / "fano.json"
    hypergraph_to_file(ProjectiveSpace.of_order(2, 2).hypergraph(1), str(hpath))
    code = main(["solve", "tau", "--hypergraph", str(hpath), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_out_to_a_device_or_a_pipe(tmp_path, capsys):
    # /dev/null and a FIFO take the bytes and cannot be cut to length
    hpath = tmp_path / "fano.json"
    hypergraph_to_file(ProjectiveSpace.of_order(2, 2).hypergraph(1), str(hpath))
    code, out = run_cli(capsys, "solve", "tau", "--hypergraph", str(hpath),
                        "--out", os.devnull)
    assert code == 0 and json.loads(out)["objective"] == 6
    code, out = run_cli(capsys, "space", "--n", "2", "--q", "2", "--k", "1",
                        "--export-hypergraph", os.devnull)
    assert code == 0 and json.loads(out)["num_points"] == 7
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    code, out = run_cli(capsys, "solve", "tau", "--hypergraph", str(hpath),
                        "--out", str(fifo))
    reader.join(timeout=10)
    assert code == 0 and json.loads(out)["objective"] == 6
    cpath = tmp_path / "tau.json"
    cpath.write_bytes(received[0])
    code, out = run_cli(capsys, "recheck", str(cpath))
    assert code == 0 and out.startswith("VERDICT true")


def test_run_verb_custom_grid(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": [
        {"kind": "tau", "n": 2, "k": 1, "q": 2, "t": 2, "expected": 6},
        {"kind": "bounds", "n": 3, "k": 1, "q": 17, "t": 2, "expected": 5185},
    ]}))
    outdir = tmp_path / "certs"
    code, out = run_cli(capsys, "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("RESULT")]
    assert len(lines) == 2 and all("match=yes" in l for l in lines)
    assert (outdir / "summary.csv").exists()
    assert (outdir / "summary.txt").exists()
    assert (outdir / "task000_tau.json").exists()


def test_run_verb_bad_task_continues(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": [
        {"kind": "tau", "n": 2, "k": 1, "q": 6, "t": 2, "expected": 6},
        {"kind": "bounds", "n": 3, "k": 1, "q": 17, "t": 2, "expected": 5185},
    ]}))
    outdir = tmp_path / "certs"
    code, out = run_cli(capsys, "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 1  # the q = 6 task fails, the rest still runs
    lines = [l for l in out.splitlines() if l.startswith("RESULT")]
    assert len(lines) == 2
    assert "match=no" in lines[0] and "match=yes" in lines[1]


def test_recheck_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "recheck", str(path))
    assert code == 1 and out.startswith("VERDICT false")


def test_recheck_file_that_is_not_utf8(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError, not a JSONDecodeError
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out = run_cli(capsys, "recheck", str(path))
    assert code == 1 and out.startswith("VERDICT false malformed: ")


@pytest.mark.parametrize("payload", TYPE_MUTATED_TRANSVERSALS)
def test_recheck_type_mutated_file(tmp_path, capsys, payload):
    path = tmp_path / "mutated.json"
    write_certificate(make_certificate("transversal", payload), str(path))
    code, out = run_cli(capsys, "recheck", str(path))
    assert code == 1 and out.startswith("VERDICT false verification error:")


def test_solve_rejects_out_of_range_edge_index(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "q": 2, "edges": [[0, 1, 99]]}))
    code = main(["solve", "tau", "--t", "2", "--hypergraph", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: edge index 99 ")


def test_solve_rejects_hypergraph_not_matching_its_params(tmp_path, capsys):
    # these edges are not the planes of PG(3,2); solved as H(3,2,2), tau_2
    # came out as 6 with a certificate that recheck refused (the optimum is 5)
    path = tmp_path / "mislabelled.json"
    path.write_text(json.dumps({"n": 3, "k": 2, "q": 2, "edges": [
        [1, 4, 8, 11], [2, 4, 5, 10], [2, 10], [0, 2, 7, 11], [8, 9]]}))
    cert = tmp_path / "cert.json"
    code = main(["solve", "tau", "--t", "2", "--hypergraph", str(path), "--out", str(cert)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not cert.exists()
    assert captured.err.startswith("error: the edges are not the 2-spaces of PG(3,2)")


@pytest.mark.parametrize("data", [{"num_vertices": "7", "edges": [[0, 1]]},
                                  {"num_vertices": 7, "edges": 5},
                                  {"edges": [[0, 1]]},
                                  [[0, 1]]])
def test_solve_rejects_malformed_hypergraph(tmp_path, capsys, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code = main(["solve", "ucn", "--hypergraph", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


# 10^14 + 31 is prime: trial division up to its root took about 1.8 s
HUGE_Q = 100000000000031


def _timed_main(capsys, argv, limit):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < limit
    return code, captured


def test_space_refuses_a_huge_order_before_factoring(capsys):
    code, captured = _timed_main(capsys, ["space", "--n", "2", "--q", str(HUGE_Q)], 0.05)
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: q = {HUGE_Q} exceeds the limit 65536")


def test_bounds_verb_refuses_a_huge_n(capsys):
    # theta(10^9, 4) has 6 * 10^8 digits; n is compared before any power
    code, captured = _timed_main(capsys, ["bounds", "--n", "1000000000", "--k", "1",
                                          "--q", "4"], 0.1)
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: n = 1000000000 exceeds the limit 19")


@pytest.mark.parametrize("claim, needle", [
    # PG(2,251) has 63253 lines: they were all built, in 22 s and 550 MiB,
    # before the empty edge list was compared with them
    ({"n": 2, "k": 1, "q": 251, "edges": []},
     "error: the edges are not the 1-spaces of PG(2,251)"),
    ({"n": 2, "k": 1, "q": HUGE_Q, "edges": []},
     f"error: PG(2,{HUGE_Q}) exceeds the limits"),
    # an index just below theta(2, 65521) was a 537 MB edge mask
    ({"n": 2, "k": 1, "q": 65521, "edges": [[65521 ** 2 + 65521]]},
     "error: PG(2,65521) exceeds the limits"),
    # an index near theta(2, HUGE_Q) overflowed the shift with a traceback
    ({"n": 2, "k": 1, "q": HUGE_Q, "edges": [[10 ** 28]]},
     f"error: PG(2,{HUGE_Q}) exceeds the limits"),
    # counting the 50000-spaces of PG(100000,2) does not finish
    ({"n": 100000, "k": 50000, "q": 2, "edges": []},
     "error: PG(100000,2) exceeds the limits"),
])
def test_solve_refuses_a_small_file_claiming_a_large_space(tmp_path, capsys, claim, needle):
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim))
    code, captured = _timed_main(capsys, ["solve", "tau", "--hypergraph", str(path)], 0.1)
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(needle)


@pytest.mark.parametrize("weights, needle", [
    ("abc", "error: the weights file must hold a JSON list of integers"),
    # recheck refuses a float weight, so no certificate may carry one
    ([1.0, 1, 1, 0, 0, 0, 0], "error: the weights file must hold a JSON list of integers"),
])
def test_blocking_rejects_weights_that_are_not_ints(tmp_path, capsys, weights, needle):
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps(weights))
    cert = tmp_path / "blocking.json"
    code = main(["blocking", "--n", "2", "--q", "2", "--t", "1", "--k", "1",
                 "--weights", str(wpath), "--out", str(cert)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not cert.exists()
    assert captured.err.startswith(needle)


@pytest.mark.parametrize("config", [[1], {"grid": 5}, {"tasks": []}, "grid"])
def test_run_rejects_a_config_without_a_grid_list(tmp_path, capsys, config):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "certs")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the config file must hold a JSON object "
                                   "whose 'grid' is a list")


@pytest.mark.parametrize("argv", [
    ["blocking", "--n", "2", "--q", "2", "--t", "1", "--k", "1", "--weights", "{missing}"],
    ["color", "--hypergraph", "{missing}", "--coloring", "{missing}"],
    ["solve", "tau", "--hypergraph", "{missing}"],
    ["run", "--config", "{missing}", "--out", "{out}"],
], ids=["blocking", "color", "solve", "run"])
def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    code = main([a.format(missing=missing, out=tmp_path / "certs") for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "missing.json" in captured.err


def write_over_nested(path):
    # parses to a RecursionError inside json, at any default recursion limit
    path.write_text("[" * 10**5 + "]" * 10**5)
    return str(path)


def test_recheck_over_nested_file(tmp_path, capsys):
    code, out = run_cli(capsys, "recheck", write_over_nested(tmp_path / "deep.json"))
    assert code == 1 and out.startswith("VERDICT false malformed: ")
    assert "nested too deeply" in out


@pytest.mark.parametrize("argv", [
    ["blocking", "--n", "2", "--q", "2", "--t", "1", "--k", "1", "--weights", "{deep}"],
    ["color", "--hypergraph", "{fano}", "--coloring", "{deep}"],
    ["color", "--mode", "trivialize", "--hypergraph", "{fano}", "--transversal", "{deep}"],
    ["solve", "tau", "--hypergraph", "{deep}"],
    ["run", "--config", "{deep}", "--out", "{out}"],
], ids=["blocking", "color-coloring", "color-transversal", "solve", "run"])
def test_over_nested_input_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    fano = tmp_path / "fano.json"
    hypergraph_to_file(ProjectiveSpace.of_order(2, 2).hypergraph(1), str(fano))
    deep = write_over_nested(tmp_path / "deep.json")
    code = main([a.format(deep=deep, fano=fano, out=tmp_path / "certs") for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
