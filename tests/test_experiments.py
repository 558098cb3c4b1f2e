from pgworkbench.certificates import load_certificate, recheck
from pgworkbench.experiments import ExperimentConfig, run_experiments

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
        cert = load_certificate(str(tmp_path / f"{name}.json"))
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
    ]
    rows, ok = run_experiments(ExperimentConfig(grid=grid, outdir=str(tmp_path)))
    assert not ok
    assert [(row.quantity, row.match) for row in rows[:3]] == [("error", "no")] * 3
    assert rows[0].value == "missing task field 'k'"
    assert rows[2].value == "missing task field 't'"
    assert rows[3].match == "yes"
    assert [(row.quantity, row.match) for row in rows[4:]] == [("error", "no")] * 2
    assert rows[4].value == "task is not an object: 'tau'"
    assert rows[5].value == "expected_at_least '10' is not a number"

