"""Reproducible experiment runner: executes a grid of solve/verify tasks,
writes one certificate per task, and assembles a summary table."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

from .certificates import (bounds_certificate, coloring_certificate, recheck,
                           tmodp_certificate, transversal_certificate, write_certificate)
from .geometry import ProjectiveSpace
from .solvers import bounds_report, exact_tau, exact_ucn, verify_tmodp_theorem


def default_grid():
    return [
        {"kind": "tau", "n": 2, "k": 1, "q": 2, "t": 2, "expected": 6},
        {"kind": "tau", "n": 3, "k": 2, "q": 2, "t": 2, "expected": 6},
        {"kind": "ucn", "n": 3, "k": 2, "q": 2, "expected_at_least": 10},
        {"kind": "tmodp", "p": 3, "t": 2, "expected": 91},
        {"kind": "tmodp", "p": 2, "t": 1, "expected": 7},
        {"kind": "bounds", "n": 3, "k": 1, "q": 17, "t": 2, "expected": 5185},
    ]


@dataclass
class ExperimentConfig:
    grid: list = field(default_factory=default_grid)
    outdir: str = "certificates"
    # nothing in the library reads it; kept only because the benchmark
    # passes it
    seed: int = 0


@dataclass
class SummaryRow:
    instance: str
    quantity: str
    value: str
    expected: str
    match: str


def _run_tau(task):
    n, k, q, t = task["n"], task["k"], task["q"], task["t"]
    space = ProjectiveSpace.of_order(n, q)
    H = space.hypergraph(k)
    witness = None
    m = space.n - k
    if 2 * m < space.n:
        witness = sorted(set().union(*(S.point_indices()
                                       for S in space.disjoint_subspaces(m, t))))
    res = exact_tau(H, t, initial_witness=witness)
    return transversal_certificate(H, t, res), f"tau_{t}(H({n},{k},{q}))", res.objective


def _run_ucn(task):
    n, k, q = task["n"], task["k"], task["q"]
    space = ProjectiveSpace.of_order(n, q)
    H = space.hypergraph(k)
    res = exact_ucn(H)
    return coloring_certificate(H, res.witness), f"UCN(H({n},{k},{q}))", res.objective


def _run_tmodp(task):
    rep = verify_tmodp_theorem(task["p"], task["t"], max_size=task.get("max_size"))
    cert = tmodp_certificate(rep)
    value = rep.num_found if rep.verified else f"{rep.num_found} (violations!)"
    return cert, f"tmodp(p={task['p']},t={task['t']})", value

def _run_bounds(task):
    rep = bounds_report(task["n"], task["k"], task["q"], task["t"])
    return bounds_certificate(rep), f"trivial_lower({rep.n},{rep.k},{rep.q})", rep.trivial_lower


_RUNNERS = {"tau": _run_tau, "ucn": _run_ucn, "tmodp": _run_tmodp, "bounds": _run_bounds}


def _run_task(name, task, config) -> SummaryRow:
    """Run, certify and recheck one grid task; a malformed task raises
    KeyError, TypeError or ValueError."""
    if not isinstance(task, dict):
        raise TypeError(f"task is not an object: {task!r}")
    runner = _RUNNERS.get(task.get("kind"))
    if runner is None:
        raise ValueError(f"unknown task kind {task.get('kind')!r}")
    at_least = task.get("expected_at_least")
    if "expected_at_least" in task and type(at_least) not in (int, float):
        raise TypeError(f"expected_at_least {at_least!r} is not a number")
    cert, quantity, value = runner(task)
    write_certificate(cert, os.path.join(config.outdir, f"{name}.json"))
    ok, _ = recheck(cert)
    expected = task.get("expected")
    if expected is not None:
        match = ok and value == expected
    elif "expected_at_least" in task:
        expected = f">={at_least}"
        match = ok and value is not None and value >= at_least
    else:
        expected = ""
        match = ok
    return SummaryRow(name, quantity, str(value), str(expected), "yes" if match else "no")


def run_experiments(config: ExperimentConfig):
    """Run every grid task; one certificate per task, plus a CSV and a
    human-readable summary.  A malformed task gives an error row.
    Returns (rows, ok)."""
    os.makedirs(config.outdir, exist_ok=True)
    rows = []
    for idx, task in enumerate(config.grid):
        kind = task.get("kind") if isinstance(task, dict) else None
        name = f"task{idx:03d}_{kind}"
        try:
            rows.append(_run_task(name, task, config))
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing task field {exc}" if isinstance(exc, KeyError) else str(exc)
            rows.append(SummaryRow(name, "error", reason, "", "no"))
    all_ok = all(row.match == "yes" for row in rows)

    csv_path = os.path.join(config.outdir, "summary.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "quantity", "value", "expected", "match"])
        for row in rows:
            writer.writerow([row.instance, row.quantity, row.value, row.expected, row.match])
    txt_path = os.path.join(config.outdir, "summary.txt")
    with open(txt_path, "w") as fh:
        for row in rows:
            fh.write(f"{row.instance:24s} {row.quantity:28s} "
                     f"value={row.value:16s} expected={row.expected:10s} match={row.match}\n")
    return rows, all_ok
