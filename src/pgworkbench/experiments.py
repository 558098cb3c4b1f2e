"""Reproducible experiment runner: executes a grid of solve/verify tasks,
writes one certificate per task, and assembles a summary table."""

from __future__ import annotations

import collections
import csv
import io
import os

from .certificates import (bounds_certificate, coloring_certificate, tmodp_certificate,
                           transversal_certificate, verify_payload, write_certificate)
from .geometry import ProjectiveSpace, write_text
from .solvers import OPTIMAL, bounds_report, exact_tau, exact_ucn, verify_tmodp_theorem


def default_grid():
    return [
        {"kind": "tau", "n": 2, "k": 1, "q": 2, "t": 2, "expected": 6},
        {"kind": "tau", "n": 3, "k": 2, "q": 2, "t": 2, "expected": 6},
        {"kind": "ucn", "n": 3, "k": 2, "q": 2, "expected_at_least": 10},
        {"kind": "tmodp", "p": 3, "t": 2, "expected": 91},
        {"kind": "tmodp", "p": 2, "t": 1, "expected": 7},
        {"kind": "bounds", "n": 3, "k": 1, "q": 17, "t": 2, "expected": 5185},
    ]


class ExperimentConfig:
    """A grid of tasks, a fresh default_grid() unless one is given, and the
    directory its certificates go to.  Nothing in the library reads seed;
    it is kept only because the benchmark passes it."""

    def __init__(self, grid: list | None = None, outdir: str = "certificates", seed: int = 0):
        self.grid = default_grid() if grid is None else grid
        self.outdir = outdir
        self.seed = seed


SummaryRow = collections.namedtuple("SummaryRow", "instance quantity value expected match")


def _searched(res):
    """The row value of a search and the number that expected_at_least
    tests: the objective, or past the node ceiling the interval
    "lower..upper" ("?" for a bound that is not known) and its lower bound."""
    if res.status == OPTIMAL:
        return res.objective, res.objective
    return "..".join("?" if b is None else str(b)
                     for b in (res.lower_bound, res.upper_bound)), res.lower_bound


def _run_tau(task):
    n, k, q, t = task["n"], task["k"], task["q"], task["t"]
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    res = exact_tau(H, t)
    return transversal_certificate(H, t, res), f"tau_{t}(H({n},{k},{q}))", *_searched(res)


def _run_ucn(task):
    n, k, q = task["n"], task["k"], task["q"]
    H = ProjectiveSpace.of_order(n, q).hypergraph(k)
    res = exact_ucn(H)
    return coloring_certificate(H, res.witness), f"UCN(H({n},{k},{q}))", *_searched(res)


def _run_tmodp(task):
    rep = verify_tmodp_theorem(task["p"], task["t"], max_size=task.get("max_size"))
    cert, quantity = tmodp_certificate(rep), f"tmodp(p={task['p']},t={task['t']})"
    if rep.verified:
        return cert, quantity, rep.num_found, rep.num_found
    # a report with violations matches neither expected nor expected_at_least
    return cert, quantity, f"{rep.num_found} (violations!)", None

def _run_bounds(task):
    rep = bounds_report(task["n"], task["k"], task["q"], task["t"])
    return (bounds_certificate(rep), f"trivial_lower({rep.n},{rep.k},{rep.q})",
            rep.trivial_lower, rep.trivial_lower)


_RUNNERS = {"tau": _run_tau, "ucn": _run_ucn, "tmodp": _run_tmodp, "bounds": _run_bounds}


def _run_task(name, task, config) -> SummaryRow:
    """Run, certify and verify one grid task; a malformed task raises
    KeyError, TypeError or ValueError."""
    if not isinstance(task, dict):
        raise TypeError(f"task is not an object: {task!r}")
    kind = task.get("kind")
    runner = _RUNNERS.get(kind) if isinstance(kind, str) else None
    if runner is None:
        raise ValueError(f"unknown task kind {kind!r}")
    at_least = task.get("expected_at_least")
    if "expected_at_least" in task and type(at_least) not in (int, float):
        raise TypeError(f"expected_at_least {at_least!r} is not a number")
    # lower: the value, or a search's lower bound when it stopped short
    cert, quantity, value, lower = runner(task)
    write_certificate(cert, os.path.join(config.outdir, f"{name}.json"))
    # the checksum was computed from this payload as the certificate was
    # made, so only the claims are re-derived
    ok, _ = verify_payload(cert["kind"], cert["payload"])
    expected = task.get("expected")
    if expected is not None:
        match = ok and value == expected
    elif "expected_at_least" in task:
        expected = f">={at_least}"
        match = ok and lower is not None and lower >= at_least
    else:
        expected = ""
        match = ok
    return SummaryRow(name, quantity, str(value), str(expected), "yes" if match else "no")


def run_experiments(config: ExperimentConfig):
    """Run every grid task; one certificate per task, plus a CSV and a
    human-readable summary.  A row matches only when its certificate's
    claims, re-derived as recheck does, hold; the checksum is computed
    once, as the certificate is made.  A malformed task gives an error
    row.  Returns (rows, ok)."""
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

    # the csv module ends each row with \r\n, which newline="" keeps
    csv_text = io.StringIO(newline="")
    writer = csv.writer(csv_text)
    writer.writerow(SummaryRow._fields)
    writer.writerows(rows)
    write_text(os.path.join(config.outdir, "summary.csv"), csv_text.getvalue())
    write_text(os.path.join(config.outdir, "summary.txt"), "".join(
        f"{row.instance:24s} {row.quantity:28s} "
        f"value={row.value:16s} expected={row.expected:10s} match={row.match}\n"
        for row in rows))
    return rows, all_ok
