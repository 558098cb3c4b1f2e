"""pgworkbench benchmark runner.

    python3 bench/run.py --workload construct|solve|recheck --seed N \\
                         --seconds S --trace 0|1

Run from the root of a checkout.  The run is single-process and closed
loop: each repetition is a fresh interpreter (bench/rep.py) that builds
the workload and runs whole rounds of ops one after another.  The
number of rounds follows from --seconds and a nominal round time per
workload, so two commits compared with the same arguments do identical
work.

Times are reported at a reference interpreter speed.  The machine this
benchmark was built on runs the same Python code up to twice as fast at
one moment as at another (other tenants share its cores), and that
drift lasts seconds to minutes, so more rounds do not average it out.
Each repetition therefore times a fixed calibration loop every 50 ms,
also in the middle of an op (rep.Calibrator), and scales every stretch
of an op by the speed measured around it: seconds on a machine that
runs the loop in rep.REFERENCE_CAL_S; set-up time is scaled by the
repetition's mean speed.  Unscaled figures are on the metadata line.

--trace 0 runs REPS untraced repetitions and reports the end-to-end
metrics.  --trace 1 runs TRACE_PAIRS pairs of one untraced and one
traced repetition and reports the per-layer metrics plus
trace_overhead, the traced ops_per_s over the untraced one.

Standard output: a metadata line, with --trace 1 a line with every
per-layer metric, and last the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is not 0,
and no result is printed, when the library is missing or a repetition
does not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("construct", "solve", "recheck")
# seconds one round of each workload takes on the reference machine
# (2 shared cores, Python 3.11); sets how many rounds a run makes
NOMINAL_ROUND_S = {"construct": 3.2, "solve": 5.8, "recheck": 0.1}
REPS = 3
TRACE_PAIRS = 2
RUN_DEADLINE_S = 170
SCRATCH = ".bench_out"

# op_p50_ms and op_tail_ms are on the metadata line only: they were not
# steady on every workload (solve has 21 op samples a run)
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
# the per-layer metrics of the final line; every other one is on the trace line
PER_LAYER = {
    "fields.build_calls": "count", "fields.arith_calls": "count",
    "geometry.subspaces_s": "s", "geometry.subspaces_enumerated": "count",
    "geometry.rref_calls": "count", "geometry.point_indices_calls": "count",
    "blocking.predicate_calls": "count", "blocking.cosets_visited": "count",
    "coloring.check_calls": "count", "solvers.tau_nodes": "count",
    "solvers.ucn_nodes": "count", "solvers.ucn_tau_nodes": "count",
    "certificates.recheck_calls": "count", "certificates.payload_bytes": "B",
    "trace_overhead": "ratio",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
EXACT_SUFFIXES = ("_calls", "_nodes", "_visited", "_enumerated", "_bytes")


def run_rep(root, workload, seed, rep, rounds, traced, deadline):
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--rounds", str(rounds),
           "--trace", str(int(traced)), "--scratch", os.path.join(root, SCRATCH)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=root, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_per_s(reps, key="latencies"):
    """Ops completed per second of op time over all repetitions; every
    input runs equally often, so this is the rate at the input mix."""
    times = [x for r in reps for lat in r[key] for x in lat]
    return len(times) / sum(times)


def tail(samples):
    """(percentile, value) at the highest listed percentile with at least
    ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return 50.0, statistics.median(ordered)


def metadata(root, args, reps, rounds):
    rev = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines,
            "repetitions": len(reps), "rounds_per_repetition": rounds,
            "inputs": reps[0]["inputs"],
            "speed_factor_per_repetition": [r["speed_factor"] for r in reps],
            "raw_ops_per_s": ops_per_s(reps, "raw_latencies"),
            "raw_setup_s_per_repetition": [r["raw_setup_s"] for r in reps],
            "setup_s_per_repetition": [r["setup_s"] for r in reps],
            "peak_rss_mib_per_repetition": [r["peak_rss_mib"] for r in reps],
            "fail_ratio": len(failures) / attempted, "failures": failures[:20]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pgworkbench", "__init__.py")):
        print(f"no pgworkbench sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    reps_planned = 2 * TRACE_PAIRS if args.trace else REPS
    rounds = max(1, round(args.seconds / (reps_planned * NOMINAL_ROUND_S[args.workload])))
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    try:
        if args.trace:
            plain, traced = [], []
            for k in range(TRACE_PAIRS):
                for t in ((False, True) if k % 2 == 0 else (True, False)):
                    r = run_rep(root, args.workload, args.seed, k, rounds, t, deadline)
                    (traced if t else plain).append(r)
            reps = plain + traced
        else:
            reps = [run_rep(root, args.workload, args.seed, k, rounds, False, deadline)
                    for k in range(REPS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, SCRATCH), ignore_errors=True)

    meta = metadata(root, args, reps, rounds)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    if args.trace:
        layers = [r["layers"] for r in traced]
        exact = [{k: v for k, v in lay.items() if k.endswith(EXACT_SUFFIXES)} for lay in layers]
        counts_identical = all(e == exact[0] for e in exact)
        full = {}
        for key, value in layers[0].items():
            if isinstance(value, float):
                full[key] = statistics.median(lay[key] for lay in layers)
            else:
                full[key] = value
        full["trace_overhead"] = ops_per_s(traced) / ops_per_s(plain)
        print(json.dumps({"meta": meta}))
        print(json.dumps({"trace": full, "counts_identical": counts_identical}))
        metrics = {name: {"value": full[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        samples = [x for r in reps for lat in r["latencies"] for x in lat]
        pct, tail_s = tail(samples)
        meta.update({"op_p50_ms": 1000 * statistics.median(samples),
                     "op_tail_ms": 1000 * tail_s, "op_tail_percentile": pct,
                     "op_samples": len(samples)})
        print(json.dumps({"meta": meta}))
        values = {"ops_per_s": ops_per_s(reps),
                  "setup_s": statistics.median(r["setup_s"] for r in reps),
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
