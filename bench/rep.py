"""One benchmark repetition, in its own interpreter.

    python3 bench/rep.py --workload NAME --seed N --rep I --rounds R
                         --trace 0|1 --scratch DIR --spawned T

Run from the root of a checkout; bench/run.py starts it.  The
repetition builds the workload (its set-up), then runs R rounds; a round
runs every input once, in an order drawn from (seed, rep, round), and
checks every output.  It prints one JSON object: per-op latencies, raw
and scaled to the reference speed (see Calibrator), failures, set-up
time (from ``--spawned``, the parent's CLOCK_MONOTONIC reading just
before it started this interpreter, to the first timed op), peak RSS
and, when traced, the per-layer metrics of its rounds.

Traced repetitions use the order of round 0 whatever their index, so
two traced repetitions with the same seed do identical work.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


# calibrate() takes this long at the reference speed
REFERENCE_CAL_S = 0.001
CAL_EVERY_S = 0.05
CAL_WINDOW = 5


def calibrate(n=1500):
    """Fixed pure-Python work (tuples, dict lookups, big-int bit operations)
    whose duration tracks how fast this machine runs the interpreter now."""
    seen = {}
    acc = 0
    for i in range(n):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        acc ^= 1 << (i % 181)
        acc += sum(1 for x in key if x)
    return acc + len(seen)


class Calibrator:
    """Times calibrate() from a SIGALRM handler every CAL_EVERY_S, also in
    the middle of an op, so a long op is scaled by the speed the machine
    had while it ran.  The handler runs in the main thread between
    bytecodes; its own time is taken out of every op and span."""

    def __init__(self, clock):
        self.clock = clock
        self.samples = []  # (start, seconds)
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = self.clock()
        calibrate()
        dt = self.clock() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def net_clock(self):
        """The clock minus the time spent calibrating."""
        return self.clock() - self.spent

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        self.starts = [s for s, _ in self.samples]

    def speed(self, t):
        """REFERENCE_CAL_S over the median of the CAL_WINDOW samples nearest t."""
        k = bisect.bisect_left(self.starts, t)
        lo = max(0, min(k - CAL_WINDOW // 2, len(self.starts) - CAL_WINDOW))
        window = [d for _, d in self.samples[lo:lo + CAL_WINDOW]]
        return REFERENCE_CAL_S / statistics.median(window)

    def scale(self, t0, t1):
        """(raw, scaled) seconds of the op that ran from t0 to t1: the wall
        time without calibration, and each stretch of it between two
        calibrations multiplied by the speed around that stretch.  Call
        after the with-block."""
        inside = self.samples[bisect.bisect_left(self.starts, t0):
                              bisect.bisect_left(self.starts, t1)]
        raw = scaled = 0.0
        begin = t0
        for start, dt in inside + [(t1, 0.0)]:
            stretch = start - begin
            raw += stretch
            scaled += stretch * self.speed(begin + stretch / 2)
            begin = start + dt
        return raw, scaled


def run_rounds(wl, args, tracer, clock):
    """Every input once per round, each op timed and then checked."""
    ops = []  # (input, start, end)
    failures = []
    n = len(wl.inputs)
    for rnd in range(args.rounds):
        order = list(range(n))
        random.Random(f"{args.seed}/{0 if tracer else args.rep}/{rnd}").shuffle(order)
        for i in order:
            if tracer is not None:
                tracer.expect_verdict = wl.expected_verdicts[i] if wl.expected_verdicts else None
                tracer.recording = True
            t0 = clock()
            try:
                out = wl.op(i)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            t1 = clock()
            if tracer is not None:
                tracer.recording = False
            ops.append((i, t0, t1))
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    reason = wl.check(i, out)
                except Exception as exc:  # a malformed output fails its check
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append(f"{wl.inputs[i]}: {reason}")
    return ops, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args(argv)

    clock = time.perf_counter
    cal = Calibrator(clock)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.clock = cal.net_clock
        tracer.install()
    wl = workloads.make(args.workload, args.seed, args.scratch)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    try:
        with cal:
            ops, failures = run_rounds(wl, args, tracer, clock)
    finally:
        wl.close()
        if tracer is not None:
            tracer.uninstall()
    latencies = [[] for _ in wl.inputs]
    raw_latencies = [[] for _ in wl.inputs]
    for i, t0, t1 in ops:
        raw, scaled = cal.scale(t0, t1)
        raw_latencies[i].append(raw)
        latencies[i].append(scaled)
    # time-weighted speed of the whole loop, for set-up and per-layer times
    speed = sum(map(sum, latencies)) / sum(map(sum, raw_latencies))
    result = {
        "workload": args.workload, "seed": args.seed, "rep": args.rep,
        "traced": bool(tracer), "rounds": args.rounds, "inputs": wl.inputs,
        "latencies": latencies, "raw_latencies": raw_latencies,
        "attempted": len(ops), "failures": failures,
        # set-up is scaled by the speed of the whole loop: start-up and
        # imports run too briefly for the calibration samples next to them
        "setup_s": setup_s * speed, "raw_setup_s": setup_s,
        "speed_factor": speed, "calibrations": len(cal.samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(time_scale=speed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
