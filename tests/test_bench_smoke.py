"""One pass of the benchmark's inputs under its tracer: every workload of
bench/workloads.py is built at one seed, each input runs once with
bench/tracing.py installed, and every oracle check must pass.  The bench
files are only loaded, never changed.  A change that removes a name the
workloads or the tracer read (a function, a method or a result field)
fails here, not only in a benchmark run."""

import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"pgws_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_input_passes_its_oracle_under_the_tracer(name, tmp_path):
    tracer = tracing.Tracer()
    wl = None
    try:
        tracer.install()
        wl = workloads.make(name, 0, str(tmp_path))
        failures = []
        for i, label in enumerate(wl.inputs):
            tracer.expect_verdict = wl.expected_verdicts[i] if wl.expected_verdicts else None
            tracer.recording = True
            try:
                out = wl.op(i)
            finally:
                tracer.recording = False
            reason = wl.check(i, out)
            if reason is not None:
                failures.append(f"{label}: {reason}")
        metrics = tracer.metrics()
    finally:
        if wl is not None:
            wl.close()
        tracer.uninstall()
    assert wl.inputs and failures == []
    if name == "recheck":
        assert metrics["certificates.verdict_match_ratio"] == 1
