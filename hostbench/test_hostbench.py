"""Tests of the benchmark itself, on inputs far smaller than its workloads.

Run from the repository root::

    python3 -m pytest hostbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.gpusim.hostprof import HostProfiler, host_profiling  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "count-ba": lambda: workloads.CountBA(scale=1 / 1024),
    "clustering-file": lambda: workloads.ClusteringFile(nodes=400),
    "serve-overload": lambda: workloads.ServeOverload(duration_ms=20_000),
}


def _perturb(name: str, refs: dict) -> dict:
    if name == "count-ba":
        return {"triangles": refs["triangles"] + 1}
    if name == "clustering-file":
        local = refs["local"].copy()
        local[0] += 1
        return {"local": local}
    return {gid: count + 1 for gid, count in refs.items()}


@pytest.fixture(params=sorted(SMALL))
def done_op(request, tmp_path):
    wl = SMALL[request.param]()
    inputs = wl.inputs(3, str(tmp_path))
    refs = wl.references(inputs)
    return wl, refs, wl.op(inputs, wl.prepare(inputs, 0))


def test_check_passes_on_the_reference(done_op):
    wl, refs, out = done_op
    attempted, failed = wl.check(refs, out)
    assert attempted >= 1 and failed == 0


def test_check_fails_on_a_perturbed_reference(done_op):
    wl, refs, out = done_op
    attempted, failed = wl.check(_perturb(wl.name, refs), out)
    assert failed == attempted >= 1


def test_serve_check_fails_on_an_unanswered_job(tmp_path):
    wl = SMALL["serve-overload"]()
    inputs = wl.inputs(3, str(tmp_path))
    out = wl.op(inputs, wl.prepare(inputs, 0))
    out.jobs[0].status = "lost"
    assert wl.check(wl.references(inputs), out) == (len(out.jobs), 1)


def test_self_times_partition_the_traced_op(tmp_path):
    wl = SMALL["clustering-file"]()
    inputs = wl.inputs(0, str(tmp_path))
    tracer, prof = Tracer(), HostProfiler()
    with tracer.span("op") as op_span:
        with host_profiling(prof):
            wl.op(inputs, None, tracer)
    split = run.layer_split(tracer, op_span, prof)
    assert sum(split[k] for k in run.SELF_TIMES) == pytest.approx(
        op_span.seconds, rel=1e-9)
    assert split["graphs.read_s"] > 0 and split["gpusim.cache_model_s"] > 0
    assert 0 <= split["runtime.other_s"] <= split["runtime.self_s"]


def test_op_s_averages_the_median_of_each_variant():
    bench = run.Run(SMALL["serve-overload"](), 0, 1.0, False, "")
    bench.wl.variants = 2
    bench.plain = [1.0, 10.0, 3.0, 12.0, 2.0]
    assert bench.op_s() == pytest.approx((2.0 + 11.0) / 2)


def test_normalised_seconds_scale_by_the_probes_speed():
    sampler = speed.SpeedSampler()
    sampler.probes = [speed.PROBE_REF_S] * 2 + [2 * speed.PROBE_REF_S] * 2
    wall = 1.0 + sum(sampler.probes)
    assert sampler.normalised(wall, 0, 2) == pytest.approx(
        wall - 2 * speed.PROBE_REF_S)
    # Probes at half the reference speed halve the seconds.
    assert sampler.normalised(wall, 2, 4) == pytest.approx(
        (wall - 4 * speed.PROBE_REF_S) / 2)
    assert sampler.normalised(0.5, 4, 4) == 0.5


def test_sampler_probes_while_started_and_stops_cleanly():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
    finally:
        sampler.stop()
    assert sampler.mark() >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_rss_child_reports_the_ops_above_their_start(tmp_path):
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--rss-child", "--workload",
         "count-ba", "--seed", "0", "--workdir", str(tmp_path)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
        env={**os.environ, **run.RSS_CHILD_ENV})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"] > 0


def test_tracer_self_time_and_chrome_export(tmp_path):
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.span_id
    assert tracer.self_seconds(outer) == pytest.approx(
        outer.seconds - inner.seconds)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "count-ba",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
