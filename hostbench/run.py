"""Host wall-clock benchmark of the simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload count-ba --seed 0 --seconds 20 --trace 0

One run sets the workload up from ``--seed``, runs one untimed warm-up
op (beside it, a fresh process runs one op on the first input variant
to measure its peak RSS above the RSS before it), then times ops back
to back for ``--seconds`` seconds (default: ``run_seconds`` in
``BENCHMARK.json``), checking every op's output.  Between ops, outside their timing, it sets
the workload up again, ``SETUP_REPEATS`` times in all.  With ``--trace 0``
the timed seconds are normalised to a reference speed of the machine,
measured as they run (``speed.py``), because a shared VM's speed swings
within seconds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, named and unitised as
``BENCHMARK.json`` lists them.  With ``--trace 0`` the metrics are the
end-to-end ones (``op_s``, ``setup_s``, ``peak_rss_mb``, ...); with
``--trace 1`` ops alternate untraced and traced, and the metrics are the
per-layer split of the median traced op, plus the tracing overhead.  A
traced run also writes its spans as Chrome trace-event JSON under
``hostbench/out/``.  See ``hostbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler
from tracing import SPAN_LAUNCH, SPAN_READ, SPAN_REPLAY, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-ups per run, spread over the timed window; ``setup_s`` is their
#: median.
SETUP_REPEATS = 3
#: Timed ops per run at least, whatever ``--seconds`` says.
MIN_OPS = 3
#: Seconds the isolated peak-RSS child may take.
CHILD_TIMEOUT_S = 150
#: A fixed glibc mmap threshold for the peak-RSS child: large blocks are
#: then always mapped and unmapped when freed, so the figure does not
#: hang on the allocator's history of the dynamic threshold.
RSS_CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

#: Launch phases of ``repro.gpusim.hostprof`` (top level) and the kernel
#: tick sections nested inside ``kernel``.
LAUNCH_PHASES = ("h2d", "kernel", "d2h", "free")
TICK_PHASES = ("setup", "merge", "chunk")

#: ``KernelReport.counters()`` entries reported as ``gpusim.<name>``
#: (``warp_steps`` is the report's ``total_warp_steps``).
COUNTERS = ("instruction_slots", "lane_reads", "transactions", "l1_hits",
            "l1_misses", "l2_hits", "l2_misses", "dram_bytes")


def calibrate() -> float:
    """Seconds of a fixed NumPy loop: context for comparing machines."""
    import numpy as np

    a = np.random.default_rng(0).integers(0, 1 << 30, 1 << 20)
    t0 = perf_counter()
    for _ in range(8):
        np.cumsum(np.sort(a))
    return perf_counter() - t0


def _phase(prof, name: str) -> tuple[float, int]:
    phase = prof.phases.get(name)
    return (phase.seconds, phase.calls) if phase is not None else (0.0, 0)


def layer_split(tracer, op_span, prof) -> dict:
    """Self seconds per layer of one traced op; they sum to the op span.

    ``preprocess`` is the launch's ``h2d`` phase, ``gpusim`` the cache
    model and ``end_step`` accounting, ``intersect`` the rest of the
    kernel tick sections, and ``runtime`` the rest of the launch.  In a
    serve replay the launches are not spanned, so ``serve.self_s`` is
    the replay outside the launch phases.
    """
    spans = {s.name: s.seconds for s in tracer.children(op_span)}
    h2d = _phase(prof, "h2d")[0]
    ticks = sum(_phase(prof, p)[0] for p in TICK_PHASES)
    cache_model = _phase(prof, "cache-model")[0]
    accounting = _phase(prof, "accounting")[0]
    in_phases = sum(_phase(prof, p)[0] for p in LAUNCH_PHASES)
    launch = spans.get(SPAN_LAUNCH)
    replay = spans.get(SPAN_REPLAY, 0.0)
    return {
        "graphs.read_s": spans.get(SPAN_READ, 0.0),
        "preprocess.s": h2d,
        "runtime.self_s": (in_phases if launch is None else launch)
        - h2d - ticks,
        "intersect.self_s": ticks - cache_model - accounting,
        "gpusim.cache_model_s": cache_model,
        "gpusim.accounting_s": accounting,
        "serve.self_s": replay - in_phases if replay else 0.0,
        "bench.unattributed_s": tracer.self_seconds(op_span),
        "runtime.other_s": 0.0 if launch is None else launch - in_phases,
    }


#: Keys of :func:`layer_split` that partition the op (``runtime.other_s``
#: is a part of ``runtime.self_s``).
SELF_TIMES = ("graphs.read_s", "preprocess.s", "runtime.self_s",
              "intersect.self_s", "gpusim.cache_model_s",
              "gpusim.accounting_s", "serve.self_s", "bench.unattributed_s")


def layer_counts(prof, data: dict, split: dict) -> dict:
    """Work counts of the traced op at each layer boundary."""
    report = data["report"]
    ticks_s = sum(_phase(prof, p)[0] for p in TICK_PHASES)
    steps = report.total_warp_steps if report is not None else 0
    metrics = {
        "graphs.arcs": data["arcs_read"],
        "preprocess.sim_ms": data["preprocess_sim_ms"],
        "runtime.launches": _phase(prof, "kernel")[1],
        "intersect.setup_ticks": _phase(prof, "setup")[1],
        "intersect.merge_ticks": _phase(prof, "merge")[1],
        "intersect.simd_efficiency": (report.simd_efficiency
                                      if report is not None else 0.0),
        "gpusim.cache_model_calls": _phase(prof, "cache-model")[1],
        "gpusim.host_us_per_warp_step": ticks_s / steps * 1e6 if steps else 0.0,
        "gpusim.warp_steps": steps,
    }
    counters = report.counters() if report is not None else {}
    for name in COUNTERS:
        metrics[f"gpusim.{name}"] = counters.get(name, 0)
    rep = data["serve"]
    jobs = len(rep.jobs) if rep else 0
    metrics.update({
        "serve.us_per_job": split["serve.self_s"] / jobs * 1e6 if jobs else 0.0,
        "serve.jobs": jobs,
        "serve.launches": rep.launches if rep else 0,
        "serve.memo_runs": metrics["runtime.launches"] if rep else 0,
        "serve.cache_hit_rate": rep.cache_hit_rate if rep else 0.0,
        "serve.replications": rep.replications if rep else 0,
        "serve.batched_jobs": rep.batched_jobs if rep else 0,
        "serve.fallbacks": rep.fallbacks if rep else 0,
        "serve.faults": rep.faults if rep else 0,
        "serve.shed": len(rep.shed) + len(rep.degraded) if rep else 0,
    })
    return metrics


def _identity(wl, out):
    """What every op on one input must reproduce exactly: its simulated
    end-to-end metrics and, where the op returns one, the kernel report."""
    report = getattr(out, "kernel_report", None)
    return wl.sim([out]), report.counters() if report is not None else None


class Run:
    """One benchmark run of one workload (see the module docstring).

    A workload may build ``variants`` inputs from the seed; ops cycle
    through them, and the simulated metrics pool the first op on each.

    Untraced, a :class:`SpeedSampler` runs from the first set-up to the
    last op, and ``setup_times`` and ``plain`` hold ``(wall, k0, k1)``
    intervals until :meth:`measure` turns them into normalised seconds.
    Traced, they are wall seconds: the probes would fall inside the spans.
    """

    def __init__(self, wl, seed: int, seconds: float, traced: bool,
                 workdir: str):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.traced, self.workdir = traced, workdir
        self.attempted = self.failed = 0
        self.sampler = None if traced else SpeedSampler()

    def setup(self) -> None:
        """The first set-up; the op's inputs and references come from it."""
        self.setup_times, self.build_times = [], []
        if self.sampler:
            self.sampler.start()
        self.inputs, self.refs = self._setup_once()

    def _mark(self) -> int:
        return self.sampler.mark() if self.sampler else 0

    def _interval(self, wall: float, k0: int):
        return (wall, k0, self._mark()) if self.sampler else wall

    def _setup_once(self):
        k0, t0 = self._mark(), perf_counter()
        inputs = self.wl.inputs(self.seed, self.workdir)
        t1 = perf_counter()
        refs = self.wl.references(inputs)
        self.setup_times.append(self._interval(perf_counter() - t0, k0))
        self.build_times.append(t1 - t0)
        return inputs, refs

    def _checked(self, variant: int, out) -> None:
        attempted, failed = self.wl.check(self.refs, out)
        identity = _identity(self.wl, out)
        if variant not in self.first:
            self.first[variant] = out
            self.expected[variant] = identity
        elif identity != self.expected[variant]:
            failed = attempted
        self.attempted += attempted
        self.failed += failed

    def _prepare(self, variant: int):
        state = self.wl.prepare(self.inputs, variant)
        gc.collect()
        return state

    def warm_up(self) -> None:
        """One untimed, checked op: lazy set-up finishes before timing."""
        self.first, self.expected = {}, {}
        self._checked(0, self.wl.op(self.inputs, self._prepare(0)))

    def measure(self) -> None:
        from repro.gpusim.hostprof import HostProfiler, host_profiling

        wl, inputs, k = self.wl, self.inputs, self.wl.variants
        self.tracer = Tracer()
        self.plain, self.traced_ops = [], []
        start = perf_counter()
        deadline = start + self.seconds
        while (perf_counter() < deadline
               or len(self.plain) < max(MIN_OPS, k)
               or (self.traced and len(self.traced_ops) < max(MIN_OPS, k))):
            done = len(self.setup_times)
            if (done < SETUP_REPEATS and perf_counter() - start
                    >= self.seconds * done / SETUP_REPEATS):
                # Later set-ups are spread over the window, so that their
                # median does not hang on one moment of the machine's load.
                t0 = perf_counter()
                self._setup_once()
                deadline += perf_counter() - t0
            if self.traced and len(self.plain) > len(self.traced_ops):
                variant = len(self.traced_ops) % k
                state, prof = self._prepare(variant), HostProfiler()
                self.tracer.op_id = len(self.traced_ops)
                with self.tracer.span("op") as op_span:
                    with host_profiling(prof):
                        out = wl.op(inputs, state, self.tracer)
                prof = getattr(out, "host_profiler", None) or prof
                self.traced_ops.append((op_span, prof, out))
            else:
                variant = len(self.plain) % k
                state = self._prepare(variant)
                k0, t0 = self._mark(), perf_counter()
                out = wl.op(inputs, state)
                self.plain.append(self._interval(perf_counter() - t0, k0))
            self._checked(variant, out)
            del out, state
        while len(self.setup_times) < SETUP_REPEATS:
            self._setup_once()
        self.sim = wl.sim([self.first[v] for v in range(k)])
        if self.sampler:
            self.stop()
            self.wall_op_s = statistics.median(iv[0] for iv in self.plain)
            self.plain, self.setup_times = (
                [self.sampler.normalised(*iv) for iv in intervals]
                for intervals in (self.plain, self.setup_times))

    def stop(self) -> None:
        if self.sampler:
            self.sampler.stop()

    def op_s(self) -> float:
        """Mean over the input variants of each one's median untraced op.

        Ops on different variants do different work, so one median over
        all of them would hang on how many ops of each the window holds.
        """
        k = self.wl.variants
        return statistics.fmean(statistics.median(self.plain[v::k])
                                for v in range(k))

    def end_to_end(self, peak_rss_mb: float) -> dict:
        metrics = {"op_s": self.op_s(),
                   "setup_s": statistics.median(self.setup_times),
                   "peak_rss_mb": peak_rss_mb,
                   "correct_frac": 1.0 - self.failed / self.attempted}
        metrics.update(self.sim)
        return metrics

    def per_layer(self, calibration_s: float) -> dict:
        ops = sorted(self.traced_ops, key=lambda t: t[0].seconds)
        op_span, prof, out = ops[(len(ops) - 1) // 2]   # the median_low op
        split = layer_split(self.tracer, op_span, prof)
        metrics = {"graphs.build_s": statistics.median(self.build_times),
                   **split,
                   **layer_counts(prof, self.wl.layer_data(out), split)}
        untraced = self.op_s()
        metrics.update({"trace.op_s": op_span.seconds,
                        "trace.untraced_op_s": untraced,
                        "trace.overhead_s": op_span.seconds - untraced,
                        "trace.ops": len(ops),
                        "host.calibration_s": calibration_s})
        return metrics


class IsolatedRss:
    """A fresh process that loads the op's inputs, runs one op and
    reports its peak RSS; it runs beside the untimed warm-up op."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--rss-child",
             "--workload", workload, "--seed", str(seed),
             "--workdir", workdir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, env={**os.environ, **RSS_CHILD_ENV})

    def peak_mb(self) -> float:
        out, err = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"peak-RSS child failed:\n{err}")
        return json.loads(out.strip().splitlines()[-1])["peak_rss_mb"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _status_kib(field: str) -> int:
    """One ``/proc/self/status`` memory field, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def rss_child(wl, seed: int, workdir: str) -> None:
    """Print the peak RSS of one op on the first input variant above the
    RSS before it: the interpreter, the imports and the inputs are not
    counted, the op's first-use imports and caches are."""
    inputs = wl.isolated_inputs(seed, workdir)
    state = wl.prepare(inputs, 0)
    gc.collect()
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")   # resets VmHWM to the current RSS
    before = _status_kib("VmRSS")
    wl.op(inputs, state)
    print(json.dumps({"peak_rss_mb": (_status_kib("VmHWM") - before) / 1024}))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured window (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rss-child", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is None and not args.rss_child:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import ALL

    if args.workload not in ALL:
        print(f"hostbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(ALL)})", file=sys.stderr)
        return 2
    wl = ALL[args.workload]()
    if args.rss_child:
        rss_child(wl, args.seed, args.workdir)
        return 0

    calibration_s = calibrate()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        run = Run(wl, args.seed, args.seconds, bool(args.trace), workdir)
        child = None
        try:
            run.setup()
            if not args.trace:
                child = IsolatedRss(wl.name, args.seed, workdir)
            run.warm_up()
            peak_rss_mb = child.peak_mb() if child else None
            if child:
                child.stop()
                child = None
            run.measure()
        finally:
            run.stop()
            if child:
                child.stop()
        if args.trace:
            metrics, kind = run.per_layer(calibration_s), "per_layer"
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            run.tracer.write_chrome(
                out_dir / f"trace-{wl.name}-seed{args.seed}.json")
        else:
            metrics, kind = run.end_to_end(peak_rss_mb), "end_to_end"
    speed = ""
    if run.sampler:
        probes = run.sampler.probes
        speed = (f", {len(probes)} speed probes, fastest "
                 f"{min(probes) * 1e6:.1f} us, median "
                 f"{statistics.median(probes) * 1e6:.1f} us, median op "
                 f"{run.wall_op_s:.4f} s before normalising")
    print(f"hostbench {wl.name} seed={args.seed}: {len(run.plain)} untraced "
          f"and {len(run.traced_ops)} traced ops, calibration "
          f"{calibration_s:.4f} s{speed}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in
             json.loads(BENCHMARK.read_text())[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
