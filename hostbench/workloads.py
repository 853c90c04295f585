"""The three benchmark workloads and their output checks.

Each workload builds its inputs from a seed (``inputs``), computes the
references an op is checked against on an independent CPU path
(``references``), prepares per-op state outside the timer (``prepare``)
and runs one timed operation (``op``) whose output ``check`` verifies.
``sim`` gives the simulated end-to-end metrics pooled over a list of op
outputs, one per input variant (``variants`` of them, cycled by the
ops).  Sizes are pinned here, so ``REPRO_SCALE`` does not change them.

``op`` wraps each call into a layer's public function in a tracer span;
with tracing off the tracer is :data:`NO_TRACE` and the spans cost one
``nullcontext`` each.
"""

from __future__ import annotations

import os
import statistics
from contextlib import nullcontext

import numpy as np

import repro
from repro.graphs.datasets import WORKLOADS
from repro.graphs.generators.watts_strogatz import watts_strogatz
from repro.serve import (DONE, ControlPlane, Fleet, PlaneConfig,
                         TraceConfig, build_graph_pool, generate_trace,
                         serve_trace, size_fleet_memory)
from repro.serve.queue import TIER_EXACT
from tracing import SPAN_LAUNCH, SPAN_READ, SPAN_REPLAY

#: ``watts_strogatz`` ring degree and rewiring probability of
#: ``clustering-file``.
WS_K, WS_P = 8, 0.1
#: ``serve-overload``'s trace load (``TraceConfig.rate_multiplier`` and
#: ``burst``) and its failure: device ``FAIL_DEVICE`` fails at
#: ``FAIL_AT`` of the window.
RATE_MULTIPLIER, BURST = 10.0, 4.0
FAIL_DEVICE, FAIL_AT = 1, 0.5


class _NoTrace:
    def span(self, name):
        return nullcontext()


NO_TRACE = _NoTrace()


def _layer_data(timeline, report, arcs_read: int = 0) -> dict:
    """What the traced run reports of one op beyond the host profile."""
    return {"preprocess_sim_ms": (timeline.phase_ms("copy")
                                  + timeline.phase_ms("preprocess")),
            "report": report, "arcs_read": arcs_read, "serve": None}


def _single_launch_sim(total_ms) -> dict:
    """An op that is one exact launch is one job with no deadline."""
    ms = statistics.mean(total_ms)
    return {"sim_ms": ms, "sim_p50_ms": ms, "sim_p99_ms": ms,
            "exact_frac": 1.0, "deadline_met_frac": 1.0}


class CountBA:
    """``gpu_count_triangles`` on a Barabási–Albert graph (skewed lists)."""

    name = "count-ba"
    variants = 1

    def __init__(self, scale: float = 1 / 128):
        self.scale = scale

    def inputs(self, seed: int, workdir: str) -> dict:
        return {"graph": WORKLOADS["ba"].build(scale=self.scale, seed=seed)}

    isolated_inputs = inputs

    def references(self, inputs: dict) -> dict:
        return {"triangles": repro.forward_count_cpu(inputs["graph"]).triangles}

    def prepare(self, inputs: dict, variant: int):
        return None

    def op(self, inputs: dict, state, tracer=NO_TRACE):
        with tracer.span(SPAN_LAUNCH):
            return repro.gpu_count_triangles(inputs["graph"])

    def check(self, refs: dict, out) -> tuple[int, int]:
        return 1, int(out.triangles != refs["triangles"])

    def sim(self, outs: list) -> dict:
        return _single_launch_sim(out.total_ms for out in outs)

    def layer_data(self, out) -> dict:
        return _layer_data(out.timeline, out.kernel_report)


class ClusteringFile:
    """SNAP edge-list ingestion plus per-vertex counts (``gpu_local_counts``)
    on a Watts–Strogatz graph larger than the simulated L2."""

    name = "clustering-file"
    variants = 1

    def __init__(self, nodes: int = 200_000):
        self.nodes = nodes

    @staticmethod
    def _path(workdir: str) -> str:
        return os.path.join(workdir, "edges.txt")

    def inputs(self, seed: int, workdir: str) -> dict:
        graph = watts_strogatz(self.nodes, WS_K, WS_P, seed=seed)
        path = self._path(workdir)
        repro.io.write_edge_list(graph, path)
        return {"path": path, "graph": graph}

    def isolated_inputs(self, seed: int, workdir: str) -> dict:
        # The parent's set-up already wrote the file; the op only reads it.
        return {"path": self._path(workdir)}

    def references(self, inputs: dict) -> dict:
        return {"local": repro.stats.local_triangles(inputs["graph"])}

    def prepare(self, inputs: dict, variant: int):
        return None

    def op(self, inputs: dict, state, tracer=NO_TRACE):
        with tracer.span(SPAN_READ):
            graph = repro.io.read_edge_list(inputs["path"])
        with tracer.span(SPAN_LAUNCH):
            counts = repro.gpu_local_counts(graph)
        return graph, counts

    def check(self, refs: dict, out) -> tuple[int, int]:
        _, counts = out
        local = refs["local"]
        ok = (counts.local_triangles.shape == local.shape
              and bool((counts.local_triangles == local).all()))
        return 1, int(not ok)

    def sim(self, outs: list) -> dict:
        return _single_launch_sim(counts.total_ms for _, counts in outs)

    def layer_data(self, out) -> dict:
        # ``LocalCountResult`` carries no kernel report, so the traced run
        # repeats the same launch once, untimed, through the runtime.
        from repro.runtime import LaunchPlan, launch

        graph = out[0]
        run = launch(LaunchPlan(kernel="local", graph=graph))
        return _layer_data(run.timeline, run.report, graph.num_arcs)


class ServeOverload:
    """A 10x bursty trace replayed on four GTX 980s under the control
    plane, with device 1 failing halfway through the window.

    One trace varies a lot from seed to seed (job count, graph pool), so
    a run builds ``variants`` traces from seeds ``seed·variants + i`` and
    its ops replay them in turn.
    """

    name = "serve-overload"
    fleet = "gtx980x4"
    variants = 8

    def __init__(self, duration_ms: float = 600_000.0):
        self.duration_ms = duration_ms

    def inputs(self, seed: int, workdir: str) -> dict:
        weakest = min(Fleet.parse(self.fleet), key=lambda d: d.spec.memory_bytes)
        traces = []
        for i in range(self.variants):
            config = TraceConfig(seed=seed * self.variants + i,
                                 duration_ms=self.duration_ms,
                                 rate_multiplier=RATE_MULTIPLIER,
                                 burst=BURST)
            pool = build_graph_pool(config)
            traces.append((config, pool,
                           size_fleet_memory(pool, config, weakest.spec)))
        return {"traces": traces}

    isolated_inputs = inputs

    def references(self, inputs: dict) -> dict:
        return {id(g): repro.forward_count_cpu(g).triangles
                for _, pool, _ in inputs["traces"] for g in pool}

    def prepare(self, inputs: dict, variant: int):
        config, pool, memory = inputs["traces"][variant]
        fleet = Fleet.parse(self.fleet, memory_bytes=memory)
        fleet.inject_failure(FAIL_DEVICE, self.duration_ms * FAIL_AT)
        return (fleet, generate_trace(config, pool),
                ControlPlane(PlaneConfig()))

    def op(self, inputs: dict, state, tracer=NO_TRACE):
        fleet, jobs, plane = state
        with tracer.span(SPAN_REPLAY):
            return serve_trace(fleet, jobs, plane=plane)

    def check(self, refs: dict, out) -> tuple[int, int]:
        """A job fails when it ends unanswered (lost or shed) or its exact
        answer differs from its graph's CPU count."""
        failed = sum(j.status != DONE
                     or (j.tier == TIER_EXACT
                         and j.triangles != refs.get(id(j.graph)))
                     for j in out.jobs)
        return len(out.jobs), failed

    def sim(self, outs: list) -> dict:
        """Pooled over every job of the replays: mean simulated service
        ms per answered job, latency percentiles and answer fractions."""
        jobs = [j for out in outs for j in out.jobs]
        done = [j for j in jobs if j.status == DONE]
        latency = [j.latency_ms for j in done]
        return {"sim_ms": (sum(out.total_service_ms for out in outs)
                           / max(len(done), 1)),
                "sim_p50_ms": float(np.percentile(latency, 50)),
                "sim_p99_ms": float(np.percentile(latency, 99)),
                "exact_frac": sum(j.tier == TIER_EXACT for j in done) / len(jobs),
                "deadline_met_frac": (sum(j.met_deadline for j in jobs)
                                      / len(jobs))}

    def layer_data(self, out) -> dict:
        # The replay exposes no per-launch timeline or kernel report.
        return {"preprocess_sim_ms": 0.0, "report": None, "arcs_read": 0,
                "serve": out}


ALL = {w.name: w for w in (CountBA, ClusteringFile, ServeOverload)}
