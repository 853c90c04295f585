"""Distributed partitioned counting: both Section VI directions at once.

The paper closes with two wishes: (1) split the graph into subgraphs
that can be processed independently — enabling both *better multi-GPU
scaling* and *graphs that do not fit GPU memory*; this module delivers
exactly that by combining the vertex-partition scheme of
:mod:`repro.core.partitioned` with the multi-device substrate:

1. hash vertices into ``num_parts`` buckets;
2. form one induced-subgraph counting *job* per part subset Q (|Q| ≤ 3)
   with a non-zero inclusion–exclusion weight
   ``w(Q) = Σ_{s=|Q|}^{3} (−1)^{s−|Q|} · C(p−|Q|, s−|Q|)``;
3. schedule jobs across the GPUs greedily (longest processing time
   first, estimated by subgraph arc count);
4. each device runs its jobs *independently* — its own preprocessing,
   its own kernel, no cross-device traffic at all (the property the
   paper hoped splitting would buy);
5. the exact total is ``Σ w(Q) · count(Q)``.

Only step 3 depends on the GPU count, so the code splits there:
:func:`partition_run` does steps 1, 2 and 4 (every job's own run), and
:meth:`PartitionRun.assemble` does step 3 and totals the devices' busy
times.  A caller that needs the same split at several gang sizes (the
serving scheduler, before and after a device fails) runs the jobs once.

Unlike Section III-E's scheme there is no serial preprocessing bottleneck
— every job preprocesses on its own device — so Amdahl's cap disappears,
at the price of redundant arc-visits across overlapping subsets (the
trade-off the paper was unsure about; the result object reports it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb

import numpy as np

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import DeviceSpec, TESLA_C2050
from repro.gpusim.device import XEON_X5650
from repro.gpusim.memory import DeviceMemory


def subset_weight(subset_size: int, num_parts: int) -> int:
    """Inclusion–exclusion weight of an induced subgraph over
    ``subset_size`` parts (see module docstring)."""
    return sum((-1) ** (s - subset_size)
               * comb(num_parts - subset_size, s - subset_size)
               for s in range(subset_size, min(3, num_parts) + 1))


def lpt_assign(costs, num_devices: int,
               sizes=None, capacities=None) -> list[int]:
    """Greedy longest-processing-time-first job → device assignment.

    ``costs`` are the load estimates (here: subgraph arc counts); jobs
    are placed biggest-first on the least-loaded device.  The serving
    scheduler reuses this with the memory-aware extension: ``sizes`` are
    per-job working-set byte estimates and ``capacities`` per-device free
    bytes, and a job is only placed on a device that can hold it
    (devices run their jobs sequentially, so the constraint is per job,
    not per total).  Returns one device index per job, in input order;
    ``-1`` marks a job that fits no device.
    """
    if num_devices < 1:
        raise ReproError(f"need >= 1 device, got {num_devices}")
    if sizes is None:
        sizes = [0] * len(costs)
    if capacities is None:
        capacities = [float("inf")] * num_devices
    if len(sizes) != len(costs):
        raise ReproError("sizes must match costs in length")
    if len(capacities) != num_devices:
        raise ReproError("capacities must match num_devices in length")
    loads = [0.0] * num_devices
    assignment = [-1] * len(costs)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        eligible = [d for d in range(num_devices) if sizes[i] <= capacities[d]]
        if not eligible:
            continue
        dev = min(eligible, key=lambda d: (loads[d], d))
        assignment[i] = dev
        loads[dev] += costs[i]
    return assignment


@dataclass
class DistributedJob:
    """One induced-subgraph counting job."""

    parts: tuple[int, ...]
    weight: int
    num_arcs: int
    device_index: int = -1
    count: int = 0
    elapsed_ms: float = 0.0


@dataclass
class DistributedResult:
    triangles: int
    num_parts: int
    num_gpus: int
    jobs: list[DistributedJob] = field(default_factory=list)
    #: simulated time of the busiest device (the run's makespan).
    makespan_ms: float = 0.0
    per_device_ms: list[float] = field(default_factory=list)
    partition_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.partition_ms + self.makespan_ms

    @property
    def largest_subgraph_arcs(self) -> int:
        return max((j.num_arcs for j in self.jobs), default=0)

    @property
    def redundant_arc_work(self) -> int:
        return sum(j.num_arcs for j in self.jobs)

    @property
    def load_balance(self) -> float:
        """Mean device busy time over the makespan (1.0 = perfect)."""
        if not self.per_device_ms or self.makespan_ms == 0:
            return 0.0
        return float(np.mean(self.per_device_ms)) / self.makespan_ms


@dataclass(frozen=True)
class PartitionRun:
    """The gang-size-independent part of a distributed run.

    Partitioning, the subset jobs and each job's own pipeline run depend
    on the graph, device, part count, options and seed — not on how many
    GPUs share the jobs.  ``jobs`` carry their counts and simulated
    times with ``device_index`` unset; :meth:`assemble` places them.
    Nothing here is mutated after construction, so one run may be
    assembled at any number of gang sizes.
    """

    num_parts: int
    jobs: tuple[DistributedJob, ...]
    partition_ms: float

    def assemble(self, num_gpus: int) -> DistributedResult:
        """LPT-place the jobs on ``num_gpus`` devices and total the result.

        Devices run their jobs back to back in job order, so each
        device's busy time is the in-order sum of its jobs' times.
        Returns fresh job objects; ``self.jobs`` stay untouched.
        """
        assignment = lpt_assign([j.num_arcs for j in self.jobs], num_gpus)
        jobs = [replace(job, device_index=dev)
                for job, dev in zip(self.jobs, assignment)]
        per_device_ms = [0.0] * num_gpus
        total = 0
        for job in jobs:
            per_device_ms[job.device_index] += job.elapsed_ms
            total += job.weight * job.count
        return DistributedResult(triangles=total, num_parts=self.num_parts,
                                 num_gpus=num_gpus, jobs=jobs,
                                 makespan_ms=max(per_device_ms, default=0.0),
                                 per_device_ms=per_device_ms,
                                 partition_ms=self.partition_ms)


def partition_run(graph: EdgeArray,
                  device: DeviceSpec = TESLA_C2050,
                  num_parts: int = 6,
                  options: GpuOptions = GpuOptions(),
                  seed: int = 0) -> PartitionRun:
    """Partition the graph and count every subset job on its own device.

    Raises
    ------
    OutOfDeviceMemoryError
        If some subgraph does not fit ``device``.
    """
    if num_parts < 1:
        raise ReproError(f"need >= 1 part, got {num_parts}")

    rng = np.random.default_rng(seed)
    part_of = rng.integers(0, num_parts, size=max(graph.num_nodes, 1))
    pf = part_of[graph.first] if graph.num_arcs else np.zeros(0, np.int64)
    ps = part_of[graph.second] if graph.num_arcs else np.zeros(0, np.int64)
    # Host-side partition pass: label both endpoints, one pass each.
    partition_ms = 2 * graph.num_arcs * XEON_X5650.ns_per_pass_element * 1e-6

    # One job per subset with a non-zero weight, each run in a fresh
    # device memory (devices share nothing).
    jobs: list[DistributedJob] = []
    for size in range(1, min(3, num_parts) + 1):
        weight = subset_weight(size, num_parts)
        if weight == 0:
            continue
        for parts in combinations(range(num_parts), size):
            mask = np.isin(pf, parts) & np.isin(ps, parts)
            sub = EdgeArray(graph.first[mask], graph.second[mask],
                            num_nodes=graph.num_nodes, check=False)
            run = gpu_count_triangles(sub, device=device,
                                      memory=DeviceMemory(device),
                                      options=options)
            jobs.append(DistributedJob(parts=parts, weight=weight,
                                       num_arcs=sub.num_arcs,
                                       count=run.triangles,
                                       elapsed_ms=run.total_ms))
    return PartitionRun(num_parts=num_parts, jobs=tuple(jobs),
                        partition_ms=partition_ms)


def distributed_count_triangles(graph: EdgeArray,
                                device: DeviceSpec = TESLA_C2050,
                                num_gpus: int = 4,
                                num_parts: int = 6,
                                options: GpuOptions = GpuOptions(),
                                seed: int = 0) -> DistributedResult:
    """Count triangles exactly with independent per-device subgraph jobs.

    One :func:`partition_run` assembled at ``num_gpus``.

    Parameters
    ----------
    num_parts : int
        Vertex buckets p; jobs are the ≤3-subsets with non-zero weight,
        so more parts mean smaller subgraphs but more redundancy
        (O(p³) jobs).
    """
    if num_gpus < 1:
        raise ReproError(f"need >= 1 GPU, got {num_gpus}")
    return partition_run(graph, device=device, num_parts=num_parts,
                         options=options, seed=seed).assemble(num_gpus)
