"""The 8-step preprocessing phase (paper Section III-B).

Input: the edge array (every undirected edge as two arcs, arbitrary
order) already sitting on the host.  Output: the device-resident
structures the counting kernel wants:

* the compacted, sorted *forward* arc columns (``first`` holds the
  adjacency-list content, ``second`` the grouping key — see below), and
* the *node array* over the grouping column.

Ordering subtlety reproduced faithfully: the Section III-D2 trick packs
``{int u; int v}`` structs into little-endian 64-bit words, so the radix
sort orders arcs **by second vertex, then first**.  The node array
therefore indexes runs of the *second* column, and each run's *first*
entries — the lower-ordered (by degree, then id) neighbors of that
vertex, sorted ascending — are the adjacency lists the kernel merges.
``CountTriangles``'s ``edge[u_it]`` reads land in the first column,
exactly as in the paper's CUDA listing.

Memory pressure (Section III-D6): the radix sort's double buffer makes
step 3 the peak allocation (≈ 18 bytes/arc).  When it does not fit, the
``†`` path computes degrees and removes backward arcs *on the host*
first, halving what the device must hold (≈ 9 bytes/arc).
"""

from __future__ import annotations

# repro-lint: allow=SAN101 — preprocessing is host-orchestrated device
# work (thrust calls operate on buffer payloads directly, like
# thrust::device_ptr dereferences); the counting kernel never does this.

from dataclasses import dataclass

import numpy as np

from repro.errors import OutOfDeviceMemoryError
from repro.graphs.csr import build_node_ptr
from repro.graphs.edgearray import EdgeArray
from repro.gpusim import thrustlike
from repro.gpusim.device import CpuSpec, DeviceSpec, XEON_X5650
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.timing import Timeline
from repro.types import INDEX_DTYPE, VERTEX_DTYPE, pack_edges, unpack_edges
from repro.core.options import GpuOptions

#: Radix-sort scratch: double buffer + per-element scratch, as a fraction
#: of the key buffer.  Calibrated so the paper's ``†`` rows (Orkut and
#: Kronecker 21 on the 3 GB C2050, neither on the 4 GB GTX 980) fall out
#: of the capacity arithmetic.
SORT_TEMP_FACTOR = 1.25


@dataclass
class PreprocessResult:
    """Device-resident structures handed to the counting kernel.

    Attributes
    ----------
    adj : DeviceBuffer
        The adjacency-content column (``edge[0..m')`` in the paper's
        kernel).  Padded with one sentinel element because the final
        merge variant reads one slot past a just-exhausted list.
    keys : DeviceBuffer
        The grouping column (``edge[m'..2m')``); AoS mode leaves both
        columns interleaved in :attr:`aos` instead.
    aos : DeviceBuffer or None
        Interleaved layout when ``options.unzip`` is False.
    node : DeviceBuffer
        Node array over the grouping column (n+1 entries).
    num_nodes, num_forward_arcs : int
    used_cpu_fallback : bool
        Whether the Section III-D6 path ran (the ``†`` marker).
    """

    adj: DeviceBuffer | None
    keys: DeviceBuffer | None
    aos: DeviceBuffer | None
    node: DeviceBuffer
    num_nodes: int
    num_forward_arcs: int
    used_cpu_fallback: bool


def forward_mask(first: np.ndarray, second: np.ndarray,
                 degrees: np.ndarray) -> np.ndarray:
    """Arcs that go *forward* under the paper's order: lower degree →
    higher degree, ties broken by vertex id (step 5's comparison)."""
    du = degrees[first]
    dv = degrees[second]
    return (du < dv) | ((du == dv) & (first < second))


def preprocess(graph: EdgeArray,
               device: DeviceSpec,
               memory: DeviceMemory,
               timeline: Timeline,
               options: GpuOptions = GpuOptions(),
               cpu: CpuSpec = XEON_X5650) -> PreprocessResult:
    """Run the preprocessing phase, falling back per ``options.cpu_preprocess``.

    Raises
    ------
    OutOfDeviceMemoryError
        If even the fallback path cannot fit (graph > 2× capacity), or if
        ``options.cpu_preprocess == "never"`` and the direct path OOMs.
    """
    if options.cpu_preprocess == "always":
        return _preprocess_cpu_fallback(graph, device, memory, timeline,
                                        options, cpu)
    snap = memory.snapshot()
    try:
        return _preprocess_on_device(graph, device, memory, timeline, options)
    except OutOfDeviceMemoryError:
        memory.release_new(snap)
        if options.cpu_preprocess != "auto":
            raise
        return _preprocess_cpu_fallback(graph, device, memory, timeline,
                                        options, cpu)


def device_sort(device: DeviceSpec, memory: DeviceMemory, timeline: Timeline,
                options: GpuOptions, packed: DeviceBuffer) -> None:
    """Step 3, shared by every path (including the executed pipeline in
    :mod:`repro.runtime.pipeline`): allocate the radix sort's scratch
    double buffer, sort the packed words per ``options.sort_as_u64``,
    free the scratch.  In place on ``packed``; the scratch allocation is
    part of the device-address contract (it moves every later buffer's
    address when it grows), which is why callers must not inline it."""
    temp = memory.alloc_empty("sort_temp",
                              int(packed.nbytes * SORT_TEMP_FACTOR) // 8 + 1,
                              np.uint64)
    if options.sort_as_u64:
        thrustlike.sort_u64(device, packed, timeline)
    else:
        # Comparison sort on pairs; same (second, first) order so the rest
        # of the pipeline is layout-identical — only the cost differs.
        sf, ss = unpack_edges(packed.data)
        tmp_first = DeviceBuffer("pair_first", sf, packed.device_addr)
        tmp_second = DeviceBuffer("pair_second", ss, packed.device_addr)
        thrustlike.sort_pairs(device, tmp_second, tmp_first, timeline)
        packed.data[:] = np.sort(packed.data)
    memory.free(temp)


# ---------------------------------------------------------------------- #
# the direct (all-GPU) path — steps 1..8
# ---------------------------------------------------------------------- #

def _preprocess_on_device(graph: EdgeArray, device: DeviceSpec,
                          memory: DeviceMemory, timeline: Timeline,
                          options: GpuOptions) -> PreprocessResult:
    m = graph.num_arcs

    # Step 1 — copy the edge array to the GPU (as packed words; the same
    # bytes as the AoS struct array).
    packed = memory.alloc("edges_packed", pack_edges(graph.first, graph.second))
    timeline.add("h2d edge array", memory.h2d_ms(packed.nbytes), phase="copy")

    # Step 2 — number of vertices via reduce(maximum) over both halves.
    if m:
        hi_max = int((packed.data >> np.uint64(32)).max())
        lo_max = int((packed.data & np.uint64(0xFFFFFFFF)).max())
        num_nodes = max(hi_max, lo_max) + 1
    else:
        num_nodes = graph.num_nodes
    timeline.add("reduce_max (num vertices)",
                 thrustlike.stream_ms(device, packed.nbytes, 1.0))
    num_nodes = max(num_nodes, graph.num_nodes)

    # Step 3 — sort.  The radix path needs its double buffer; this is the
    # allocation that triggers the † fallback on memory-pressed cards.
    device_sort(device, memory, timeline, options, packed)

    first, second = unpack_edges(packed.data)

    # Step 4 — node array over the grouping (second) column.
    node_full = build_node_ptr(second, num_nodes)
    timeline.add("node array", thrustlike.stream_ms(device, packed.nbytes, 2.0))
    node_buf_full = memory.alloc("node_full", node_full.astype(INDEX_DTYPE))

    # Step 5 — mark backward arcs (higher → lower under the degree order).
    # INDEX_DTYPE (degrees < arcs < 2^31) halves forward_mask's two per-arc
    # degree gathers, which set the peak host memory of preprocessing.
    degrees = np.diff(node_full).astype(INDEX_DTYPE)
    keep = forward_mask(first, second, degrees)
    timeline.add("mark backward",
                 thrustlike.stream_ms(device, packed.nbytes, 3.0))

    # Step 6 — remove_if compaction.
    m_fwd = thrustlike.remove_if(device, packed, ~keep, timeline)
    memory.free(node_buf_full)

    first_fwd, second_fwd = unpack_edges(packed.data[:m_fwd])

    # Steps 7–8 — layout conversion and final node array.
    result = _finalize_layout(device, memory, timeline, options,
                              first_fwd, second_fwd, num_nodes)
    memory.free(packed)
    return result


# ---------------------------------------------------------------------- #
# the † path — Section III-D6
# ---------------------------------------------------------------------- #

def _preprocess_cpu_fallback(graph: EdgeArray, device: DeviceSpec,
                             memory: DeviceMemory, timeline: Timeline,
                             options: GpuOptions,
                             cpu: CpuSpec) -> PreprocessResult:
    m = graph.num_arcs
    num_nodes = graph.num_nodes

    # Host side: degrees (one counting pass) + forward filter (one pass).
    degrees = graph.degrees()
    keep = forward_mask(graph.first, graph.second, degrees)
    host_elems = 2 * m  # two passes over the arc list
    timeline.add("cpu degrees + remove backward",
                 host_elems * cpu.ns_per_pass_element * 1e-6)

    first_fwd = graph.first[keep]
    second_fwd = graph.second[keep]
    m_fwd = len(first_fwd)

    # Device side: copy the halved array, then sort / unzip / node array.
    packed = memory.alloc("edges_packed_fwd", pack_edges(first_fwd, second_fwd))
    timeline.add("h2d edge array (forward only)",
                 memory.h2d_ms(packed.nbytes), phase="copy")

    device_sort(device, memory, timeline, options, packed)

    first_s, second_s = unpack_edges(packed.data)
    result = _finalize_layout(device, memory, timeline, options,
                              first_s, second_s, num_nodes,
                              used_cpu_fallback=True)
    memory.free(packed)
    return result


# ---------------------------------------------------------------------- #
# steps 7–8 shared tail
# ---------------------------------------------------------------------- #

def _finalize_layout(device: DeviceSpec, memory: DeviceMemory,
                     timeline: Timeline, options: GpuOptions,
                     first_fwd: np.ndarray, second_fwd: np.ndarray,
                     num_nodes: int,
                     used_cpu_fallback: bool = False) -> PreprocessResult:
    m_fwd = len(first_fwd)
    node = build_node_ptr(second_fwd, num_nodes)
    timeline.add("recalculate node array",
                 thrustlike.stream_ms(device, 8 * m_fwd, 2.0))
    node_buf = memory.alloc("node", node.astype(INDEX_DTYPE))

    if options.unzip:
        # Step 7 — SoA.  Pad the adjacency column: the final merge loop
        # reads edge[++it] once past an exhausted list (harmless in CUDA
        # because the allocation is larger; explicit here).
        adj = memory.alloc("adj",
                           np.concatenate([first_fwd,
                                           np.zeros(1, VERTEX_DTYPE)]))
        keys = memory.alloc("keys", second_fwd.copy())
        timeline.add("unzip", thrustlike.stream_ms(device, 8 * m_fwd, 2.0))
        return PreprocessResult(adj=adj, keys=keys, aos=None, node=node_buf,
                                num_nodes=num_nodes, num_forward_arcs=m_fwd,
                                used_cpu_fallback=used_cpu_fallback)

    interleaved = np.empty(2 * m_fwd + 2, VERTEX_DTYPE)
    interleaved[0:2 * m_fwd:2] = first_fwd
    interleaved[1:2 * m_fwd + 1:2] = second_fwd
    interleaved[-2:] = 0
    aos = memory.alloc("edges_aos", interleaved)
    return PreprocessResult(adj=None, keys=None, aos=aos, node=node_buf,
                            num_nodes=num_nodes, num_forward_arcs=m_fwd,
                            used_cpu_fallback=used_cpu_fallback)
