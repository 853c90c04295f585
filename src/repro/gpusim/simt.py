"""Warp-lockstep SIMT execution engine.

The engine executes kernels the way the hardware does at warp
granularity: all 32 lanes of a warp move through the instruction stream
together under an active mask; a warp leaves a divergent loop only when
*every* lane has left it (reconvergence), which is exactly the
effect the paper's Section III-D5 warp-size experiment manipulates.

Kernels are written *vectorized over warps*: per-lane state lives in
NumPy arrays indexed by global lane id, and one engine "tick" advances
every live warp by one warp-instruction-block (a merge-loop iteration,
an edge-setup block, ...).  The engine is responsible for

* memory: index → device byte address → per-warp coalescing →
  per-SM read-only cache → device L2 → DRAM byte counting,
* occupancy bookkeeping (which SM owns which warp),
* instruction/step accounting per SM (feeds the timing model),
* divergence accounting (active lanes per executed warp-step).

The functional results are exact — the engine *computes* with the real
data while it counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

from repro.errors import InvalidLaunchError, KernelFault, ReproError
from repro.gpusim.cache import CacheArray, FirstTouchL2
from repro.gpusim.coalesce import coalesce
from repro.gpusim.device import DeviceSpec
from repro.gpusim.hostprof import current_host_profiler
from repro.gpusim.memory import DeviceBuffer
from repro.utils import boundary_mask


_INT32_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class LaunchConfig:
    """Kernel launch geometry — the paper's tuning knobs (Section III-C).

    The paper's grid search concludes 64 threads/block × 8 blocks/SM is
    (near-)optimal on all three devices; those are the defaults.

    ``simulated_warp_size`` implements the Section III-D5 trick: running
    with logically smaller warps (extra threads idle) so a cache miss
    stalls fewer lanes.  It must divide the hardware warp size.
    """

    threads_per_block: int = 64
    blocks_per_sm: int = 8
    simulated_warp_size: int | None = None

    def validate(self, device: DeviceSpec) -> None:
        """Check the geometry against ``device``'s limits.

        Every message names the device and the violated limit value, so
        fleet-level failures (many devices, one bad config) attribute
        without a debugger.
        """
        tpb, bps = self.threads_per_block, self.blocks_per_sm
        if tpb < 1 or tpb > device.max_threads_per_block:
            raise InvalidLaunchError(
                f"threads_per_block={tpb} outside "
                f"[1, {device.max_threads_per_block}] "
                f"(max_threads_per_block on {device.name})")
        if tpb % device.warp_size:
            raise InvalidLaunchError(
                f"threads_per_block={tpb} not a multiple of warp size "
                f"{device.warp_size} on {device.name}")
        if bps < 1 or bps > device.max_blocks_per_sm:
            raise InvalidLaunchError(
                f"blocks_per_sm={bps} outside [1, {device.max_blocks_per_sm}] "
                f"(max_blocks_per_sm on {device.name})")
        if tpb * bps > device.max_threads_per_sm:
            raise InvalidLaunchError(
                f"{tpb} threads/block × {bps} blocks/SM exceeds "
                f"{device.max_threads_per_sm} resident threads per SM "
                f"on {device.name}")
        if self.simulated_warp_size is not None:
            sws = self.simulated_warp_size
            if sws < 1 or device.warp_size % sws:
                raise InvalidLaunchError(
                    f"simulated_warp_size={sws} must divide warp size "
                    f"{device.warp_size} on {device.name}")

    def grid_blocks(self, device: DeviceSpec) -> int:
        return self.blocks_per_sm * device.num_sms

    def total_threads(self, device: DeviceSpec) -> int:
        return self.grid_blocks(device) * self.threads_per_block

    def resident_warps_per_sm(self, device: DeviceSpec) -> int:
        return self.threads_per_block * self.blocks_per_sm // device.warp_size


@dataclass
class KernelReport:
    """Everything the engine measured during one kernel execution.

    This is pure *work*; :mod:`repro.gpusim.timing` converts it to
    simulated time using the device constants.
    """

    device: DeviceSpec | None = None
    launch: LaunchConfig | None = None
    #: warp-steps executed, per instruction-block kind (e.g. "merge", "setup").
    warp_steps: dict = field(default_factory=dict)
    #: warp-instruction slots issued (warp-steps × instructions of the block).
    instruction_slots: int = 0
    #: per-SM instruction slots (imbalance shows up here).
    sm_instruction_slots: np.ndarray | None = None
    #: lane-level reads before coalescing.
    lane_reads: int = 0
    #: memory transactions after per-warp coalescing.
    transactions: int = 0
    #: L1 (read-only cache) hits/misses — Table II's "cache hit rate".
    l1_hits: int = 0
    l1_misses: int = 0
    #: L2 hits/misses (L2 probed on L1 misses, or directly if L1 bypassed).
    l2_hits: int = 0
    l2_misses: int = 0
    #: bytes served by L2 (hits and miss fills — the L2 bandwidth load).
    l2_bytes: int = 0
    #: bytes actually fetched from DRAM (L2 miss fills + uncached writes).
    dram_bytes: int = 0
    #: sum over executed warp-steps of active lanes (divergence numerator).
    active_lane_sum: int = 0
    #: executed warp-steps total (divergence denominator, × warp size).
    total_warp_steps: int = 0

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def simd_efficiency(self) -> float:
        """Mean fraction of lanes active per executed warp-step."""
        if not self.total_warp_steps:
            return 0.0
        return self.active_lane_sum / (self.total_warp_steps *
                                       self.launch_warp_size)

    @property
    def launch_warp_size(self) -> int:
        if self.launch is not None and self.launch.simulated_warp_size:
            return self.launch.simulated_warp_size
        return self.device.warp_size if self.device is not None else 32

    def counters(self) -> dict:
        """Every modeled counter as plain comparable values.

        This is the byte-identity surface the compacted engine is held
        to: two executions are equivalent iff their ``counters()`` dicts
        are equal (see ``tests/test_engine_equivalence.py``).
        """
        sm_slots = (tuple(int(s) for s in self.sm_instruction_slots)
                    if self.sm_instruction_slots is not None else None)
        return {
            "warp_steps": dict(sorted(self.warp_steps.items())),
            "instruction_slots": int(self.instruction_slots),
            "sm_instruction_slots": sm_slots,
            "lane_reads": int(self.lane_reads),
            "transactions": int(self.transactions),
            "l1_hits": int(self.l1_hits),
            "l1_misses": int(self.l1_misses),
            "l2_hits": int(self.l2_hits),
            "l2_misses": int(self.l2_misses),
            "l2_bytes": int(self.l2_bytes),
            "dram_bytes": int(self.dram_bytes),
            "active_lane_sum": int(self.active_lane_sum),
            "total_warp_steps": int(self.total_warp_steps),
        }


class SimtEngine:
    """Executes one kernel launch on one simulated device.

    Parameters
    ----------
    device : DeviceSpec
    launch : LaunchConfig
    use_ro_cache : bool
        Section III-D4: when False (no ``const __restrict__`` on a
        Kepler/Maxwell part), global loads bypass the per-SM cache and go
        to L2 at sector granularity.  Fermi parts cache global loads in
        L1 regardless (`device.caches_global_loads_by_default`).
    sanitizer : repro.sanitize.Sanitizer, optional
        Dynamic checker layer (memcheck / initcheck / racecheck).  The
        hooks are pure observers — :class:`KernelReport` counters are
        bit-identical with or without one attached — and cost a single
        ``None`` check per access when absent.
    """

    def __init__(self, device: DeviceSpec, launch: LaunchConfig,
                 use_ro_cache: bool = True, sanitizer=None):
        launch.validate(device)
        self.device = device
        self.launch = launch
        self.sanitizer = sanitizer

        warp = launch.simulated_warp_size or device.warp_size
        self.warp_size = warp
        self.num_threads = launch.total_threads(device)
        self.num_warps = self.num_threads // warp
        if sanitizer is not None:
            sanitizer.bind_engine(self)

        # Warp → SM ownership: blocks are distributed round-robin over SMs
        # (how the hardware distributes a grid sized blocks_per_sm × SMs).
        tpb = launch.threads_per_block
        warps_per_block = tpb // warp
        block_of_warp = np.arange(self.num_warps) // warps_per_block
        self.warp_sm = (block_of_warp % device.num_sms).astype(np.int64)

        l1_enabled = use_ro_cache or device.caches_global_loads_by_default
        self.l1 = (CacheArray(device.num_sms, device.l1_bytes,
                              device.line_bytes, device.l1_ways)
                   if l1_enabled else None)
        self.l2 = CacheArray(1, device.l2_bytes, device.line_bytes,
                             device.l2_ways)
        self.report = KernelReport(device=device, launch=launch)
        self.report.sm_instruction_slots = np.zeros(device.num_sms, dtype=np.int64)
        # Packed-key geometry for the compacted fast path: one sorted
        # int64 key (line, sm, warp) yields coalescing, L1 dedupe and
        # L2 dedupe in a single pass.  ``_smw[w]`` packs a warp's
        # (sm, warp) low bits so key construction is one gather + add.
        self._warp_bits = max(1, (self.num_warps - 1).bit_length())
        self._sm_bits = max(1, (device.num_sms - 1).bit_length())
        self._sm_mask = (1 << self._sm_bits) - 1
        self._key_shift = self._warp_bits + self._sm_bits
        self._smw = ((self.warp_sm << self._warp_bits)
                     | np.arange(self.num_warps, dtype=np.int64))
        # Power-of-two strides become shifts in the fast path (NumPy's
        # floor_divide is several times slower per element); ``None``
        # marks a non-power-of-two geometry that keeps the division.
        def _shift_of(x: int) -> int | None:
            return x.bit_length() - 1 if x and not (x & (x - 1)) else None
        self._ws_shift = _shift_of(warp)
        self._line_shift = _shift_of(device.line_bytes)
        self._sector_shift = _shift_of(device.sector_bytes)
        self._l1_set_shift = (_shift_of(self.l1.sets)
                              if self.l1 is not None else None)
        self._l2_set_shift = _shift_of(self.l2.sets)
        # Largest possible packed key per buffer end address decides
        # whether the coalescing sort may run on int32 (half the
        # bandwidth of the int64 build; NumPy sorts scale with width).
        self._smw_max = int(self._smw.max()) if self.num_warps else 0
        #: buffers a compacted body declared readable (id -> buffer) and
        #: the cold-fit L2 stand-in, while :meth:`declare_reads` is open.
        self._readable: dict[int, DeviceBuffer] | None = None
        self._first_touch: FirstTouchL2 | None = None
        #: ambient host profiler (see :mod:`repro.gpusim.hostprof`);
        #: ``None`` keeps the hot paths hook-free.
        self.host_profiler = current_host_profiler()

    # ------------------------------------------------------------------ #
    # memory
    # ------------------------------------------------------------------ #

    @contextmanager
    def declare_reads(self, buffers: Iterable[DeviceBuffer]
                      ) -> Iterator[bool]:
        """Scope a compacted kernel body to the buffers it can read.

        Inside the scope :meth:`read_compacted` raises on any other
        buffer; the lockstep :meth:`read` is the full-LRU oracle and
        must not be used inside it.  When the declared buffers lie in
        one span of at most ``l2.sets × l2.ways`` lines and the L2 has
        only taken compulsory misses inside it, the L2 cannot evict:
        its probes go to a :class:`~repro.gpusim.cache.FirstTouchL2`,
        and the L2 counters, stats and tag state are folded in when the
        scope closes, exactly as the LRU probes would have left them.
        Yields whether that cold-fit path is engaged.
        """
        if self._readable is not None:
            raise ReproError("declare_reads scopes do not nest")
        readable = {id(b): b for b in buffers}
        spans = [(self._l2_line(b.device_addr),
                  self._l2_line(b.device_addr + b.nbytes - 1))
                 for b in readable.values() if b.nbytes]
        ft = (FirstTouchL2.engage(self.l2, min(s[0] for s in spans),
                                  max(s[1] for s in spans))
              if spans else None)
        self._readable = readable
        self._first_touch = ft
        try:
            yield ft is not None
        finally:
            self._readable = None
            self._first_touch = None
            if ft is not None:
                # Once per launch and outside the tick sections, so it is
                # not a "cache-model" call of the host profile.
                hits, misses = ft.fold()
                fill = (self.device.line_bytes if self.l1 is not None
                        else self.device.sector_bytes)
                rep = self.report
                rep.l2_hits += hits
                rep.l2_misses += misses
                rep.l2_bytes += ft.requests * fill
                rep.dram_bytes += misses * fill

    def read(self, buf: DeviceBuffer, indices: np.ndarray,
             thread_ids: np.ndarray) -> np.ndarray:
        """Lane-level gather ``buf.data[indices]`` with full memory modelling.

        ``thread_ids`` are the global lane ids issuing each read (same
        length as ``indices``).  Returns the gathered values.
        """
        indices = np.asarray(indices)
        if len(indices) == 0:
            return buf.data[indices]
        prof = self.host_profiler
        t0 = perf_counter() if prof is not None else 0.0
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "read")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds read from {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        values = buf.data[indices]

        addrs = buf.addresses(indices)
        warp_ids = np.asarray(thread_ids) // self.warp_size
        self.report.lane_reads += len(indices)

        if self.l1 is not None:
            batch = coalesce(warp_ids, addrs, self.device.line_bytes)
            self.report.transactions += batch.transactions
            sm_ids = self.warp_sm[batch.warp_ids]
            hits = self.l1.access(sm_ids, batch.line_addrs)
            self.report.l1_hits += int(hits.sum())
            n_miss = int((~hits).sum())
            self.report.l1_misses += n_miss
            if n_miss:
                miss_lines = batch.line_addrs[~hits]
                self._probe_l2(miss_lines, self.device.line_bytes)
        else:
            # Uncached global loads: sector-granular, straight to L2.
            batch = coalesce(warp_ids, addrs, self.device.sector_bytes)
            self.report.transactions += batch.transactions
            self._probe_l2(batch.line_addrs, self.device.sector_bytes)
        if prof is not None:
            prof.add("cache-model", perf_counter() - t0)
        return values

    def read_compacted(self, buf: DeviceBuffer, indices: np.ndarray,
                       thread_ids: np.ndarray) -> np.ndarray:
        """:meth:`read` with the whole memory-model chain fused.

        Byte-identical counters and cache-state evolution, a fraction of
        the host cost: coalescing, L1 set mapping and L2 probing collapse
        into packed-key sorts with run-boundary passes (no index/inverse
        reconstruction — the engine only needs hit *counts* and the
        missing lines), with no intermediate batch objects.  Because
        every stage is order-independent over the request multiset, the
        caller may present lanes in any order — which is what lets the
        compacted kernels keep their registers in worklist order.
        """
        if self._readable is not None and id(buf) not in self._readable:
            raise ReproError(
                f"read from {buf.name!r}, which the kernel body did not "
                "declare readable (SimtEngine.declare_reads)")
        indices = np.asarray(indices)
        n = len(indices)
        if n == 0:
            return buf.data[indices]
        prof = self.host_profiler
        t0 = perf_counter() if prof is not None else 0.0
        if indices.dtype != np.int64:
            indices = indices.astype(np.int64)
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "read")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds read from {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        values = buf.data[indices]
        rep = self.report
        rep.lane_reads += n

        if n == 1:
            # Scalar fast path — skewed tails issue thousands of 1-lane
            # reads where the vector machinery is pure dispatch overhead.
            self._read_one(buf, int(indices[0]), int(thread_ids[0]))
            if prof is not None:
                prof.add("cache-model", perf_counter() - t0)
            return values

        warp_ids = np.asarray(thread_ids)
        if self._ws_shift is not None:
            warp_ids = warp_ids >> self._ws_shift
        else:
            warp_ids = warp_ids // self.warp_size
        if self.l1 is not None:
            lb = self.device.line_bytes
            # One in-place sort of (line, sm, warp) gives every dedupe
            # level as a boundary pass: unique keys = transactions,
            # unique (line, sm) prefixes = L1 probes, and the L1 miss
            # lines come out line-sorted so the L2 dedupe is sortless.
            # Built in place with shifts where strides allow.
            key = indices * buf.itemsize
            key += buf.device_addr
            if self._line_shift is not None:
                key >>= self._line_shift
            else:
                key //= lb
            key <<= self._key_shift
            key += self._smw[warp_ids]
            if n >= 1024 and ((((buf.device_addr + buf.nbytes) // lb)
                               << self._key_shift) + self._smw_max
                              < _INT32_MAX):
                # Bulk reads: the sort dominates, and it scales with key
                # width — one downcast pass buys int32 sorting.
                key = key.astype(np.int32)
            key.sort()
            pu = key[boundary_mask(key)] >> self._warp_bits
            n_trans = len(pu)
            rep.transactions += n_trans
            upair = pu[boundary_mask(pu)]
            u_line = upair >> self._sm_bits
            n_uniq = len(u_line)
            l1 = self.l1
            if self._l1_set_shift is not None:
                l1_set = ((u_line & (l1.sets - 1))
                          + ((upair & self._sm_mask) << self._l1_set_shift))
            else:
                l1_set = u_line % l1.sets + (upair & self._sm_mask) * l1.sets
            hit = l1.probe_unique(l1_set, u_line,
                                  extra_hits=n_trans - n_uniq)
            n_hit = (n_trans - n_uniq) + int(np.count_nonzero(hit))
            rep.l1_hits += n_hit
            n_miss = n_trans - n_hit
            rep.l1_misses += n_miss
            if n_miss and self._first_touch is not None:
                self._first_touch.record(u_line[~hit])
            elif n_miss:
                # L2 on the missing lines; distinct SMs missing one
                # line fill it once (the extras count as hits).
                ml = u_line[~hit]
                uml = ml[boundary_mask(ml)]
                n_uniq2 = len(uml)
                l2 = self.l2
                l2_set = (uml & (l2.sets - 1)
                          if self._l2_set_shift is not None
                          else uml % l2.sets)
                hit2 = l2.probe_unique(l2_set, uml,
                                       extra_hits=n_miss - n_uniq2)
                n_hit2 = (n_miss - n_uniq2) + int(np.count_nonzero(hit2))
                rep.l2_hits += n_hit2
                rep.l2_misses += n_miss - n_hit2
                rep.l2_bytes += n_miss * lb
                rep.dram_bytes += (n_miss - n_hit2) * lb
        else:
            # Uncached global loads: sector-granular, straight to L2.
            sb = self.device.sector_bytes
            key = indices * buf.itemsize
            key += buf.device_addr
            if self._sector_shift is not None:
                key >>= self._sector_shift
            else:
                key //= sb
            key <<= self._warp_bits
            key += warp_ids
            if n >= 1024 and ((((buf.device_addr + buf.nbytes) // sb)
                               << self._warp_bits) + self.num_warps
                              < _INT32_MAX):
                key = key.astype(np.int32)
            key.sort()
            su = key[boundary_mask(key)] >> self._warp_bits
            n_trans = len(su)
            rep.transactions += n_trans
            # Sector → L2 line (sorted stays sorted); distinct sectors
            # of one line collapse to one probe, extras count as hits.
            if (self._sector_shift is not None
                    and self._line_shift is not None):
                l2_line = su >> (self._line_shift - self._sector_shift)
            else:
                l2_line = su * sb // self.device.line_bytes
            if self._first_touch is not None:
                self._first_touch.record(l2_line)
            else:
                ul = l2_line[boundary_mask(l2_line)]
                n_uniq2 = len(ul)
                l2 = self.l2
                l2_set = (ul & (l2.sets - 1)
                          if self._l2_set_shift is not None
                          else ul % l2.sets)
                hit2 = l2.probe_unique(l2_set, ul,
                                       extra_hits=n_trans - n_uniq2)
                n_hit2 = (n_trans - n_uniq2) + int(np.count_nonzero(hit2))
                rep.l2_hits += n_hit2
                rep.l2_misses += n_trans - n_hit2
                rep.l2_bytes += n_trans * sb
                rep.dram_bytes += (n_trans - n_hit2) * sb
        if prof is not None:
            prof.add("cache-model", perf_counter() - t0)
        return values

    def _l2_line(self, addr: int) -> int:
        """The L2 line a read of byte ``addr`` probes: the L1 miss's
        line, or on the sector path the line of the sector's start."""
        if self.l1 is not None:
            return addr // self.device.line_bytes
        sb = self.device.sector_bytes
        return addr // sb * sb // self.device.line_bytes

    def _read_one(self, buf: DeviceBuffer, index: int, thread_id: int) -> None:
        """Memory-model bookkeeping of a single-lane read (scalar path of
        :meth:`read_compacted` — same counters, same cache evolution)."""
        rep = self.report
        rep.transactions += 1
        line = self._l2_line(buf.device_addr + index * buf.itemsize)
        arr = np.array([line], dtype=np.int64)
        if self.l1 is not None:
            fill = self.device.line_bytes
            sm = int(self.warp_sm[thread_id // self.warp_size])
            l1 = self.l1
            if l1.probe_unique(np.array([line % l1.sets + sm * l1.sets]),
                               arr)[0]:
                rep.l1_hits += 1
                return
            rep.l1_misses += 1
        else:
            fill = self.device.sector_bytes
        if self._first_touch is not None:
            self._first_touch.record_one(line)
            return
        l2 = self.l2
        if l2.probe_unique(np.array([line % l2.sets]), arr)[0]:
            rep.l2_hits += 1
        else:
            rep.l2_misses += 1
            rep.dram_bytes += fill
        rep.l2_bytes += fill

    def _probe_l2(self, line_addrs: np.ndarray, fill_bytes: int) -> None:
        zeros = np.zeros(len(line_addrs), dtype=np.int64)
        l2_hits = self.l2.access(zeros, line_addrs)
        n_hit = int(l2_hits.sum())
        n_miss = len(line_addrs) - n_hit
        self.report.l2_hits += n_hit
        self.report.l2_misses += n_miss
        self.report.l2_bytes += len(line_addrs) * fill_bytes
        self.report.dram_bytes += n_miss * fill_bytes

    def _warp_element_keys(self, buf: DeviceBuffer, indices: np.ndarray,
                           thread_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Unsorted packed ``(warp, element)`` keys of a lane batch.

        The low ``bits`` bits hold the element granule ``address //
        itemsize`` (``device_addr // itemsize + index``, exactly), the
        warp id sits above them.  Returns ``(keys, bits)``; the keys
        are a fresh int64 array the caller may sort in place.
        """
        base = buf.device_addr // buf.itemsize
        bits = (base + len(buf.data)).bit_length()
        key = np.asarray(thread_ids, dtype=np.int64) // self.warp_size
        key <<= bits
        key += indices.astype(np.int64, copy=False)
        key += base
        return key, bits

    def _count_sectors(self, buf: DeviceBuffer, keys: np.ndarray,
                       bits: int) -> int:
        """Distinct ``(warp, sector)`` pairs among sorted packed keys
        from :meth:`_warp_element_keys`.

        Within a warp the sector is non-decreasing in the element, so
        runs of equal ``(warp, sector)`` stay contiguous in key order.
        """
        addrs = ((keys & ((1 << bits) - 1)) * buf.itemsize
                 + buf.device_addr % buf.itemsize)
        sectors = addrs // self.device.sector_bytes
        return int(np.count_nonzero(boundary_mask(keys >> bits, sectors)))

    def write(self, buf: DeviceBuffer, indices: np.ndarray,
              values: np.ndarray, thread_ids: np.ndarray) -> None:
        """Lane-level scatter; write traffic counts as DRAM bytes
        (write-through, no write-allocate — adequate for the kernels here,
        which write each output cell once)."""
        indices = np.asarray(indices)
        if len(indices) == 0:
            return
        prof = self.host_profiler
        t0 = perf_counter() if prof is not None else 0.0
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "write")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds write to {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        buf.data[indices] = values
        key, bits = self._warp_element_keys(buf, indices, thread_ids)
        key.sort()
        n_trans = self._count_sectors(buf, key, bits)
        self.report.transactions += n_trans
        self.report.dram_bytes += n_trans * self.device.sector_bytes
        if prof is not None:
            prof.add("cache-model", perf_counter() - t0)

    def atomic_add(self, buf: DeviceBuffer, indices: np.ndarray,
                   values: np.ndarray, thread_ids: np.ndarray) -> None:
        """Lane-level ``atomicAdd``.

        Functionally an unordered scatter-add; traffic-wise each touched
        sector is a read-modify-write through L2 (atomics resolve there
        on Fermi/Maxwell), so it costs two sector transfers per
        transaction plus serialization pressure that shows up as extra
        transactions when lanes collide on an address.
        """
        indices = np.asarray(indices)
        if len(indices) == 0:
            return
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "atomic")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds atomic on {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        prof = self.host_profiler
        t0 = perf_counter() if prof is not None else 0.0
        np.add.at(buf.data, indices, values)
        # Colliding lanes serialize: transactions at address (not line)
        # granularity within the warp, sectors toward L2.  Both counts
        # come from one sort of the packed (warp, element) keys.
        key, bits = self._warp_element_keys(buf, indices, thread_ids)
        key.sort()
        elems = key[boundary_mask(key)]
        n_sectors = self._count_sectors(buf, elems, bits)
        sb = self.device.sector_bytes
        self.report.transactions += len(elems)
        self.report.l2_bytes += 2 * n_sectors * sb
        self.report.dram_bytes += n_sectors * sb
        if prof is not None:
            prof.add("cache-model", perf_counter() - t0)

    # ------------------------------------------------------------------ #
    # execution accounting
    # ------------------------------------------------------------------ #

    def end_step(self, kind: str, active_thread_ids: np.ndarray,
                 instructions: int) -> None:
        """Account one instruction-block executed by the warps owning
        ``active_thread_ids`` (the lanes that were live in the block).

        ``instructions`` is the warp-instruction count of the block —
        every owning warp issues that many instructions regardless of how
        many of its lanes are active (that's SIMT divergence).
        """
        if len(active_thread_ids) == 0:
            return
        prof = self.host_profiler
        t0 = perf_counter() if prof is not None else 0.0
        w = np.asarray(active_thread_ids) // self.warp_size
        if len(w) > 1 and np.any(w[1:] < w[:-1]):
            w = np.sort(w)
        starts = np.flatnonzero(boundary_mask(w))
        warp_ids = w[starts]
        lane_counts = np.diff(np.concatenate((starts, [len(w)])))
        n_warps = len(warp_ids)
        rep = self.report
        rep.warp_steps[kind] = rep.warp_steps.get(kind, 0) + n_warps
        rep.instruction_slots += n_warps * instructions
        rep.total_warp_steps += n_warps
        rep.active_lane_sum += int(lane_counts.sum())
        np.add.at(rep.sm_instruction_slots, self.warp_sm[warp_ids], instructions)
        if self.sanitizer is not None:
            self.sanitizer.on_step_end(kind)
        if prof is not None:
            prof.add("accounting", perf_counter() - t0)

    def end_step_warps(self, kind: str, warp_ids: np.ndarray,
                       lane_counts: np.ndarray, instructions: int) -> None:
        """:meth:`end_step` for callers that already know the warps.

        ``warp_ids`` must be *distinct* warps; ``lane_counts`` their
        active-lane counts.  The compacted engine tracks both directly
        in its worklist, so the per-call lane → warp derivation (sort +
        run-length pass) is skipped.  Accounting is identical.
        """
        n_warps = len(warp_ids)
        if n_warps == 0:
            return
        prof = self.host_profiler
        t0 = perf_counter() if prof is not None else 0.0
        rep = self.report
        rep.warp_steps[kind] = rep.warp_steps.get(kind, 0) + n_warps
        rep.instruction_slots += n_warps * instructions
        rep.total_warp_steps += n_warps
        rep.active_lane_sum += int(lane_counts.sum())
        np.add.at(rep.sm_instruction_slots, self.warp_sm[warp_ids], instructions)
        if self.sanitizer is not None:
            self.sanitizer.on_step_end(kind)
        if prof is not None:
            prof.add("accounting", perf_counter() - t0)
