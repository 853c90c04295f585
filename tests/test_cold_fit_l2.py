"""Cold-fit L2: the first-touch stand-in against the full LRU oracle.

When every buffer a compacted kernel body can read lies in one span of
at most ``l2.sets × l2.ways`` lines and the L2 has only taken
compulsory misses, the engine counts L2 hits from first-touch batch
numbers instead of probing the tag/stamp LRU
(:class:`repro.gpusim.cache.FirstTouchL2`).  These tests shrink the L2
through a custom :class:`DeviceSpec` so that a small graph sits just
inside or just outside that span, and require the compacted run to
match the lockstep oracle: every counter, the L2 stats, and the L2's
tags and stamp order after the launch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.count_kernel import count_triangles_kernel
from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.core.warp_intersect_kernel import warp_intersect_kernel
from repro.errors import ReproError
from repro.gpusim.cache import FirstTouchL2
from repro.gpusim.device import GTX_980, NVS_5200M
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline

LINE = GTX_980.line_bytes


def _device(sets: int, ways: int, base=GTX_980):
    """``base`` with an L2 of ``sets × ways`` lines and a 2 KB L1 (so
    L1 misses come back to the L2 again and again)."""
    return replace(base, name=f"{base.name} L2 {sets}x{ways}",
                   l2_bytes=sets * ways * base.line_bytes, l2_ways=ways,
                   l1_bytes=2048, l1_ways=4)


@pytest.fixture
def engagements(monkeypatch):
    """Every :meth:`FirstTouchL2.engage` call as (span lines, engaged)."""
    calls: list[tuple[int, bool]] = []
    real = FirstTouchL2.engage.__func__

    def spy(cls, cache, lo_line, hi_line):
        ft = real(cls, cache, lo_line, hi_line)
        calls.append((hi_line - lo_line + 1, ft is not None))
        return ft

    monkeypatch.setattr(FirstTouchL2, "engage", classmethod(spy))
    return calls


def _l2_state(engine: SimtEngine):
    """The L2 as the LRU sees it: tags, per-set stamp order (dense
    ranks, so ties show), stats and resident line count."""
    l2 = engine.l2
    order = [tuple(np.unique(row, return_inverse=True)[1].tolist())
             for row in l2._stamp]
    return (l2._tags.tolist(), order, (l2.stats.hits, l2.stats.misses),
            l2.resident_lines())


def _run(graph, device, options, kernel, repeat=1):
    """One launch (``repeat`` kernel bodies on one engine, so the
    second starts from the first's L2 state); returns the observables."""
    memory = DeviceMemory(device)
    pre = preprocess(graph, device, memory, Timeline(), options)
    engine = SimtEngine(device, options.launch,
                        use_ro_cache=options.use_readonly_cache)
    observed = []
    for _ in range(repeat):
        if kernel == "count":
            res = count_triangles_kernel(engine, pre, options,
                                         memory=memory)
            observed.append((res.triangles, res.ticks,
                             res.thread_counts.tolist()))
        else:
            res = warp_intersect_kernel(engine, pre, options=options)
            observed.append((res.triangles, res.ticks, res.search_probes))
    return observed, engine.report.counters(), _l2_state(engine)


#: (options, kernel body) covering the L1 path, the sector path
#: (``use_readonly_cache=False`` on a Maxwell part) and the hash
#: strategy, whose tables are built (and read through the L2) before
#: the body declares its buffers.
CASES = {
    "merge-l1": (dict(), "count"),
    "merge-sector": (dict(use_readonly_cache=False), "count"),
    "hash-l1": (dict(kernel="hash"), "count"),
    "hash-sector": (dict(kernel="hash", use_readonly_cache=False),
                    "count"),
    "warp-intersect": (dict(), "warp"),
}


def _span_lines(graph, case, engagements) -> int:
    """Line span of the buffers the body declares (from a probe run)."""
    kw, kernel = CASES[case]
    _run(graph, GTX_980, GpuOptions(**kw), kernel)
    assert engagements, "the compacted body declared no buffers"
    span = engagements[-1][0]
    engagements.clear()
    return span


class TestAgainstLockstep:
    @pytest.mark.parametrize("ways", [1, 4])
    @pytest.mark.parametrize("side", ["under", "over"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counters_and_l2_state(self, small_ba, engagements, case,
                                   side, ways):
        span = _span_lines(small_ba, case, engagements)
        sets = -(-span // ways) if side == "under" else (span - 1) // ways
        device = _device(sets, ways)
        kw, kernel = CASES[case]
        lockstep = _run(small_ba, device, GpuOptions(engine="lockstep", **kw),
                        kernel)
        assert not engagements      # the oracle never declares
        compacted = _run(small_ba, device, GpuOptions(**kw), kernel)
        assert engagements == [(span, side == "under")]
        assert compacted == lockstep

    @pytest.mark.parametrize("case", ["merge-l1", "hash-sector"])
    def test_second_body_on_one_engine(self, small_rmat, engagements,
                                       case):
        # The second body starts from the folded L2 state, so the fold
        # must leave tags and stamp order exactly as the LRU would.
        span = _span_lines(small_rmat, case, engagements)
        device = _device(-(-span // 4), 4)
        kw, kernel = CASES[case]
        lockstep = _run(small_rmat, device,
                        GpuOptions(engine="lockstep", **kw), kernel, repeat=2)
        compacted = _run(small_rmat, device, GpuOptions(**kw), kernel,
                         repeat=2)
        assert [e for _, e in engagements] == [True, True]
        assert compacted == lockstep

    def test_lru_reads_after_the_fold(self, small_rmat, engagements):
        # A folded L2 keeps working as an LRU: reads outside any scope
        # that evict lines must pick the same victims as the oracle.
        span_device = _device(64, 4)
        options = {e: GpuOptions(engine=e) for e in ("lockstep",
                                                     "compacted")}
        states = {}
        for name, opts in options.items():
            memory = DeviceMemory(span_device)
            pre = preprocess(small_rmat, span_device, memory, Timeline(),
                             opts)
            extra = memory.alloc("extra", np.arange(64 * 4 * 32 * 3,
                                                    dtype=np.int32))
            engine = SimtEngine(span_device, opts.launch)
            count_triangles_kernel(engine, pre, opts, memory=memory)
            read = engine.read if name == "lockstep" else engine.read_compacted
            rng = np.random.default_rng(3)
            for _ in range(20):
                idx = rng.integers(0, len(extra.data), 64)
                read(extra, idx, np.arange(64))
            for _ in range(5):
                idx = rng.integers(0, len(pre.adj.data), 64)
                read(pre.adj, idx, np.arange(64))
            states[name] = (engine.report.counters(), _l2_state(engine))
        assert [e for _, e in engagements] == [True]
        assert states["compacted"] == states["lockstep"]


class TestEngagement:
    def _engine(self, sets, ways, base=GTX_980, ro=True):
        return SimtEngine(_device(sets, ways, base), LaunchConfig(32, 1),
                          use_ro_cache=ro)

    @staticmethod
    def _buffers(lines: int, line=LINE):
        """Two buffers at address 0 covering exactly ``lines`` lines."""
        memory = DeviceMemory(GTX_980)
        half = lines // 2 * line
        a = memory.alloc("a", np.zeros(half // 4, np.int32))
        b = memory.alloc("b", np.zeros((lines * line - half) // 4, np.int32))
        return a, b

    @pytest.mark.parametrize("sets,ways", [(8, 4), (6, 2), (33, 1),
                                           (16, 16)])
    def test_engages_exactly_at_sets_times_ways(self, sets, ways):
        a, b = self._buffers(sets * ways)
        with self._engine(sets, ways).declare_reads([a, b]) as engaged:
            assert engaged
        a, b = self._buffers(sets * ways + 1)
        with self._engine(sets, ways).declare_reads([a, b]) as engaged:
            assert not engaged

    def test_sector_path_span(self):
        # Without the read-only cache the L2 sees sector reads; the span
        # rule is the same in lines.
        a, b = self._buffers(32)
        engine = self._engine(8, 4, ro=False)
        with engine.declare_reads([a, b]) as engaged:
            assert engaged
            engine.read_compacted(a, np.arange(len(a.data)),
                                  np.zeros(len(a.data), np.int64))
        assert engine.report.l2_misses == len(a.data) * 4 // LINE
        assert engine.l2.resident_lines() == engine.report.l2_misses

    def test_warm_l2_without_eviction_engages(self):
        a, b = self._buffers(32)
        engine = self._engine(8, 4)
        engine.read_compacted(a, np.arange(0, len(a.data), 32),
                              np.zeros(len(a.data) // 32, np.int64))
        with engine.declare_reads([a, b]) as engaged:
            assert engaged

    def test_evicted_or_outside_lines_do_not_engage(self):
        a, b = self._buffers(32)
        engine = self._engine(8, 4)
        # b alone spans 16 lines, but a's lines already sit in the L2.
        engine.read_compacted(a, np.arange(0, len(a.data), 32),
                              np.zeros(len(a.data) // 32, np.int64))
        with engine.declare_reads([b]) as engaged:
            assert not engaged
        # 40 lines through a 32-line L2 evict; no span can then engage.
        a, b = self._buffers(40)
        engine = self._engine(8, 4)
        lanes = np.zeros(len(a.data) // 32, np.int64)
        engine.read_compacted(a, np.arange(0, len(a.data), 32), lanes)
        lanes = np.zeros(len(b.data) // 32, np.int64)
        engine.read_compacted(b, np.arange(0, len(b.data), 32), lanes)
        assert engine.l2.resident_lines() < engine.l2.stats.misses
        with engine.declare_reads([a]) as engaged:
            assert not engaged

    def test_fermi_l1_path(self):
        # Fermi caches global loads in L1 whatever the option says.
        a, b = self._buffers(12)
        engine = self._engine(3, 4, base=NVS_5200M, ro=False)
        with engine.declare_reads([a, b]) as engaged:
            assert engaged and engine.l1 is not None


class TestDeclaredReads:
    def _setup(self):
        memory = DeviceMemory(GTX_980)
        a = memory.alloc("a", np.arange(64, dtype=np.int32))
        b = memory.alloc("b", np.arange(64, dtype=np.int32))
        return SimtEngine(GTX_980, LaunchConfig(32, 1)), a, b

    def test_undeclared_buffer_raises(self):
        engine, a, b = self._setup()
        idx = np.arange(8)
        with engine.declare_reads([a]):
            assert engine.read_compacted(a, idx, idx).tolist() == list(range(8))
            with pytest.raises(ReproError, match="did not declare"):
                engine.read_compacted(b, idx, idx)
            with pytest.raises(ReproError, match="did not declare"):
                engine.read_compacted(b, idx[:1], idx[:1])
        # The scope is closed: any buffer reads again.
        assert engine.read_compacted(b, idx, idx).tolist() == list(range(8))

    def test_scopes_do_not_nest(self):
        engine, a, b = self._setup()
        with engine.declare_reads([a, b]):
            with pytest.raises(ReproError, match="do not nest"):
                with engine.declare_reads([a]):
                    pass

    def test_scope_closes_on_error(self):
        engine, a, b = self._setup()
        idx = np.arange(8)
        with pytest.raises(ReproError):
            with engine.declare_reads([a]):
                engine.read_compacted(a, idx, idx)
                engine.read_compacted(b, idx, idx)
        # Folded on the way out: counters and the L2 reflect the one read.
        assert engine.report.l2_misses == engine.l2.resident_lines() == 1
        assert engine.read_compacted(b, idx, idx).tolist() == list(range(8))
