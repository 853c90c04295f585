"""Unit tests for the engine's atomicAdd path."""

import numpy as np
import pytest

from repro.errors import KernelFault
from repro.gpusim.coalesce import coalesce
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine


@pytest.fixture
def setup():
    mem = DeviceMemory(GTX_980)
    buf = mem.alloc("acc", np.zeros(32, np.int64))
    engine = SimtEngine(GTX_980, LaunchConfig(64, 1))
    return engine, buf


class TestAtomicAdd:
    def test_functional_scatter_add(self, setup):
        engine, buf = setup
        engine.atomic_add(buf, np.array([3, 3, 5]), np.array([1, 1, 4]),
                          np.array([0, 1, 2]))
        assert buf.data[3] == 2
        assert buf.data[5] == 4

    def test_out_of_bounds_faults(self, setup):
        engine, buf = setup
        with pytest.raises(KernelFault, match="atomic"):
            engine.atomic_add(buf, np.array([32]), np.array([1]),
                              np.array([0]))

    def test_traffic_accounted(self, setup):
        engine, buf = setup
        before = engine.report.dram_bytes
        engine.atomic_add(buf, np.arange(8) * 4, np.ones(8, np.int64),
                          np.arange(8))
        assert engine.report.dram_bytes > before
        assert engine.report.transactions > 0

    def test_colliding_lanes_cost_more_transactions(self, setup):
        """Lanes hitting distinct addresses serialize into more
        transactions than lanes sharing one (atomic contention model)."""
        engine, buf = setup
        distinct = SimtEngine(GTX_980, LaunchConfig(64, 1))
        distinct.atomic_add(buf, np.arange(16), np.ones(16, np.int64),
                            np.arange(16))
        shared = SimtEngine(GTX_980, LaunchConfig(64, 1))
        shared.atomic_add(buf, np.zeros(16, np.int64),
                          np.ones(16, np.int64), np.arange(16))
        assert distinct.report.transactions > shared.report.transactions

    def test_empty(self, setup):
        engine, buf = setup
        engine.atomic_add(buf, np.zeros(0, np.int64), np.zeros(0, np.int64),
                          np.zeros(0, np.int64))
        assert engine.report.transactions == 0


def _two_coalesce_traffic(engine, buf, indices, thread_ids):
    """Reference accounting: one coalesce at element granularity for the
    transactions, a second at sector granularity for the L2/DRAM bytes."""
    addrs = buf.addresses(np.asarray(indices))
    warps = np.asarray(thread_ids) // engine.warp_size
    sb = engine.device.sector_bytes
    elems = coalesce(warps, addrs, buf.itemsize).transactions
    sectors = coalesce(warps, addrs, sb).transactions
    return {"transactions": elems, "l2_bytes": 2 * sectors * sb,
            "dram_bytes": sectors * sb}


def _adversarial_batches(itemsize):
    """(indices, thread_ids) pairs that stress the packed-key accounting."""
    rng = np.random.default_rng(11)
    per_sector = GTX_980.sector_bytes // itemsize
    lanes = np.arange(64)
    return {
        # every lane of every warp on one address
        "one-address": (np.zeros(64, np.int64), lanes),
        # pairs of lanes collide, pairs of warps share elements
        "colliding": (lanes // 2 % 5, lanes),
        # neighbours on either side of each sector boundary
        "sector-straddle": (
            (np.repeat(np.arange(1, 9) * per_sector, 8)
             + np.tile([-2, -1, 0, 1], 16)), lanes),
        # scattered, unsorted lanes and duplicate thread ids
        "random": (rng.integers(0, 200, 150), rng.integers(0, 64, 150)),
    }


class TestAtomicAccountingEquivalence:
    """``atomic_add`` counts transactions and sectors from one sort of
    packed (warp, element) keys; it must match the two-coalesce formula."""

    @pytest.mark.parametrize("warp_size", [None, 8, 16])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("batch", ["one-address", "colliding",
                                       "sector-straddle", "random"])
    def test_matches_two_coalesce(self, warp_size, dtype, batch):
        mem = DeviceMemory(GTX_980)
        mem.alloc("pad", np.zeros(3, np.int8))
        buf = mem.alloc("acc", np.zeros(512, dtype))
        engine = SimtEngine(GTX_980, LaunchConfig(64, 1, warp_size))
        idx, tids = _adversarial_batches(buf.itemsize)[batch]
        want = _two_coalesce_traffic(engine, buf, idx, tids)
        engine.atomic_add(buf, idx, np.ones(len(idx), dtype), tids)
        rep = engine.report
        assert {"transactions": rep.transactions, "l2_bytes": rep.l2_bytes,
                "dram_bytes": rep.dram_bytes} == want
        assert buf.data.sum() == len(idx)

    @pytest.mark.parametrize("warp_size", [None, 8, 16])
    @pytest.mark.parametrize("dtype, n", [(np.int64, 1), (np.int32, 3)])
    def test_tiny_first_buffer(self, warp_size, dtype, n):
        """A tiny buffer at address 0 leaves few bits below the warp id
        in the packed key; warps must still not merge."""
        for batch, (idx, tids) in _adversarial_batches(
                np.dtype(dtype).itemsize).items():
            mem = DeviceMemory(GTX_980)
            buf = mem.alloc("acc", np.zeros(n, dtype))
            assert buf.device_addr == 0
            idx = np.asarray(idx) % n
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1, warp_size))
            want = _two_coalesce_traffic(engine, buf, idx, tids)
            engine.atomic_add(buf, idx, np.ones(len(idx), dtype), tids)
            rep = engine.report
            assert {"transactions": rep.transactions,
                    "l2_bytes": rep.l2_bytes,
                    "dram_bytes": rep.dram_bytes} == want, batch

    @pytest.mark.parametrize("device_addr, dtype", [
        (4, np.int64),       # a raw view not aligned to its itemsize
        (0, np.complex128),  # 16-byte items, two per sector
        (0, np.int8),        # 32 items per sector
    ])
    def test_other_geometries(self, device_addr, dtype):
        buf = DeviceBuffer("view", np.zeros(512, dtype), device_addr)
        for batch, (idx, tids) in _adversarial_batches(buf.itemsize).items():
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1, 16))
            want = _two_coalesce_traffic(engine, buf, idx, tids)
            engine.atomic_add(buf, idx, np.ones(len(idx), dtype), tids)
            rep = engine.report
            assert {"transactions": rep.transactions,
                    "l2_bytes": rep.l2_bytes,
                    "dram_bytes": rep.dram_bytes} == want, batch

    @pytest.mark.parametrize("device_addr, dtype", [
        (256, np.int32), (256, np.int64), (4, np.int64), (0, np.int8),
        (20, "S12")])  # 12-byte items: sector edges fall inside items
    @pytest.mark.parametrize("warp_size", [None, 8])
    def test_write_matches_one_coalesce(self, device_addr, dtype, warp_size):
        """``write`` counts sectors from the same packed keys."""
        buf = DeviceBuffer("out", np.zeros(512, dtype), device_addr)
        for batch, (idx, tids) in _adversarial_batches(buf.itemsize).items():
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1, warp_size))
            sb = GTX_980.sector_bytes
            want = coalesce(np.asarray(tids) // engine.warp_size,
                            buf.addresses(idx), sb).transactions
            engine.write(buf, idx, np.ones(len(idx), dtype), tids)
            assert engine.report.transactions == want, batch
            assert engine.report.dram_bytes == want * sb, batch

    @pytest.mark.parametrize("dtype, n", [(np.int64, 1), (np.int32, 3)])
    @pytest.mark.parametrize("warp_size", [None, 8])
    def test_write_tiny_first_buffer(self, dtype, n, warp_size):
        for batch, (idx, tids) in _adversarial_batches(
                np.dtype(dtype).itemsize).items():
            buf = DeviceMemory(GTX_980).alloc("out", np.zeros(n, dtype))
            idx = np.asarray(idx) % n
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1, warp_size))
            sb = GTX_980.sector_bytes
            want = coalesce(np.asarray(tids) // engine.warp_size,
                            buf.addresses(idx), sb).transactions
            engine.write(buf, idx, np.ones(len(idx), dtype), tids)
            assert engine.report.transactions == want, batch
            assert engine.report.dram_bytes == want * sb, batch
