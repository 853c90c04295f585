"""Unit tests for the preprocessed-graph cache (repro.serve.cache)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.graphs.edgearray import EdgeArray
from repro.graphs.generators.rmat import rmat
from repro.serve.cache import (PreprocessCache, graph_fingerprint,
                               preprocessed_nbytes)


def _triangle():
    return EdgeArray.from_undirected(np.array([0, 1, 0]),
                                     np.array([1, 2, 2]))


class TestGraphFingerprint:
    def test_arc_order_invariant(self):
        g = rmat(6, seed=3)
        perm = np.random.default_rng(0).permutation(g.num_arcs)
        shuffled = EdgeArray(g.first[perm], g.second[perm],
                             num_nodes=g.num_nodes, check=False)
        assert graph_fingerprint(g) == graph_fingerprint(shuffled)

    def test_distinct_graphs_distinct_fingerprints(self):
        fps = {graph_fingerprint(rmat(6, seed=s)) for s in range(5)}
        assert len(fps) == 5

    def test_vertex_count_matters(self):
        g = _triangle()
        padded = EdgeArray(g.first, g.second, num_nodes=10, check=False)
        assert graph_fingerprint(g) != graph_fingerprint(padded)


class TestPreprocessedNbytes:
    def test_matches_actual_residency_order_of_magnitude(self):
        g = rmat(7, seed=1)
        run = gpu_count_triangles(g)
        est = preprocessed_nbytes(g.num_nodes, run.num_forward_arcs,
                                  GpuOptions())
        assert est > 0
        # node array + SoA columns: 4(n+1) + 4(m+1) + 4m, 256-aligned
        assert est >= 4 * (g.num_nodes + 1)

    def test_monotone_in_graph_size(self):
        small = preprocessed_nbytes(100, 1000)
        assert preprocessed_nbytes(100, 100_000) > small
        assert preprocessed_nbytes(100_000, 1000) > small


class TestPreprocessCache:
    def _insert(self, cache, key, nbytes, t=0.0):
        return cache.insert(key, nbytes, triangles=1, hit_service_ms=0.5,
                            now_ms=t)

    def test_lookup_hit_and_miss(self):
        cache = PreprocessCache(budget_bytes=1000)
        assert cache.lookup("a", 0.0) is None
        self._insert(cache, "a", 100)
        entry = cache.lookup("a", 1.0)
        assert entry is not None and entry.hits == 1
        assert cache.stats.lookups == 2 and cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_budget_enforced_by_lru_eviction(self):
        cache = PreprocessCache(budget_bytes=250)
        self._insert(cache, "a", 100, t=0)
        self._insert(cache, "b", 100, t=1)
        evicted = self._insert(cache, "c", 100, t=2)   # 300 > 250: evict "a"
        assert [e.key for e in evicted] == ["a"]
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.bytes_used == 200
        assert cache.stats.evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = PreprocessCache(budget_bytes=250)
        self._insert(cache, "a", 100, t=0)
        self._insert(cache, "b", 100, t=1)
        cache.lookup("a", 2.0)                          # "b" is now LRU
        evicted = self._insert(cache, "c", 100, t=3)
        assert [e.key for e in evicted] == ["b"]

    def test_oversized_entry_rejected_not_destructive(self):
        cache = PreprocessCache(budget_bytes=250)
        self._insert(cache, "a", 100)
        evicted = self._insert(cache, "big", 9999)
        assert evicted == [] and "big" not in cache and "a" in cache
        assert cache.stats.rejected == 1

    def test_duplicate_insert_is_refresh(self):
        cache = PreprocessCache(budget_bytes=250)
        self._insert(cache, "a", 100, t=0)
        self._insert(cache, "b", 100, t=1)
        self._insert(cache, "a", 100, t=2)              # refresh, no charge
        assert cache.bytes_used == 200
        assert cache.stats.insertions == 2
        evicted = self._insert(cache, "c", 100, t=3)
        assert [e.key for e in evicted] == ["b"]

    def test_invalidate_and_clear(self):
        cache = PreprocessCache(budget_bytes=1000)
        self._insert(cache, "a", 100)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        self._insert(cache, "b", 100)
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            PreprocessCache(budget_bytes=-1)


_KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
_OPS = st.one_of(
    st.tuples(st.just("insert"), _KEYS, st.integers(0, 700)),
    st.tuples(st.just("lookup"), _KEYS),
    st.tuples(st.just("pin"), _KEYS),
    st.tuples(st.just("unpin"), _KEYS),
    st.tuples(st.just("invalidate"), _KEYS),
    st.tuples(st.just("clear")),
)


class TestBytesUsedCounter:
    @settings(max_examples=200, deadline=None)
    @given(budget=st.integers(0, 1500), ops=st.lists(_OPS, max_size=40))
    def test_counter_equals_sum_of_entries(self, budget, ops):
        """The running ``bytes_used`` equals the resident entries' sum
        after every step of any insert / lookup / pin / unpin /
        invalidate / clear sequence, and never exceeds the budget."""
        cache = PreprocessCache(budget)
        for t, (op, *args) in enumerate(ops):
            if op == "insert":
                key, nbytes = args
                cache.insert(key, nbytes, triangles=1, hit_service_ms=1.0,
                             now_ms=float(t))
            elif op == "lookup":
                cache.lookup(args[0], float(t))
            else:
                getattr(cache, op)(*args)
            assert cache.bytes_used == sum(e.nbytes for e in cache.entries())
            assert cache.bytes_used <= budget
