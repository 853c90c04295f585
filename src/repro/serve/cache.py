"""Keyed preprocessed-graph cache (per device, byte-budgeted LRU).

The paper's pipeline spends most of its time *before* the counting
kernel — the 8-step preprocessing phase is 70–90% of the measurement
window on the evaluation graphs (Section III-E reports preprocessing
fractions up to 0.76).  A service that answers repeated queries over the
same graphs therefore wins far more from keeping the preprocessed
structures resident than from any kernel micro-optimization.

An entry is keyed by ``(graph fingerprint, GpuOptions.cache_key())`` —
two jobs share an entry only when they would produce byte-identical
device-resident structures.  Entries are charged against the owning
device's global memory: the cache's resident bytes are subtracted from
the capacity job working sets may use (see
:meth:`repro.serve.fleet.FleetDevice.job_memory`), and the LRU tail is
evicted whenever the configured byte budget would overflow.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.options import GpuOptions
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.memory import aligned_nbytes
from repro.types import INDEX_DTYPE, VERTEX_DTYPE


def graph_fingerprint(graph: EdgeArray) -> str:
    """Content hash of a graph: invariant under arc order, sensitive to
    the vertex set and edge set (the same identity :meth:`EdgeArray.__eq__`
    compares)."""
    h = hashlib.sha1()
    h.update(np.int64(graph.num_nodes).tobytes())
    h.update(np.sort(graph.as_packed()).tobytes())
    return h.hexdigest()


def preprocessed_nbytes(num_nodes: int, num_forward_arcs: int,
                        options: GpuOptions = GpuOptions()) -> int:
    """Device bytes a cached :class:`~repro.core.preprocess
    .PreprocessResult` occupies between jobs.

    Mirrors ``_finalize_layout``: the node array plus either the SoA
    columns (``adj`` is padded by one sentinel) or the interleaved AoS
    buffer.
    """
    vertex = np.dtype(VERTEX_DTYPE).itemsize
    index = np.dtype(INDEX_DTYPE).itemsize
    total = aligned_nbytes(index * (num_nodes + 1))            # node array
    if options.unzip:
        total += aligned_nbytes(vertex * (num_forward_arcs + 1))  # adj
        total += aligned_nbytes(vertex * max(num_forward_arcs, 1))  # keys
    else:
        total += aligned_nbytes(vertex * (2 * num_forward_arcs + 2))
    return total


@dataclass
class CacheEntry:
    """One resident preprocessed graph.

    Besides the byte charge, the entry memoizes what a hit needs to
    answer without re-running preprocessing: the exact triangle count
    (the simulator is deterministic, so it is the count any re-run would
    produce) and the simulated milliseconds of the post-preprocessing
    phases (kernel + reduce + D2H), which is the service time of a hit.
    """

    key: tuple
    nbytes: int
    triangles: int
    hit_service_ms: float
    inserted_ms: float
    last_used_ms: float
    hits: int = 0
    #: pinned entries (replica-group residents) are exempt from LRU
    #: eviction; :meth:`PreprocessCache.clear` still drops them.
    pinned: bool = False


@dataclass
class CacheStats:
    """Lookup counters (the serving metrics sheet reads these)."""

    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0            # entries larger than the whole budget

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PreprocessCache:
    """Byte-budgeted LRU map of preprocessed graphs.

    Parameters
    ----------
    budget_bytes : int
        Maximum resident bytes; inserting past it evicts least-recently
        used entries first.  An entry larger than the whole budget is
        refused (recorded in :attr:`stats.rejected`) rather than allowed
        to flush the cache for a single tenant.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes < 0:
            raise ValueError(f"budget must be >= 0, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.stats = CacheStats()
        self._bytes_used = 0

    # ------------------------------------------------------------------ #

    @property
    def bytes_used(self) -> int:
        """Resident bytes (a running total: admission reads it on every
        probe)."""
        return self._bytes_used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def entries(self) -> list[CacheEntry]:
        """LRU → MRU order (eviction order)."""
        return list(self._entries.values())

    # ------------------------------------------------------------------ #

    def lookup(self, key: tuple, now_ms: float) -> CacheEntry | None:
        """Return the entry for ``key`` (refreshing its recency), or None."""
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        entry.last_used_ms = now_ms
        entry.hits += 1
        self.stats.hits += 1
        return entry

    def insert(self, key: tuple, nbytes: int, triangles: int,
               hit_service_ms: float, now_ms: float) -> list[CacheEntry]:
        """Insert (or refresh) an entry, evicting LRU entries as needed.

        Returns the evicted entries so the owner can log / uncharge them.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            entry = self._entries[key]
            entry.last_used_ms = now_ms
            return []
        if nbytes > self.budget_bytes:
            self.stats.rejected += 1
            return []
        evicted: list[CacheEntry] = []
        overflow = self._bytes_used + nbytes - self.budget_bytes
        if overflow > 0:
            # Pick victims among *unpinned* entries, LRU first.  If the
            # pinned residents alone leave no room, refuse the insert —
            # replica pins must never be flushed by a passing tenant.
            victims: list[tuple] = []
            freed = 0
            for k, e in self._entries.items():
                if e.pinned:
                    continue
                victims.append(k)
                freed += e.nbytes
                if freed >= overflow:
                    break
            if freed < overflow:
                self.stats.rejected += 1
                return []
            for k in victims:
                evicted.append(self._entries.pop(k))
                self.stats.evictions += 1
            self._bytes_used -= freed
        self._entries[key] = CacheEntry(
            key=key, nbytes=int(nbytes), triangles=int(triangles),
            hit_service_ms=float(hit_service_ms),
            inserted_ms=now_ms, last_used_ms=now_ms)
        self._bytes_used += int(nbytes)
        self.stats.insertions += 1
        return evicted

    def pin(self, key: tuple) -> bool:
        """Exempt an entry from LRU eviction (replica-group residency).
        Returns False when the key is not resident."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.pinned = True
        return True

    def unpin(self, key: tuple) -> bool:
        """Return a pinned entry to normal LRU lifetime."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.pinned = False
        return True

    @property
    def pinned_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values() if e.pinned)

    def invalidate(self, key: tuple) -> bool:
        """Drop one entry (e.g. the graph's owner updated it)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes_used -= entry.nbytes
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._bytes_used = 0

    def __repr__(self) -> str:
        return (f"PreprocessCache(entries={len(self)}, "
                f"bytes={self.bytes_used}/{self.budget_bytes})")
