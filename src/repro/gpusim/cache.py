"""Vectorized set-associative LRU cache model.

One :class:`CacheArray` holds *many independent cache instances* in a
single set of NumPy arrays — e.g. the per-SM read-only caches of a whole
GPU (16 instances on the GTX 980), or a single device-wide L2.  The SIMT
engine feeds it batches of (instance, line-address) accesses once per
lockstep step; probe and LRU update are fully vectorized.

Semantics within one batch (one kernel step):

* duplicate (instance, line) pairs collapse to one probe; the extras are
  counted as hits — this mirrors MSHR merging on real hardware, where
  concurrent misses to one line produce a single fill;
* distinct missing lines that collide in one set are all inserted,
  evicting in LRU order (if more collide than there are ways, the
  earliest inserted are immediately evicted — exactly what a sequential
  processing order would do).

The hit/miss counters here are the source of the Table II "cache hit
rate" column; the miss count × line size is the DRAM traffic behind the
"bandwidth" column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.utils import boundary_mask


@dataclass
class CacheStats:
    """Running hit/miss counters (requests, after coalescing)."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction in [0, 1]; 0 when no requests were made."""
        total = self.requests
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses


def _unique_pairs(set_idx: np.ndarray, lines: np.ndarray):
    """Deduplicate (set, line) pairs exactly.

    Returns ``(n_uniq, first_pos, inverse)`` matching what
    ``np.unique(key, return_index=True, return_inverse=True)`` would give
    for an exact, order-preserving packing of the pair: ``first_pos``
    holds the earliest request index of each distinct pair, ``inverse``
    maps every request to its pair's rank in (set, line) order.

    Fast path: pack as ``set_idx * span + line`` when the product
    provably fits in an int64 (true for any real device address space).
    Otherwise fall back to a stable lexsort on the raw pair — identical
    ordering and representatives, no aliasing for any input.
    """
    lo = int(lines.min())
    span = int(lines.max()) + 1
    if lo >= 0 and span < (1 << 62) // max(int(set_idx.max()) + 1, 1):
        key = set_idx * span + lines
        uniq, first_pos, inverse = np.unique(key, return_index=True,
                                             return_inverse=True)
        return len(uniq), first_pos, inverse
    order = np.lexsort((lines, set_idx))
    new_group = boundary_mask(set_idx[order], lines[order])
    group_id = np.cumsum(new_group) - 1
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = group_id
    # lexsort is stable, so the first element of each group is the
    # earliest original occurrence — same representative np.unique picks.
    first_pos = order[new_group]
    return int(group_id[-1]) + 1, first_pos, inverse


class CacheArray:
    """``num_instances`` independent set-associative LRU caches.

    Parameters
    ----------
    num_instances : int
        How many physical caches share this state (per-SM caches fold
        into one object; the instance id is part of the set index).
    capacity_bytes : int
        Capacity of *each* instance.
    line_bytes : int
        Cache line (fill granularity).
    ways : int
        Associativity.  ``capacity = sets × ways × line``.
    """

    def __init__(self, num_instances: int, capacity_bytes: int,
                 line_bytes: int, ways: int):
        if num_instances < 1:
            raise ReproError(f"need >= 1 cache instance, got {num_instances}")
        sets = capacity_bytes // (line_bytes * ways)
        if sets < 1:
            raise ReproError(
                f"cache too small: {capacity_bytes} B with {ways}-way × "
                f"{line_bytes} B lines leaves no sets")
        self.num_instances = num_instances
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = sets
        total_sets = num_instances * sets
        # tags[s, w] = line id resident in way w of (flattened) set s.
        # Stored narrow (int32) until a line id above 2^31-1 shows up —
        # real devices top out around 2^27 lines, so in practice the
        # probes' dominant (U, ways) tag gather moves half the bytes;
        # :meth:`_widen` upgrades to int64 on demand (synthetic
        # addresses in adversarial tests) and every insertion site
        # checks its batch maximum first, so no value is ever truncated.
        self._tags = np.full((total_sets, ways), -1, dtype=np.int32)
        # stamp[s, w] = last-touch timestamp (monotone counter) for LRU.
        self._stamp = np.zeros((total_sets, ways), dtype=np.int64)
        self._clock = 1
        # NumPy's stable sort is radix only for <= 16-bit integers (it
        # falls back to timsort above that, ~10x slower on random keys);
        # every real device geometry fits, so the fast probe narrows its
        # grouping keys when it can.
        self._narrow_sets = total_sets <= np.iinfo(np.uint16).max
        # Lazily grown ``arange(n) * ways`` base for flat (row, way)
        # indexing in the fast probe (saves an alloc + multiply per call).
        self._rowbase = np.arange(64, dtype=np.int64) * ways
        self.stats = CacheStats()

    def _flat_base(self, n: int) -> np.ndarray:
        if len(self._rowbase) < n:
            size = max(n, 2 * len(self._rowbase))
            self._rowbase = np.arange(size, dtype=np.int64) * self.ways
        return self._rowbase[:n]

    _INT32_MAX = int(np.iinfo(np.int32).max)

    def _widen(self) -> None:
        """Switch tag storage to int64 (a line id exceeded int32)."""
        self._tags = self._tags.astype(np.int64)

    def _ensure_tag_range(self, max_line: int) -> None:
        if self._tags.dtype == np.int32 and max_line > self._INT32_MAX:
            self._widen()

    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Invalidate all lines and zero the counters."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 1
        self.stats = CacheStats()

    def access(self, instance_ids: np.ndarray, byte_addrs: np.ndarray) -> np.ndarray:
        """Probe a batch of reads; returns a per-request boolean hit mask.

        ``instance_ids`` selects the cache instance (e.g. SM id); both
        arrays must be equal length.  Misses insert the line.
        """
        if len(instance_ids) != len(byte_addrs):
            raise ReproError("instance_ids and byte_addrs length mismatch")
        if len(byte_addrs) == 0:
            return np.zeros(0, dtype=bool)

        lines = byte_addrs.astype(np.int64) // self.line_bytes
        self._ensure_tag_range(int(lines.max()))
        set_idx = (lines % self.sets) + instance_ids.astype(np.int64) * self.sets

        # Collapse duplicates (MSHR merge): probe each (set, line) *pair*
        # once.  The set index alone does not identify a line, so the
        # pair is packed exactly — ``set_idx * span + line`` with
        # ``span > max line`` — which keeps unique keys ordered by
        # (set, line).  Line ids outside the validated packing bound
        # (possible only with pathological synthetic addresses) take a
        # stable lexsort path with identical semantics.
        n_uniq, first_pos, inverse = _unique_pairs(set_idx, lines)
        u_set = set_idx[first_pos]
        u_line = lines[first_pos]

        gathered = self._tags[u_set]                       # (U, ways)
        match = gathered == u_line[:, None]
        hit = match.any(axis=1)

        now = self._clock
        self._clock += n_uniq + 1

        if hit.any():
            hit_sets = u_set[hit]
            hit_ways = np.argmax(match[hit], axis=1)
            self._stamp[hit_sets, hit_ways] = now

        miss = ~hit
        if miss.any():
            miss_sets = u_set[miss]
            miss_lines = u_line[miss]
            # Group same-set misses: within one batch each gets its own
            # victim way, chosen in LRU order.
            order = np.argsort(miss_sets, kind="stable")
            ms = miss_sets[order]
            ml = miss_lines[order]
            group_start = np.concatenate([[True], ms[1:] != ms[:-1]])
            # rank of each miss within its set group (0, 1, 2, ...)
            idx = np.arange(len(ms))
            start_idx = np.maximum.accumulate(np.where(group_start, idx, 0))
            rank = idx - start_idx
            # Victim = LRU way.  Rank-0 misses (the vast majority — a set
            # rarely takes two distinct new lines in one step) need only
            # an argmin; higher ranks get the full LRU ordering.
            stamps = self._stamp[ms]
            victim_way = np.argmin(stamps, axis=1)
            multi = rank > 0
            if multi.any():
                rows = np.flatnonzero(multi)
                order_rows = np.argsort(stamps[rows], axis=1, kind="stable")
                victim_way[rows] = order_rows[np.arange(len(rows)),
                                              rank[rows] % self.ways]
            self._tags[ms, victim_way] = ml
            self._stamp[ms, victim_way] = now + 1 + rank

        # Per-request result: duplicates of a probed line count as hits.
        result = hit[inverse]
        dup = np.ones(len(set_idx), dtype=bool)
        dup[first_pos] = False
        result = result | dup

        self.stats.hits += int(result.sum())
        self.stats.misses += int((~result).sum())
        return result

    def probe_unique(self, u_set: np.ndarray, u_line: np.ndarray,
                     extra_hits: int = 0) -> np.ndarray:
        """Probe/update for a batch already deduplicated to distinct
        (set, line) pairs; returns the per-pair hit mask.

        The compacted engine's fast re-implementation of the state
        machine inside :meth:`access` — deliberately a *separate* code
        path so the lockstep oracle keeps exercising the reference
        implementation; ``tests/test_cache.py`` and the engine
        equivalence suite pin the two to identical state evolution.

        Semantics are those of :meth:`access` after its dedupe step, and
        are *order-independent* as long as, within each set, distinct
        lines appear in ascending order (both the sorted packed-key
        order :meth:`access` uses and a plain sort by line satisfy
        this) — victim choice and stamps depend only on that within-set
        order.  Two wins over the reference:

        * the hit way falls out of one ``argmax`` + flat gather instead
          of a mask reduction plus a re-gathered ``argmax``;
        * the LRU ordering of the miss path is computed once per
          *affected set* — bounded by cache geometry, a few hundred —
          instead of once per missing request, which turns the batch
          miss storm's big ``(misses, ways)`` stable argsort into a
          small ``(sets, ways)`` one;
        * the set-grouping sort runs on ``uint16`` keys (NumPy's stable
          sort is a radix sort only at <= 16 bits), and the 2-D
          gather/scatter pairs go through flattened indices.

        ``extra_hits`` is the number of duplicate requests that were
        collapsed away (MSHR merges); they count as hits in the stats,
        exactly as :meth:`access` counts them.
        """
        n_uniq = len(u_set)
        if n_uniq == 1:
            # Scalar path: a one-pair probe (ubiquitous in skewed tails)
            # runs on Python lists of ``ways`` elements — identical
            # semantics, a fraction of the vector-dispatch cost.
            s = int(u_set[0])
            line = int(u_line[0])
            self._ensure_tag_range(line)
            now = self._clock
            self._clock += 2
            row = self._tags[s].tolist()
            try:
                w = row.index(line)
            except ValueError:
                stamps = self._stamp[s].tolist()
                w = stamps.index(min(stamps))     # first LRU way = argmin
                self._tags[s, w] = line
                self._stamp[s, w] = now + 1
                self.stats.hits += extra_hits
                self.stats.misses += 1
                return np.zeros(1, dtype=bool)
            self._stamp[s, w] = now
            self.stats.hits += 1 + extra_hits
            return np.ones(1, dtype=bool)
        if n_uniq <= 6:
            # Small-batch path: same phase structure as the vector code
            # below (all hits resolved against the pre-probe state, then
            # misses filled in stable set order), but on Python scalars —
            # a handful of list ops beats ~25 vector dispatches.
            self._ensure_tag_range(int(u_line.max()))
            now = self._clock
            self._clock += n_uniq + 1
            sets = u_set.tolist()
            lines = u_line.tolist()
            hits = []
            for s, ln in zip(sets, lines):
                row = self._tags[s].tolist()
                try:
                    w = row.index(ln)
                except ValueError:
                    hits.append(False)
                    continue
                hits.append(True)
                self._stamp[s, w] = now
            n_hit = 0
            if True in hits:
                n_hit = hits.count(True)
            if n_hit < n_uniq:
                miss = [(s, ln) for s, h, ln in zip(sets, hits, lines)
                        if not h]
                miss.sort(key=lambda p: p[0])     # stable, like the vector
                ways = self.ways
                i, k = 0, len(miss)
                while i < k:
                    s = miss[i][0]
                    j = i + 1
                    while j < k and miss[j][0] == s:
                        j += 1
                    stamps = self._stamp[s].tolist()
                    lru = sorted(range(ways), key=stamps.__getitem__)
                    for r in range(j - i):
                        w = lru[r % ways]
                        self._tags[s, w] = miss[i + r][1]
                        self._stamp[s, w] = now + 1 + r
                    i = j
            self.stats.hits += n_hit + extra_hits
            self.stats.misses += n_uniq - n_hit
            return np.array(hits, dtype=bool)
        self._ensure_tag_range(int(u_line.max()))
        gathered = self._tags[u_set]                       # (U, ways)
        if gathered.dtype == np.int32 and u_line.dtype != np.int32:
            match = gathered == u_line.astype(np.int32)[:, None]
        else:
            match = gathered == u_line[:, None]
        way = match.argmax(axis=1)                # first matching way (or 0)
        hit = match.reshape(-1)[self._flat_base(n_uniq) + way]
        n_hit = int(np.count_nonzero(hit))

        now = self._clock
        self._clock += n_uniq + 1

        if n_hit:
            self._stamp[u_set[hit], way[hit]] = now

        if n_hit < n_uniq:
            if n_hit:
                miss = ~hit
                miss_sets = u_set[miss]
                miss_lines = u_line[miss]
            else:
                miss_sets = u_set
                miss_lines = u_line
            # Group same-set misses: within one batch each gets its own
            # victim way, chosen in LRU order.
            if self._narrow_sets:
                order = np.argsort(miss_sets.astype(np.uint16),
                                   kind="stable")
            else:
                order = np.argsort(miss_sets, kind="stable")
            ms = miss_sets[order]
            ml = miss_lines[order]
            k = len(ms)
            group_start = np.empty(k, dtype=bool)
            group_start[0] = True
            np.not_equal(ms[1:], ms[:-1], out=group_start[1:])
            n_groups = int(np.count_nonzero(group_start))
            if n_groups == k:
                # Every miss in its own set (the common case outside a
                # thrash storm): every rank is 0, victim = plain LRU way.
                victim_way = np.argmin(self._stamp[ms], axis=1)
                flat = ms * self.ways + victim_way
                self._tags.reshape(-1)[flat] = ml
                self._stamp.reshape(-1)[flat] = now + 1
            else:
                starts = np.flatnonzero(group_start)
                gid = np.cumsum(group_start)
                gid -= 1
                # rank of each miss within its set group (0, 1, 2, ...)
                rank = np.arange(k)
                rank -= starts[gid]
                # LRU order per *affected set* (hits above already
                # stamped ``now``, so they rank most-recent, exactly as
                # in the reference).
                lru = np.argsort(self._stamp[ms[starts]], axis=1,
                                 kind="stable")           # (G, ways)
                wrapped = (rank & (self.ways - 1) if not (self.ways &
                           (self.ways - 1)) else rank % self.ways)
                victim_way = lru.reshape(-1)[gid * self.ways + wrapped]
                flat = ms * self.ways + victim_way
                self._tags.reshape(-1)[flat] = ml
                rank += now + 1
                self._stamp.reshape(-1)[flat] = rank

        self.stats.hits += n_hit + extra_hits
        self.stats.misses += n_uniq - n_hit
        return hit

    # ------------------------------------------------------------------ #

    def resident_lines(self) -> int:
        """Number of valid lines currently cached (all instances)."""
        return int((self._tags >= 0).sum())

    def __repr__(self) -> str:
        return (f"CacheArray(instances={self.num_instances}, sets={self.sets}, "
                f"ways={self.ways}, line={self.line_bytes}B)")


class FirstTouchL2:
    """Exact stand-in for a one-instance :class:`CacheArray` that cannot
    evict: the cold-fit L2.

    If every line a launch can read lies in one span of at most
    ``sets × ways`` consecutive lines, no set ever holds more than
    ``ways`` distinct lines.  Empty ways carry stamp 0, so a miss always
    lands in an empty way and nothing is evicted: a probe hits iff its
    line was fetched before, whatever the recency order.  The engine
    then skips the tag/stamp probe and hands each L2 batch's requested
    lines (duplicates included) to :meth:`record`, which keeps two
    per-line batch numbers: ``first`` (first touch; 0 = never) and
    ``last`` (last touch).  The misses are the lines first touched
    here, the hits every other request.

    :meth:`fold` writes back exactly what :meth:`CacheArray.probe_unique`
    would have left: each new line in the set's next empty way (ways
    fill in first-touch order, same-batch lines by ascending line), and
    stamps that order the lines as the LRU clock would — a line last
    touched as a hit gets its batch's shared stamp, one last touched by
    its own miss the batch stamp plus one plus its rank among that
    set's misses in the batch.  Stamps are renumbered above the
    cache's clock, so only their order, the only thing the LRU reads,
    matches.
    """

    #: ``first`` mark of lines already resident when the span engaged.
    _PRE = 1

    def __init__(self, cache: CacheArray, lo_line: int, hi_line: int,
                 resident: np.ndarray):
        self.cache = cache
        self.lo = lo_line
        n = hi_line - lo_line + 1
        self.first = np.zeros(n, np.int32)
        self.last = np.zeros(n, np.int32)
        self.first[resident - lo_line] = self._PRE
        self.batch = self._PRE
        #: L2 requests recorded (every line handed in, duplicates too).
        self.requests = 0

    @classmethod
    def engage(cls, cache: CacheArray, lo_line: int,
               hi_line: int) -> "FirstTouchL2 | None":
        """The cold-fit stand-in for reads confined to lines
        ``[lo_line, hi_line]``, or None when it would not be exact.

        Exact iff the span fits ``sets × ways`` lines and the cache has
        only ever taken compulsory misses inside it: nothing evicted
        yet (every miss still resident) and every resident line in the
        span.  A cache with no requests yet is trivially such a cache.
        """
        if (cache.num_instances != 1
                or hi_line - lo_line + 1 > cache.sets * cache.ways):
            return None
        tags = cache._tags
        resident = tags[tags >= 0].astype(np.int64)
        if len(resident) and (len(resident) != cache.stats.misses
                              or int(resident.min()) < lo_line
                              or int(resident.max()) > hi_line):
            return None
        return cls(cache, lo_line, hi_line, resident)

    def record(self, lines: np.ndarray) -> None:
        """One L2 batch: ``lines`` holds one entry per request."""
        # intp offsets: NumPy converts narrower fancy indices per use.
        rel = np.subtract(lines, self.lo, dtype=np.intp)
        self.batch += 1
        first = self.first
        first[rel[first[rel] == 0]] = self.batch
        self.last[rel] = self.batch
        self.requests += len(rel)

    def record_one(self, line: int) -> None:
        """:meth:`record` of a one-request batch."""
        rel = line - self.lo
        self.batch += 1
        if not self.first[rel]:
            self.first[rel] = self.batch
        self.last[rel] = self.batch
        self.requests += 1

    def fold(self) -> tuple[int, int]:
        """Write the LRU state back into the cache, add the recorded
        hits and misses to its stats, and return ``(hits, misses)``."""
        c = self.cache
        first, last = self.first, self.last
        new = np.flatnonzero(first > self._PRE)
        misses = len(new)
        hits = self.requests - misses
        c.stats.hits += hits
        c.stats.misses += misses
        if not self.requests:
            return hits, misses
        ways = c.ways
        span = ways + 1       # batch stride of the stamp key
        clock = c._clock
        if misses:
            lines = new + self.lo
            c._ensure_tag_range(int(lines[-1]))
            sets = lines % c.sets
            f = first[new]
            order = np.lexsort((lines, f, sets))
            lines, sets, f = lines[order], sets[order], f[order]
            idx = np.arange(misses)
            set_start = np.maximum.accumulate(
                np.where(boundary_mask(sets), idx, 0))
            batch_start = np.maximum.accumulate(
                np.where(boundary_mask(sets, f), idx, 0))
            occupied = np.count_nonzero(c._tags[sets] >= 0, axis=1)
            way = occupied + (idx - set_start)
            c._tags[sets, way] = lines
            lst = last[lines - self.lo]
            rank = idx - batch_start
            key = lst.astype(np.int64) * span + np.where(lst == f, 1 + rank, 0)
            c._stamp[sets, way] = clock + key
        old = np.flatnonzero((first == self._PRE) & (last > 0))
        if len(old):
            lines = old + self.lo
            sets = lines % c.sets
            way = np.argmax(c._tags[sets] == lines[:, None], axis=1)
            c._stamp[sets, way] = clock + last[old].astype(np.int64) * span
        c._clock = clock + (self.batch + 1) * span
        return hits, misses
