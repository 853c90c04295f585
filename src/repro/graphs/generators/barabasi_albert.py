"""Barabási–Albert preferential-attachment generator.

One of the paper's synthetic workloads (Table I row "Barabási–Albert":
0.2 M nodes, 20 M arcs, only 3 M triangles — a *low*-triangle graph that
stresses the merge loop's miss path; note its Table II cache hit rate is
the worst of all workloads at 64%).

Uses the standard repeated-nodes trick: attachment targets are drawn
uniformly from the array of all edge endpoints so far, which realizes
preferential attachment without per-node weight bookkeeping.  The
endpoint pool is preallocated once, so the generation loop does O(m)
work per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.edgearray import EdgeArray
from repro.utils import rng_from, sorted_unique


def barabasi_albert(n: int, m: int, seed=None) -> EdgeArray:
    """Generate a BA graph: ``n`` vertices, each new vertex attaching ``m`` edges.

    Parameters
    ----------
    n : int
        Final vertex count.
    m : int
        Edges added per new vertex (also the minimum degree).  Must
        satisfy ``1 <= m < n``.
    seed : int or numpy.random.Generator, optional
        Randomness source (deterministic under a fixed seed).
    """
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    if not (1 <= m < n):
        raise WorkloadError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = rng_from(seed)

    num_new = n - (m + 1)
    # Seed graph: a star centred on vertex m over vertices 0..m-1, so the
    # endpoint pool is non-empty and early vertices can be attached to.
    src = np.empty(m + num_new * m, dtype=np.int64)
    dst = np.empty_like(src)
    src[:m] = m
    dst[:m] = np.arange(m)

    pool = np.empty(2 * (m + num_new * m), dtype=np.int64)
    pool[:m] = m
    pool[m:2 * m] = np.arange(m)
    pool_size = 2 * m

    fill = m
    for v in range(m + 1, n):
        targets = sorted_unique(pool[rng.integers(0, pool_size, size=m)])
        while len(targets) < m:
            extra = pool[rng.integers(0, pool_size, size=m - len(targets))]
            targets = sorted_unique(np.concatenate([targets, extra]))
        src[fill:fill + m] = v
        dst[fill:fill + m] = targets
        pool[pool_size:pool_size + m] = v
        pool[pool_size + m:pool_size + 2 * m] = targets
        pool_size += 2 * m
        fill += m

    return EdgeArray.from_undirected(src[:fill], dst[:fill], num_nodes=n)
