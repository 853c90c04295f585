"""Clique-cover generator — stand-in for co-paper/co-authorship networks.

The paper's Citeseer and DBLP workloads are DIMACS10 *co-paper* networks:
each paper induces a clique over its authors, so the graph is a union of
overlapping cliques — few edges, enormous triangle counts (Citeseer:
32 M arcs but 872 M triangles).  This generator reproduces that regime:
sample groups with a heavy-tailed size distribution, assign members with
preferential repetition (prolific authors), and union the cliques.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.edgearray import EdgeArray
from repro.utils import rng_from, sorted_unique


def clique_cover(n: int,
                 num_groups: int,
                 mean_group_size: float = 5.0,
                 max_group_size: int = 60,
                 repeat_bias: float = 0.6,
                 seed=None) -> EdgeArray:
    """Union of random cliques over ``n`` vertices.

    Parameters
    ----------
    n : int
        Vertex count (authors).
    num_groups : int
        Number of cliques (papers).
    mean_group_size : float
        Mean clique size; sizes are ``2 + Poisson(mean - 2)`` capped at
        ``max_group_size`` (paper author lists are small but heavy-ish).
    repeat_bias : float
        Fraction of group members drawn from previously active vertices
        (models prolific authors and gives clique *overlap*, which is
        what pushes triangle density up).
    """
    if n < 2:
        raise WorkloadError(f"need n >= 2, got {n}")
    if num_groups < 1:
        raise WorkloadError(f"need num_groups >= 1, got {num_groups}")
    if not (0.0 <= repeat_bias < 1.0):
        raise WorkloadError(f"repeat_bias must be in [0, 1), got {repeat_bias}")
    rng = rng_from(seed)

    sizes = 2 + rng.poisson(max(mean_group_size - 2.0, 0.0), size=num_groups)
    sizes = np.minimum(sizes, min(max_group_size, n))
    total = int(sizes.sum())

    # Draw all members at once: with prob repeat_bias reuse an endpoint of
    # an earlier draw (approximated by drawing from a small "active pool"
    # of vertex ids), otherwise a fresh uniform vertex.
    pool_size = max(int(n * 0.15), 1)
    active_pool = rng.permutation(n)[:pool_size]
    reuse = rng.random(total) < repeat_bias
    members = np.where(
        reuse,
        active_pool[rng.integers(0, pool_size, size=total)],
        rng.integers(0, n, size=total),
    )

    # Expand each group into its clique's edge list, vectorized per group
    # size class (groups of equal size share one triu index template).
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    us, vs = [], []
    for size in sorted_unique(sizes):
        group_idx = np.flatnonzero(sizes == size)
        if size < 2 or len(group_idx) == 0:
            continue
        iu, iv = np.triu_indices(size, k=1)
        # (groups, size) matrix of member ids for this size class
        starts = bounds[group_idx]
        rows = members[starts[:, None] + np.arange(size)]
        us.append(rows[:, iu].ravel())
        vs.append(rows[:, iv].ravel())

    if not us:
        return EdgeArray.empty(num_nodes=n)
    return EdgeArray.from_undirected(np.concatenate(us), np.concatenate(vs),
                                     num_nodes=n)
