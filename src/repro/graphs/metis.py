"""METIS graph format — the format of the DIMACS10 challenge files.

The paper's Citeseer, DBLP and Kronecker inputs come from the 10th
DIMACS Implementation Challenge, which distributes graphs in METIS
format: a header line ``<num_nodes> <num_edges> [fmt]`` followed by one
line per vertex listing its (1-based) neighbors.  Supporting it makes
the library a drop-in consumer of the challenge's archives.

Only the unweighted variant (``fmt`` 0/omitted) is supported — that is
what the paper's instances use.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import edge_array_to_csr
from repro.graphs.edgearray import EdgeArray


def write_metis(graph: EdgeArray, path: str | os.PathLike) -> None:
    """Write in unweighted METIS format (1-based adjacency lines)."""
    csr, _ = edge_array_to_csr(graph)
    with open(path, "w") as fh:
        fh.write(f"{graph.num_nodes} {graph.num_edges}\n")
        for v in range(graph.num_nodes):
            neigh = csr.neighbors(v) + 1
            fh.write(" ".join(map(str, neigh.tolist())) + "\n")


def read_metis(path: str | os.PathLike) -> EdgeArray:
    """Read an unweighted METIS file into an edge array.

    Raises
    ------
    GraphFormatError
        Naming the file, for a missing or non-integer header, a weighted
        format, a non-integer or out-of-range neighbor id, or vertex and
        edge counts that differ from the header's.
    """
    with open(path) as fh:
        header = None
        while header is None:
            line = fh.readline()
            if not line:
                raise GraphFormatError(f"{path}: empty METIS file")
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                header = stripped
        parts = header.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{path}: METIS header needs >= 2 fields, got {header!r}")
        try:
            num_nodes = int(parts[0])
            num_edges = int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}: METIS header counts must be integers, got "
                f"{header!r}") from None
        if num_nodes < 0 or num_edges < 0:
            raise GraphFormatError(
                f"{path}: negative count in METIS header {header!r}")
        if len(parts) >= 3 and parts[2] not in ("0", "00", "000"):
            raise GraphFormatError(
                f"{path}: weighted METIS (fmt={parts[2]}) not supported")

        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        v = 0
        for line in fh:
            stripped = line.strip()
            if stripped.startswith("%"):
                continue
            if v >= num_nodes:
                if stripped:
                    raise GraphFormatError(
                        f"{path}: more adjacency lines than {num_nodes} nodes")
                continue
            if stripped:
                try:
                    neigh = np.array(stripped.split(), dtype=np.int64)
                except (ValueError, OverflowError):
                    raise GraphFormatError(
                        f"{path}: non-integer neighbor id on line for "
                        f"vertex {v + 1}") from None
                if neigh.min(initial=1) < 1 or neigh.max(initial=1) > num_nodes:
                    raise GraphFormatError(
                        f"{path}: neighbor id out of range on line for "
                        f"vertex {v + 1}")
                sources.append(np.full(len(neigh), v, dtype=np.int64))
                targets.append(neigh - 1)
            v += 1
        if v != num_nodes:
            raise GraphFormatError(
                f"{path}: header promises {num_nodes} vertices, "
                f"found {v} adjacency lines")

    if not sources:
        graph = EdgeArray.empty(num_nodes)
    else:
        graph = EdgeArray.from_undirected(np.concatenate(sources),
                                          np.concatenate(targets),
                                          num_nodes=num_nodes)
    if graph.num_edges != num_edges:
        raise GraphFormatError(
            f"{path}: header promises {num_edges} edges, adjacency lines "
            f"encode {graph.num_edges}")
    return graph
