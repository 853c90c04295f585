"""Graph I/O: edge-list text, raw binary AoS, and compressed ``.npz``.

The text format is the SNAP convention the paper's graphs ship in —
one ``u v`` pair per line, ``#`` comments — listing each undirected edge
once.  The binary format is the AoS edge array itself (what the paper's
tools feed to the GPU), and ``.npz`` is the library-native round-trip
format.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.edgearray import EdgeArray
from repro.types import VERTEX_DTYPE


def write_edge_list(graph: EdgeArray, path: str | os.PathLike) -> None:
    """Write in SNAP text format (each undirected edge once, ``u < v``)."""
    mask = graph.first < graph.second
    pairs = np.column_stack([graph.first[mask], graph.second[mask]])
    header = (f"Undirected graph: {graph.num_nodes} nodes, "
              f"{graph.num_edges} edges")
    np.savetxt(path, pairs, fmt="%d", header=header)


def read_edge_list(path: str | os.PathLike, num_nodes: int | None = None) -> EdgeArray:
    """Read SNAP text format; tolerates comments, blank lines, either
    one-direction or both-direction listings (duplicates collapse)."""
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*no data.*",
                                category=UserWarning)
        try:
            pairs = np.loadtxt(path, comments="#", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            # A non-integer token, or rows whose column count changes.
            raise GraphFormatError(f"malformed edge list {path}: {exc}") from exc
    if pairs.size == 0:
        return EdgeArray.empty(num_nodes or 0)
    if pairs.shape[1] != 2:
        raise GraphFormatError(
            f"edge list must have two columns, got {pairs.shape[1]} in {path}")
    return EdgeArray.from_undirected(pairs[:, 0], pairs[:, 1], num_nodes=num_nodes)


def write_binary(graph: EdgeArray, path: str | os.PathLike) -> None:
    """Write the raw little-endian int32 AoS buffer (``u0 v0 u1 v1 …``)."""
    graph.as_aos().astype("<i4").tofile(path)


def read_binary(path: str | os.PathLike, num_nodes: int | None = None) -> EdgeArray:
    """Read the raw AoS buffer written by :func:`write_binary`."""
    flat = np.fromfile(path, dtype="<i4").astype(VERTEX_DTYPE)
    return EdgeArray.from_aos(flat, num_nodes=num_nodes)


def write_npz(graph: EdgeArray, path: str | os.PathLike) -> None:
    """Write the library-native compressed format."""
    np.savez_compressed(path, first=graph.first, second=graph.second,
                        num_nodes=np.int64(graph.num_nodes))


def read_npz(path: str | os.PathLike) -> EdgeArray:
    """Read the format written by :func:`write_npz`."""
    with np.load(path) as data:
        return EdgeArray(data["first"], data["second"],
                         num_nodes=int(data["num_nodes"]), check=False)
