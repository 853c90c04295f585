"""Matrix Market (``.mtx``) graph I/O.

The SuiteSparse collection redistributes the paper's real-world graphs
(com-Orkut, soc-LiveJournal1, coPapers*) as Matrix Market files; this
reader/writer makes the library a drop-in consumer of those archives.
Only the ``matrix coordinate pattern symmetric`` flavor is handled —
that is how undirected unweighted graphs ship; ``general`` symmetric
pairs and ``integer``/``real`` weights (ignored) are tolerated on read.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.edgearray import EdgeArray


def write_mtx(graph: EdgeArray, path: str | os.PathLike,
              comment: str = "written by repro") -> None:
    """Write as ``coordinate pattern symmetric`` (lower triangle, 1-based)."""
    mask = graph.first > graph.second          # lower-triangular entries
    rows = graph.first[mask] + 1
    cols = graph.second[mask] + 1
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"% {comment}\n")
        fh.write(f"{graph.num_nodes} {graph.num_nodes} {len(rows)}\n")
        for r, c in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{r} {c}\n")


def read_mtx(path: str | os.PathLike) -> EdgeArray:
    """Read a Matrix Market graph into an edge array.

    Accepts pattern/integer/real coordinate matrices, symmetric or
    general; weights and the diagonal are dropped, duplicate entries and
    both-orientation listings collapse.

    Raises
    ------
    GraphFormatError
        Naming the file, for any malformed banner, size line or entry:
        sizes must be non-negative integers, entries hold exactly the
        value type's columns, and indices must be integers in
        ``[1, rows]`` (``1.5`` is an error, not index 1).
    """
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"{path}: missing MatrixMarket banner")
        fields = header.strip().lower().split()
        if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
            raise GraphFormatError(
                f"{path}: only 'matrix coordinate' files are supported, "
                f"got {header.strip()!r}")
        value_type = fields[3]
        if value_type not in ("pattern", "integer", "real"):
            raise GraphFormatError(
                f"{path}: unsupported value type {value_type!r}")

        size_line = None
        while size_line is None:
            line = fh.readline()
            if not line:
                raise GraphFormatError(f"{path}: no size line")
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                size_line = stripped
        parts = size_line.split()
        try:
            rows, cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise GraphFormatError(
                f"{path}: size line must be 'rows cols nnz' (three "
                f"integers), got {size_line!r}") from None
        if min(rows, cols, nnz) < 0:
            raise GraphFormatError(
                f"{path}: negative size in size line {size_line!r}")
        if rows != cols:
            raise GraphFormatError(
                f"{path}: adjacency matrices must be square, got "
                f"{rows}x{cols}")

        try:
            data = np.loadtxt(fh, comments="%", ndmin=2)
        except ValueError as exc:
            raise GraphFormatError(f"{path}: malformed entry: {exc}") from exc
    found = data.shape[0] if data.size else 0
    if found != nnz:
        raise GraphFormatError(
            f"{path}: header promises {nnz} entries, found {found}")
    if not nnz:
        return EdgeArray.empty(rows)
    columns = 2 if value_type == "pattern" else 3
    if data.shape[1] != columns:
        raise GraphFormatError(
            f"{path}: {value_type} entries have {columns} columns, found "
            f"{data.shape[1]}")
    index = data[:, :2]
    if not (np.isfinite(index).all() and (index == np.floor(index)).all()):
        raise GraphFormatError(f"{path}: non-integer entry index")
    if index.min() < 1 or index.max() > rows:
        raise GraphFormatError(f"{path}: entry index out of range")
    u = index[:, 0].astype(np.int64) - 1
    v = index[:, 1].astype(np.int64) - 1
    return EdgeArray.from_undirected(u, v, num_nodes=rows)
