"""Unit tests for Matrix Market I/O and component utilities."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cpu.matmul import matmul_count
from repro.errors import GraphFormatError
from repro.graphs import mtx
from repro.graphs.components import (connected_components, giant_component,
                                     induced_subgraph)
from repro.graphs.edgearray import EdgeArray


class TestMtx:
    def test_roundtrip(self, small_rmat, tmp_path):
        path = tmp_path / "g.mtx"
        mtx.write_mtx(small_rmat, path)
        assert mtx.read_mtx(path) == small_rmat

    def test_banner_written(self, k5, tmp_path):
        path = tmp_path / "g.mtx"
        mtx.write_mtx(k5, path)
        text = path.read_text()
        assert text.startswith("%%MatrixMarket matrix coordinate pattern "
                               "symmetric")
        assert "5 5 10" in text

    def test_reads_weighted_entries(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n2 1 0.5\n3 2 1.5\n")
        g = mtx.read_mtx(path)
        assert g.num_edges == 2

    def test_general_symmetric_pairs_collapse(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 2 2\n1 2\n2 1\n")
        assert mtx.read_mtx(path).num_edges == 1

    def test_diagonal_dropped(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "2 2 2\n1 1\n2 1\n")
        assert mtx.read_mtx(path).num_edges == 1

    def test_rejects_dense(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(GraphFormatError, match="coordinate"):
            mtx.read_mtx(path)

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 3 1\n1 2\n")
        with pytest.raises(GraphFormatError, match="square"):
            mtx.read_mtx(path)

    def test_rejects_missing_banner(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("1 1 0\n")
        with pytest.raises(GraphFormatError, match="banner"):
            mtx.read_mtx(path)

    def test_nnz_mismatch(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "3 3 5\n2 1\n")
        with pytest.raises(GraphFormatError, match="promises"):
            mtx.read_mtx(path)


class TestMtxMalformed:
    """Every malformed size line or entry raises GraphFormatError naming
    the file — never a bare ValueError, never a silently changed graph."""

    BANNER = "%%MatrixMarket matrix coordinate pattern symmetric\n"

    @pytest.mark.parametrize("body,why", [
        ("3 3 x\n", "three"),
        ("3 3.5 1\n1 2\n", "three"),
        ("-3 -3 0\n", "negative"),
        ("3 3 1\n1 x\n", "malformed entry"),
        ("3 3 2\n1 2\n3\n", "malformed entry"),
        ("3 3 1\n1.5 2\n", "non-integer"),
        ("3 3 1\n1 nan\n", "non-integer"),
        ("3 3 1\n1 2 7\n", "columns"),
        ("3 3 2\n", "promises 2 entries, found 0"),
    ])
    def test_typed_error_names_the_file(self, tmp_path, body, why):
        path = tmp_path / "bad.mtx"
        path.write_text(self.BANNER + body)
        with pytest.raises(GraphFormatError, match=why) as err:
            mtx.read_mtx(path)
        assert "bad.mtx" in str(err.value)


#: Entry-index tokens and the value each stands for (None: not an
#: integer).  ``2.0`` and ``1e0`` are integral reals, so they name
#: indices exactly.
_MTX_INDEX = {"1": 1, "2": 2, "3": 3, "4": 4, "0": 0, "-1": -1, "2.0": 2,
              "1e0": 1, "1.5": None, "x": None, "nan": None, "inf": None}
_MTX_SIZE = {"0": 0, "1": 1, "3": 3, "4": 4, "-2": -2, "x": None,
             "2.5": None}
#: Weight tokens and whether they parse as a number.
_MTX_WEIGHT = {"0.5": True, "7": True, "w": False}


def _mtx_reference(value_type, size_toks, entries):
    """The graph the text stands for, or None when it is malformed."""
    rows, cols, nnz = (_MTX_SIZE.get(t, int(t) if t.isdigit() else None)
                       for t in size_toks)
    if None in (rows, cols, nnz) or min(rows, cols, nnz) < 0:
        return None
    if rows != cols or nnz != len(entries):
        return None
    if not entries:
        return EdgeArray.empty(rows)
    columns = 2 if value_type == "pattern" else 3
    if any(len(e) != columns for e in entries):
        return None
    if not all(_MTX_WEIGHT[w] for e in entries for w in e[2:]):
        return None
    idx = [_MTX_INDEX[t] for e in entries for t in e[:2]]
    if any(x is None or not 1 <= x <= rows for x in idx):
        return None
    return EdgeArray.from_undirected(np.array(idx[0::2]) - 1,
                                     np.array(idx[1::2]) - 1,
                                     num_nodes=rows)


def _mostly(valid, tokens):
    """Tokens drawn mostly from ``valid`` (one malformed part in each
    example keeps the whole file malformed, so they must be rare)."""
    return st.sampled_from(list(valid) * 40 + list(tokens))


_index = _mostly(["1", "2", "3", "4"], _MTX_INDEX)


class TestMtxFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value_type=st.sampled_from(["pattern", "real", "integer"]),
           rows=_mostly(["4", "3"], _MTX_SIZE),
           square=_mostly([True], [False]),
           nnz_shift=_mostly([0], [1, -1, None]),
           pairs=st.lists(st.tuples(_index, _index), max_size=6),
           weight=_mostly(["0.5", "7"], _MTX_WEIGHT),
           ragged=st.integers(-30, 5))
    def test_typed_error_or_exact_graph(self, tmp_path, value_type, rows,
                                        square, nnz_shift, pairs, weight,
                                        ragged):
        weighted = value_type != "pattern"
        entries = [p + (weight,) if weighted != (i == ragged) else p
                   for i, p in enumerate(pairs)]
        size_toks = (rows, rows if square else "4",
                     "x" if nnz_shift is None
                     else str(max(len(entries) + nnz_shift, 0)))
        path = tmp_path / "fuzz.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate {value_type} general\n"
            + " ".join(size_toks) + "\n"
            + "".join(" ".join(e) + "\n" for e in entries))
        want = _mtx_reference(value_type, size_toks, entries)
        if want is None:
            with pytest.raises(GraphFormatError, match="fuzz.mtx"):
                mtx.read_mtx(path)
        else:
            got = mtx.read_mtx(path)
            assert got == want and got.num_nodes == want.num_nodes


class TestComponents:
    @pytest.fixture
    def two_islands(self):
        # triangle {0,1,2} + path {3,4} + isolated 5
        return EdgeArray.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)],
                                    num_nodes=6)

    def test_labelling(self, two_islands):
        info = connected_components(two_islands)
        assert info.num_components == 3
        assert sorted(info.sizes.tolist()) == [1, 2, 3]

    def test_giant_component(self, two_islands):
        giant = giant_component(two_islands)
        assert giant.num_nodes == 3
        assert giant.num_edges == 3
        assert matmul_count(giant).triangles == 1

    def test_giant_no_compact_keeps_ids(self, two_islands):
        giant = giant_component(two_islands, compact=False)
        assert giant.num_nodes == 6
        assert giant.num_edges == 3

    def test_counts_are_component_additive(self, two_islands):
        info = connected_components(two_islands)
        total = sum(
            matmul_count(induced_subgraph(two_islands,
                                          info.labels == c)).triangles
            for c in range(info.num_components))
        assert total == matmul_count(two_islands).triangles

    def test_connected_graph(self, k5):
        info = connected_components(k5)
        assert info.num_components == 1
        assert giant_component(k5) == k5

    def test_empty(self):
        info = connected_components(EdgeArray.empty(0))
        assert info.num_components == 0
