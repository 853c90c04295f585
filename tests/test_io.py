"""Unit tests for graph I/O round-trips."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import io
from repro.graphs.edgearray import EdgeArray


class TestEdgeListText:
    def test_roundtrip(self, small_rmat, tmp_path):
        path = tmp_path / "g.txt"
        io.write_edge_list(small_rmat, path)
        back = io.read_edge_list(path, num_nodes=small_rmat.num_nodes)
        assert back == small_rmat

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        g = io.read_edge_list(path)
        assert g.num_edges == 2

    def test_both_direction_listing_collapses(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n")
        g = io.read_edge_list(path)
        assert g.num_edges == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        g = io.read_edge_list(path, num_nodes=4)
        assert g.num_arcs == 0
        assert g.num_nodes == 4

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n3 4 5\n")
        with pytest.raises(GraphFormatError):
            io.read_edge_list(path)

    @pytest.mark.parametrize("text, why", [
        ("0 1\n1 x\n", "'x'"),
        ("0 1\n0 1.5\n", "'1.5'"),
        ("0 1\n1 2 3\n", "number of columns changed"),
    ], ids=["word-token", "float-token", "ragged-rows"])
    def test_malformed_file_names_the_file(self, tmp_path, text, why):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="bad.txt") as info:
            io.read_edge_list(path)
        assert why in str(info.value)


class TestBinary:
    def test_roundtrip(self, small_ba, tmp_path):
        path = tmp_path / "g.bin"
        io.write_binary(small_ba, path)
        back = io.read_binary(path, num_nodes=small_ba.num_nodes)
        assert back == small_ba

    def test_file_size_is_exact(self, k5, tmp_path):
        path = tmp_path / "g.bin"
        io.write_binary(k5, path)
        assert path.stat().st_size == 2 * k5.num_arcs * 4


class TestNpz:
    def test_roundtrip(self, small_ws, tmp_path):
        path = tmp_path / "g.npz"
        io.write_npz(small_ws, path)
        back = io.read_npz(path)
        assert back == small_ws
        assert back.num_nodes == small_ws.num_nodes

    def test_preserves_isolated_vertices(self, tmp_path):
        g = EdgeArray.from_edges([(0, 1)], num_nodes=10)
        path = tmp_path / "g.npz"
        io.write_npz(g, path)
        assert io.read_npz(path).num_nodes == 10
