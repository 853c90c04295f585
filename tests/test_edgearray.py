"""Unit tests for the edge-array format (paper Section III-A contract)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphFormatError
from repro.graphs.edgearray import EdgeArray
from repro.types import VERTEX_DTYPE


class TestConstruction:
    def test_from_undirected_adds_both_directions(self):
        g = EdgeArray.from_undirected([0, 1], [1, 2])
        assert g.num_edges == 2
        assert g.num_arcs == 4
        arcs = set(zip(g.first.tolist(), g.second.tolist()))
        assert arcs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_from_undirected_removes_self_loops(self):
        g = EdgeArray.from_undirected([0, 1, 2], [1, 1, 2])
        assert g.num_edges == 1

    def test_from_undirected_dedupes_both_orientations(self):
        g = EdgeArray.from_undirected([0, 1, 0], [1, 0, 1])
        assert g.num_edges == 1

    def test_from_edges_iterable(self):
        g = EdgeArray.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.num_edges == 3
        assert g.num_nodes == 3

    def test_from_edges_empty(self):
        g = EdgeArray.from_edges([], num_nodes=5)
        assert g.num_arcs == 0
        assert g.num_nodes == 5

    def test_num_nodes_inferred_from_max_id(self):
        g = EdgeArray.from_undirected([0], [9])
        assert g.num_nodes == 10

    def test_explicit_num_nodes_preserves_isolated_vertices(self):
        g = EdgeArray.from_undirected([0], [1], num_nodes=100)
        assert g.num_nodes == 100

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            EdgeArray([0, 1], [1])

    def test_empty(self):
        g = EdgeArray.empty(7)
        assert g.num_nodes == 7
        assert g.num_arcs == 0


class TestUndirectedInputChecks:
    """``from_undirected`` is the ingestion boundary: malformed ids raise
    :class:`GraphFormatError` instead of building a broken graph."""

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError, match="negative vertex id -1"):
            EdgeArray.from_undirected([0, 1], [-1, 2])

    @pytest.mark.parametrize("ids", [[0, 2**31], np.array([0, 2**31])],
                             ids=["list", "int64-array"])
    def test_id_beyond_int32_rejected(self, ids):
        with pytest.raises(GraphFormatError, match="int32"):
            EdgeArray.from_undirected(ids, [1, 2])

    def test_from_edges_id_beyond_int32_rejected(self):
        with pytest.raises(GraphFormatError, match="int32"):
            EdgeArray.from_edges([(0, 1), (1, 2**31)])

    @pytest.mark.parametrize("num_nodes", [9, 5])
    def test_num_nodes_not_above_largest_id_rejected(self, num_nodes):
        with pytest.raises(GraphFormatError, match="largest vertex id 9"):
            EdgeArray.from_undirected([0], [9], num_nodes=num_nodes)

    def test_non_integer_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="integers"):
            EdgeArray.from_undirected([0.5], [1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**33, 2**33) | st.integers(-2, 40),
                    max_size=12),
           st.lists(st.integers(-2**33, 2**33) | st.integers(-2, 40),
                    max_size=12),
           st.none() | st.integers(-3, 2**33))
    def test_fuzz_typed_error_or_valid_graph(self, u, v, num_nodes):
        """Any input gives a GraphFormatError or a valid edge array of
        exactly the input's loop-free edge set, never a raw exception."""
        try:
            g = EdgeArray.from_undirected(u, v, num_nodes=num_nodes)
        except GraphFormatError:
            return
        g.validate()
        assert len(u) == len(v)
        assert all(0 <= x <= 2**31 - 1 for x in u + v)
        edges = {(min(a, b), max(a, b)) for a, b in zip(u, v) if a != b}
        got = {(a, b) for a, b in zip(g.first.tolist(), g.second.tolist())
               if a < b}
        assert got == edges
        if num_nodes is not None:
            assert g.num_nodes == num_nodes > max(u + v, default=-1)


class TestLayouts:
    def test_aos_roundtrip(self, small_rmat):
        aos = small_rmat.as_aos()
        back = EdgeArray.from_aos(aos, num_nodes=small_rmat.num_nodes)
        assert back == small_rmat

    def test_aos_interleaving(self):
        g = EdgeArray.from_undirected([0], [1])
        aos = g.as_aos()
        assert len(aos) == 4
        pairs = {(int(aos[0]), int(aos[1])), (int(aos[2]), int(aos[3]))}
        assert pairs == {(0, 1), (1, 0)}

    def test_aos_odd_length_rejected(self):
        with pytest.raises(GraphFormatError):
            EdgeArray.from_aos([0, 1, 2])

    def test_packed_matches_pack_edges(self, k5):
        packed = k5.as_packed()
        assert packed.dtype == np.uint64
        assert len(packed) == k5.num_arcs

    def test_dtype_is_int32(self, k5):
        assert k5.first.dtype == VERTEX_DTYPE
        assert k5.second.dtype == VERTEX_DTYPE


class TestTransforms:
    def test_shuffled_preserves_edge_set(self, small_rmat):
        assert small_rmat.shuffled(seed=1) == small_rmat

    def test_shuffled_changes_order(self, small_rmat):
        shuffled = small_rmat.shuffled(seed=1)
        assert not np.array_equal(shuffled.first, small_rmat.first)

    def test_relabeled_preserves_shape(self, small_rmat):
        r = small_rmat.relabeled(seed=3)
        assert r.num_edges == small_rmat.num_edges
        assert r.num_nodes == small_rmat.num_nodes
        assert sorted(r.degrees().tolist()) == sorted(small_rmat.degrees().tolist())

    def test_copy_is_independent(self, k5):
        c = k5.copy()
        c.first[0] = 99
        assert k5.first[0] != 99


class TestDegrees:
    def test_complete_graph(self, k5):
        assert np.array_equal(k5.degrees(), np.full(5, 4))

    def test_star(self, star20):
        deg = star20.degrees()
        assert deg[0] == 19
        assert np.all(deg[1:] == 1)

    def test_sum_is_arc_count(self, any_graph):
        assert int(any_graph.degrees().sum()) == any_graph.num_arcs


class TestEquality:
    def test_equal_ignores_arc_order(self, k5):
        assert k5.shuffled(seed=9) == k5

    def test_unequal_different_edges(self):
        a = EdgeArray.from_edges([(0, 1)])
        b = EdgeArray.from_edges([(0, 2)])
        assert a != b

    def test_unhashable(self, k5):
        with pytest.raises(TypeError):
            hash(k5)

    def test_eq_other_type(self, k5):
        assert (k5 == 42) is False
