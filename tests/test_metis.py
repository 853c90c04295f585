"""Unit tests for the METIS (DIMACS10) graph format."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GraphFormatError
from repro.graphs import metis
from repro.graphs.edgearray import EdgeArray


class TestRoundTrip:
    def test_roundtrip(self, small_rmat, tmp_path):
        path = tmp_path / "g.metis"
        metis.write_metis(small_rmat, path)
        assert metis.read_metis(path) == small_rmat

    def test_roundtrip_with_isolated_vertices(self, tmp_path):
        g = EdgeArray.from_edges([(0, 1), (3, 4)], num_nodes=6)
        path = tmp_path / "g.metis"
        metis.write_metis(g, path)
        back = metis.read_metis(path)
        assert back == g
        assert back.num_nodes == 6

    def test_header_contents(self, k5, tmp_path):
        path = tmp_path / "g.metis"
        metis.write_metis(k5, path)
        assert path.read_text().splitlines()[0] == "5 10"


class TestParsing:
    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("% a comment\n3 2\n2\n1 3\n2\n")
        g = metis.read_metis(path)
        assert g.num_edges == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("")
        with pytest.raises(GraphFormatError, match="empty"):
            metis.read_metis(path)

    def test_weighted_rejected(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1 011\n2 5\n1 5\n")
        with pytest.raises(GraphFormatError, match="weighted"):
            metis.read_metis(path)

    def test_vertex_count_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n")  # promises 3 vertices, gives 2
        with pytest.raises(GraphFormatError, match="3 vertices"):
            metis.read_metis(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 5\n2\n1 3\n2\n")
        with pytest.raises(GraphFormatError, match="5 edges"):
            metis.read_metis(path)

    def test_neighbor_out_of_range(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\n9\n1\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            metis.read_metis(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("42\n")
        with pytest.raises(GraphFormatError, match="header"):
            metis.read_metis(path)


class TestMalformed:
    """Non-integer counts and ids raise GraphFormatError naming the
    file — never a bare ValueError."""

    @pytest.mark.parametrize("text,why", [
        ("x 1\n2\n1\n", "must be integers"),
        ("2 1.5\n2\n1\n", "must be integers"),
        ("-2 1\n", "negative"),
        ("2 1\n2.0\n1\n", "non-integer neighbor"),
        ("2 1\nb\n1\n", "non-integer neighbor"),
        ("2 1\n99999999999999999999\n1\n", "non-integer neighbor"),
    ])
    def test_typed_error_names_the_file(self, tmp_path, text, why):
        path = tmp_path / "bad.metis"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=why) as err:
            metis.read_metis(path)
        assert "bad.metis" in str(err.value)

    def test_edgeless_body_checks_the_edge_count(self, tmp_path):
        # Found by the fuzz: three empty adjacency lines under a header
        # promising one edge used to read as an edgeless graph.
        path = tmp_path / "g.metis"
        path.write_text("3 1\n\n\n\n")
        with pytest.raises(GraphFormatError, match="1 edges"):
            metis.read_metis(path)


#: Neighbor-id tokens and the value each stands for (None: not an
#: integer).
_IDS = {"1": 1, "2": 2, "3": 3, "0": 0, "-1": -1, "2.0": None, "x": None,
        "99999999999999999999": None}
_COUNTS = {"0": 0, "2": 2, "3": 3, "-1": -1, "x": None, "1.5": None}


def _mostly(valid, tokens):
    """Tokens drawn mostly from ``valid`` (one malformed part makes the
    whole file malformed, so malformed tokens must be rare)."""
    return st.sampled_from(list(valid) * 40 + list(tokens))


def _reference(n_tok, fmt, lines, m_tok):
    """The graph the text stands for, or None when it is malformed."""
    n = _COUNTS[n_tok]
    m = _COUNTS.get(m_tok, int(m_tok) if m_tok.isdigit() else None)
    if n is None or m is None or min(n, m) < 0 or fmt not in ("", "0"):
        return None
    if len(lines) < n or any(lines[n:]):
        return None
    ids = [[_IDS[t] for t in line] for line in lines[:n]]
    if any(x is None or not 1 <= x <= n for line in ids for x in line):
        return None
    src = [v for v, line in enumerate(ids) for _ in line]
    dst = [x - 1 for line in ids for x in line]
    graph = EdgeArray.from_undirected(np.array(src, np.int64),
                                      np.array(dst, np.int64), num_nodes=n)
    return graph if graph.num_edges == m else None


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_tok=_mostly(["3"], _COUNTS),
           fmt=_mostly([""], ["0", "1"]),
           lines=st.lists(st.lists(_mostly(["1", "2", "3"], _IDS),
                                   max_size=3), min_size=3, max_size=3),
           extra=_mostly([None], [[], ["1"]]),
           m_shift=_mostly([0], [1, None]))
    def test_typed_error_or_exact_graph(self, tmp_path, n_tok, fmt, lines,
                                        extra, m_shift):
        if extra is not None:
            lines = lines + [extra]
        # The header's edge count is the true one (shifted by m_shift)
        # whenever the rest of the file is well-formed.
        exact = _reference(n_tok, fmt, lines, "0")
        if exact is None:
            exact = _reference(n_tok, fmt, lines, "1")
        true_m = exact.num_edges if exact is not None else 1
        m_tok = "x" if m_shift is None else str(true_m + m_shift)
        path = tmp_path / "fuzz.metis"
        path.write_text(f"{n_tok} {m_tok} {fmt}\n"
                        + "".join(" ".join(line) + "\n" for line in lines))
        want = _reference(n_tok, fmt, lines, m_tok)
        if want is None:
            with pytest.raises(GraphFormatError, match="fuzz.metis"):
                metis.read_metis(path)
        else:
            got = metis.read_metis(path)
            assert got == want and got.num_nodes == want.num_nodes
