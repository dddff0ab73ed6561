import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphent import (
    FORMATS,
    Graph,
    ResourceCapError,
    ValidationError,
    complete,
    exact_entanglement,
    parse_graph,
    path,
    preset,
    ring,
    valencia,
)
from graphent.graphs import MAX_PRESET_EDGES

VALENCIA_EDGE_LIST = "5\n0 1\n1 2\n1 3\n3 4"


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges))


# a comment above the vertex count, and a comment and a blank line among the rows
TRIANGLE_COMMENT_ABOVE = "# triangle\n3\n0 1 1\n1 0 1\n1 1 0\n"
TRIANGLE_COMMENT_BETWEEN = "3\n# rows follow\n0 1 1\n\n1 0 1\n1 1 0\n"


class TestParsing:
    def test_edge_list_valencia(self):
        g = parse_graph(VALENCIA_EDGE_LIST, "edge-list")
        assert g == valencia()
        assert g.n_vertices == 5
        assert len(g.edges) == 4

    def test_edge_list_single_vertex(self):
        g = parse_graph("1\n", "edge-list")
        assert g == Graph(1, ())

    @pytest.mark.parametrize(
        "text,fmt,expected",
        [
            pytest.param(
                "# interaction layout\n3\n\n0 1\n# middle comment\n1 2\n", "edge-list", path(3),
                id="edge-list",
            ),
            pytest.param(TRIANGLE_COMMENT_ABOVE, "adjacency", complete(3), id="adjacency-above"),
            pytest.param(TRIANGLE_COMMENT_BETWEEN, "adjacency", complete(3), id="adjacency-between"),
            pytest.param(TRIANGLE_COMMENT_ABOVE, "auto", complete(3), id="auto-above"),
            pytest.param(TRIANGLE_COMMENT_BETWEEN, "auto", complete(3), id="auto-between"),
        ],
    )
    def test_comments_and_blanks(self, text, fmt, expected):
        assert parse_graph(text, fmt) == expected

    def test_adjacency_complete_5(self):
        rows = ["5"] + [" ".join("0" if i == j else "1" for j in range(5)) for i in range(5)]
        g = parse_graph("\n".join(rows), "adjacency")
        assert g == complete(5)
        assert len(g.edges) == 10

    def test_json_roundtrip_explicit_n(self):
        g = parse_graph('{"n": 4, "edges": [[0, 1], [2, 3]]}', "json")
        assert g == Graph(4, ((0, 1), (2, 3)))

    def test_json_inferred_n(self):
        g = parse_graph('{"edges": [[0, 2]]}', "json")
        assert g.n_vertices == 3

    def test_isolated_vertices_allowed(self):
        g = parse_graph("6\n0 1\n", "edge-list")
        assert g.n_vertices == 6
        assert g.degree(5) == 0

    @pytest.mark.parametrize(
        "text,fmt,message",
        [
            ("5\n1 1\n", "edge-list", "self-loop at vertex 1"),
            ("2\n0 3\n", "edge-list", "edge (0, 3) out of range for 2 vertices"),
            ("2\n0 1\n1 0\n", "edge-list", "duplicate edge (0, 1)"),
            ("2\n0 1 2\n", "edge-list", "expected edge line 'i j', got '0 1 2'"),
            ("x\n0 1\n", "edge-list", "expected integer vertex count, got 'x'"),
            ("", "edge-list", "empty edge-list input"),
            ("2\n0 1\n0 0", "adjacency", "adjacency matrix asymmetric at (0, 1)"),
            ("2\n0 2\n2 0", "adjacency", "adjacency entry 2 outside {0, 1}"),
            ("2\n1 0\n0 1", "adjacency", "self-loop at vertex 0"),
            ("3\n0 1\n1 0", "adjacency", "expected 3 adjacency rows, got 2"),
            ('{"edges": "nope"}', "json", "'edges' must be an array"),
            ('{"edges": [[0, 1, 2]]}', "json", "each edge must be a two-integer array, got [0, 1, 2]"),
            ('{"edges": []}', "json", "vertex count 'n' required when no edges are given"),
            ("not json", "json", "invalid JSON graph: Expecting value: line 1 column 1 (char 0)"),
            ("\u00b2\n0 1\n", "auto", "expected integer vertex count, got '\u00b2'"),  # non-ASCII digit
            *(
                pytest.param(
                    "1" * 5000 + "\n0 1\n", fmt, f"expected integer vertex count, got '{'1' * 5000}'",
                    id=f"beyond-int-digit-limit-{fmt}",
                )
                for fmt in ("auto", "edge-list")
            ),
        ],
    )
    def test_rejects_malformed(self, text, fmt, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_graph(text, fmt)

    @pytest.mark.parametrize(
        "text,adjacency,auto",
        [
            pytest.param(
                "3\n0 1\n1 0 x\n0 0 0\n",
                "expected 3 entries per row, got 2", "expected edge line 'i j', got '1 0 x'",
                id="short-row-before-bad-token",
            ),
            pytest.param(
                "3\n0 1 0\n1 1 1\n0 0 0\n",
                "self-loop at vertex 1", "self-loop at vertex 1",
                id="loop-before-asymmetry-in-its-row",
            ),
            pytest.param(
                "3\n0 2 0\n2 1 0\n0 0 0\n",
                "adjacency entry 2 outside {0, 1}", "expected edge line 'i j', got '0 2 0'",
                id="entry-before-later-loop",
            ),
            pytest.param(
                "2\n0 1\n1 0 0\n",
                "expected 2 entries per row, got 3", "expected edge line 'i j', got '1 0 0'",
                id="long-row",
            ),
            pytest.param(
                "2\n0 1\n x 0\n",
                "expected integer adjacency entry, got 'x'", "expected integer vertex, got 'x'",
                id="bad-token",
            ),
        ],
    )
    def test_first_error_is_named(self, text, adjacency, auto):
        """Malformed matrices name the same first fault in the same order, whichever check finds it."""
        for fmt, message in (("adjacency", adjacency), ("auto", auto)):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                parse_graph(text, fmt)

    def test_zero_padded_entries(self):
        # read as integers under --format adjacency; not a 0/1 matrix to the detector
        text = "3\n00 01 00\n01 00 01\n00 01 00\n"
        assert parse_graph(text, "adjacency") == path(3)
        with pytest.raises(ValidationError, match=re.escape("expected edge line 'i j', got '00 01 00'")):
            parse_graph(text, "auto")

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"n": 3, "edges": [[0, 1]], "edges": [[1, 2]]}', "edges"),
            ('{"n": 3, "n": 5, "edges": [[0, 1]]}', "n"),
            ('{"n": 3, "edges": [[0, 1]], "note": {"a": 1, "a": 2}}', "a"),
        ],
        ids=["edges", "n", "nested"],
    )
    def test_json_rejects_repeated_keys(self, text, key):
        # json.loads alone keeps the last value and answers for another graph
        for fmt in ("json", "auto"):
            with pytest.raises(ValidationError, match=f"^JSON graph repeats the key {re.escape(repr(key))}$"):
                parse_graph(text, fmt)

    @pytest.mark.parametrize(
        "text", ['{"n": %s, "edges": []}' % ("1" * 5000), '{"edges": [[0, %s]]}' % ("1" * 5000)], ids=["n", "endpoint"],
    )
    def test_json_integer_past_digit_limit(self, text):
        with pytest.raises(ValidationError, match="^invalid JSON graph: "):
            parse_graph(text, "json")

    def test_json_nested_past_the_recursion_limit(self):
        with pytest.raises(ValidationError, match="^invalid JSON graph: maximum recursion depth exceeded"):
            parse_graph('{"n": ' + "[" * 100_000, "auto")

    def test_unknown_format(self):
        with pytest.raises(ValidationError, match="'auto'"):
            parse_graph("1\n", "yaml")


class TestGraphType:
    def test_edges_canonicalized(self):
        g = Graph(4, ((3, 1), (2, 0)))
        assert g.edges == ((0, 2), (1, 3))

    @pytest.mark.parametrize("bad", [((0, 0),), ((0, 5),), ((0, 1), (1, 0))])
    def test_invariants_enforced(self, bad):
        with pytest.raises(ValidationError):
            Graph(3, bad)

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValidationError):
            Graph(0, ())

    @pytest.mark.parametrize(
        "n, edges, what",
        [(3.7, ((0, 1),), "vertex count"), (3, ((0, 1.9),), "vertex"), (3.0, (), "vertex count")],
    )
    def test_non_integer_vertex_rejected(self, n, edges, what):
        # int() would truncate Graph(3.7, ((0, 1.9),)) to another graph
        with pytest.raises(ValidationError, match=f"{what} must be an integer"):
            Graph(n, edges)

    @pytest.mark.parametrize("edges", [((0, 1, 2),), ((0,),), (5,), ((),)], ids=["three", "one", "int", "empty"])
    def test_edge_must_be_a_pair(self, edges):
        # reading edge[0] and edge[1] would build Graph(3, ((0, 1),)) from (0, 1, 2)
        with pytest.raises(ValidationError, match="is not a pair of vertices"):
            Graph(3, edges)

    @pytest.mark.parametrize("edges", [5, None], ids=["int", "none"])
    def test_edges_must_be_iterable(self, edges):
        # iterating them raised an unclassified TypeError
        with pytest.raises(ValidationError, match="is not a collection of vertex pairs"):
            Graph(3, edges)

    def test_numpy_integers_accepted(self):
        g = Graph(np.int64(3), ((np.int32(2), np.int64(0)),))
        assert g == Graph(3, ((0, 2),))
        assert type(g.n_vertices) is int and all(type(v) is int for v in g.edges[0])

    def test_degree_out_of_range(self):
        with pytest.raises(ValidationError):
            valencia().degree(5)

    @pytest.mark.parametrize("spin", [1.5, 1.0, "1", None])
    def test_non_integer_spin_rejected(self, spin):
        # 1.5 passed the range check and then found no neighbours
        with pytest.raises(ValidationError, match=re.escape(f"spin must be an integer, got {spin!r}")):
            valencia().neighbours(spin)
        with pytest.raises(ValidationError):
            valencia().degree(spin)

    def test_integer_like_spin_accepted(self):
        g = valencia()
        assert g.neighbours(np.int64(1)) == g.neighbours(1) == (0, 2, 3)


class TestDegrees:
    def test_valencia_degrees(self):
        g = valencia()
        assert [g.degree(l) for l in range(5)] == [1, 3, 1, 2, 1]
        assert g.degree(1) == 3
        assert g.degree(3) == 2

    def test_complete_degrees(self):
        g = complete(5)
        assert all(g.degree(l) == 4 for l in range(5))

    @given(graphs())
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.degree(l) for l in range(g.n_vertices)) == 2 * len(g.edges)

    @given(graphs())
    def test_degree_matches_adjacency_row_sum(self, g):
        # row l of the adjacency matrix holds a 1 for each edge at l, and no loop
        assert all(i != j for i, j in g.edges)
        for l in range(g.n_vertices):
            assert g.degree(l) == sum(l in edge for edge in g.edges)


class TestNeighbours:
    def test_not_part_of_equality_or_repr(self):
        g = valencia()
        assert g == Graph(5, ((3, 4), (1, 3), (2, 1), (0, 1)))
        assert hash(g) == hash(Graph(5, g.edges))
        assert repr(g) == "Graph(n_vertices=5, edges=((0, 1), (1, 2), (1, 3), (3, 4)))"

    @given(graphs())
    def test_degree_matches_edge_scan(self, g):
        for l in range(g.n_vertices):
            assert g.degree(l) == sum(l in edge for edge in g.edges)

    def test_memory_grows_with_edges_not_vertices(self):
        tracemalloc.start()
        try:
            g = Graph(10**6, ((0, 1),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert g.degree(10**6 - 1) == 0
        assert g.degree(1) == 1

    def test_ascending_and_range_checked(self):
        assert valencia().neighbours(1) == (0, 2, 3)
        assert ring(6).neighbours(0) == (1, 5)
        assert Graph(3, ((0, 1),)).neighbours(2) == ()
        for l in (-1, 5):
            with pytest.raises(ValidationError):
                valencia().neighbours(l)

    @pytest.mark.parametrize("l", [-1, 5, np.int64(7)])
    def test_out_of_range_message(self, l):
        # the index kind's one range message
        with pytest.raises(ValidationError, match=rf"^spin {l} out of range \[0, 5\)$"):
            valencia().neighbours(l)


class TestLightCone:
    """Spin l's light cone is the star on l and its degree(l) neighbours.

    ``exact_entanglement`` simulates only that star, so a spin and the
    centre of the star of its degree give bit-identical Bloch vectors
    within a cap of degree(l) + 1 qubits.
    """

    @staticmethod
    def star(k):
        return Graph(k + 1, tuple((0, m) for m in range(1, k + 1)))

    @staticmethod
    def cone_bloch(g, l, phi=0.9, max_qubits=None):
        cap = g.degree(l) + 1 if max_qubits is None else max_qubits
        return exact_entanglement(g, phi, l, max_qubits=cap).bloch.as_tuple()

    def test_valencia_hub_is_a_three_star(self):
        assert valencia().neighbours(1) == (0, 2, 3)
        assert self.cone_bloch(valencia(), 1) == self.cone_bloch(self.star(3), 0)

    def test_isolated_vertex_is_one_qubit(self):
        g = Graph(3, ((0, 1),))
        assert self.cone_bloch(g, 2, max_qubits=1) == self.cone_bloch(Graph(1, ()), 0)

    def test_triangle_drops_edge_between_neighbours(self):
        assert self.cone_bloch(complete(3), 0) == self.cone_bloch(self.star(2), 0)

    def test_large_sparse_graph(self):
        g = ring(100_000)
        assert self.cone_bloch(g, 5, max_qubits=3) == self.cone_bloch(self.star(2), 0)

    @given(graphs())
    def test_star_of_degree(self, g):
        for l in range(g.n_vertices):
            k = g.degree(l)
            assert self.cone_bloch(g, l) == self.cone_bloch(self.star(k), 0)
            if k:
                with pytest.raises(ResourceCapError):
                    self.cone_bloch(g, l, max_qubits=k)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            exact_entanglement(valencia(), 0.9, 5)


class TestPresets:
    def test_valencia(self):
        assert preset("valencia") == valencia()

    @pytest.mark.parametrize("name,expected", [
        ("complete(5)", complete(5)),
        ("complete:5", complete(5)),
        ("path(2)", Graph(2, ((0, 1),))),
        ("ring(4)", ring(4)),
    ])
    def test_sized(self, name, expected):
        assert preset(name) == expected

    def test_complete_edge_count(self):
        assert len(complete(5).edges) == 10

    @pytest.mark.parametrize("name", ["ring(2)", "complete(0)", "path(0)", "star(3)", "complete"])
    def test_invalid(self, name):
        with pytest.raises(ValidationError):
            preset(name)

    @pytest.mark.parametrize("name", [5, None, b"valencia"])
    def test_non_string_name(self, name):
        with pytest.raises(ValidationError, match=rf"^preset name must be a string, got {re.escape(repr(name))}$"):
            preset(name)

    @pytest.mark.parametrize("build, kind", [(complete, "complete"), (path, "path"), (ring, "ring")])
    @pytest.mark.parametrize("n", [2.5, "4", None, True, 4.0])
    def test_non_integer_size(self, build, kind, n):
        with pytest.raises(ValidationError, match=rf"^{kind} graph size must be an integer, got {re.escape(repr(n))}$"):
            build(n)

    @pytest.mark.parametrize("build, n, text", [
        (complete, 0, "complete graph needs n >= 1, got 0"),
        (path, -1, "path graph needs n >= 1, got -1"),
        (ring, 2, "ring graph needs n >= 3, got 2"),
    ])
    def test_too_small_size(self, build, n, text):
        for size in (n, np.int64(n)):
            with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
                build(size)

    def test_too_small_size_past_the_digit_limit(self):
        # str() refuses more than 4300 digits, which the message once raised unclassified
        with pytest.raises(ValidationError, match="^path graph needs n >= 1, got a 13288-bit integer$"):
            path(-(10**4000))

    def test_numpy_integer_size(self):
        assert ring(np.int64(5)) == ring(5)

    @pytest.mark.parametrize("build, largest", [(complete, 447), (path, 100_001), (ring, 100_000)])
    def test_edge_cap(self, build, largest):
        assert len(build(largest).edges) <= MAX_PRESET_EDGES
        kind = build.__name__
        for n, shown in ((largest + 1, largest + 1), (10**4000, "a 13288-bit integer")):
            with pytest.raises(ResourceCapError, match=rf"^{kind} graph of size {shown} has more than the preset cap of 100000 edges$"):
                build(n)

    @pytest.mark.parametrize("form", ["ring({})", "ring:{}", "path({})", "complete:{}"])
    def test_size_past_the_digit_limit(self, form):
        # int() refuses more than 4300 digits with a ValueError, which escaped preset
        kind = form.split("(")[0].split(":")[0]
        with pytest.raises(ValidationError, match=rf"^{kind} graph size has 5000 digits, more than int\(\) converts$"):
            preset(form.format("9" * 5000))


def _graph_rows(g, fmt):
    """The tokens of each line of ``g`` in a line format, written without graphent's help."""
    if fmt == "edge-list":
        return [[str(g.n_vertices)]] + [[str(i), str(j)] for i, j in g.edges]
    rows = [["0"] * g.n_vertices for _ in range(g.n_vertices)]
    for i, j in g.edges:
        rows[i][j] = rows[j][i] = "1"
    return [[str(g.n_vertices)]] + rows


def _graph_text(g, fmt):
    """``g`` in one of the file formats, written without graphent's help."""
    if fmt == "json":
        return json.dumps({"n": g.n_vertices, "edges": [list(e) for e in g.edges]})
    return "".join(" ".join(row) + "\n" for row in _graph_rows(g, fmt))


_GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
_EDGES = st.sampled_from(["", " ", "\t", "  "])
_ENDINGS = st.sampled_from(["\n", "\r\n"])
_FILLER = st.lists(st.sampled_from(["", "   ", "\t", "#", "# 0 1", "  # comment"]), max_size=2)


@st.composite
def noisy_text(draw, rows):
    """``rows`` as lines with tabs, runs of spaces, CRLF endings, blank lines and ``#`` lines."""
    lines = []
    for tokens in rows:
        lines += [filler + draw(_ENDINGS) for filler in draw(_FILLER)]
        gaps = [draw(_GAPS) for _ in tokens[1:]] + [draw(_EDGES)]
        line = draw(_EDGES) + "".join(tok + gap for tok, gap in zip(tokens, gaps))
        lines.append(line + draw(_ENDINGS))
    return "".join(lines) + "".join(filler + draw(_ENDINGS) for filler in draw(_FILLER))


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data(), g=graphs())
def test_serialize_parse_roundtrip(fmt, data, g):
    texts = [_graph_text(g, fmt)]
    if fmt != "json":  # the line formats skip whitespace, blank lines and comments
        texts.append(data.draw(noisy_text(_graph_rows(g, fmt))))
    for text in texts:
        assert parse_graph(text, fmt) == g
        assert parse_graph(text, "auto") == g
