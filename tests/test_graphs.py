import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphent import (
    FORMATS,
    Graph,
    ValidationError,
    complete,
    parse_graph,
    path,
    preset,
    ring,
    serialize_graph,
    valencia,
)

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
        assert g.n_edges == 4

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
        assert g.n_edges == 10

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
        "text,fmt",
        [
            ("5\n1 1\n", "edge-list"),  # self-loop
            ("2\n0 3\n", "edge-list"),  # index out of range
            ("2\n0 1\n1 0\n", "edge-list"),  # duplicate edge
            ("2\n0 1 2\n", "edge-list"),  # malformed edge line
            ("x\n0 1\n", "edge-list"),  # non-integer count
            ("", "edge-list"),
            ("2\n0 1\n0 0", "adjacency"),  # asymmetric
            ("2\n0 2\n2 0", "adjacency"),  # entry outside {0, 1}
            ("2\n1 0\n0 1", "adjacency"),  # diagonal self-loop
            ("3\n0 1\n1 0", "adjacency"),  # wrong row count
            ('{"edges": "nope"}', "json"),
            ('{"edges": [[0, 1, 2]]}', "json"),
            ('{"edges": []}', "json"),  # no n and nothing to infer from
            ("not json", "json"),
            ("\u00b2\n0 1\n", "auto"),  # non-ASCII digit as vertex count
        ],
    )
    def test_rejects_malformed(self, text, fmt):
        with pytest.raises(ValidationError):
            parse_graph(text, fmt)

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

    def test_degree_out_of_range(self):
        with pytest.raises(ValidationError):
            valencia().degree(5)


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
        assert sum(g.degree(l) for l in range(g.n_vertices)) == 2 * g.n_edges

    @given(graphs())
    def test_degree_matches_adjacency_row_sum(self, g):
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        for l in range(g.n_vertices):
            assert g.degree(l) == int(a[l].sum())


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


class TestLightCone:
    def test_valencia_hub_is_a_three_star(self):
        assert valencia().light_cone(1) == Graph(4, ((0, 1), (0, 2), (0, 3)))

    def test_isolated_vertex_is_one_qubit(self):
        assert Graph(3, ((0, 1),)).light_cone(2) == Graph(1, ())

    def test_triangle_drops_edge_between_neighbours(self):
        assert complete(3).light_cone(0) == Graph(3, ((0, 1), (0, 2)))

    def test_large_sparse_graph(self):
        assert ring(100_000).light_cone(5) == Graph(3, ((0, 1), (0, 2)))

    @given(graphs())
    def test_star_of_degree(self, g):
        for l in range(g.n_vertices):
            cone = g.light_cone(l)
            assert cone.n_vertices == g.degree(l) + 1
            assert cone.degree(0) == g.degree(l)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            valencia().light_cone(5)


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
        assert complete(5).n_edges == 10

    @pytest.mark.parametrize("name", ["ring(2)", "complete(0)", "path(0)", "star(3)", "complete"])
    def test_invalid(self, name):
        with pytest.raises(ValidationError):
            preset(name)


@pytest.mark.parametrize("fmt", FORMATS)
@given(g=graphs())
def test_serialize_parse_roundtrip(fmt, g):
    assert parse_graph(serialize_graph(g, fmt), fmt) == g
    assert parse_graph(serialize_graph(g, fmt), "auto") == g
