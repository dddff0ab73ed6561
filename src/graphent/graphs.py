"""Simple undirected interaction graphs: vertices are spins, edges are couplings.

Three text formats are supported:

* ``edge-list``: first line is the vertex count, each following line is
  ``"i j"``.
* ``json``: object with ``"n"`` (optional when edges are present) and
  ``"edges"``, an array of two-element integer arrays.
* ``adjacency``: first line is ``n``, then ``n`` rows of ``n`` space-separated
  0/1 entries; the matrix must be symmetric with a zero diagonal.

In the two line formats, blank lines and lines starting with ``#`` are skipped.

``parse_graph(text, "auto")`` picks the format from the text itself: a leading
``{`` means JSON, a square 0/1 matrix under a vertex-count line means adjacency,
anything else is read as an edge list.

Couplings are unweighted: adjacency entries other than 0/1, self-loops, and
duplicate edges are rejected rather than silently normalized away.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

FORMATS = ("edge-list", "json", "adjacency")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; edges are stored sorted, each pair as (i, j) with i < j."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...] = ()
    # neighbours of each vertex in ascending order; derived, so not compared
    _neighbours: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n_vertices)
        if n < 1:
            raise ValidationError(f"vertex count must be positive, got {self.n_vertices}")
        seen = set()
        canon = []
        for edge in self.edges:
            i, j = (int(edge[0]), int(edge[1]))
            if i == j:
                raise ValidationError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"edge ({i}, {j}) out of range for {n} vertices")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ValidationError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        edges = tuple(sorted(canon))
        neighbours = [[] for _ in range(n)]
        for i, j in edges:
            neighbours[i].append(j)
            neighbours[j].append(i)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_neighbours", tuple(map(tuple, neighbours)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, l: int) -> int:
        """Number of edges incident to vertex ``l``; the range check every route relies on."""
        if not 0 <= l < self.n_vertices:
            raise ValidationError(f"spin {l} out of range for {self.n_vertices} vertices")
        return len(self._neighbours[l])

    def light_cone(self, l: int) -> "Graph":
        """Star of ``l``: ``l`` becomes vertex 0, its neighbours 1..k in ascending order.

        Edge terms not incident to ``l`` (edges between its neighbours included)
        commute with every Pauli on ``l`` and with the edge terms at ``l``, so
        ``<sigma_l>`` of the graph state equals ``<sigma_0>`` of the star's state
        (Hein, Eisert & Briegel, PRA 69, 062311 (2004)).
        """
        k = self.degree(l)
        return Graph(k + 1, tuple((0, m) for m in range(1, k + 1)))

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=int)
        for i, j in self.edges:
            a[i, j] = 1
            a[j, i] = 1
        return a


def _as_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"expected integer {what}, got {token!r}") from None


def _data_lines(text: str) -> list[str]:
    """Stripped lines of ``text``, without blank lines and ``#`` comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _parse_edge_list(text: str) -> Graph:
    data = _data_lines(text)
    if not data:
        raise ValidationError("empty edge-list input")
    head = data[0].split()
    if len(head) != 1:
        raise ValidationError(f"first line must be the vertex count, got {data[0]!r}")
    n = _as_int(head[0], "vertex count")
    edges = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"expected edge line 'i j', got {ln!r}")
        edges.append((_as_int(parts[0], "vertex"), _as_int(parts[1], "vertex")))
    return Graph(n, tuple(edges))


def _parse_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON graph: {exc}") from None
    if not isinstance(obj, dict) or "edges" not in obj:
        raise ValidationError("JSON graph must be an object with an 'edges' array")
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ValidationError("'edges' must be an array")
    edges = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise ValidationError(f"each edge must be a two-integer array, got {item!r}")
        edges.append((item[0], item[1]))
    n = obj.get("n")
    if n is None:
        if not edges:
            raise ValidationError("vertex count 'n' required when no edges are given")
        n = 1 + max(max(e) for e in edges)
    elif not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError(f"'n' must be an integer, got {n!r}")
    return Graph(n, tuple(edges))


def _parse_adjacency(text: str) -> Graph:
    data = _data_lines(text)
    if not data:
        raise ValidationError("empty adjacency input")
    head = data[0].split()
    if len(head) != 1:
        raise ValidationError(f"first line must be the vertex count, got {data[0]!r}")
    n = _as_int(head[0], "vertex count")
    rows = data[1:]
    if len(rows) != n:
        raise ValidationError(f"expected {n} adjacency rows, got {len(rows)}")
    matrix = []
    for ln in rows:
        entries = [_as_int(tok, "adjacency entry") for tok in ln.split()]
        if len(entries) != n:
            raise ValidationError(f"expected {n} entries per row, got {len(entries)}")
        matrix.append(entries)
    edges = []
    for i in range(n):
        if matrix[i][i] != 0:
            raise ValidationError(f"self-loop at vertex {i}")
        for j in range(n):
            if matrix[i][j] not in (0, 1):
                raise ValidationError(f"adjacency entry {matrix[i][j]} outside {{0, 1}}")
            if matrix[i][j] != matrix[j][i]:
                raise ValidationError(f"adjacency matrix asymmetric at ({i}, {j})")
            if i < j and matrix[i][j] == 1:
                edges.append((i, j))
    return Graph(n, tuple(edges))


_PARSERS = {
    "edge-list": _parse_edge_list,
    "json": _parse_json,
    "adjacency": _parse_adjacency,
}


def _looks_like_adjacency(text: str) -> bool:
    """A vertex-count line ``n`` followed by exactly ``n`` rows of ``n`` 0/1 entries."""
    data = [ln.split() for ln in _data_lines(text)]
    if not data or len(data[0]) != 1 or not data[0][0].isdecimal():
        return False
    rows = data[1:]
    return len(rows) == int(data[0][0]) and all(
        len(r) == len(rows) and set(r) <= {"0", "1"} for r in rows
    )


def parse_graph(text: str, fmt: str) -> Graph:
    """Parse ``text`` in one of the formats listed in :data:`FORMATS`, or ``"auto"`` to detect it."""
    if fmt == "auto":
        if text.lstrip().startswith("{"):
            fmt = "json"
        elif _looks_like_adjacency(text):
            fmt = "adjacency"
        else:
            fmt = "edge-list"
    if fmt not in _PARSERS:
        raise ValidationError(
            f"unknown graph format {fmt!r}; expected one of {FORMATS + ('auto',)}"
        )
    return _PARSERS[fmt](text)


def serialize_graph(g: Graph, fmt: str) -> str:
    """Inverse of :func:`parse_graph`: ``parse_graph(serialize_graph(g, f), f) == g``."""
    if fmt == "edge-list":
        lines = [str(g.n_vertices)] + [f"{i} {j}" for i, j in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"n": g.n_vertices, "edges": [list(e) for e in g.edges]})
    if fmt == "adjacency":
        a = g.adjacency_matrix()
        lines = [str(g.n_vertices)] + [" ".join(str(v) for v in row) for row in a]
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown graph format {fmt!r}; expected one of {FORMATS}")


def valencia() -> Graph:
    """Five-spin T-shaped graph matching the IBM Q Valencia coupling layout."""
    return Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValidationError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValidationError(f"path graph needs n >= 1, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def ring(n: int) -> Graph:
    if n < 3:
        raise ValidationError(f"ring graph needs n >= 3, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


_SIZED_PRESETS = {"complete": complete, "path": path, "ring": ring}


def preset(name: str) -> Graph:
    """Build a named preset: ``valencia``, ``complete(n)``, ``path(n)``, ``ring(n)``.

    Sized presets accept ``name(n)`` or the shell-friendly ``name:n``.
    """
    spec = name.strip().lower()
    if spec == "valencia":
        return valencia()
    m = re.fullmatch(r"([a-z]+)\((\d+)\)", spec) or re.fullmatch(r"([a-z]+):(\d+)", spec)
    if m and m.group(1) in _SIZED_PRESETS:
        return _SIZED_PRESETS[m.group(1)](int(m.group(2)))
    raise ValidationError(
        f"unknown preset {name!r}; expected valencia, complete(n), path(n), or ring(n)"
    )
