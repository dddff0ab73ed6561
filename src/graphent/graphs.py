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

from .errors import ValidationError
from .statevector import _checked_integer

FORMATS = ("edge-list", "json", "adjacency")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; edges are stored sorted, each pair as (i, j) with i < j."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...] = ()
    # neighbours in ascending order, keyed by non-isolated vertex only, so the
    # memory is O(edges); derived, so not compared
    _neighbours: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _checked_integer(self.n_vertices, "vertex count")
        if n < 1:
            raise ValidationError(f"vertex count must be positive, got {self.n_vertices}")
        try:
            edge_iter = iter(self.edges)
        except TypeError:  # Graph(3, 5), Graph(3, None)
            raise ValidationError(f"edges {self.edges!r} is not a collection of vertex pairs") from None
        seen = set()
        for edge in edge_iter:
            try:
                i, j = edge
            except (TypeError, ValueError):  # not iterable, or not two entries
                raise ValidationError(f"edge {edge!r} is not a pair of vertices") from None
            if type(i) is not int or type(j) is not int:  # plain ints, the common case, skip the calls
                i, j = _checked_integer(i, "edge endpoint"), _checked_integer(j, "edge endpoint")
            if i == j:
                raise ValidationError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"edge ({i}, {j}) out of range for {n} vertices")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ValidationError(f"duplicate edge {pair}")
            seen.add(pair)
        edges = tuple(sorted(seen))
        neighbours: dict[int, list[int]] = {}
        for i, j in edges:
            neighbours.setdefault(i, []).append(j)
            neighbours.setdefault(j, []).append(i)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_neighbours", {v: tuple(ns) for v, ns in neighbours.items()})

    def neighbours(self, l: int) -> tuple[int, ...]:
        """Vertices adjacent to ``l`` in ascending order; the range check every route relies on."""
        if not 0 <= l < self.n_vertices:
            raise ValidationError(f"spin {l} out of range for {self.n_vertices} vertices")
        return self._neighbours.get(l, ())

    def degree(self, l: int) -> int:
        """Number of edges incident to vertex ``l``."""
        return len(self.neighbours(l))


def _as_int(token: str, what: str) -> int:
    """``token`` if ASCII decimal, ``-?[0-9]+``; ``int`` would also take ``1_1``, ``+3``, ``３``."""
    if token.isascii() and token.removeprefix("-").isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ValidationError(f"expected integer {what}, got {token!r}")


def _data_lines(text: str) -> list[str]:
    """Stripped lines of ``text``, without blank lines and ``#`` comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _count_and_lines(text: str, fmt: str) -> tuple[int, list[str]]:
    """The vertex count on the first data line of a line format, and the data lines after it."""
    data = _data_lines(text)
    if not data:
        raise ValidationError(f"empty {fmt} input")
    head = data[0].split()
    if len(head) != 1:
        raise ValidationError(f"first line must be the vertex count, got {data[0]!r}")
    return _as_int(head[0], "vertex count"), data[1:]


def _parse_edge_list(text: str) -> Graph:
    n, lines = _count_and_lines(text, "edge-list")
    edges = []
    for ln in lines:
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
    n, rows = _count_and_lines(text, "adjacency")
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
    # compared as digit strings: int() refuses counts of more than 4300 digits
    return data[0][0].lstrip("0") == str(len(rows)).lstrip("0") and all(
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
    m = re.fullmatch(r"([a-z]+)\(([0-9]+)\)", spec) or re.fullmatch(r"([a-z]+):([0-9]+)", spec)
    if m and m.group(1) in _SIZED_PRESETS:
        return _SIZED_PRESETS[m.group(1)](int(m.group(2)))
    raise ValidationError(
        f"unknown preset {name!r}; expected valencia, complete(n), path(n), or ring(n)"
    )
