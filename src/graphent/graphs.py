"""Simple undirected interaction graphs: vertices are spins, edges are couplings.

Three text formats are supported:

* ``edge-list``: first line is the vertex count, each following line is
  ``"i j"``.
* ``json``: object with ``"n"`` (optional when edges are present) and
  ``"edges"``, an array of two-element integer arrays.
* ``adjacency``: first line is ``n``, then ``n`` rows of ``n`` space-separated
  0/1 entries; the matrix must be symmetric with a zero diagonal.

In the two line formats, blank lines and lines starting with ``#`` are skipped.
In JSON, a repeated key and an integer past ``int()``'s digit limit are rejected.

``parse_graph(text, "auto")`` picks the format from the text itself: a leading
``{`` means JSON, a square 0/1 matrix under a vertex-count line means adjacency,
anything else is read as an edge list.

Couplings are unweighted: adjacency entries other than 0/1, self-loops, and
duplicate edges are rejected rather than silently normalized away.

A text is read in one pass: its lines are split once, and the detector hands
the tokens to the parser it picks. Well-formed input is accepted by checks over
all tokens at once (set membership, a transpose compare for a matrix); the
per-token loop runs only on the error path, to name the first bad token in file
order.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import getitem

from .errors import ResourceCapError, ValidationError, _checked_choice, _checked_count, _checked_edges, _checked_index, _checked_integer, _checked_text, _load_json, _shown, _Value

FORMATS = ("edge-list", "json", "adjacency")


class Graph(_Value):
    """Immutable simple graph; edges are stored sorted, each pair as (i, j) with i < j."""

    # _neighbours: neighbours in ascending order, keyed by non-isolated vertex
    # only, so the memory is O(edges); derived, so not a field
    __slots__ = ("n_vertices", "edges", "_neighbours")

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int], ...] = ()):
        n = _checked_count(n_vertices, "vertex count", 1)
        seen = set()
        for i, j in _checked_edges(edges, n):
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ValidationError(f"duplicate edge ({_shown(pair[0])}, {_shown(pair[1])})")
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
        """Vertices adjacent to ``l`` in ascending order; the integer and range check every route relies on."""
        return self._neighbours.get(_checked_index(l, self.n_vertices, "spin"), ())

    def degree(self, l: int) -> int:
        """Number of edges incident to vertex ``l``."""
        return len(self.neighbours(l))


def _check_graph(g) -> None:
    """Raise ValidationError unless ``g`` is a Graph, before a route reads a degree or an edge of it."""
    if not isinstance(g, Graph):
        raise ValidationError(f"graph must be a Graph, got {_shown(g)}")


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


def _data_rows(text: str) -> list[list[str]]:
    """The tokens of each of ``text``'s data lines, the lines :func:`_data_lines` keeps."""
    return [row for row in map(str.split, text.splitlines()) if row and row[0][0] != "#"]


def _vertex_count(text: str, rows: list[list[str]], fmt: str) -> int:
    """The vertex count on the first data row of a line format."""
    if not rows:
        raise ValidationError(f"empty {fmt} input")
    if len(rows[0]) != 1:
        raise ValidationError(f"first line must be the vertex count, got {_data_lines(text)[0]!r}")
    return _as_int(rows[0][0], "vertex count")


def _parse_edge_list(text: str, rows: list[list[str]]) -> Graph:
    n = _vertex_count(text, rows, "edge-list")
    body = rows[1:]
    tokens = list(chain.from_iterable(body))
    digits = "".join(tokens)
    if set(map(len, body)) <= {2} and digits.isascii() and digits.isdigit():
        try:
            ends = list(map(int, tokens))
        except ValueError:  # more digits than int() converts; the loop below names the token
            pass
        else:  # tuple() of a list: one of an iterator grows by reallocation, which raised peak RSS
            return Graph(n, tuple(list(zip(ends[::2], ends[1::2]))))
    # a malformed line or token: name the first, in file order
    edges = []
    for k, parts in enumerate(body, 1):
        if len(parts) != 2:
            raise ValidationError(f"expected edge line 'i j', got {_data_lines(text)[k]!r}")
        edges.append((_as_int(parts[0], "vertex"), _as_int(parts[1], "vertex")))
    return Graph(n, tuple(edges))


def _parse_json(text: str) -> Graph:
    obj = _load_json(text, "JSON graph", "invalid JSON graph")
    if not isinstance(obj, dict) or "edges" not in obj:
        raise ValidationError("JSON graph must be an object with an 'edges' array")
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ValidationError("'edges' must be an array")
    # json.loads makes no int subclass but bool, so a type test is the integer test
    if not (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        for item in raw:
            if (
                type(item) is not list
                or len(item) != 2
                or type(item[0]) is not int
                or type(item[1]) is not int
            ):
                raise ValidationError(f"each edge must be a two-integer array, got {item!r}")
    edges = list(map(tuple, raw))
    n = obj.get("n")
    if n is None:
        if not edges:
            raise ValidationError("vertex count 'n' required when no edges are given")
        n = 1 + max(chain.from_iterable(edges))
    elif type(n) is not int:
        raise ValidationError(f"'n' must be an integer, got {n!r}")
    return Graph(n, tuple(edges))


def _is_bit_matrix(rows: list[list[str]], n: int) -> bool:
    """Whether every row holds ``n`` tokens, each ``"0"`` or ``"1"``."""
    return set(map(len, rows)) <= {n} and set().union(*rows) <= {"0", "1"}


def _parse_adjacency(text: str, rows: list[list[str]]) -> Graph:
    n = _vertex_count(text, rows, "adjacency")
    body = rows[1:]
    if len(body) != n:
        raise ValidationError(f"expected {n} adjacency rows, got {len(body)}")
    if (
        _is_bit_matrix(body, n)
        and "1" not in map(getitem, body, range(n))  # diagonal
        and list(map(list, zip(*body))) == body  # transpose
    ):
        return Graph(n, tuple([(i, j) for i, row in enumerate(body) for j in range(i + 1, n) if row[j] == "1"]))
    # a bad entry, a loop or an asymmetry: name the first, in file order
    matrix = []
    for parts in body:
        entries = [_as_int(tok, "adjacency entry") for tok in parts]
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


_LINE_PARSERS = {"edge-list": _parse_edge_list, "adjacency": _parse_adjacency}


def _looks_like_adjacency(rows: list[list[str]]) -> bool:
    """A vertex-count row ``n`` followed by exactly ``n`` rows of ``n`` 0/1 entries."""
    if not rows or len(rows[0]) != 1 or not rows[0][0].isdecimal():
        return False
    body = rows[1:]
    # compared as digit strings: int() refuses counts of more than 4300 digits
    return rows[0][0].lstrip("0") == str(len(body)).lstrip("0") and _is_bit_matrix(body, len(body))


def parse_graph(text: str, fmt: str) -> Graph:
    """Parse ``text`` in one of the formats listed in :data:`FORMATS`, or ``"auto"`` to detect it.

    ``text`` is a ``str`` (``numpy.str_`` included); bytes or any other object
    raises ValidationError, as does a format not in the list.
    """
    _checked_choice(fmt, FORMATS + ("auto",), "graph format")
    _checked_text(text, "graph text")
    if fmt == "json" or (fmt == "auto" and text.lstrip().startswith("{")):
        return _parse_json(text)
    rows = _data_rows(text)  # split once, shared by the detector and the parser
    if fmt == "auto":
        fmt = "adjacency" if _looks_like_adjacency(rows) else "edge-list"
    return _LINE_PARSERS[fmt](text, rows)


def valencia() -> Graph:
    """Five-spin T-shaped graph matching the IBM Q Valencia coupling layout."""
    return Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))


# the most edges a sized preset builds, so that an oversized one exits 3 rather
# than being OOM-killed while it builds and prints the graph: ring(100000), the
# largest in use, peaks at about 70 MB in an analytic entangle
MAX_PRESET_EDGES = 100_000


def _size(kind: str, n, minimum: int, edge_count) -> int:
    """A sized preset's ``n`` as an int, if it is at least ``minimum`` and ``edge_count(n)`` is within ``MAX_PRESET_EDGES``."""
    n = _checked_integer(n, f"{kind} graph size")
    if n < minimum:
        raise ValidationError(f"{kind} graph needs n >= {minimum}, got {_shown(n)}")
    if edge_count(n) > MAX_PRESET_EDGES:
        raise ResourceCapError(f"{kind} graph of size {_shown(n)} has more than the preset cap of {MAX_PRESET_EDGES} edges")
    return n


def complete(n: int) -> Graph:
    n = _size("complete", n, 1, lambda n: n * (n - 1) // 2)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path(n: int) -> Graph:
    n = _size("path", n, 1, lambda n: n - 1)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def ring(n: int) -> Graph:
    n = _size("ring", n, 3, lambda n: n)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


_SIZED_PRESETS = {"complete": complete, "path": path, "ring": ring}


def preset(name: str) -> Graph:
    """Build a named preset: ``valencia``, ``complete(n)``, ``path(n)``, ``ring(n)``.

    Sized presets accept ``name(n)`` or the shell-friendly ``name:n``.
    """
    if not isinstance(name, str):
        raise ValidationError(f"preset name must be a string, got {_shown(name)}")
    spec = name.strip().lower()
    if spec == "valencia":
        return valencia()
    m = re.fullmatch(r"([a-z]+)\(([0-9]+)\)", spec) or re.fullmatch(r"([a-z]+):([0-9]+)", spec)
    if m and m.group(1) in _SIZED_PRESETS:
        try:
            n = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise ValidationError(f"{m.group(1)} graph size has {len(m.group(2))} digits, more than int() converts") from None
        return _SIZED_PRESETS[m.group(1)](n)
    raise ValidationError(
        f"unknown preset {_shown(name)}; expected valencia, complete(n), path(n), or ring(n)"
    )
