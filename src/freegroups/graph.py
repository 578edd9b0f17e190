"""Labeled directed multigraphs with implicit inverse edges.

An ``XDigraph`` stores only positively labeled edges ``(origin, letter,
terminus)``; every edge has an implicit formal inverse, so traversal
works over signed-letter codes (see :mod:`freegroups.words`).  A graph
is *folded* when no vertex has two outgoing half-edges with the same
signed label, which makes it a deterministic inverse automaton.

A folded graph's transitions live in one flat step table, a list of
``vertex_count * 2 * #X`` ints: slot ``v * 2 * #X + code`` holds the
neighbour that the signed code leads to from ``v``, and ``-1`` means
none.  A row is a vertex's star in code order, so walks that read it
need no sorting.  ``XDigraph`` builds the table once, checking that the
graph is folded, and the constructions that fold, cut cores or walk
products hand theirs on to the graphs they build.  A slot costs 8
bytes, so a vertex costs ``16 * #X`` bytes whatever its degree: 32 in
F2 and 48 in F3, against about 233 for a ``dict`` of step maps (both
measured on 80,000-vertex graphs), but 416 over 26 letters and 8,000
over the 500 letters of a rank-500 ``rebase_inside`` alphabet.

A graph may hold its table alone: ``graph_from_json`` reads a stored
graph straight into one, and ``fold_all`` folds into one.  Its sorted
edge tuple is then a view, derived from the table on first read
(``_table_edges``) and kept; edge counts read the table.

This module supplies the graph-level machinery: folding, cores,
path tracing, morphisms and based isomorphism, type graphs, product
graphs, connected components, and completion to an X-regular graph.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from random import Random
from typing import Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

from .errors import AlphabetMismatchError, InvalidInputError
from .words import Alphabet, Word

Edge = tuple[int, int, int]  # (origin, letter index, terminus), positive only


class XDigraph:
    """Finite labeled digraph; multi-edges and loops are permitted.

    Edges are normalized to a sorted tuple, so two graphs are equal iff
    they have the same alphabet, vertex count and edge multiset.  The
    vertex count, endpoints and labels must be exact ints (no bools or
    floats) in range; anything else raises ``InvalidInputError``.

    ``edges`` is read-only.  A graph built from its step table alone
    (``_trusted`` with ``edges=None``) derives the tuple on first read
    and keeps it; its ``edge_count`` reads the table.
    """

    __slots__ = ("alphabet", "vertex_count", "_edges", "_steps")

    def __init__(self, alphabet: Alphabet, vertex_count: int, edges: Iterable[Edge]):
        # bool is a subclass of int, so the exact type is tested, as in graph_from_json
        if type(vertex_count) is not int or vertex_count < 0:
            raise InvalidInputError(f"vertex count {vertex_count!r} is not a non-negative integer")
        n = alphabet.size
        try:
            edges = tuple(sorted(map(tuple, edges)))
            for o, x, t in edges:
                if type(o) is not int or type(x) is not int or type(t) is not int:
                    raise InvalidInputError(f"edge {(o, x, t)} needs integer endpoints and label")
                if not (0 <= o < vertex_count and 0 <= t < vertex_count):
                    raise InvalidInputError(f"edge {(o, x, t)} has a vertex out of range")
                if not 0 <= x < n:
                    raise InvalidInputError(f"edge {(o, x, t)} has an invalid label")
        except (TypeError, ValueError):  # an entry that is no triple, or does not compare
            raise InvalidInputError("edges must be (origin, letter, terminus) triples") from None
        self.alphabet = alphabet
        self.vertex_count = vertex_count
        self._edges: Optional[tuple[Edge, ...]] = edges
        self._steps: Optional[list[int]] = None

    @classmethod
    def _trusted(
        cls, alphabet: Alphabet, vertex_count: int, edges: Optional[tuple[Edge, ...]],
        steps: Optional[list[int]] = None,
    ) -> "XDigraph":
        """Wrap edges already sorted, in range and over the alphabet, without
        the checks of ``__init__``; ``steps``, if given, is their step table.
        ``edges`` may be None when ``steps`` is given: the graph is then
        its table, and its edges are derived when first read."""
        g = object.__new__(cls)
        g.alphabet = alphabet
        g.vertex_count = vertex_count
        g._edges = edges
        g._steps = steps
        return g

    # -- basic structure -------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The positive edges, sorted."""
        if self._edges is None:
            self._edges = _table_edges(self._steps, self.alphabet.num_codes, self.vertex_count)
        return self._edges

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, XDigraph)
            and self.alphabet == other.alphabet
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"XDigraph(V={self.vertex_count}, E={list(self.edges)})"

    @property
    def edge_count(self) -> int:
        if self._edges is None:  # each edge takes two slots of the table
            return (len(self._steps) - self._steps.count(-1)) >> 1
        return len(self._edges)

    def degrees(self) -> list[int]:
        """Degree of each vertex in the symmetrized graph; a loop counts twice."""
        deg = [0] * self.vertex_count
        for o, _, t in self.edges:
            deg[o] += 1
            deg[t] += 1
        return deg

    # -- folded-graph traversal ------------------------------------------

    def _step_table(self) -> list[int]:
        """The step table (see the module docstring); needs a folded graph.

        Built on first use, in one pass over the edges that also checks
        that the graph is folded: the first half-edge, in edge order,
        whose slot is taken raises ``InvalidInputError``."""
        if self._steps is None:
            width = self.alphabet.num_codes
            table = [-1] * (self.vertex_count * width)
            for o, x, t in self.edges:
                i = o * width + x + x
                if table[i] >= 0:
                    self._not_folded(o, x + x)
                table[i] = t
                i = t * width + x + x + 1
                if table[i] >= 0:
                    self._not_folded(t, x + x + 1)
                table[i] = o
            self._steps = table
        return self._steps

    def step_maps(self) -> list[dict[int, int]]:
        """Per-vertex map (signed code -> target vertex); needs a folded graph.

        A view built afresh from the step table on every call; the
        library itself reads the table."""
        table, width = self._step_table(), self.alphabet.num_codes
        return [
            {code: w for code, w in enumerate(table[v * width:v * width + width]) if w >= 0}
            for v in range(self.vertex_count)
        ]

    def _not_folded(self, v: int, code: int) -> NoReturn:
        raise InvalidInputError(
            "graph is not folded: two half-edges labeled "
            f"{self.alphabet.code_name(code)} at vertex {v}"
        )

    def step(self, v: int, code: int) -> Optional[int]:
        """The vertex reached from ``v`` along the signed ``code``, or None
        if no half-edge there carries it; needs a folded graph.

        ``v`` must be an exact int vertex and ``code`` an exact int in
        ``0 .. 2r - 1``; anything else raises ``IndexError``."""
        table, width = self._step_table(), self.alphabet.num_codes
        if type(v) is not int or not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range")
        if type(code) is not int or not 0 <= code < width:
            raise IndexError(f"code {code} out of range")
        w = table[v * width + code]
        return None if w < 0 else w

    def is_connected(self) -> bool:
        if self.vertex_count <= 1:
            return True
        return len(next(_components(self)).vertices) == self.vertex_count


def _check_vertex(g: XDigraph, v: int, name: str = "vertex") -> None:
    """Raise ``InvalidInputError`` unless ``v``, an exact int, is a vertex of ``g``."""
    if type(v) is not int or not 0 <= v < g.vertex_count:
        raise InvalidInputError(f"{name} {v} out of range")


@dataclass(frozen=True)
class BasedGraph:
    """An X-digraph with a marked base vertex."""

    graph: XDigraph
    base: int

    def __post_init__(self):
        _check_vertex(self.graph, self.base, "base vertex")


@dataclass(frozen=True)
class Morphism:
    """A label- and incidence-preserving vertex map between X-digraphs.

    On folded targets the edge images are determined by the vertex map,
    so only the vertex map is stored.
    """

    vertex_map: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]

    def is_injective(self) -> bool:
        return len(set(self.vertex_map)) == len(self.vertex_map)


class Subgraph(NamedTuple):
    """A subgraph of a host graph, in the host's vertex numbering."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def as_xdigraph(self, host: XDigraph) -> XDigraph:
        renum = {v: i for i, v in enumerate(self.vertices)}
        return XDigraph(
            host.alphabet,
            len(self.vertices),
            [(renum[o], x, renum[t]) for o, x, t in self.edges],
        )


# ---------------------------------------------------------------------------
# folding


def is_folded(g: XDigraph) -> bool:
    """True iff no vertex has two outgoing half-edges with equal signed label."""
    try:
        g._step_table()
    except InvalidInputError:
        return False
    return True


class FoldResult(NamedTuple):
    graph: XDigraph
    vertex_map: tuple[int, ...]  # old vertex -> new vertex


def _rows(table: list[int], width: int, vertex_count: int) -> Iterator[tuple[int, ...]]:
    """The rows of a step table, one tuple of ``width`` slots per vertex."""
    return zip(*[iter(table)] * width) if width else repeat((), vertex_count)


def _table_edges(table: list[int], width: int, vertex_count: int) -> tuple[Edge, ...]:
    """The positive edges of a step table, sorted: the rows in vertex
    order, each read in code order, so no sort runs."""
    return tuple(
        (v, x, far)
        for v, row in enumerate(_rows(table, width, vertex_count))
        for x, far in enumerate(row[::2])
        if far >= 0
    )


def _find(parent: list[int], v: int) -> int:
    """Root of ``v`` in the union-find forest ``parent``; compresses the path."""
    root = v
    while parent[root] != root:
        root = parent[root]
    while parent[v] != root:
        parent[v], v = root, parent[v]
    return root


def _fold_merges(table: list[int], parent: list[int], merges: list[tuple[int, int]]) -> None:
    """Merge the queued vertex pairs, and every pair they force, into the
    union-find forest ``parent``: the finest partition holding them whose
    quotient is folded.  ``table`` is a step table over the vertices of
    ``parent``, and the row of each root ``r`` is the star of its block,
    naming any vertex of a block; a merge copies the taken slots of the
    greater root's row into the lesser's, so a root stays the least
    vertex of its block, and a code held at both with two neighbours
    queues their merge."""
    width = len(table) // len(parent) if parent else 0
    while merges:
        a, b = merges.pop()
        if parent[a] != a:
            a = _find(parent, a)
        if parent[b] != b:
            b = _find(parent, b)
        if a == b:
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        # i runs over the slots of a's row
        for i, far in enumerate(table[b * width:b * width + width], a * width):
            if far >= 0:
                held = table[i]
                if held < 0:
                    table[i] = far
                elif held != far:
                    merges.append((held, far))


def _fold(
    vertex_count: int, edges: Iterable[Edge], width: int
) -> tuple[list[int], int, list[int]]:
    """Fold the graph on ``vertex_count`` vertices with these edges, over
    an alphabet of ``width`` signed codes.

    Each edge writes its two half-edges into a step table; a slot
    already taken queues a merge of the two far ends, which
    ``_fold_merges`` performs in a union-find forest.  A merge reads one
    row of ``width`` slots and there are fewer than ``#V`` merges, so
    the work is near-linear.  The result, the finest folded quotient,
    does not depend on the edge order.  The tail it shares with
    ``_fold_wedge``, ``_quotient_table``, numbers the blocks by least
    vertex and checks, even under -O, that each half-edge is undone by
    its inverse code.  Returns the quotient's step table, its vertex
    count and each vertex's block.
    """
    table = [-1] * (vertex_count * width)
    parent = list(range(vertex_count))
    merges: list[tuple[int, int]] = []
    for o, x, t in edges:
        i = o * width + x + x
        held = table[i]
        if held < 0:
            table[i] = t
        elif held != t:
            merges.append((held, t))
        i = t * width + x + x + 1
        held = table[i]
        if held < 0:
            table[i] = o
        elif held != o:
            merges.append((held, o))
    _fold_merges(table, parent, merges)
    return _quotient_table(table, parent, width)


def _fold_wedge(words: Iterable[Sequence[int]], width: int) -> tuple[list[int], int]:
    """The finest folded quotient of the wedge of loops at vertex 0 that
    spell these freely reduced words, over ``width`` signed codes, read
    into one growing step table in the order given: its step table and
    vertex count.  Vertex 0, the wedge vertex, keeps the number 0.

    Each word is read as far as the table allows, forwards from 0 and
    backwards from 0 (the backward trace stops where it meets the
    forward one), taking the block of each step; only the unread middle
    is spelled, on fresh vertices.  Its first half-edge fills a slot the
    forward trace found empty.  Its last half-edge fills one the
    backward trace found empty, unless the first took it: both traces
    may stop at one vertex, and a middle that starts with x and ends
    with x^-1 then folds.  That merge, and the one closing a word that
    the traces cover, run at once in ``_fold_merges``, so later words
    read through them.  The finest folded quotient does not depend on
    the fold order (Kapovich and Myasnikov, "Stallings foldings and
    subgroups of free groups", 2002), so this is what ``_fold`` makes
    of the spelled wedge, without spelling what folds away.

    The tail is ``_fold``'s (``_quotient_table``).  Then each queued
    merge must have ended in one block, even under -O: a merge loop
    that did nothing would leave a table that is folded but wrong.
    """
    table = [-1] * width
    parent = [0]
    closing: list[tuple[int, int]] = []
    for codes in words:
        v = i = 0
        for code in codes:  # the forward trace
            far = table[v * width + code]
            if far < 0:
                break
            v = far if parent[far] == far else _find(parent, far)
            i += 1
        u, j = 0, len(codes)
        while j > i:  # the backward trace, reading inverse codes
            far = table[u * width + (codes[j - 1] ^ 1)]
            if far < 0:
                break
            u = far if parent[far] == far else _find(parent, far)
            j -= 1
        if j > i:  # spell codes[i:j] from v to u through j - i - 1 fresh vertices
            fresh = len(parent)
            parent += range(fresh, fresh + j - i - 1)
            table += [-1] * ((j - i - 1) * width)
            prev = v
            for w, code in enumerate(codes[i:j - 1], fresh):
                table[prev * width + code] = w
                table[w * width + (code ^ 1)] = prev
                prev = w
            code = codes[j - 1]
            table[prev * width + code] = u
            slot = u * width + (code ^ 1)
            held = table[slot]
            if held < 0:
                table[slot] = prev
                continue
            v, u = held, prev  # the middle's first half-edge took the slot
        if v != u:
            closing.append((v, u))
            _fold_merges(table, parent, [(v, u)])
    table, count, block = _quotient_table(table, parent, width)
    for a, b in closing:
        if block[a] != block[b]:
            raise AssertionError("a queued merge of the wedge fold left two blocks")
    return table, count


def _quotient_table(
    table: list[int], parent: list[int], width: int
) -> tuple[list[int], int, list[int]]:
    """The tail of ``_fold`` and ``_fold_wedge``: the quotient of a step
    table by the union-find forest ``parent`` that ``_fold_merges`` left,
    as its step table, vertex count and each vertex's block, with the
    blocks numbered by least vertex.  When no block merged, the table
    already is the quotient and is kept.  The check that each half-edge
    is undone by its inverse code raises, even under -O."""
    vertex_count = len(parent)
    if all(map(operator.eq, parent, range(vertex_count))):
        count, block = vertex_count, list(range(vertex_count))
    else:
        # a root is the least vertex of its block and every other vertex's
        # parent is less than it, so one pass in vertex order numbers the
        # blocks by least vertex; the roots' rows are kept, renumbered
        count = 0
        block = []
        for v, p in enumerate(parent):
            if p == v:
                block.append(count)
                count += 1
            else:
                block.append(block[p])
        block.append(-1)  # block[-1]: an empty slot stays empty
        roots = map(operator.eq, parent, range(vertex_count))
        rows = compress(_rows(table, width, vertex_count), roots)
        table = list(map(block.__getitem__, chain.from_iterable(rows)))
        block.pop()
    # each positive half-edge is undone by its inverse code: per letter,
    # every vertex with an outgoing edge is led back to itself by the
    # inverse slot of the far end, and no other inverse slot is taken
    for code in range(0, width, 2):
        heads, tails = table[code::width], table[code + 1::width]
        tails.append(-1)  # tails[-1]: an empty slot leads nowhere
        back = sum(map(operator.eq, map(tails.__getitem__, heads), range(count)))
        if not back == count - heads.count(-1) == count + 1 - tails.count(-1):
            raise AssertionError("folding left two equally labelled half-edges at a vertex")
    return table, count, block


def fold_all(g: XDigraph, rng: Optional[Random] = None) -> FoldResult:
    """Perform elementary foldings until the graph is folded (``_fold``);
    blocks are numbered by least vertex.  ``rng`` shuffles the fold order.
    The folded graph holds the step table of the fold, and its edges are
    derived from it when first read."""
    edges = list(g.edges)
    if rng is not None:
        rng.shuffle(edges)
    table, count, block = _fold(g.vertex_count, edges, g.alphabet.num_codes)
    return FoldResult(XDigraph._trusted(g.alphabet, count, None, table), tuple(block))


def _star_masks(g: XDigraph) -> list[int]:
    """Per vertex, the set of signed codes leaving it, as a bitmask."""
    table, width = g._step_table(), g.alphabet.num_codes
    masks = []
    for row in _rows(table, width, g.vertex_count):
        mask = 0
        for code, far in enumerate(row):
            if far >= 0:
                mask |= 1 << code
        masks.append(mask)
    return masks


def _stars(
    table: list[int], width: int, vertex_count: int
) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Per vertex of a folded graph, given by its step table, its steps
    ``(code, neighbour)`` in code order, and their codes as
    ``_star_masks`` gives them, in one pass."""
    stars, masks = [], []
    for row in _rows(table, width, vertex_count):
        star, mask = [], 0
        for code, far in enumerate(row):
            if far >= 0:
                star.append((code, far))
                mask |= 1 << code
        stars.append(star)
        masks.append(mask)
    return stars, masks


# ---------------------------------------------------------------------------
# cores and tracing


class CoreResult(NamedTuple):
    graph: XDigraph
    vertex_map: dict[int, int]  # surviving old vertex -> new vertex


def _core_numbering(
    table: list[int], vertex_count: int, v: int, stem: Optional[list[int]] = None
) -> tuple[list[int], tuple[Edge, ...], list[int]]:
    """The core at ``v`` of the folded graph on ``vertex_count`` vertices
    with this step table, numbered breadth-first from ``v`` in
    signed-code order: its old vertices in the new order; its edges,
    which the walk meets in sorted order; and its step table, whose rows
    the walk writes in the new numbering.

    Vertices other than ``v`` with one half-edge are deleted until none
    is left; the survivors that ``v`` reaches form the core.  Given a
    ``stem`` list, the walk goes on to cut ``v``'s stem: while ``v`` has
    one half-edge left, ``v`` is deleted, the code of that half-edge is
    appended to ``stem``, and its far end becomes ``v``.  The core is
    then numbered from the anchor where the stem ends, the first
    survivor on the tree path from the base, and ``order[0]`` is the
    anchor.  Each row is read a constant number of times, and is already
    in code order.  This is the library's one leaf-pruning walk.
    """
    width = len(table) // vertex_count
    deg = [width - row.count(-1) for row in _rows(table, width, vertex_count)]
    pos = [-1] * vertex_count  # new number; -2 marks a deleted leaf
    leaves = [u for u, d in enumerate(deg) if d == 1 and u != v]
    while leaves:
        u = leaves.pop()
        pos[u] = -2
        for w in table[u * width:u * width + width]:
            if w >= 0 and pos[w] != -2:
                deg[w] -= 1
                if deg[w] == 1 and w != v:
                    leaves.append(w)
    while stem is not None and deg[v] == 1:
        pos[v] = -2
        row = table[v * width:v * width + width]
        code = next(c for c, w in enumerate(row) if w >= 0 and pos[w] != -2)
        stem.append(code)
        v = row[code]
        deg[v] -= 1
    pos[v] = 0
    order = [v]
    edges = []
    core_table: list[int] = []
    for u in order:
        i = pos[u]
        row = table[u * width:u * width + width]
        for code, w in enumerate(row):
            if w < 0:
                continue
            j = pos[w]
            if j < 0:
                if j == -2:
                    row[code] = -1
                    continue
                j = pos[w] = len(order)
                order.append(w)
            row[code] = j
            if not code & 1:
                edges.append((i, code >> 1, j))
        core_table += row
    return order, tuple(edges), core_table


def core(g: XDigraph, v: int) -> CoreResult:
    """Core of a folded graph at ``v``: the union of reduced loops at ``v``.

    Read off the step table: restrict to the component of ``v`` and
    repeatedly delete degree-one vertices other than ``v``
    (``_core_numbering``); the language at ``v`` is unchanged.
    Surviving vertices keep their relative order (``_kept``).  Raises
    ``InvalidInputError`` unless ``g`` is folded.
    """
    _check_vertex(g, v)
    return _kept(g, _core_numbering(g._step_table(), g.vertex_count, v)[0])


def _kept(g: XDigraph, order: list[int]) -> CoreResult:
    """The subgraph of ``g`` on the vertices of ``order``, renumbered in
    their relative order."""
    vmap = {u: i for i, u in enumerate(sorted(order))}
    new_edges = [(vmap[o], x, vmap[t]) for o, x, t in g.edges if o in vmap and t in vmap]
    return CoreResult(XDigraph(g.alphabet, len(vmap), new_edges), vmap)


def trace_path(g: XDigraph, start: int, w: Word) -> Optional[int]:
    """Endpoint of the path labeled ``w`` from ``start`` in a folded graph,
    or ``None`` if the path cannot be continued."""
    if w.alphabet != g.alphabet:
        raise AlphabetMismatchError("word and graph use different alphabets")
    _check_vertex(g, start)
    v, n = _read(g, start, w.codes)
    return v if n == len(w.codes) else None


def _read(g: XDigraph, v: int, codes: tuple[int, ...]) -> tuple[int, int]:
    """Read ``codes`` from ``v`` as far as the step table of the folded
    graph ``g`` allows: the vertex reached and the number of codes read."""
    table, width = g._step_table(), g.alphabet.num_codes
    for n, code in enumerate(codes):
        nxt = table[v * width + code]
        if nxt < 0:
            return v, n
        v = nxt
    return v, len(codes)


# ---------------------------------------------------------------------------
# morphisms


def transport(a: XDigraph, av: int, b: XDigraph, bv: int) -> Optional[tuple[int, ...]]:
    """Vertex map of the unique morphism ``a -> b`` with ``av -> bv``.

    Both graphs must be folded, over one alphabet, and ``a`` connected.
    Returns ``None`` when no morphism exists (some edge of ``a`` fails
    to transport).  The walk runs over the step tables of both graphs.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("morphisms need graphs over one alphabet")
    _check_vertex(a, av)
    _check_vertex(b, bv)
    a_table, b_table = a._step_table(), b._step_table()
    width = a.alphabet.num_codes
    vmap: list[Optional[int]] = [None] * a.vertex_count
    vmap[av] = bv
    queue = deque([av])
    while queue:
        u = queue.popleft()
        at = vmap[u] * width  # type: ignore[operator]
        for code, far in enumerate(a_table[u * width:u * width + width]):
            if far < 0:
                continue
            img = b_table[at + code]
            if img < 0:
                return None
            if vmap[far] is None:
                vmap[far] = img
                queue.append(far)
            elif vmap[far] != img:
                return None
    if None in vmap:
        raise InvalidInputError("transport requires a connected source graph")
    return tuple(vmap)  # type: ignore[arg-type]


def canonical_morphism(a: BasedGraph, b: BasedGraph) -> Optional[Morphism]:
    """The unique base-preserving morphism, present iff L(a) <= L(b).

    Both graphs must be folded and connected, and ``a`` a core graph
    with respect to its base for the language characterization to hold.
    """
    vmap = transport(a.graph, a.base, b.graph, b.base)
    return None if vmap is None else Morphism(vmap)


def based_isomorphism(a: BasedGraph, b: BasedGraph) -> Optional[Morphism]:
    """The unique base-preserving isomorphism, or ``None``.

    Decided by simultaneous deterministic traversal from the two base
    vertices; both graphs must be folded and connected.
    """
    if a.graph.vertex_count != b.graph.vertex_count:
        return None
    if a.graph.edge_count != b.graph.edge_count:
        return None
    vmap = transport(a.graph, a.base, b.graph, b.base)
    if vmap is None or len(set(vmap)) != b.graph.vertex_count:
        return None
    return Morphism(vmap)


def isomorphic(a: XDigraph, b: XDigraph) -> bool:
    """Unbased isomorphism of folded connected graphs: some vertex of ``b``
    serves as the image of vertex 0 of ``a``."""
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False
    if a.vertex_count == 0:
        return True
    return any(
        based_isomorphism(BasedGraph(a, 0), BasedGraph(b, v)) is not None
        for v in range(b.vertex_count)
    )


# ---------------------------------------------------------------------------
# type graphs


class TypeGraph(NamedTuple):
    graph: XDigraph
    anchor: int  # vertex of the type closest to the old base
    stem: tuple[int, ...]  # signed codes of the removed base-to-anchor arc
    host_vertices: tuple[int, ...]  # type vertex -> vertex of the host graph


def type_with_anchor(g: BasedGraph) -> TypeGraph:
    """Type of a folded core graph: the graph with its base stem removed.

    One walk, ``_core_numbering`` with a stem list, cuts the stem, the
    unique arc from the base to the first vertex of degree >= 3, the
    anchor, and reads its codes.  What is left is the core at the
    anchor, with the vertices kept in order (``_kept``), and a core
    graph with respect to every vertex.  If the base has degree >= 2 or
    the graph has no edge, there is no stem and the graph is returned
    unchanged.  A graph that is no core at its base, where the walk
    cuts anything besides the stem, raises ``AssertionError``, also
    under ``-O``.
    """
    graph = g.graph
    stem: list[int] = []
    order = _core_numbering(graph._step_table(), graph.vertex_count, g.base, stem)[0]
    if len(order) + len(stem) != graph.vertex_count:
        raise AssertionError("stem interior vertex must have degree two")
    if not stem:
        return TypeGraph(graph, g.base, (), tuple(range(graph.vertex_count)))
    t = _kept(graph, order)
    return TypeGraph(t.graph, t.vertex_map[order[0]], tuple(stem), tuple(t.vertex_map))


def type_graph(g: BasedGraph) -> XDigraph:
    return type_with_anchor(g).graph


# ---------------------------------------------------------------------------
# products, components, completion


class ProductResult(NamedTuple):
    graph: XDigraph
    pairs: tuple[tuple[int, int], ...]  # new vertex -> (vertex of a, vertex of b)

    def pair_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.pairs)}


def product(
    a: XDigraph, b: XDigraph, base_pair: Optional[tuple[int, int]] = None
) -> ProductResult:
    """Product graph: an x-edge (v,u) -> (v',u') iff both factors have one.

    The product of folded graphs is folded.  Vertices of degree zero are
    pruned, except that ``base_pair`` is always retained.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("product factors must share an alphabet")
    by_label: list[list[Edge]] = [[] for _ in range(b.alphabet.size)]
    for e in b.edges:
        by_label[e[1]].append(e)
    raw_edges: list[tuple[tuple[int, int], int, tuple[int, int]]] = []
    used: set[tuple[int, int]] = set()
    for o1, x, t1 in a.edges:
        for o2, _, t2 in by_label[x]:
            o, t = (o1, o2), (t1, t2)
            raw_edges.append((o, x, t))
            used.add(o)
            used.add(t)
    if base_pair is not None:
        used.add(base_pair)
    pairs = tuple(sorted(used))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [(index[o], x, index[t]) for o, x, t in raw_edges]
    return ProductResult(XDigraph(a.alphabet, len(pairs), edges), pairs)


class Component(NamedTuple):
    vertices: tuple[int, ...]  # original vertex ids, sorted
    graph: XDigraph  # induced subgraph, renumbered along `vertices`


def _components(g: XDigraph) -> Iterator[Component]:
    """Undirected components in order of least vertex, streamed from one
    pass that builds the adjacency lists."""
    n = g.vertex_count
    nbrs: list[list[int]] = [[] for _ in range(n)]
    out: list[list[Edge]] = [[] for _ in range(n)]
    for e in g.edges:
        o, _, t = e
        out[o].append(e)
        nbrs[o].append(t)
        nbrs[t].append(o)
    seen = [False] * n
    for v in range(n):
        if seen[v]:
            continue
        seen[v] = True
        verts = [v]
        for u in verts:
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
        verts.sort()
        renum = {u: i for i, u in enumerate(verts)}
        # sorted: origins ascend, and each out-list is in edge order
        edges = tuple((renum[o], x, renum[t]) for u in verts for o, x, t in out[u])
        yield Component(tuple(verts), XDigraph._trusted(g.alphabet, len(verts), edges))


def connected_components(g: XDigraph) -> list[Component]:
    """Undirected components, ordered by least contained vertex id.

    One pass builds the adjacency lists; each component is then walked
    once, so the cost is linear in the size of the graph up to the
    sorting of each component's vertices.
    """
    return list(_components(g))


def regular_complete(g: XDigraph) -> XDigraph:
    """Complete a folded graph to an X-regular graph on the same vertices.

    For each letter x the k-th vertex missing an outgoing x is paired
    with the k-th vertex missing an incoming x, in vertex-id order; this
    adds exactly ``#V - n_x`` edges per letter and keeps the graph
    folded.  Every vertex of the result has degree ``2 * #X``.
    """
    if not is_folded(g):
        raise InvalidInputError("regular_complete needs a folded graph")
    table, width = g._step_table(), g.alphabet.num_codes
    new_edges = list(g.edges)
    for x in range(g.alphabet.size):
        missing_out = [v for v, far in enumerate(table[2 * x::width]) if far < 0]
        missing_in = [v for v, far in enumerate(table[2 * x + 1::width]) if far < 0]
        if len(missing_out) != len(missing_in):
            raise AssertionError("a folded graph misses as many x-heads as x-tails")
        new_edges.extend((o, x, t) for o, t in zip(missing_out, missing_in))
    return XDigraph(g.alphabet, g.vertex_count, new_edges)


def is_regular(g: XDigraph) -> bool:
    """True iff every vertex has exactly one edge per signed letter."""
    return is_folded(g) and g.edge_count == g.alphabet.size * g.vertex_count


# ---------------------------------------------------------------------------
# serialization


def _graph_record(g: BasedGraph) -> dict:
    """The JSON record of a based graph, as ``graph_to_json`` writes it."""
    alph = g.graph.alphabet
    return {
        "alphabet": "".join(alph.symbols) if alph.single_letter() else list(alph.symbols),
        "vertices": g.graph.vertex_count,
        "base": g.base,
        "edges": [[o, alph.symbols[x], t] for o, x, t in g.graph.edges],
    }


def graph_to_json(g: BasedGraph) -> str:
    """Serialize a based graph; canonical numbering makes this reproducible."""
    return json.dumps(_graph_record(g))


def graph_from_json(text: str) -> BasedGraph:
    """Parse a based graph record, as ``graph_to_json`` writes it.

    One pass over the edge records (``_records_table``) checks each
    record and writes its two half-edges into a step table, which the
    graph then holds alone; its edges are derived when first read.
    Records that fail a check, or a half-edge whose slot is taken (a
    graph that is not folded), go down the edge path
    (``_records_edges``) instead, as do a negative vertex count and
    records of more vertices than a connected graph can have
    (``#V > #E + 1``), for which no table is allocated.  That path
    raises the message of the first faulty record, or else the
    ``XDigraph(...)`` message of a negative vertex count or of the least
    bad edge out of range, whatever the record order.  A graph it
    accepts comes back with its sorted edges and no table; if that graph
    is not folded, ``SubgroupGraph(...)`` raises at its first clash in
    edge order.
    """
    return _load_graph(text)[0]


def _load_graph(text: str) -> tuple[BasedGraph, bool]:
    """``graph_from_json``, and whether the graph is canonical: folded,
    connected, a core at its base 0 and numbered as ``_core_numbering``
    numbers it, as ``subgroup._is_canonical`` would find it."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid graph JSON: {exc}") from None
    try:
        raw_alph = payload["alphabet"]
        vertices = payload["vertices"]
        base = payload["base"]
        raw_edges = payload["edges"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed graph record: {exc}") from None
    # bool is a subclass of int, so test the exact type
    if type(vertices) is not int or type(base) is not int:
        raise InvalidInputError("graph record needs integer 'vertices' and 'base'")
    if not isinstance(raw_edges, list):
        raise InvalidInputError("graph record needs an 'edges' list")
    if isinstance(raw_alph, str):
        raw_alph = tuple(raw_alph)
    elif not (isinstance(raw_alph, list) and all(isinstance(s, str) for s in raw_alph)):
        raise InvalidInputError("graph record needs an 'alphabet' string or list of strings")
    alph = Alphabet(raw_alph)
    loaded = None
    if 0 <= vertices <= len(raw_edges) + 1:  # else not connected: allocate nothing per vertex
        loaded = _records_table(raw_edges, alph, vertices)
    if loaded is None:
        return BasedGraph(_records_edges(raw_edges, alph, vertices), base), False
    table, canonical = loaded
    graph = XDigraph._trusted(alph, vertices, None, table)
    return BasedGraph(graph, base), canonical and base == 0


def _records_table(
    raw_edges: list, alph: Alphabet, vertices: int
) -> Optional[tuple[list[int], bool]]:
    """The step table of these edge records, written in one pass, and
    whether it is in canonical numbering; None when a record is not a
    list of two exact int endpoints in range around a label of ``alph``,
    or a half-edge's slot is taken.

    The endpoints written are taken from one ``list(range(vertices))``,
    so the table holds one ``int`` object per vertex.  The pass notes
    the least slot naming each vertex, and the table is canonical
    exactly when these first slots increase over the vertices 1, 2, ...,
    each lies in a row before its vertex, and each of these vertices has
    two half-edges or more: then the breadth-first walk from 0 in code
    order meets the vertices in the order 0, 1, 2, ..., and no vertex
    but 0 is cut from the core.
    """
    width = alph.num_codes
    codes = {s: x + x for s, x in alph._index.items()}
    table = [-1] * (vertices * width)
    ints = list(range(vertices))
    first = [len(table)] * vertices
    try:
        for rec in raw_edges:
            if type(rec) is not list:
                return None
            o, sym, t = rec
            if type(o) is not int or type(t) is not int or (o | t) < 0:
                return None
            code = codes.get(sym)
            if code is None:
                return None
            o = ints[o]
            t = ints[t]
            i = o * width + code
            j = t * width + code + 1
            if table[i] >= 0 or table[j] >= 0:
                return None
            table[i] = t
            table[j] = o
            if i < first[t]:
                first[t] = i
            if j < first[o]:
                first[o] = j
    except (IndexError, TypeError, ValueError):  # out of range, unhashable label, no triple
        return None
    if vertices <= 1:
        return table, vertices == 1
    later = first[1:]
    canonical = (
        all(map(operator.lt, later, later[1:]))
        and all(map(operator.lt, later, range(width, len(table), width)))
        and max(map(tuple.count, islice(_rows(table, width, vertices), 1, None), repeat(-1)))
        <= width - 2
    )
    return table, canonical


def _records_edges(raw_edges: list, alph: Alphabet, vertices: int) -> XDigraph:
    """The graph of these edge records, after checking each record's
    shape, integer endpoints and label in record order; ``XDigraph(...)``
    then checks the vertex count and the endpoint range, naming the
    least bad edge."""
    edges: list[Edge] = []
    ends: dict[int, int] = {}  # one int object per vertex, however often it is named
    for rec in raw_edges:
        if not (isinstance(rec, list) and len(rec) == 3):
            raise InvalidInputError(f"malformed edge record: {rec!r}")
        o, sym, t = rec
        if type(o) is not int or type(t) is not int:
            raise InvalidInputError(f"edge record {rec!r} needs integer endpoints")
        x = alph._index.get(sym) if isinstance(sym, str) else None
        if x is None:
            raise InvalidInputError(f"edge label {sym!r} outside alphabet")
        edges.append((ends.setdefault(o, o), x, ends.setdefault(t, t)))
    return XDigraph(alph, vertices, edges)


def to_dot(g: BasedGraph, name: str = "subgroup") -> str:
    """Deterministic DOT text; the base vertex is drawn double-circled."""
    # a label is a DOT quoted string: escape its backslashes and quotes
    labels = [s.replace("\\", "\\\\").replace('"', '\\"') for s in g.graph.alphabet.symbols]
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in range(g.graph.vertex_count):
        shape = "doublecircle" if v == g.base else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for o, x, t in g.graph.edges:
        lines.append(f'  {o} -> {t} [label="{labels[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
