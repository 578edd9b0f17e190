"""Labeled directed multigraphs with implicit inverse edges.

An ``XDigraph`` stores only positively labeled edges ``(origin, letter,
terminus)``; every edge has an implicit formal inverse, so traversal
works over signed-letter codes (see :mod:`freegroups.words`).  A graph
is *folded* when no vertex has two outgoing half-edges with the same
signed label, which makes it a deterministic inverse automaton.

This module supplies the graph-level machinery: folding, cores,
path tracing, morphisms and based isomorphism, type graphs, product
graphs, connected components, and completion to an X-regular graph.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, NamedTuple, NoReturn, Optional

from .errors import AlphabetMismatchError, InvalidInputError
from .words import Alphabet, Word

Edge = tuple[int, int, int]  # (origin, letter index, terminus), positive only


class XDigraph:
    """Finite labeled digraph; multi-edges and loops are permitted.

    Edges are normalized to a sorted tuple, so two graphs are equal iff
    they have the same alphabet, vertex count and edge multiset.
    """

    __slots__ = ("alphabet", "vertex_count", "edges", "_steps")

    def __init__(self, alphabet: Alphabet, vertex_count: int, edges: Iterable[Edge]):
        edges = tuple(sorted(tuple(e) for e in edges))
        n = alphabet.size
        for o, x, t in edges:
            if not (0 <= o < vertex_count and 0 <= t < vertex_count):
                raise InvalidInputError(f"edge {(o, x, t)} has a vertex out of range")
            if not 0 <= x < n:
                raise InvalidInputError(f"edge {(o, x, t)} has an invalid label")
        self.alphabet = alphabet
        self.vertex_count = vertex_count
        self.edges = edges
        self._steps: Optional[list[dict[int, int]]] = None

    @classmethod
    def _trusted(
        cls, alphabet: Alphabet, vertex_count: int, edges: tuple[Edge, ...],
        steps: Optional[list[dict[int, int]]] = None,
    ) -> "XDigraph":
        """Wrap edges already sorted, in range and over the alphabet, without
        the checks of ``__init__``; ``steps``, if given, are their step maps."""
        g = object.__new__(cls)
        g.alphabet = alphabet
        g.vertex_count = vertex_count
        g.edges = edges
        g._steps = steps
        return g

    # -- basic structure -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
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
        return len(self.edges)

    def degrees(self) -> list[int]:
        """Degree of each vertex in the symmetrized graph; a loop counts twice."""
        deg = [0] * self.vertex_count
        for o, _, t in self.edges:
            deg[o] += 1
            deg[t] += 1
        return deg

    # -- folded-graph traversal ------------------------------------------

    def step_maps(self) -> list[dict[int, int]]:
        """Per-vertex map (signed code -> target vertex); needs a folded graph.

        Built on first use, in one pass over the edges that also checks
        that the graph is folded."""
        if self._steps is None:
            steps: list[dict[int, int]] = [{} for _ in range(self.vertex_count)]
            for o, x, t in self.edges:
                at, code = steps[o], x + x
                if code in at:
                    self._not_folded(o, code)
                at[code] = t
                at = steps[t]
                if code + 1 in at:
                    self._not_folded(t, code + 1)
                at[code + 1] = o
            self._steps = steps
        return self._steps

    def _not_folded(self, v: int, code: int) -> NoReturn:
        raise InvalidInputError(
            "graph is not folded: two half-edges labeled "
            f"{self.alphabet.code_name(code)} at vertex {v}"
        )

    def step(self, v: int, code: int) -> Optional[int]:
        return self.step_maps()[v].get(code)

    def is_connected(self) -> bool:
        if self.vertex_count <= 1:
            return True
        return len(next(_components(self)).vertices) == self.vertex_count


@dataclass(frozen=True)
class BasedGraph:
    """An X-digraph with a marked base vertex."""

    graph: XDigraph
    base: int

    def __post_init__(self):
        if not 0 <= self.base < self.graph.vertex_count:
            raise InvalidInputError(f"base vertex {self.base} out of range")


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
        g.step_maps()
    except InvalidInputError:
        return False
    return True


class FoldResult(NamedTuple):
    graph: XDigraph
    vertex_map: tuple[int, ...]  # old vertex -> new vertex


def _find(parent: list[int], v: int) -> int:
    """Root of ``v`` in the union-find forest ``parent``; compresses the path."""
    root = v
    while parent[root] != root:
        root = parent[root]
    while parent[v] != root:
        parent[v], v = root, parent[v]
    return root


def _fold_merges(
    steps: list[dict[int, int]], parent: list[int], merges: list[tuple[int, int]]
) -> None:
    """Merge the queued vertex pairs, and every pair they force, into the
    union-find forest ``parent``: the finest partition holding them whose
    quotient is folded.  ``steps[r]`` is the step map of each root ``r``,
    naming any vertex of a block; a merge moves the smaller map into the
    larger, and a code held at both with two neighbours queues their merge."""
    while merges:
        a, b = merges.pop()
        a, b = _find(parent, a), _find(parent, b)
        if a == b:
            continue
        if len(steps[a]) < len(steps[b]):
            a, b = b, a
        parent[b] = a
        into = steps[a]
        for code, far in steps[b].items():
            held = into.setdefault(code, far)
            if held != far:
                merges.append((held, far))


def _fold(vertex_count: int, edges: Iterable[Edge]) -> tuple[list[dict[int, int]], list[int]]:
    """Fold the graph on ``vertex_count`` vertices with these edges.

    Each edge inserts its two half-edges into per-vertex step maps
    (signed code -> neighbour); a code already taken at its vertex
    queues a merge of the two far ends, which ``_fold_merges`` performs
    in a union-find forest.  A step map holds at most ``2 * #X`` codes
    and there are fewer than ``#V`` merges, so the work is near-linear.
    The result, the finest folded quotient, does not depend on the edge
    order.  Returns its step maps, in place, and each vertex's root: a
    root's map names roots, every other map is empty.  The check that
    each half-edge is undone by its inverse code raises, even under -O.
    """
    steps: list[dict[int, int]] = [{} for _ in range(vertex_count)]
    parent = list(range(vertex_count))
    merges: list[tuple[int, int]] = []
    for o, x, t in edges:
        held = steps[o].setdefault(2 * x, t)
        if held != t:
            merges.append((held, t))
        held = steps[t].setdefault(2 * x + 1, o)
        if held != o:
            merges.append((held, o))
    _fold_merges(steps, parent, merges)
    for v in range(vertex_count):
        _find(parent, v)  # now parent[v] is the root of v
    for v, m in enumerate(steps):
        if parent[v] != v:
            m.clear()
        for code, far in m.items():
            far = m[code] = parent[far]
            back = steps[far].get(code ^ 1)
            if back is None or parent[back] != v:
                raise AssertionError("folding left two equally labelled half-edges at a vertex")
    return steps, parent


def fold_all(g: XDigraph, rng: Optional[Random] = None) -> FoldResult:
    """Perform elementary foldings until the graph is folded (``_fold``);
    blocks are numbered by least vertex.  ``rng`` shuffles the fold order."""
    edges = list(g.edges)
    if rng is not None:
        rng.shuffle(edges)
    steps, root = _fold(g.vertex_count, edges)
    renum: dict[int, int] = {}
    vmap = tuple(renum.setdefault(r, len(renum)) for r in root)
    new_edges = [
        (i, code >> 1, renum[far])
        for r, i in renum.items()
        for code, far in steps[r].items()
        if code & 1 == 0
    ]
    return FoldResult(XDigraph(g.alphabet, len(renum), new_edges), vmap)


def _star_masks(steps: list[dict[int, int]]) -> list[int]:
    """Per vertex, the set of signed codes leaving it, as a bitmask."""
    masks = []
    for m in steps:
        mask = 0
        for code in m:
            mask |= 1 << code
        masks.append(mask)
    return masks


# ---------------------------------------------------------------------------
# cores and tracing


class CoreResult(NamedTuple):
    graph: XDigraph
    vertex_map: dict[int, int]  # surviving old vertex -> new vertex


def _core_numbering(
    steps: list[dict[int, int]], v: int
) -> tuple[dict[int, int], tuple[Edge, ...]]:
    """The core at ``v`` of the folded graph with these step maps,
    numbered breadth-first from ``v`` in signed-code order (old -> new),
    and its edges, which the walk meets in sorted order.

    Vertices other than ``v`` with one half-edge are deleted until none
    is left; the survivors that ``v`` reaches form the core.  Each step
    map is read a constant number of times.
    """
    deg = [len(m) for m in steps]
    dead = [False] * len(steps)
    leaves = [u for u, d in enumerate(deg) if d == 1 and u != v]
    while leaves:
        u = leaves.pop()
        dead[u] = True
        for w in steps[u].values():
            if not dead[w]:
                deg[w] -= 1
                if deg[w] == 1 and w != v:
                    leaves.append(w)
    pos = {v: 0}
    order = [v]
    edges = []
    for i, u in enumerate(order):
        m = steps[u]
        for code in sorted(m):
            w = m[code]
            if w not in pos and not dead[w]:
                pos[w] = len(order)
                order.append(w)
            if not code & 1 and not dead[w]:
                edges.append((i, code >> 1, pos[w]))
    return pos, tuple(edges)


def core(g: XDigraph, v: int) -> CoreResult:
    """Core of a folded graph at ``v``: the union of reduced loops at ``v``.

    Read off the step maps: restrict to the component of ``v`` and
    repeatedly delete degree-one vertices other than ``v``; the language
    at ``v`` is unchanged.  Surviving vertices keep their relative
    order.  Raises ``InvalidInputError`` unless ``g`` is folded.
    """
    if not 0 <= v < g.vertex_count:
        raise InvalidInputError(f"vertex {v} out of range")
    vmap = {u: i for i, u in enumerate(sorted(_core_numbering(g.step_maps(), v)[0]))}
    new_edges = [(vmap[o], x, vmap[t]) for o, x, t in g.edges if o in vmap and t in vmap]
    return CoreResult(XDigraph(g.alphabet, len(vmap), new_edges), vmap)


def trace_path(g: XDigraph, start: int, w: Word) -> Optional[int]:
    """Endpoint of the path labeled ``w`` from ``start`` in a folded graph,
    or ``None`` if the path cannot be continued."""
    v, n = _read(g.step_maps(), start, w.codes)
    return v if n == len(w.codes) else None


def _read(steps: list[dict[int, int]], v: int, codes: tuple[int, ...]) -> tuple[int, int]:
    """Read ``codes`` from ``v`` as far as the step maps allow: the vertex
    reached and the number of codes read."""
    rest = iter(codes)
    for code in rest:
        nxt = steps[v].get(code)
        if nxt is None:
            return v, len(codes) - 1 - len(list(rest))
        v = nxt
    return v, len(codes)


# ---------------------------------------------------------------------------
# morphisms


def transport(a: XDigraph, av: int, b: XDigraph, bv: int) -> Optional[tuple[int, ...]]:
    """Vertex map of the unique morphism ``a -> b`` with ``av -> bv``.

    Both graphs must be folded, over one alphabet, and ``a`` connected.
    Returns ``None`` when no morphism exists (some edge of ``a`` fails
    to transport).  The walk runs over the step maps of both graphs.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("morphisms need graphs over one alphabet")
    a_steps = a.step_maps()
    b_steps = b.step_maps()
    vmap: list[Optional[int]] = [None] * a.vertex_count
    vmap[av] = bv
    queue = deque([av])
    while queue:
        u = queue.popleft()
        at = b_steps[vmap[u]]  # type: ignore[index]
        for code, far in a_steps[u].items():
            img = at.get(code)
            if img is None:
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
    if len(a.graph.edges) != len(b.graph.edges):
        return None
    vmap = transport(a.graph, a.base, b.graph, b.base)
    if vmap is None or len(set(vmap)) != b.graph.vertex_count:
        return None
    return Morphism(vmap)


def isomorphic(a: XDigraph, b: XDigraph) -> bool:
    """Unbased isomorphism of folded connected graphs: some vertex of ``b``
    serves as the image of vertex 0 of ``a``."""
    if a.vertex_count != b.vertex_count or len(a.edges) != len(b.edges):
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

    If the base has degree >= 2, or the graph is a single vertex or has
    no edge, the graph is returned unchanged.  Otherwise the unique arc
    from the base to the first vertex of degree >= 3 is removed; the
    result is a core graph with respect to every vertex.
    """
    graph, base = g.graph, g.base
    deg = graph.degrees()
    if graph.vertex_count == 1 or not graph.edges or deg[base] >= 2:
        return TypeGraph(graph, base, (), tuple(range(graph.vertex_count)))
    # walk the stem: base has degree one, interior vertices degree two
    steps = graph.step_maps()
    stem_codes: list[int] = []
    removed = {base}
    v = base
    in_code: Optional[int] = None
    while True:
        options = [c for c in sorted(steps[v]) if in_code is None or c != in_code ^ 1]
        if len(options) != 1:
            raise AssertionError("stem interior vertex must have degree two")
        c = options[0]
        stem_codes.append(c)
        v = steps[v][c]
        in_code = c
        if deg[v] >= 3:
            break
        removed.add(v)
    keep = [u for u in range(graph.vertex_count) if u not in removed]
    renum = {u: i for i, u in enumerate(keep)}
    # an order-preserving renumbering of sorted edges keeps them sorted
    edges = tuple(
        (renum[o], x, renum[t])
        for o, x, t in graph.edges
        if o not in removed and t not in removed
    )
    return TypeGraph(
        XDigraph._trusted(graph.alphabet, len(keep), edges),
        renum[v],
        tuple(stem_codes),
        tuple(keep),
    )


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
        raise InvalidInputError("product factors must share an alphabet")
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
    new_edges = list(g.edges)
    for x in range(g.alphabet.size):
        has_out = [False] * g.vertex_count
        has_in = [False] * g.vertex_count
        for o, y, t in g.edges:
            if y == x:
                has_out[o] = True
                has_in[t] = True
        missing_out = [v for v in range(g.vertex_count) if not has_out[v]]
        missing_in = [v for v in range(g.vertex_count) if not has_in[v]]
        if len(missing_out) != len(missing_in):
            raise AssertionError("a folded graph misses as many x-heads as x-tails")
        new_edges.extend((o, x, t) for o, t in zip(missing_out, missing_in))
    return XDigraph(g.alphabet, g.vertex_count, new_edges)


def is_regular(g: XDigraph) -> bool:
    """True iff every vertex has exactly one edge per signed letter."""
    return is_folded(g) and len(g.edges) == g.alphabet.size * g.vertex_count


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g: BasedGraph) -> str:
    """Serialize a based graph; canonical numbering makes this reproducible."""
    alph = g.graph.alphabet
    payload = {
        "alphabet": "".join(alph.symbols) if alph.single_letter() else list(alph.symbols),
        "vertices": g.graph.vertex_count,
        "base": g.base,
        "edges": [[o, alph.symbols[x], t] for o, x, t in g.graph.edges],
    }
    return json.dumps(payload)


def graph_from_json(text: str) -> BasedGraph:
    """Parse a based graph record, as ``graph_to_json`` writes it.

    One pass over the edge records checks each record's shape, integer
    endpoints and label and whether the edges come sorted, and interns
    the endpoints, so the graph holds one ``int`` per vertex named in an
    edge and nothing per declared vertex.  The endpoint range is read
    off the least and greatest of them; a fault raises the message
    ``XDigraph(...)`` gives, naming the first bad edge in sorted order.
    Edges are sorted only when they came out of order, and wrapped
    without the second check of ``XDigraph(...)``.
    """
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
    edges: list[Edge] = []
    ends: dict[int, int] = {}  # one int object per vertex, however often it is named
    ordered = True
    lo = lx = lt = -1  # the edge before; (o, x, t) < (lo, lx, lt) is a fault of order
    for rec in raw_edges:
        if not (isinstance(rec, list) and len(rec) == 3):
            raise InvalidInputError(f"malformed edge record: {rec!r}")
        o, sym, t = rec
        if type(o) is not int or type(t) is not int:
            raise InvalidInputError(f"edge record {rec!r} needs integer endpoints")
        x = alph._index.get(sym) if isinstance(sym, str) else None
        if x is None:
            raise InvalidInputError(f"edge label {sym!r} outside alphabet")
        if o <= lo and (o < lo or x < lx or (x == lx and t < lt)):
            ordered = False
        lo, lx, lt = o, x, t
        edges.append((ends.setdefault(o, o), x, ends.setdefault(t, t)))
    if ends and not (min(ends) >= 0 and max(ends) < vertices):
        bad = min(e for e in edges if not (0 <= e[0] < vertices and 0 <= e[2] < vertices))
        raise InvalidInputError(f"edge {bad} has a vertex out of range")
    if not ordered:
        edges.sort()
    return BasedGraph(XDigraph._trusted(alph, vertices, tuple(edges)), base)


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
