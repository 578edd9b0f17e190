"""Canonical subgroup graphs and single-subgroup algorithms.

``SubgroupGraph`` is the folded connected core based graph canonically
attached to a finitely generated subgroup H <= F(X).  Vertices are
renumbered breadth-first from the base with signed-letter tie-breaking,
so equal subgroups produce identical objects and serialized output is
reproducible; the base vertex is always 0.  Every algorithm here reads
the graph's step table (see ``freegroups.graph``): one list with a row
of ``2 * #X`` slots per vertex, each holding the neighbour its signed
code leads to or ``-1``.  One walk over a step table,
``graph._core_numbering``, cuts the core, numbers it, emits its edges
in order and writes its table, which the canonical graph keeps.  The
constructor runs it after validating its input, unless one cheaper
walk (``_is_canonical``) finds the input numbered already, in which
case the input's checked table, and its edge tuple if it has one, are
kept; the constructions here run it on tables checked once, and skip
the checks.  ``fg`` skips that walk too: the record pass that loads
graph JSON into its table recognises canonical numbering on the way
(``graph._load_graph``).  Counting edges (``rank``, ``edge_count``,
``is_trivial``) and ``non_tree_edges`` read the table, so a loaded
graph's edge tuple is derived only by what needs it.
Generators are read into one growing table (``graph._fold_wedge``):
each is traced through the graph built so far, and only its unread
middle is spelled and folded.  A join folds the spelled edges of both
graphs (``_fold_core``: ``graph._fold`` folds the edge list into a
table and checks it once).  Either way the walk reads the table where
it lies.  A conjugating stem cannot fold, so ``conjugate`` extends a
copy of the table.

Algorithms here cover construction by folding, membership, spanning
trees and free bases, Schreier rewriting, rank, index and cosets,
normality, conjugation and conjugacy, power membership, finite-index
completion, and joins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import xor
from random import Random
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    AlphabetMismatchError,
    InvalidInputError,
    NotAMemberError,
)
from .graph import (
    BasedGraph,
    Edge,
    XDigraph,
    _check_vertex,
    _core_numbering,
    _fold,
    _fold_wedge,
    _read,
    _rows,
    based_isomorphism,
    canonical_morphism,
    is_regular,
    regular_complete,
    trace_path,
    type_with_anchor,
)
from .words import (Alphabet, Word, cyclic_reduce, free_reduce, identity, invert, multiply,
                    synthetic_alphabet)


class SubgroupGraph:
    """The canonical graph of a finitely generated subgroup.

    Wraps a folded, connected core based graph in canonical numbering.
    Two instances compare equal iff they are based-isomorphic, i.e. iff
    they describe the same subgroup.  The constructor checks the graph
    and numbers it with ``_canonical_core``; input already in canonical
    numbering is kept, with the step table of the check and its edge
    tuple, if it has one: a graph loaded by ``graph_from_json`` holds its
    table alone, and derives its edges when they are first read.
    """

    __slots__ = ("graph",)

    base = 0

    def __init__(self, graph: XDigraph, base: int):
        """Check that ``graph`` is folded, connected and a core at ``base``,
        and number it canonically.

        Input already in canonical numbering, such as the JSON ``fg
        graph`` writes, is recognised by one walk over the step table of
        the foldedness check (``_is_canonical``) and kept as it is: that
        table and its edge tuple, if it has one.  The input graph keeps
        the table only when the table is all it holds.  Any other input
        goes through ``_canonical_core``, which renumbers it, and whose
        walk also shows a graph that is not connected or not a core.
        """
        _check_vertex(graph, base, "base vertex")
        if graph.vertex_count > graph.edge_count + 1:  # before the table
            raise InvalidInputError("subgroup graph must be connected")
        table = graph._step_table()  # raises if not folded
        if graph._edges is not None:  # else the table is all the graph holds
            graph._steps = None  # one copy of the table lives at a time
        n = graph.vertex_count
        if base == 0 and _is_canonical(table, n):
            self.graph = XDigraph._trusted(graph.alphabet, n, graph._edges, table)
            return
        canon, order = _canonical_core(graph.alphabet, table, n, base)
        if len(order) != n:
            if not graph.is_connected():
                raise InvalidInputError("subgroup graph must be connected")
            raise InvalidInputError("subgroup graph must be a core graph at its base")
        self.graph = canon.graph

    @classmethod
    def _from_canonical(cls, graph: XDigraph) -> "SubgroupGraph":
        """Wrap a graph that is already folded, connected, core and in
        canonical numbering, skipping the checks of ``__init__``."""
        obj = object.__new__(cls)
        obj.graph = graph
        return obj

    @property
    def alphabet(self) -> Alphabet:
        return self.graph.alphabet

    @property
    def based(self) -> BasedGraph:
        return BasedGraph(self.graph, self.base)

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def canonical_key(self) -> tuple:
        return (self.graph.alphabet.symbols, self.graph.vertex_count, self.graph.edges)

    def is_trivial(self) -> bool:
        return not self.graph.edge_count

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubgroupGraph) and self.graph == other.graph

    def __hash__(self) -> int:
        return hash(self.graph)

    def __repr__(self) -> str:
        return f"SubgroupGraph(V={self.vertex_count}, E={self.edge_count})"


def _canonical_core(
    alphabet: Alphabet, table: list[int], vertex_count: int, base: int,
    stem: Optional[list[int]] = None,
) -> tuple[SubgroupGraph, list[int]]:
    """The canonical graph of the core at ``base`` of a folded graph on
    ``vertex_count`` vertices, given by its step table, with the old
    vertices in their new order.  Given a ``stem`` list, the base's stem
    is cut too and the graph is based at its anchor, ``order[0]``; the
    stem's codes are appended to the list (``_core_numbering``).

    ``_core_numbering`` cuts the core and numbers it in one walk, the
    numbering ``SubgroupGraph`` uses, meets the edges in sorted order
    and writes the core's table, so the edges are wrapped as they come
    and the graph keeps the table.  The input table is trusted to come
    from a folded graph: every caller checked that once, when the table
    was built.
    """
    order, edges, core_table = _core_numbering(table, vertex_count, base, stem)
    graph = XDigraph._trusted(alphabet, len(order), edges, core_table)
    return SubgroupGraph._from_canonical(graph), order


def _is_canonical(table: list[int], vertex_count: int) -> bool:
    """True iff the folded graph on ``vertex_count`` vertices with this
    step table is a core at vertex 0 that ``_core_numbering`` numbers as
    it is: the breadth-first walk from 0 in signed-code order meets the
    vertices in the order 0, 1, 2, ..., reaches them all, and every
    vertex but 0 has two half-edges or more.  Then no vertex is cut and
    the canonical edges are the graph's own.
    """
    width = len(table) // vertex_count
    fresh = 1  # the walk has met vertices 0 .. fresh - 1
    for u, row in enumerate(_rows(table, width, vertex_count)):
        if u >= fresh or (u and width - row.count(-1) < 2):
            return False
        for w in row:  # in code order; -1 is never fresh
            if w >= fresh:
                if w != fresh:
                    return False
                fresh += 1
    return True


def _fold_core(alphabet: Alphabet, n: int, edges: list[Edge], base: int) -> SubgroupGraph:
    """The canonical graph of the core at ``base`` of the folded graph."""
    table, count, block = _fold(n, edges, alphabet.num_codes)
    return _canonical_core(alphabet, table, count, block[base])[0]


def trivial_subgroup(alphabet: Alphabet) -> SubgroupGraph:
    return SubgroupGraph(XDigraph(alphabet, 1, ()), 0)


def full_group(alphabet: Alphabet) -> SubgroupGraph:
    """The rose: one vertex with a loop per generator, i.e. F(X) itself."""
    return SubgroupGraph(
        XDigraph(alphabet, 1, [(0, x, 0) for x in range(alphabet.size)]), 0
    )


def stallings_graph(
    alphabet: Alphabet, gens: Iterable[Word], rng: Optional[Random] = None
) -> SubgroupGraph:
    """Construct the canonical graph of ``<gens>``.

    The generators are read into one folded step table
    (``graph._fold_wedge``), each traced through the graph built so far
    and only its unread middle spelled; the table is then cored and
    renumbered at the wedge vertex.  They are read shortest first, in a
    stable sort, so a basis given after its products is read first and
    the products trace through it; ``rng`` shuffles the reading order
    instead.  Trivial generators are ignored; the empty set yields the
    single-vertex graph of the trivial subgroup.  The number of merges
    is at most the total generator length.
    """
    words = []
    for w in gens:
        if w.alphabet != alphabet:
            raise AlphabetMismatchError("generators must share the given alphabet")
        words.append(w.codes)
    if rng is None:
        words.sort(key=len)
    else:
        rng.shuffle(words)
    table, count = _fold_wedge(words, alphabet.num_codes)
    return _canonical_core(alphabet, table, count, 0)[0]


def _spell_path(
    edges: list[Edge], start: int, codes: Sequence[int], fresh: int, end: Optional[int] = None
) -> int:
    """Append to ``edges`` a path that spells ``codes`` from ``start``.

    The path runs through fresh vertices numbered from ``fresh``; when
    ``end`` is given, its last step closes on ``end`` instead.  Returns
    the next unused vertex number.
    """
    v = start
    last = len(codes) - 1
    for i, code in enumerate(codes):
        if i == last and end is not None:
            w = end
        else:
            w, fresh = fresh, fresh + 1
        edges.append(_step_edge(v, code, w))
        v = w
    return fresh


def contains(h: SubgroupGraph, w: Word) -> bool:
    """Generalized word problem: does ``w`` lie in the subgroup?"""
    if w.alphabet != h.alphabet:
        raise AlphabetMismatchError("word and subgroup use different alphabets")
    return trace_path(h.graph, h.base, w) == h.base


# ---------------------------------------------------------------------------
# spanning trees and bases


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a subgroup graph, rooted at the base.

    ``enter[v]`` is the signed code of the tree edge used to reach ``v``
    from its parent (None at the root).  When ``geodesic`` holds, every
    tree path from the root realizes the graph distance.
    """

    host: XDigraph
    root: int
    edges: frozenset[Edge]
    parent: tuple[int, ...]
    enter: tuple[Optional[int], ...]
    depth: tuple[int, ...]
    geodesic: bool

    def path_codes(self, v: int) -> tuple[int, ...]:
        parent, enter, root = self.parent, self.enter, self.root
        out: list[int] = []
        while v != root:
            out.append(enter[v])  # type: ignore[arg-type]
            v = parent[v]
        out.reverse()
        return tuple(out)

    def path_word(self, v: int) -> Word:
        return Word(self.host.alphabet, self.path_codes(v))


def _step_edge(v: int, code: int, w: int) -> Edge:
    """Positive edge triple underlying the step v --code--> w."""
    return (v, code >> 1, w) if code & 1 == 0 else (w, code >> 1, v)


def spanning_tree(
    g: SubgroupGraph, geodesic: bool = True, rng: Optional[Random] = None
) -> SpanningTree:
    """Spanning tree rooted at the base; breadth-first layers when geodesic.

    The default is deterministic (signed-letter order); ``rng`` shuffles
    the exploration order, which varies the tree but never the rank of
    the resulting basis.
    """
    return _grow_tree(g.graph, g.base, geodesic, rng)


def _grow_tree(
    host: XDigraph,
    root: int,
    geodesic: bool,
    rng: Optional[Random] = None,
    allowed: Optional[AbstractSet[Edge]] = None,
) -> SpanningTree:
    """Spanning tree of a folded graph, grown over its step table.

    Breadth-first when ``geodesic``, depth-first otherwise.  When
    ``allowed`` is given, only its edges may enter the tree.  Raises
    unless the tree spans the graph and uses every allowed edge.
    """
    table, width = host._step_table(), host.alphabet.num_codes
    n = host.vertex_count
    parent = [0] * n
    enter: list[Optional[int]] = [None] * n
    depth = [0] * n
    tree_edges: set[Edge] = set()
    seen = [False] * n
    seen[root] = True
    frontier = deque([root])
    while frontier:
        v = frontier.popleft() if geodesic else frontier.pop()
        row = enumerate(table[v * width:v * width + width])
        if rng is not None:
            row = [step for step in row if step[1] >= 0]
            rng.shuffle(row)
        for code, w in row:
            if w < 0 or seen[w]:
                continue
            e = _step_edge(v, code, w)
            if allowed is not None and e not in allowed:
                continue
            seen[w] = True
            parent[w] = v
            enter[w] = code
            depth[w] = depth[v] + 1
            tree_edges.add(e)
            frontier.append(w)
    if not all(seen) or (allowed is not None and len(tree_edges) != len(allowed)):
        raise InvalidInputError("the edges do not form a spanning tree of the graph")
    return SpanningTree(
        host, root, frozenset(tree_edges), tuple(parent), tuple(enter),
        tuple(depth), geodesic,
    )


@dataclass(frozen=True)
class Basis:
    """A free basis of the subgroup, one element per non-tree edge."""

    elements: tuple[Word, ...]
    provenance: tuple[Edge, ...]  # non-tree positive edge of each element

    def __len__(self) -> int:
        return len(self.elements)


def non_tree_edges(g: SubgroupGraph, tree: SpanningTree) -> list[Edge]:
    """Edges of the graph outside the tree, in sorted order; raises
    unless the tree spans this graph.  Read off the step table, rows in
    vertex order and positive codes in code order, so the graph's edge
    tuple is not needed."""
    if tree.host != g.graph:
        raise InvalidInputError("the spanning tree belongs to another graph")
    table, width = g.graph._step_table(), g.alphabet.num_codes
    in_tree = tree.edges
    return [
        e
        for v, row in enumerate(_rows(table, width, g.vertex_count))
        for x, far in enumerate(row[::2])
        if far >= 0 and (e := (v, x, far)) not in in_tree
    ]


def basis(g: SubgroupGraph, tree: Optional[SpanningTree] = None) -> Basis:
    """Free basis from a spanning tree: one generator per non-tree edge,
    ``[e] = (path to o(e)) e (path from t(e))``.

    The basis size is ``#E - #V + 1``.  With a geodesic tree the basis
    is Nielsen reduced.
    """
    if tree is None:
        tree = spanning_tree(g, geodesic=True)
    prov = tuple(non_tree_edges(g, tree))
    b = Basis(tuple(_loop_word(tree, e) for e in prov), prov)
    if len(b) != rank(g):
        raise AssertionError("a tree basis needs #E - #V + 1 elements")
    return b


def _loop_word(tree: SpanningTree, e: Edge) -> Word:
    """Basis element ``(path to o(e)) e (path from t(e))`` of a non-tree edge.

    The spelling is already freely reduced, so no reduction pass runs:
    the tree paths of a folded graph are reduced, so only the two
    junctions next to ``e`` could cancel, and a cancellation there would
    make ``e`` the tree edge into ``o(e)`` or ``t(e)``.  Those two
    junctions are checked, and a tree whose paths cancel at one raises.
    """
    o, x, t = e
    alphabet, head = tree.host.alphabet, tree.path_codes(o)
    codes = head + (2 * x,) + tuple(map(xor, reversed(tree.path_codes(t)), repeat(1)))
    for i in (len(head) - 1, len(head)):  # the junctions before and after e
        if 0 <= i < len(codes) - 1 and codes[i] == codes[i + 1] ^ 1:
            raise InvalidInputError(
                f"word is not freely reduced at {alphabet.code_name(codes[i])}"
                f" {alphabet.code_name(codes[i + 1])}"
            )
    return Word._trusted(alphabet, codes)


def rank(g: SubgroupGraph) -> int:
    """rk(H) = #E - #V + 1 for the canonical graph."""
    return g.graph.edge_count - g.vertex_count + 1


def rewrite_in_basis(g: SubgroupGraph, tree: SpanningTree, w: Word) -> tuple[int, ...]:
    """Schreier rewriting: express a member in the tree basis.

    Reads ``w`` along the graph and emits one signed 1-based basis index
    per non-tree edge crossed.  Substituting the basis elements back and
    freely reducing returns ``w``.
    """
    if w.alphabet != g.alphabet:
        raise AlphabetMismatchError("word and subgroup use different alphabets")
    return _rewrite(g, _basis_order(g, tree), w.codes)


def _basis_order(g: SubgroupGraph, tree: SpanningTree) -> dict[Edge, int]:
    """The 1-based index of each non-tree edge, its tree basis element."""
    return {e: i + 1 for i, e in enumerate(non_tree_edges(g, tree))}


def _rewrite(g: SubgroupGraph, order: dict[Edge, int], codes: tuple[int, ...]) -> tuple[int, ...]:
    """``rewrite_in_basis`` of the word with these codes, given the index
    ``order`` of the non-tree edges (``_basis_order``); tree edges have none."""
    out: list[int] = []
    table, width = g.graph._step_table(), g.alphabet.num_codes
    v = g.base
    for code in codes:
        nxt = table[v * width + code]
        if nxt < 0:
            raise NotAMemberError("word does not lie in the subgroup")
        i = order.get(_step_edge(v, code, nxt))
        if i is not None:
            out.append(i if code & 1 == 0 else -i)
        v = nxt
    if v != g.base:
        raise NotAMemberError("word does not lie in the subgroup")
    return tuple(out)


def expand_in_basis(elements: Sequence[Word], indices: Iterable[int]) -> Word:
    """Substitute basis elements for signed 1-based indices and reduce."""
    if not elements:
        raise InvalidInputError("cannot expand over an empty basis")
    acc = identity(elements[0].alphabet)
    for i in indices:
        if not 0 < abs(i) <= len(elements):
            raise InvalidInputError(f"basis index {i} out of range")
        acc = multiply(acc, elements[i - 1] if i > 0 else invert(elements[-i - 1]))
    return acc


def is_nielsen_reduced(s: Sequence[Word]) -> bool:
    """Check the two Nielsen conditions over S and its inverses.

    (1) no product of distinct non-cancelling pairs drops below the
    length of either factor; (2) in any triple ``u w v`` with no full
    adjacent cancellation, at least one letter of ``w`` survives.
    """
    words = list(dict.fromkeys(s))
    for w in words:
        if not w.codes:
            raise InvalidInputError("Nielsen sets must not contain the identity")
    inverses = {invert(w) for w in words}
    if inverses & set(words):
        raise InvalidInputError("Nielsen sets must not contain an inverse pair")
    u_set = words + [invert(w) for w in words]
    for u in u_set:
        for v in u_set:
            if u == invert(v):
                continue
            p = multiply(u, v)
            if len(p) < len(u) or len(p) < len(v):
                return False
    for u in u_set:
        for w in u_set:
            if u == invert(w):
                continue
            uw = multiply(u, w)
            for v in u_set:
                if v == invert(w):
                    continue
                if len(multiply(uw, v)) <= len(u) + len(v) - len(w):
                    return False
    return True


# ---------------------------------------------------------------------------
# index, cosets, normality


def index(g: SubgroupGraph) -> Optional[int]:
    """|F(X) : H|, or ``None`` when the index is infinite.

    Finite iff the graph is X-regular, in which case the index is the
    number of vertices.
    """
    return g.vertex_count if is_regular(g.graph) else None


def coset_representatives(g: SubgroupGraph) -> list[Word]:
    """Right coset representatives, one per vertex (tree-path labels)."""
    if index(g) is None:
        raise InvalidInputError("coset representatives exist only at finite index")
    tree = spanning_tree(g, geodesic=True)
    return [tree.path_word(v) for v in range(g.vertex_count)]


def schreier_check(g: SubgroupGraph) -> bool:
    """Verify rk(H) - 1 = index * (rk(F) - 1); requires finite index."""
    i = index(g)
    if i is None:
        raise InvalidInputError("Schreier formula applies only at finite index")
    return rank(g) - 1 == i * (g.alphabet.size - 1)


def is_normal(g: SubgroupGraph) -> bool:
    """Normality test: X-regular and every vertex is an equivalent base.

    The trivial subgroup is normal by convention (the regularity clause
    below assumes a nontrivial subgroup).
    """
    if g.is_trivial():
        return True
    if not is_regular(g.graph):
        return False
    return all(
        based_isomorphism(g.based, BasedGraph(g.graph, v)) is not None
        for v in range(1, g.vertex_count)
    )


# ---------------------------------------------------------------------------
# conjugation


def conjugate(g: SubgroupGraph, w: Word) -> SubgroupGraph:
    """Canonical graph of the conjugate ``w H w^-1``.

    Splits ``w = y z`` with ``z`` the maximal tail whose inverse is
    readable from the base, attaches a fresh stem spelling ``y^-1`` at
    the endpoint, and re-cores at the new base (``_canonical_core``).
    The stem cannot fold: its first code is the one found missing at
    the endpoint, and it spells a reduced word through fresh vertices.
    So it extends a copy of the step table, one new row per stem vertex.
    The type graph is unchanged by conjugation.
    """
    if w.alphabet != g.alphabet:
        raise AlphabetMismatchError("conjugator and subgroup use different alphabets")
    table, width = g.graph._step_table(), g.alphabet.num_codes
    n = g.vertex_count
    u, read = _read(g.graph, g.base, invert(w).codes)
    y = w.codes[:len(w.codes) - read]  # unread head; attach its inverse as a stem
    if y:
        table = table[:]
        empty = [-1] * width
        for code in reversed(y):
            table[u * width + (code ^ 1)] = n
            table += empty
            table[n * width + code] = u
            u, n = n, n + 1
    return _canonical_core(g.alphabet, table, n, u)[0]


def _type_conjugators(
    k: SubgroupGraph, h: SubgroupGraph, fits: Callable[[BasedGraph, BasedGraph], object]
) -> Iterator[Word]:
    """Candidate conjugators g for g K g^-1 <= H, read off the type graphs.

    For each vertex v of Type(H), in vertex order, where ``fits`` finds
    a map from Type(K) at its anchor to Type(H) at v, yields
    ``g = p_v * s_K^-1``: p_v is the geodesic-tree path of H to the host
    vertex of v, and s_K the stem label of K.  Nothing is verified here.
    """
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    tk = type_with_anchor(k.based)
    th = type_with_anchor(h.based)
    source = BasedGraph(tk.graph, tk.anchor)
    stem_inverse = invert(Word(k.alphabet, tk.stem))
    tree = spanning_tree(h, geodesic=True)
    for v, host_v in enumerate(th.host_vertices):
        if fits(source, BasedGraph(th.graph, v)) is not None:
            yield multiply(tree.path_word(host_v), stem_inverse)


def conjugacy_equivalent(h: SubgroupGraph, k: SubgroupGraph) -> Optional[Word]:
    """A verified conjugator g with g H g^-1 = K, or None.

    H and K are conjugate iff their type graphs are isomorphic as
    unbased graphs, so the candidates are those of ``_type_conjugators``
    under based isomorphism; the shortlex least verified one is returned.
    """
    found = (g for g in _type_conjugators(h, k, based_isomorphism) if conjugate(h, g) == k)
    return min(found, key=Word.shortlex_key, default=None)


def conjugate_into(k: SubgroupGraph, h: SubgroupGraph) -> Optional[Word]:
    """A verified g with g K g^-1 <= H, or None.

    Exists iff some morphism Type(K) -> Type(H) does, so the candidates
    are those of ``_type_conjugators`` under the canonical morphism; the
    shortlex least verified one is returned.
    """
    found = (g for g in _type_conjugators(k, h, canonical_morphism)
             if canonical_morphism(conjugate(k, g).based, h.based) is not None)
    return min(found, key=Word.shortlex_key, default=None)


def power_in(h: SubgroupGraph, g: Word) -> Optional[int]:
    """Least m >= 1 with g^m in H, or None; m <= #V suffices.

    The reduced powers are walked incrementally through the cyclically
    reduced core of ``g``, so no quadratic re-reduction happens.
    """
    if g.alphabet != h.alphabet:
        raise AlphabetMismatchError("word and subgroup use different alphabets")
    if not g.codes:
        raise InvalidInputError("power_in needs a nontrivial element")
    conj, d = cyclic_reduce(g)
    v = trace_path(h.graph, h.base, conj)
    if v is None:
        return None
    back = invert(conj)
    for m in range(1, h.vertex_count + 1):
        v = trace_path(h.graph, v, d)
        if v is None:
            return None
        if trace_path(h.graph, v, back) == h.base:
            return m
    return None


# ---------------------------------------------------------------------------
# Hall completion and joins


class HallCompletion(NamedTuple):
    subgroup: SubgroupGraph  # L, of finite index
    basis_h: tuple[Word, ...]  # free basis of H
    basis_c: tuple[Word, ...]  # free basis of a complement, L = H * <basis_c>

    @property
    def finite_index(self) -> int:
        return self.subgroup.vertex_count


def hall_completion(h: SubgroupGraph, g: Word) -> HallCompletion:
    """Finite-index overgroup L with H a free factor of L and g not in L.

    Wraps the maximal readable prefix of ``g`` onto the graph, attaches
    the rest as a fresh arc, and completes to an X-regular graph; the
    completion is not unique, so only its properties are contractual.
    The returned basis of L splits over a spanning tree of H extended
    across the new arc.
    """
    if g.alphabet != h.alphabet:
        raise AlphabetMismatchError("word and subgroup use different alphabets")
    graph = h.graph
    v, i = _read(graph, h.base, g.codes)
    if i == len(g.codes) and v == h.base:
        raise InvalidInputError("Hall completion needs an element outside H")
    chain: list[Edge] = []
    n = _spell_path(chain, v, g.codes[i:], graph.vertex_count)
    complete = regular_complete(XDigraph(graph.alphabet, n, graph.edges + tuple(chain)))

    tree_edges = spanning_tree(h, geodesic=True).edges | set(chain)
    tree = _grow_tree(complete, h.base, geodesic=False, allowed=tree_edges)
    h_edges = set(graph.edges)
    basis_h: list[Word] = []
    basis_c: list[Word] = []
    for e in complete.edges:
        if e not in tree.edges:
            (basis_h if e in h_edges else basis_c).append(_loop_word(tree, e))
    return HallCompletion(SubgroupGraph(complete, h.base), tuple(basis_h), tuple(basis_c))


def spanning_tree_from_edges(
    g: SubgroupGraph, tree_edges: Iterable[Edge]
) -> SpanningTree:
    """Spanning tree over an explicitly prescribed edge set.

    Useful for fixtures where a particular highlighted tree matters;
    raises when the edges are not exactly a spanning tree of the graph.
    """
    return _grow_tree(g.graph, g.base, geodesic=False, allowed=set(tree_edges))


def rebase_inside(m: SubgroupGraph, h: SubgroupGraph) -> SubgroupGraph:
    """Rewrite M <= H over an abstract basis of H.

    Returns the graph of M viewed as a subgroup of the free group on
    rank(H) fresh letters, one per element of a geodesic-tree basis of
    H.  This is how computations "inside H" (relative index, free
    factor tests) are reduced to the ambient case.
    """
    if canonical_morphism(m.based, h.based) is None:
        raise InvalidInputError("rebase_inside needs M to be a subgroup of H")
    order = _basis_order(h, spanning_tree(h, geodesic=True))
    target = synthetic_alphabet(rank(h))
    gens = []
    for w in basis(m).elements:
        codes = []
        for i in _rewrite(h, order, w.codes):
            codes.append(2 * (i - 1) if i > 0 else 2 * (-i - 1) + 1)
        gens.append(free_reduce(target, codes))
    return stallings_graph(target, gens)


def relative_index(m: SubgroupGraph, h: SubgroupGraph) -> Optional[int]:
    """|H : M| for M <= H, or ``None`` when infinite."""
    return index(rebase_inside(m, h))


def join(h: SubgroupGraph, k: SubgroupGraph) -> SubgroupGraph:
    """Canonical graph of <H u K>: the edges of both graphs wedged at
    the bases, folded, then cored and renumbered (``_fold_core``)."""
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    # both bases are vertex 0; each other vertex v of k becomes v + off
    off = h.graph.vertex_count - 1
    edges = list(h.graph.edges) + [
        (o and o + off, x, t and t + off) for o, x, t in k.graph.edges
    ]
    return _fold_core(h.alphabet, off + k.graph.vertex_count, edges, 0)
