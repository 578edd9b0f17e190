"""Intersections via product graphs, and the properties they decide.

The product of two subgroup graphs recognizes the intersection at the
base pair; the remaining components describe intersections of
conjugates, one double coset per component.  Neither is built from
the product graph: the intersection walks only the base component,
over the step tables of both graphs, and the reports for two different
graphs walk every component the same way, one at a time, reading pair
ids and edge counts.

A self-product H x H is walked over half of its pairs.  In a folded
graph no pair (v, u) with v != u steps onto the diagonal, so the base
component is the diagonal, a copy of the graph of H.  Swapping the two
coordinates is a free involution on every other component C, which
maps onto a component C' of the graph on unordered pairs {v, u},
v != u: isomorphically when swap(C) != C, which is then a second
component of the same rank, and as a connected double cover when
swap(C) = C, where rk C = 2 rk C' - 1.  Either way rk C <= t iff
rk C' <= t for t = 0 and 1, so the malnormal and cyclonormal tests and
the self-product reports walk only the pairs v < u, once per swap
class C'.  This yields intersection computation, malnormality and
cyclonormality tests, the immersion criterion, and the rank inequality
probe for intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .errors import AlphabetMismatchError, InvalidInputError
from .graph import Edge, XDigraph, _star_masks, _stars, is_folded
from .subgroup import (
    SpanningTree,
    SubgroupGraph,
    _canonical_core,
    _spell_path,
    conjugate,
    contains,
    rank,
    spanning_tree,
)
from .words import Word, _check_same_alphabet, invert, multiply


def intersection(h: SubgroupGraph, k: SubgroupGraph) -> SubgroupGraph:
    """Canonical graph of H n K: core of the base-pair component of the
    product graph.  Always finite (Howson property).

    The component is reached by a breadth-first walk from the base pair
    over the step tables of both graphs, so no other part of the product
    is built; it is folded by construction, and the walk checks that
    every step it records is undone by the inverse code.  The walk
    writes the component's step table, in which the core is then cut
    and renumbered in one more walk.
    """
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    h_table, k_table = h.graph._step_table(), k.graph._step_table()
    width, nk = h.alphabet.num_codes, k.vertex_count
    pairs = [(h.base, k.base)]
    index = {h.base * nk + k.base: 0}  # pair (v, u) has id v * #V_k + u
    table: list[int] = []
    for v, u in pairs:
        at_k = u * width
        row = [-1] * width
        for code, v2 in enumerate(h_table[v * width:v * width + width]):
            if v2 < 0:
                continue
            u2 = k_table[at_k + code]
            if u2 < 0:
                continue
            back = code ^ 1
            if h_table[v2 * width + back] != v or k_table[u2 * width + back] != u:
                raise AssertionError("a product of folded graphs must be folded")
            p = v2 * nk + u2
            j = index.get(p)
            if j is None:
                j = index[p] = len(pairs)
                pairs.append((v2, u2))
            row[code] = j
        table += row
    return _canonical_core(h.alphabet, table, len(pairs), 0)[0]


@dataclass(frozen=True)
class ComponentReport:
    """One connected component of a product graph.

    ``rank`` is #E - #V + 1 of the component, which equals the rank of
    its core at any vertex.  For a component away from the base pair
    with positive rank, ``double_coset_witness`` is a verified g with
    ``g H g^-1 n K`` nontrivial and g outside the base double coset.

    A report from ``component_analysis`` builds ``component`` the first
    time it is read and keeps it; until then it holds only the
    component's pair ids, and ``vertex_count`` reads their number.
    Equality, hashing, ``repr``, pickling and copying read
    ``component``, so a report compares, prints and copies the same
    built or not.
    """

    component: XDigraph
    contains_base_pair: bool
    representative_vertex: tuple[int, int]
    rank: int
    double_coset_witness: Optional[Word]

    @classmethod
    def _lazy(
        cls, build: Callable[[list[int]], XDigraph], pairs: list[int],
        contains_base_pair: bool, representative_vertex: tuple[int, int], rank: int,
        double_coset_witness: Optional[Word],
    ) -> "ComponentReport":
        """A report whose ``component`` is ``build(pairs)``, built on first read.

        Reports are made by the thousand, so the fields are written one
        by one into the instance dict, the cheapest way to fill it."""
        report = object.__new__(cls)
        fields = report.__dict__
        fields["_pending"] = build, pairs
        fields["contains_base_pair"] = contains_base_pair
        fields["representative_vertex"] = representative_vertex
        fields["rank"] = rank
        fields["double_coset_witness"] = double_coset_witness
        return report

    @property
    def vertex_count(self) -> int:
        """The component's vertex count, read without building it."""
        pending = self.__dict__.get("_pending")
        return self.component.vertex_count if pending is None else len(pending[1])

    def __getattr__(self, name: str):
        # reached only while ``component`` is not in the instance yet
        pending = self.__dict__.pop("_pending", None) if name == "component" else None
        if pending is None:
            raise AttributeError(name)
        build, pairs = pending
        graph = build(pairs)
        object.__setattr__(self, "component", graph)
        return graph

    def __reduce__(self):
        return type(self), (
            self.component, self.contains_base_pair, self.representative_vertex,
            self.rank, self.double_coset_witness,
        )


def _product_components(
    a: XDigraph, b: XDigraph, base_pair: tuple[int, int]
) -> Iterator[tuple[list[int], int, bool]]:
    """Components of the product of two different folded graphs, walked
    over their step tables without building the product; a self-product
    is walked by ``_self_product_classes``.

    The pair ``(v, u)`` has id ``v * #V_b + u``, so id order is the
    lexicographic order of pairs, which is the vertex order of
    ``product()``.  Pairs are visited in that order; a pair already
    seen, or whose stars share no signed letter, starts no walk.  The
    exception is the base pair, which ``product()`` keeps even when it
    is isolated: it is then a component of one vertex.  Each component
    is met at its least pair and yielded as its pair ids (least first,
    then in walk order), its edge count and whether it holds the base
    pair, so the stream follows the order of least product vertex.
    """
    a_stars, a_masks = _stars(a._step_table(), a.alphabet.num_codes, a.vertex_count)
    b_masks = _star_masks(b)
    b_table, width, nb = b._step_table(), b.alphabet.num_codes, b.vertex_count
    base_id = base_pair[0] * nb + base_pair[1]
    seen = bytearray(a.vertex_count * nb)
    base_met = False
    for v, a_mask in enumerate(a_masks):
        row = v * nb
        for u, b_mask in enumerate(b_masks):
            p = row + u
            if seen[p]:
                continue
            if not a_mask & b_mask:
                if p == base_id:
                    base_met = True
                    yield [p], 0, True
                continue
            seen[p] = 1
            comp = [p]
            half_edges = 0  # each edge is met once from each end
            for q in comp:
                x, y = divmod(q, nb)
                at = y * width
                for code, x2 in a_stars[x]:
                    y2 = b_table[at + code]
                    if y2 >= 0:
                        half_edges += 1
                        r = x2 * nb + y2
                        if not seen[r]:
                            seen[r] = 1
                            comp.append(r)
            has_base = not base_met and seen[base_id] == 1
            base_met = base_met or has_base
            yield comp, half_edges >> 1, has_base


def _self_product_classes(
    table: list[int], width: int, vertices: Sequence[int], lone: bool = False
) -> Iterator[tuple[list[int], int, bool]]:
    """The swap classes of the self-product of a folded graph away from
    the diagonal, each walked once, without building the product.

    The graph is given by its step table, of ``width`` codes a row, and
    its vertices, in increasing order: ``range(#V)`` for a graph, the
    least vertex of each class for a quotient's table from
    ``extensions._class_steps``, whose other rows are empty.  Pair ids
    are ``v * n + u``, with ``n`` the table's row count, as in
    ``_product_components``.  Only the pairs with ``v < u`` are visited,
    in id order; one already seen starts no walk, and neither does one
    whose stars share no signed letter: with ``lone`` set, each of those
    is yielded as a class of its own, with no edges.  A walk
    follows one lift C of the class C' of unordered pairs and records
    each pair in C's orientation, marking its swap as taken; a step
    onto a taken swap shows swap(C) = C.  No off-diagonal pair steps
    onto the diagonal, which is the base component.  Each class is
    yielded as the pair ids of C (its least pair, which is the least
    pair of C and swap(C), first, then in walk order), the edge count
    of C' and whether C is a double cover of C' (swap(C) = C).  The
    rank of C is that of C' when it is not, and 2 rk C' - 1 when it is.
    """
    n = len(table) // width if width else len(vertices)
    stars, masks = _stars(table, width, n)
    seen = bytearray(n * n)  # 1: a pair of the lift walked, 2: the swap of one
    for i, v in enumerate(vertices):
        v_mask, row = masks[v], v * n
        for u in vertices[i + 1:]:
            p = row + u
            if seen[p]:
                continue
            if not v_mask & masks[u]:
                if lone:
                    yield [p], 0, False
                continue
            seen[p], seen[u * n + v] = 1, 2
            comp = [p]
            half_edges = 0  # each edge of C' is met once from each end
            double = False
            for q in comp:
                x, y = divmod(q, n)
                at = y * width
                for code, x2 in stars[x]:
                    y2 = table[at + code]
                    if y2 >= 0:
                        half_edges += 1
                        r = x2 * n + y2
                        mark = seen[r]
                        if not mark:
                            seen[r], seen[y2 * n + x2] = 1, 2
                            comp.append(r)
                        elif mark == 2:
                            double = True
            yield comp, half_edges >> 1, double


def _witness(
    h: SubgroupGraph, k: SubgroupGraph, tree_h: SpanningTree, tree_k: SpanningTree,
    v: int, u: int,
) -> Word:
    """``g = tau * sigma^-1`` from geodesic tree paths to the pair ``(v, u)``
    of a positive-rank component away from the base pair, verified to
    make ``g H g^-1 n K`` nontrivial."""
    g = multiply(tree_k.path_word(u), invert(tree_h.path_word(v)))
    if intersection(conjugate(h, g), k).is_trivial():
        raise AssertionError("witness must realize a nontrivial conjugate intersection")
    return g


def component_analysis(h: SubgroupGraph, k: SubgroupGraph) -> list[ComponentReport]:
    """Reports for every component of the product of the two graphs, in
    order of least product vertex, without building the product.

    For two different graphs every component is walked over the step
    tables of both (``_product_components``).  For a self-product
    (``k == h``) the base component is the diagonal, a copy of the graph
    of H of rank rk H, and each swap class C' is walked once
    (``_self_product_classes``).  The class gives a report for its lift
    C and one for swap(C), both of rank rk C', or, when C is a double
    cover of C', one report holding both orientations, of rank
    2 rk C' - 1; the reports are then sorted once by least pair.
    Each report keeps its component's pair ids; the component's graph
    is renumbered along the sorted ids and built only when the report's
    ``component`` is first read, from the step tables that all reports
    of the call share.  Witnesses are ``g = tau * sigma^-1`` built from
    geodesic tree paths to the representative pair (one tree for a
    self-product, built when the first witness is), kept short on
    purpose, and each is verified by intersecting the conjugate before
    it is reported.
    """
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    # A component with edges away from the base pair is exactly the
    # obstruction to <g H g^-1, K> being a free product: its loops are
    # nontrivial elements of a conjugate intersection.  Conversely a g
    # whose conjugate meets K nontrivially always lights up such a
    # component, so no separate free-product criterion is exposed.
    k_table, width, nk = k.graph._step_table(), k.alphabet.num_codes, k.vertex_count
    self_product = k == h
    h_out: Optional[list[list[tuple[int, int]]]] = None
    trees: Optional[tuple[SpanningTree, SpanningTree]] = None
    lazy = ComponentReport._lazy
    reports: list[tuple[int, ComponentReport]] = []  # keyed by least pair id

    def component(pairs: list[int]) -> XDigraph:
        """The component's graph, renumbered along its sorted pair ids."""
        nonlocal h_out
        if h_out is None:
            # positive steps, in code order: each edge is read once, at its origin, and in order
            stars = _stars(h.graph._step_table(), width, h.vertex_count)[0]
            h_out = [[(c, w) for c, w in star if not c & 1] for star in stars]
        pairs.sort()
        renum = {p: i for i, p in enumerate(pairs)}
        edges = []
        for i, p in enumerate(pairs):
            x, y = divmod(p, nk)
            at = y * width
            for code, x2 in h_out[x]:
                y2 = k_table[at + code]
                if y2 >= 0:
                    edges.append((i, code >> 1, renum[x2 * nk + y2]))
        return XDigraph._trusted(h.alphabet, len(pairs), tuple(edges))

    def emit(pairs: list[int], least: int, has_base: bool, comp_rank: int) -> None:
        """Report the component of ``pairs``, whose least pair id is ``least``."""
        nonlocal trees
        v, u = divmod(least, nk)
        witness = None
        if not has_base and comp_rank > 0:
            if trees is None:
                tree_h = spanning_tree(h, geodesic=True)
                trees = tree_h, tree_h if self_product else spanning_tree(k, geodesic=True)
            witness = _witness(h, k, *trees, v, u)
        reports.append((least, lazy(component, pairs, has_base, (v, u), comp_rank, witness)))

    if self_product:
        emit(list(range(0, nk * nk, nk + 1)), 0, True, h.edge_count - nk + 1)
        for pairs, edge_count, double in _self_product_classes(k_table, width, range(nk)):
            class_rank = edge_count - len(pairs) + 1
            twin = [p % nk * nk + p // nk for p in pairs]  # swap(C)
            if double:
                emit(pairs + twin, pairs[0], False, 2 * class_rank - 1)
            else:
                emit(pairs, pairs[0], False, class_rank)
                emit(twin, min(twin), False, class_rank)
        reports.sort(key=itemgetter(0))
    else:
        for pairs, edge_count, has_base in _product_components(
            h.graph, k.graph, (h.base, k.base)
        ):
            emit(pairs, pairs[0], has_base, edge_count - len(pairs) + 1)
    return [report for _, report in reports]


def is_malnormal(h: SubgroupGraph) -> tuple[bool, Optional[Word]]:
    """Tree criterion: malnormal iff every component of the self-product
    away from the base pair is a tree (rank 0).

    The swap classes are walked over the pairs v < u only
    (``_self_product_classes``), and the test stops at the first class
    C' of positive rank, reading only its size: a component C over C'
    has rank rk C' or 2 rk C' - 1, so it is a tree iff C' is.  The
    class starts at the least pair of any component of positive rank,
    so the witness is the one the walk over all pairs would give.  Only
    the witness returned is built and verified: a g with g not in H and
    ``g H g^-1 n H`` nontrivial.
    """
    n = h.vertex_count
    for pairs, edge_count, _ in _self_product_classes(
        h.graph._step_table(), h.alphabet.num_codes, range(n)
    ):
        if edge_count - len(pairs) + 1 > 0:
            tree = spanning_tree(h, geodesic=True)
            g = _witness(h, h, tree, tree, *divmod(pairs[0], n))
            if contains(h, g):
                raise AssertionError("malnormality witness must lie outside H")
            return False, g
    return True, None


def is_cyclonormal(h: SubgroupGraph) -> bool:
    """True iff every non-base component of the self-product has rank <= 1,
    i.e. all conjugate intersections over nontrivial double cosets are cyclic.

    Walks each swap class C' once, over the pairs v < u only
    (``_self_product_classes``), reads only its ``#E - #V + 1``, builds
    no witness, and stops at the first class of rank >= 2: a component
    C over C' has rank rk C' or 2 rk C' - 1, which is <= 1 iff rk C' is.
    """
    return all(
        edge_count - len(pairs) + 1 <= 1
        for pairs, edge_count, _ in _self_product_classes(
            h.graph._step_table(), h.alphabet.num_codes, range(h.vertex_count)
        )
    )


def is_immersed(gens: Sequence[Word]) -> bool:
    """No-cancellation criterion on a generating tuple: True iff the
    wedge of loops spelling it at one vertex (``_spell_path``) is already
    folded (Stallings), i.e. no product of two generators or inverses,
    other than a factor against its own inverse, cancels.  Generators
    must be nontrivial and share one alphabet; an empty tuple is immersed."""
    gens = list(gens)
    if any(not w.codes for w in gens):
        raise InvalidInputError("immersion is defined for nontrivial generators")
    if not gens:
        return True
    edges: list[Edge] = []
    n = 1
    for w in gens:
        _check_same_alphabet(gens[0], w)
        n = _spell_path(edges, 0, w.codes, n, end=0)
    return is_folded(XDigraph(gens[0].alphabet, n, edges))


def hanna_neumann_check(h: SubgroupGraph, k: SubgroupGraph) -> bool:
    """Probe the intersection rank inequality
    ``rk(HnK) - 1 <= (rk(H) - 1)(rk(K) - 1)``.

    Vacuously true when the intersection is trivial.  This is a
    property check, not a decision procedure for anything.
    """
    meet = intersection(h, k)
    if meet.is_trivial():
        return True
    return rank(meet) - 1 <= (rank(h) - 1) * (rank(k) - 1)
