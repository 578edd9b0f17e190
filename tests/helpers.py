"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import argparse
import json
from collections import Counter, deque
from dataclasses import replace
from functools import lru_cache
from random import Random
from typing import Optional, Sequence

from freegroups.cli import _build_parser
from freegroups.errors import InvalidInputError, ResourceLimitError, WordParseError
from freegroups.extensions import ExtensionVerdict, PrincipalQuotient, principal_quotients
from freegroups.graph import (
    BasedGraph,
    Edge,
    Morphism,
    Subgraph,
    TypeGraph,
    XDigraph,
    _core_numbering,
    _star_masks,
    canonical_morphism,
    fold_all,
    product,
)
from freegroups.intersect import ComponentReport
from freegroups.subgroup import (
    SubgroupGraph,
    _canonical_core,
    _spell_path,
    basis,
    contains,
    power_in,
    rank,
    spanning_tree,
    stallings_graph,
)
from freegroups.whitehead import (
    WhiteheadAuto,
    _cyclic_core,
    _move_sizes,
    _multiplier_auto,
    apply_auto,
    is_free_factor,
    transform_subgroup,
)
from freegroups.words import (
    Alphabet,
    Word,
    free_reduce,
    identity,
    invert,
    multiply,
    reduced_words,
)

AB = Alphabet.from_string("ab")
ABC = Alphabet.from_string("abc")
A1 = Alphabet.from_string("a")


def cli_parsers() -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of ``fg``, by verb, in its order."""
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def cli_verbs() -> tuple[str, ...]:
    """The subcommands of the ``fg`` parser, in its order."""
    return tuple(cli_parsers())


def rand_word(rng: Random, alphabet: Alphabet, max_len: int, nontrivial: bool = False) -> Word:
    while True:
        n = rng.randint(0 if not nontrivial else 1, max_len)
        w = free_reduce(
            alphabet, [rng.randrange(alphabet.num_codes) for _ in range(n)]
        )
        if w.codes or not nontrivial:
            return w


def rand_gens(
    rng: Random, alphabet: Alphabet, max_gens: int, max_len: int
) -> list[Word]:
    return [
        rand_word(rng, alphabet, max_len, nontrivial=True)
        for _ in range(rng.randint(1, max_gens))
    ]


def rand_subgroup(
    rng: Random,
    alphabet: Alphabet,
    max_gens: int = 3,
    max_len: int = 6,
    max_vertices: int | None = None,
) -> SubgroupGraph:
    while True:
        g = stallings_graph(alphabet, rand_gens(rng, alphabet, max_gens, max_len))
        if not g.is_trivial() and (max_vertices is None or g.vertex_count <= max_vertices):
            return g


def product_words(gens: list[Word], depth: int) -> set[Word]:
    """All freely reduced products of at most `depth` generator factors.

    Breadth-first closure; every returned word certifiably lies in the
    subgroup generated by `gens`.
    """
    alphabet = gens[0].alphabet
    factors = [g for g in gens] + [invert(g) for g in gens]
    seen = {identity(alphabet)}
    frontier = [identity(alphabet)]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for f in factors:
                p = multiply(w, f)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def set_partitions(items: list[int]):
    """All partitions of a list, for the quotient enumeration oracle."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield [[first]] + partition


def quotient_keys_by_partitions(k: SubgroupGraph) -> set[tuple]:
    """Canonical keys of all folded core quotients, computed the slow way:
    identify the blocks of every set partition of the vertices, then fold."""
    keys = set()
    for partition in set_partitions(list(range(k.vertex_count))):
        block_of = {}
        for i, block in enumerate(partition):
            for v in block:
                block_of[v] = i
        merged = XDigraph(
            k.alphabet,
            len(partition),
            [(block_of[o], x, block_of[t]) for o, x, t in k.graph.edges],
        )
        folded, vmap = fold_all(merged)
        sub = SubgroupGraph(folded, vmap[block_of[k.base]])
        keys.add(sub.canonical_key())
    return keys


def principal_quotients_by_refolding(k: SubgroupGraph) -> list[PrincipalQuotient]:
    """Principal quotients by the per-pair route: for every vertex pair of
    every quotient found so far, build the identified graph, fold it,
    number it canonically and compose the maps; quotients are told apart
    by canonical key.  Same fields and order as ``principal_quotients``."""
    identity = Morphism(tuple(range(k.vertex_count)))
    found = {k.canonical_key(): PrincipalQuotient(k, identity)}
    sources: dict[tuple, set[tuple]] = {k.canonical_key(): set()}
    frontier = [found[k.canonical_key()]]
    while frontier:
        pq = frontier.pop()
        source = pq.graph.canonical_key()
        g = pq.graph.graph
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                quotient = _identify_and_fold(pq.graph, u, v, pq.quotient_map)
                key = quotient.graph.canonical_key()
                if key not in found:
                    found[key] = quotient
                    sources[key] = set()
                    frontier.append(quotient)
                sources[key].add(source)
    return sorted(
        (replace(pq, step_sources=frozenset(sources[key])) for key, pq in found.items()),
        key=lambda pq: (-pq.graph.vertex_count, pq.graph.canonical_key()),
    )


def _identify_and_fold(
    sub: SubgroupGraph, u: int, v: int, prior: Morphism
) -> PrincipalQuotient:
    """Identify vertices u and v, fold, renumber canonically, and compose
    the renumbering into the map from K."""
    g = sub.graph

    def squash(w: int) -> int:
        if w == v:
            return u
        return w - 1 if w > v else w

    merged = XDigraph(
        g.alphabet, g.vertex_count - 1, [(squash(o), x, squash(t)) for o, x, t in g.edges]
    )
    folded, fmap = fold_all(merged)
    base = fmap[squash(sub.base)]
    quotient = SubgroupGraph(folded, base)
    renumber = canonical_morphism(BasedGraph(folded, base), quotient.based)
    vertex_map = tuple(renumber(fmap[squash(prior(w))]) for w in range(len(prior.vertex_map)))
    return PrincipalQuotient(quotient, Morphism(vertex_map))


def exponents_in(h, word: Word, limit: int = 40) -> set[int]:
    """Which powers word^n (1 <= n <= limit) lie in h; brute-force oracle."""
    from freegroups.subgroup import contains

    out = set()
    acc = identity(word.alphabet)
    for n in range(1, limit + 1):
        acc = multiply(acc, word)
        if contains(h, acc):
            out.add(n)
    return out


def language_words(g: XDigraph, base: int, max_len: int) -> set[tuple[int, ...]]:
    """All labels of reduced base loops of length <= max_len.

    Exhaustive DFS over reduced paths; independent of the folded-graph
    tracing used by membership, so tests can use it as an oracle.  On a
    folded graph this is exactly the set of accepted freely reduced
    words up to that length.
    """
    inc: list[list[tuple[int, Edge]]] = [[] for _ in range(g.vertex_count)]
    for i, e in enumerate(g.edges):
        inc[e[0]].append((i, e))
        if e[2] != e[0]:
            inc[e[2]].append((i, e))
    out: set[tuple[int, ...]] = set()

    def explore(v: int, last: Optional[tuple[int, int]], label: tuple[int, ...]):
        if v == base:
            out.add(label)
        if len(label) == max_len:
            return
        for i, (o, x, t) in inc[v]:
            for src, code, far, direction in (
                (o, 2 * x, t, 1),
                (t, 2 * x + 1, o, -1),
            ):
                if src != v:
                    continue
                if last is not None and last == (i, -direction):
                    continue  # immediate backtrack over the same edge
                explore(far, (i, direction), label + (code,))

    explore(base, None, ())
    return out


def is_subgraph_embedding(m: Morphism, a: XDigraph, b: XDigraph) -> bool:
    """True iff ``m`` embeds ``a`` into ``b`` injectively on vertices and edges."""
    if not m.is_injective():
        return False
    images = {(m(o), x, m(t)) for o, x, t in a.edges}
    return len(images) == len(a.edges) and images <= set(b.edges)


def spans(sub: Subgraph, host: XDigraph) -> bool:
    """True iff the subgraph has every vertex and every edge of the host."""
    return len(sub.vertices) == host.vertex_count and len(sub.edges) == len(host.edges)


def immersed_by_products(gens: Sequence[Word]) -> bool:
    """The immersion criterion pair by pair: every product of two
    generators or inverses, other than a factor against its own inverse,
    is as long as the factors combined.  O(k^2 * L) for k generators of
    length at most L; the oracle of ``is_immersed``."""
    gens = list(gens)
    for w in gens:
        if not w.codes:
            raise InvalidInputError("immersion is defined for nontrivial generators")
    signed = [(i, w) for i, w in enumerate(gens)] + [
        (~i, invert(w)) for i, w in enumerate(gens)
    ]
    for iu, u in signed:
        for iv, v in signed:
            if iu == ~iv:
                continue  # u against its own inverse occurrence
            if len(multiply(u, v)) != len(u) + len(v):
                return False
    return True


def step_maps_by_edges(g: XDigraph) -> list[dict[int, int]]:
    """Per-vertex step maps (signed code -> neighbour), one ``dict`` per
    vertex, inserted one half-edge at a time in edge order: the oracle
    of ``XDigraph.step_maps()``.  The first half-edge whose code is
    already taken at its vertex raises the message of an unfolded graph."""
    steps: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for o, x, t in g.edges:
        for v, code, far in ((o, 2 * x, t), (t, 2 * x + 1, o)):
            if code in steps[v]:
                raise InvalidInputError(
                    "graph is not folded: two half-edges labeled "
                    f"{g.alphabet.code_name(code)} at vertex {v}"
                )
            steps[v][code] = far
    return steps


def table_of_maps(steps: list[dict[int, int]], width: int) -> list[int]:
    """The flat step table holding these step maps, ``width`` slots a row."""
    table = [-1] * (len(steps) * width)
    for v, m in enumerate(steps):
        for code, far in m.items():
            table[v * width + code] = far
    return table


def naive_fold(g: XDigraph) -> tuple[set[frozenset[int]], set[tuple]]:
    """Reference fold: while some vertex has two equally labelled
    half-edges, identify their far ends.

    Returns the partition of the vertices and the folded edge set, each
    edge given as (block of origin, letter, block of terminus).
    """
    block = list(range(g.vertex_count))  # vertex -> block label
    while True:
        far_end: dict[tuple[int, int], int] = {}
        clash = None
        for o, x, t in g.edges:
            for key, far in (((block[o], 2 * x), block[t]), ((block[t], 2 * x + 1), block[o])):
                if far_end.setdefault(key, far) != far:
                    clash = (far_end[key], far)
        if clash is None:
            break
        keep, gone = clash
        block = [keep if b == gone else b for b in block]
    members = {b: frozenset(v for v, c in enumerate(block) if c == b) for b in set(block)}
    edges = {(members[block[o]], x, members[block[t]]) for o, x, t in g.edges}
    return set(members.values()), edges


def isolation_by_word_search(h: SubgroupGraph, depth: int) -> Optional[tuple[Word, int]]:
    """Bounded root search: the first reduced word f of length <= depth
    in shortlex order with f not in H but some power f^m in H, with its
    least such m; None when there is none up to that length."""
    for f in reduced_words(h.alphabet, depth):
        if f.codes and not contains(h, f):
            m = power_in(h, f)
            if m is not None:
                return f, m
    return None


@lru_cache(maxsize=4096)
def _proper_free_factor_by_whitehead(s: SubgroupGraph, h: SubgroupGraph) -> bool:
    return (
        rank(s) < rank(h)
        and canonical_morphism(s.based, h.based) is not None
        and is_free_factor(s, h)
    )


def algebraic_extensions_by_whitehead(k: SubgroupGraph) -> list[SubgroupGraph]:
    """Algebraic extensions of K: the principal quotients in which no
    smaller-rank quotient is a Whitehead-certified free factor."""
    quotients = [pq.graph for pq in principal_quotients(k)]
    return [
        h
        for h in quotients
        if not any(_proper_free_factor_by_whitehead(s, h) for s in quotients)
    ]


def algebraic_extension_by_whitehead(k: SubgroupGraph, h: SubgroupGraph) -> ExtensionVerdict:
    """Classify K <= H: free with the first quotient (in quotient order)
    of smaller rank than H that is a Whitehead-certified free factor of
    H, otherwise algebraic."""
    quotients = principal_quotients(k)
    for pq in quotients:
        if _proper_free_factor_by_whitehead(pq.graph, h):
            return ExtensionVerdict("free", pq.graph, len(quotients))
    return ExtensionVerdict("algebraic", None, len(quotients))


# ---------------------------------------------------------------------------
# unfused constructions and full-product oracles


def components_by_union_find(g: XDigraph) -> list[list[int]]:
    """Vertex lists of the undirected components, each sorted, ordered by
    least vertex; a union-find over the edges, independent of the
    library's component walk."""
    parent = list(range(g.vertex_count))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for o, _, t in g.edges:
        parent[find(o)] = find(t)
    blocks: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        blocks.setdefault(find(v), []).append(v)
    return sorted(blocks.values())


def core_by_leaf_deletion(g: XDigraph, v: int) -> tuple[XDigraph, dict[int, int]]:
    """Core of a folded graph at ``v`` the slow way: keep the component
    of ``v``, then delete one degree-one vertex other than ``v`` at a
    time until there is none.  Survivors keep their relative order."""
    keep = set(next(c for c in components_by_union_find(g) if v in c))
    edges = [e for e in g.edges if e[0] in keep]
    while True:
        deg = {u: 0 for u in keep}
        for o, _, t in edges:
            deg[o] += 1
            deg[t] += 1
        leaf = next((u for u in sorted(keep) if deg[u] == 1 and u != v), None)
        if leaf is None:
            break
        keep.discard(leaf)
        edges = [e for e in edges if leaf not in (e[0], e[2])]
    vmap = {u: i for i, u in enumerate(sorted(keep))}
    return XDigraph(g.alphabet, len(keep), [(vmap[o], x, vmap[t]) for o, x, t in edges]), vmap


def core_order_by_maps(g: XDigraph, v: int) -> list[int]:
    """The vertices of the core at ``v`` of a folded graph in canonical
    order: leaf deletion picks them, and a breadth-first walk from ``v``
    over the step maps of ``step_maps_by_edges``, codes sorted, orders them."""
    keep = core_by_leaf_deletion(g, v)[1]
    steps = step_maps_by_edges(g)
    order = [v]
    for u in order:
        for code in sorted(steps[u]):
            w = steps[u][code]
            if w in keep and w not in order:
                order.append(w)
    return order


def _subgroup_of_core(g: XDigraph, v: int) -> SubgroupGraph:
    cored, vmap = core_by_leaf_deletion(g, v)
    return SubgroupGraph(cored, vmap[v])


def spelled_wedge(alphabet: Alphabet, gens: Sequence[Word]) -> XDigraph:
    """The wedge of loops at vertex 0, one spelling each generator."""
    edges: list[Edge] = []
    n = 1
    for w in gens:
        n = _spell_path(edges, 0, w.codes, n, end=0)
    return XDigraph(alphabet, n, edges)


def stallings_graph_unfused(
    alphabet: Alphabet, gens: Sequence[Word], rng: Optional[Random] = None
) -> SubgroupGraph:
    """fold_all of the spelled wedge, then a separate core, then the
    validating constructor."""
    folded, vmap = fold_all(spelled_wedge(alphabet, gens), rng)
    return _subgroup_of_core(folded, vmap[0])


def parse_word_by_chars(text: str, alphabet: Alphabet) -> Word:
    """parse_word one character at a time, reducing as it reads."""
    stack: list[int] = []
    for pos, ch in enumerate(text):
        code = alphabet._letters.get(ch)
        if code is None:
            if ch.isspace():
                continue
            raise WordParseError(f"unknown character {ch!r}", pos)
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return Word(alphabet, stack)


def conjugate_unfused(g: SubgroupGraph, w: Word) -> SubgroupGraph:
    """w H w^-1: attach a stem spelling the unread head of ``w`` inverted,
    fold, and core at its end, with no shortcut."""
    codes = w.codes
    u, i = g.base, len(codes)
    while i > 0 and g.graph.step(u, codes[i - 1] ^ 1) is not None:
        u = g.graph.step(u, codes[i - 1] ^ 1)
        i -= 1
    edges = list(g.graph.edges)
    n = _spell_path(edges, u, [c ^ 1 for c in reversed(codes[:i])], g.vertex_count)
    folded, vmap = fold_all(XDigraph(g.alphabet, n, edges))
    return _subgroup_of_core(folded, vmap[n - 1 if i else u])


def join_unfused(h: SubgroupGraph, k: SubgroupGraph) -> SubgroupGraph:
    """<H u K>: the wedge of the two graphs at their bases, folded, with
    the unused copy of K's base left isolated for the core to drop."""
    off = h.vertex_count

    def shift(v: int) -> int:
        return h.base if v == k.base else off + v

    edges = list(h.graph.edges) + [(shift(o), x, shift(t)) for o, x, t in k.graph.edges]
    folded, vmap = fold_all(XDigraph(h.alphabet, off + k.vertex_count, edges))
    return _subgroup_of_core(folded, vmap[h.base])


def intersection_by_full_product(h: SubgroupGraph, k: SubgroupGraph) -> SubgroupGraph:
    """H n K as the core of the whole product graph at the base pair."""
    prod = product(h.graph, k.graph, base_pair=(h.base, k.base))
    return _subgroup_of_core(prod.graph, prod.pair_index()[(h.base, k.base)])


def component_analysis_by_full_product(
    h: SubgroupGraph, k: SubgroupGraph
) -> list[ComponentReport]:
    """Every component report, from the whole product, union-find
    components and the full-product intersection as witness check."""
    from freegroups.subgroup import conjugate

    prod = product(h.graph, k.graph, base_pair=(h.base, k.base))
    base_id = prod.pair_index()[(h.base, k.base)]
    tree_h = spanning_tree(h, geodesic=True)
    tree_k = spanning_tree(k, geodesic=True)
    reports = []
    for verts in components_by_union_find(prod.graph):
        renum = {u: i for i, u in enumerate(verts)}
        comp = XDigraph(
            h.alphabet,
            len(verts),
            [(renum[o], x, renum[t]) for o, x, t in prod.graph.edges if o in renum],
        )
        v, u = prod.pairs[verts[0]]
        comp_rank = len(comp.edges) - comp.vertex_count + 1
        witness = None
        if base_id not in renum and comp_rank > 0:
            witness = multiply(tree_k.path_word(u), invert(tree_h.path_word(v)))
            if intersection_by_full_product(conjugate(h, witness), k).is_trivial():
                raise AssertionError("oracle witness must meet K")
        reports.append(ComponentReport(comp, base_id in renum, (v, u), comp_rank, witness))
    return reports


def type_with_anchor_by_degrees(g: BasedGraph) -> TypeGraph:
    """Type graph the slow way: one degree pass over the edges, a walk
    along the stem from the base to the first vertex of degree >= 3, and
    the survivors renumbered in order."""
    graph, base = g.graph, g.base
    deg = graph.degrees()
    if graph.vertex_count == 1 or not graph.edges or deg[base] >= 2:
        return TypeGraph(graph, base, (), tuple(range(graph.vertex_count)))
    steps = step_maps_by_edges(graph)
    stem: list[int] = []
    removed = {base}
    v, back = base, None
    while True:
        (code, w), = [(c, u) for c, u in steps[v].items() if c != back]
        stem.append(code)
        if deg[w] >= 3:
            break
        removed.add(w)
        v, back = w, code ^ 1
    keep = [u for u in range(graph.vertex_count) if u not in removed]
    renum = {u: i for i, u in enumerate(keep)}
    edges = [(renum[o], x, renum[t]) for o, x, t in graph.edges if o in renum and t in renum]
    return TypeGraph(XDigraph(graph.alphabet, len(keep), edges), renum[w], tuple(stem), tuple(keep))


def stem_by_pruning(g: XDigraph, v: int) -> tuple[int, list[int]]:
    """The anchor and stem codes of ``v`` in a folded graph whose
    component of ``v`` has positive rank, the slow way: every leaf, ``v``
    among them, is pruned by degrees, round by round, until none is
    left; the anchor is the first survivor on the tree path from ``v``,
    and the stem is the codes read along that path."""
    alive = set(range(g.vertex_count))
    while True:
        deg: Counter = Counter()
        for o, _, t in g.edges:
            if o in alive and t in alive:
                deg[o] += 1
                deg[t] += 1
        leaves = {u for u in alive if deg[u] == 1}
        if not leaves:
            break
        alive -= leaves
    steps = step_maps_by_edges(g)
    path = {v: []}
    queue = deque([v])
    while True:
        u = queue.popleft()
        if u in alive:
            return u, path[u]
        for code, w in steps[u].items():
            if w not in path:
                path[w] = path[u] + [code]
                queue.append(w)


def cyclic_core_by_degrees(g: SubgroupGraph) -> SubgroupGraph:
    """The cyclic core as the type graph of ``type_with_anchor_by_degrees``,
    based at its anchor."""
    t = type_with_anchor_by_degrees(g.based)
    return SubgroupGraph(t.graph, t.anchor)


@lru_cache(maxsize=None)
def multiplier_moves_by_carriers(alphabet: Alphabet) -> tuple[WhiteheadAuto, ...]:
    """The multiplier moves that act nontrivially, by their carriers:
    per multiplier ``a`` in code order, every nonempty set of the other
    codes but ``a^-1``, counted up as the bits of a mask from 1, joined
    to ``a``; a move that acts like an earlier one is dropped."""
    n = alphabet.num_codes
    out: dict[tuple, WhiteheadAuto] = {}
    for a in range(n):
        rest = [c for c in range(n) if c != a and c != a ^ 1]
        for mask in range(1, 1 << len(rest)):
            carrier = frozenset({a} | {c for j, c in enumerate(rest) if mask >> j & 1})
            auto = _multiplier_auto(alphabet, a, carrier)
            out.setdefault(auto.images, auto)
    return tuple(out.values())


def move_sizes_by_classes(g: SubgroupGraph, stars: list[int]) -> list[int]:
    """Edge count of the cyclic core of each multiplier image of the
    cyclic core ``g``, in ``multiplier_moves_by_carriers`` order, move by move:
    ``#E - #{a-edges}`` plus the vertices, grouped by star, whose star
    meets both the cut ``B = {a} u {x^-1 : x in A, x != a}`` and its
    complement."""
    letters = [0] * g.alphabet.size
    for _, x, _ in g.graph.edges:
        letters[x] += 1
    classes = Counter(stars).items()
    sizes = []
    for auto in multiplier_moves_by_carriers(g.alphabet):
        a = auto.multiplier
        b = 1 << a
        for x in auto.carrier:
            if x != a:
                b |= 1 << (x ^ 1)
        split = sum(n for m, n in classes if 0 != m & b != m)
        sizes.append(g.edge_count - letters[a >> 1] + split)
    return sizes


def transform_by_basis(auto: WhiteheadAuto, g: SubgroupGraph) -> SubgroupGraph:
    """Graph of the image subgroup, folded from the images of a basis."""
    return stallings_graph(g.alphabet, [apply_auto(auto, w) for w in basis(g).elements])


def minimal_cyclic_core_by_enumeration(k: SubgroupGraph) -> tuple[SubgroupGraph, int]:
    """The descent on cyclic cores over the enumerated move family, and
    its number of steps: each step scores every move of
    ``multiplier_moves_by_carriers`` by ``move_sizes_by_classes``, builds
    the image of the first one of least size from a basis, and checks its
    size.  Cyclic cores are cut by ``cyclic_core_by_degrees``."""
    cur = cyclic_core_by_degrees(k)
    moves = multiplier_moves_by_carriers(k.alphabet)
    steps = 0
    while cur.vertex_count > 1:
        sizes = move_sizes_by_classes(cur, _star_masks(cur.graph))
        best = min(range(len(sizes)), key=sizes.__getitem__, default=None)
        if best is None or sizes[best] >= cur.edge_count:
            break
        image = cyclic_core_by_degrees(transform_by_basis(moves[best], cur))
        if image.edge_count != sizes[best]:
            raise AssertionError("a built image differs from its predicted size")
        cur, steps = image, steps + 1
    return cur, steps


def free_factor_by_based_descent(k: SubgroupGraph, plateau_budget: int = 10_000) -> bool:
    """Free factor of the ambient group by Whitehead minimization of the
    based graph: every descent step builds the image of every multiplier
    move and keeps the smallest; a breadth-first sweep of the equal-size
    plateau, keyed by based graphs, looks for a way further down."""
    moves = multiplier_moves_by_carriers(k.alphabet)

    def smallest_image(g: SubgroupGraph) -> Optional[SubgroupGraph]:
        images = [transform_by_basis(auto, g) for auto in moves]
        return min(images, key=lambda h: h.edge_count, default=None)

    def plateau(start: SubgroupGraph) -> Optional[SubgroupGraph]:
        size = start.edge_count
        visited = {start.canonical_key()}
        frontier = deque([start])
        while frontier:
            g = frontier.popleft()
            for auto in moves:
                image = transform_by_basis(auto, g)
                if image.edge_count < size:
                    return image
                if image.edge_count > size or image.canonical_key() in visited:
                    continue
                if len(visited) >= plateau_budget:
                    raise ResourceLimitError("plateau search exceeded its budget")
                visited.add(image.canonical_key())
                frontier.append(image)
        return None

    cur = k
    while cur.vertex_count > 1:
        best = smallest_image(cur)
        if best is None or best.edge_count >= cur.edge_count:
            best = plateau(cur)
            if best is None:
                break
        cur = best
    return cur.vertex_count == 1


def smaller_state_on_plateau(
    start: SubgroupGraph, budget: int = 10_000
) -> Optional[SubgroupGraph]:
    """Breadth-first sweep of the plateau of cyclic cores at the size of
    the cyclic core ``start``: return a strictly smaller cyclic core if
    level multiplier moves lead to one, else None.

    Only moves whose predicted size is at most the plateau's are built,
    and each built image must have its predicted size.  States are
    conjugacy classes, told apart by ``_conjugacy_key``; more than
    ``budget`` of them raise ``ResourceLimitError``.
    """
    size = start.edge_count
    moves = multiplier_moves_by_carriers(start.alphabet)
    visited = {_conjugacy_key(start)}
    frontier = deque([start])
    while frontier:
        g = frontier.popleft()
        predictions = _move_sizes(g, _star_masks(g.graph))
        for auto, predicted in zip(moves, predictions):
            if predicted > size:
                continue
            image = _cyclic_core(transform_subgroup(auto, g))
            if image.edge_count != predicted:
                raise AssertionError("a built plateau image differs from its predicted size")
            if predicted < size:
                return image
            key = _conjugacy_key(image)
            if key in visited:
                continue
            if len(visited) >= budget:
                raise ResourceLimitError(f"plateau sweep exceeded its budget of {budget} states")
            visited.add(key)
            frontier.append(image)
    return None


def _conjugacy_key(g: SubgroupGraph) -> tuple:
    """A key that two cyclic cores share iff they are isomorphic, i.e.
    iff their subgroups are conjugate: the least canonical edge list over
    the base vertices whose star class is the rarest (ties go to the
    smaller mask).  Isomorphisms keep stars, so the choice of bases is
    invariant."""
    stars = _star_masks(g.graph)
    counts = Counter(stars)
    rare = min(counts, key=lambda m: (counts[m], m))
    table, n = g.graph._step_table(), g.vertex_count
    orders = (_core_numbering(table, n, v)[0] for v, m in enumerate(stars) if m == rare)
    return min(
        tuple(sorted((pos[o], x, pos[t]) for o, x, t in g.graph.edges))
        for pos in ({u: i for i, u in enumerate(order)} for order in orders)
    )


def subgroup_from_json_by_passes(text: str) -> SubgroupGraph:
    """The graph-JSON load as separate passes, each with its own checks:
    the record checks, ``XDigraph(...)``'s sort and range check, step
    maps built one half-edge at a time (``step_maps_by_edges``), and
    ``_canonical_core``'s walk on every input; the result is kept as it
    is when that walk numbers it as it is."""
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
    if type(vertices) is not int or type(base) is not int:
        raise InvalidInputError("graph record needs integer 'vertices' and 'base'")
    if not isinstance(raw_edges, list):
        raise InvalidInputError("graph record needs an 'edges' list")
    if isinstance(raw_alph, str):
        raw_alph = tuple(raw_alph)
    elif not (isinstance(raw_alph, list) and all(isinstance(s, str) for s in raw_alph)):
        raise InvalidInputError("graph record needs an 'alphabet' string or list of strings")
    alph = Alphabet(raw_alph)
    edges = []
    for rec in raw_edges:
        if not (isinstance(rec, list) and len(rec) == 3):
            raise InvalidInputError(f"malformed edge record: {rec!r}")
        o, sym, t = rec
        if type(o) is not int or type(t) is not int:
            raise InvalidInputError(f"edge record {rec!r} needs integer endpoints")
        if not isinstance(sym, str) or sym not in alph._index:
            raise InvalidInputError(f"edge label {sym!r} outside alphabet")
        edges.append((o, alph._index[sym], t))
    graph = BasedGraph(XDigraph(alph, vertices, edges), base).graph
    if graph.vertex_count > len(graph.edges) + 1:
        raise InvalidInputError("subgroup graph must be connected")
    table = table_of_maps(step_maps_by_edges(graph), alph.num_codes)
    canon, order = _canonical_core(alph, table, graph.vertex_count, base)
    if len(order) != graph.vertex_count:
        if not graph.is_connected():
            raise InvalidInputError("subgroup graph must be connected")
        raise InvalidInputError("subgroup graph must be a core graph at its base")
    if order != list(range(len(order))):
        return canon
    return SubgroupGraph._from_canonical(
        XDigraph._trusted(alph, len(order), graph.edges, table)
    )
