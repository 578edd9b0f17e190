"""Extension classification: quotients, closures, and isolation.

Every overgroup H >= K that is "algebraic" (admits no decomposition
``K' * C`` with ``K <= K'`` and ``C`` nontrivial) appears among the
principal quotients of the graph of K, so the finitely many quotients
enumerate all algebraic extensions (Miasnikov, Ventura and Weil,
"Algebraic extensions in free groups", 2007).  A quotient is fixed by
its kernel, the partition of the vertices of K that the unique based
map onto it induces, and S <= Q exactly when the kernel of S refines
that of Q.  Each quotient is reached from a finer one by a step that
identifies two classes and folds.  In a folded quotient the pairs
(u, v) and (u.x, v.x) force each other, so the pairs of one component
of its self-product, and their swaps, give one step: the quotient's
steps are enumerated once per swap class.  The steps form a directed
acyclic graph on the quotients, and a step raises the rank by at most
one.
When it raises it by exactly one, the target is generated by a basis
of the source plus one element, so the source is a free factor of the
target.  For S <= Q, S is a free factor of Q exactly when rk Q - rk S
steps lead from S to Q (Puder, Israel J. Math. 201, 2014), that is,
when a chain of steps that each raise the rank by one does.  Free
factors among quotients are read off the step graph this way, with
no Whitehead search.  That classifies any extension and yields the
algebraic closure; with the malnormality test and the exact isolation
test, which searches the transition monoid of the graph, it yields
malnormal closures and isolators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .graph import Morphism, Subgraph, _find, _fold_merges, canonical_morphism
from .intersect import _self_product_classes, is_malnormal
from .subgroup import (
    SubgroupGraph,
    _canonical_core,
    contains,
    power_in,
    rank,
    spanning_tree,
)
from .whitehead import DEFAULT_PLATEAU_BUDGET, is_free_factor_of_ambient
from .words import Word, free_reduce

DEFAULT_QUOTIENT_VERTEX_BOUND = 12
DEFAULT_ISOLATED_STATE_LIMIT = 10**6


@dataclass(frozen=True)
class PrincipalQuotient:
    """A folded core quotient of a subgroup graph, with the epimorphism.

    ``step_sources`` holds the canonical keys of the quotients from
    which one vertex identification, followed by folding, leads to this
    one; over all quotients these steps form a directed acyclic graph.
    """

    graph: SubgroupGraph
    quotient_map: Morphism  # from the source subgroup graph onto `graph`
    step_sources: frozenset[tuple] = frozenset()


def principal_quotients(
    k: SubgroupGraph, max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND
) -> list[PrincipalQuotient]:
    """All based epimorphic images of the graph of K, up to isomorphism.

    K's graph is connected and every image folded, so the based map
    onto an image is unique and the image is fixed by its kernel, a
    tuple giving each vertex of K the least vertex of its class.  Every
    epimorphism onto a folded graph factors through steps that identify
    two classes and fold, so kernels are enumerated from K's by such
    steps: the lattice of principal quotients of Miasnikov, Ventura and
    Weil.  Each kernel's class table is built once and gives its graph
    (images of core graphs stay core) and quotient map.  Identifying a
    pair of classes forces the pairs its common letters lead to, and is
    forced by them, so every pair of one swap class of the quotient's
    self-product gives the same step; the classes are walked once over
    the class table (``intersect._self_product_classes``).  The least
    pair of each class is merged by ``graph._fold_merges``, the merge
    loop of every fold, over a copy of the table, and the roots of its
    forest are the new kernel.  A pair whose stars share no letter is a
    class of its own whose merge forces nothing: its kernel relabels
    the greater class as the lesser, with no fold.  Every step is
    recorded in ``step_sources``.
    Includes the graph of K itself.  Ordered by decreasing vertex count,
    then canonical form.
    """
    if k.vertex_count > max_vertices:
        raise ResourceLimitError(
            f"quotient enumeration is limited to {max_vertices} vertices "
            f"(got {k.vertex_count}); pass max_vertices to override"
        )
    k_table, n, width = k.graph._step_table(), k.vertex_count, k.alphabet.num_codes
    identity = tuple(range(n))
    sources: dict[tuple[int, ...], set[tuple[int, ...]]] = {identity: set()}
    found: dict[tuple[int, ...], tuple[SubgroupGraph, Morphism]] = {}
    stack = [identity]
    while stack:
        kernel = stack.pop()
        table = _class_steps(k_table, kernel)
        graph, order = _canonical_core(k.alphabet, table, n, kernel[k.base])
        classes = sorted(set(kernel))
        if graph.vertex_count != len(classes):
            raise AssertionError("a quotient of a core graph must be core")
        position = {c: i for i, c in enumerate(order)}
        found[kernel] = graph, Morphism(tuple(map(position.__getitem__, kernel)))
        for pairs, edge_count, _ in _self_product_classes(table, width, classes, lone=True):
            a, b = divmod(pairs[0], n)
            if edge_count:
                parent = list(identity)
                _fold_merges(table[:], parent, [(a, b)])  # the merge loop writes into the rows
                merged = tuple([_find(parent, c) for c in kernel])
            else:  # the stars of a and b share no letter, so the merge forces nothing
                merged = tuple([a if c == b else c for c in kernel])
            if merged not in sources:
                stack.append(merged)
            sources.setdefault(merged, set()).add(kernel)
    quotients = [
        PrincipalQuotient(g, qmap, frozenset(found[s][0].canonical_key() for s in sources[kernel]))
        for kernel, (g, qmap) in found.items()
    ]
    return sorted(quotients, key=lambda pq: (-pq.graph.vertex_count, pq.graph.canonical_key()))


def _kernel(vertex_map: Sequence[int]) -> tuple[int, ...]:
    """The partition a vertex map induces on its domain: each vertex
    goes to the least vertex with the same image."""
    least: dict[int, int] = {}
    return tuple(least.setdefault(w, v) for v, w in enumerate(vertex_map))


def _class_steps(table: list[int], kernel: tuple[int, ...]) -> list[int]:
    """Step table of the quotient with this kernel, a row per vertex of
    K: the row of a class sits at its least vertex, the others are empty."""
    width = len(table) // len(kernel)
    out = [-1] * len(table)
    for v, c in enumerate(kernel):
        at = c * width
        for code, w in enumerate(table[v * width:v * width + width]):
            if w >= 0:
                out[at + code] = kernel[w]
    return out


def _refines(finer: Morphism, coarser: Morphism) -> bool:
    """True iff every class of ``finer`` lies in a class of ``coarser``;
    for the quotient maps of S and Q, iff S <= Q."""
    image: dict[int, int] = {}
    return all(
        image.setdefault(s, q) == q for s, q in zip(finer.vertex_map, coarser.vertex_map)
    )


def _free_factor_keys(
    target: PrincipalQuotient, by_key: dict[tuple, PrincipalQuotient]
) -> set[tuple]:
    """Canonical keys of the quotients that are free factors of
    ``target``: those from which a chain of steps, each raising the rank
    by one, leads to it (``target`` included)."""
    found = {target.graph.canonical_key()}
    stack = [target]
    while stack:
        pq = stack.pop()
        r = rank(pq.graph)
        for key in pq.step_sources:
            src = by_key[key]
            if key not in found and rank(src.graph) == r - 1:
                found.add(key)
                stack.append(src)
    return found


def relative_image(k: SubgroupGraph, h: SubgroupGraph) -> Subgraph:
    """The image of the graph of K inside the graph of H, for K <= H.

    Equals the union of the images of the base loops reading K's
    generators; it is folded, connected and core with respect to the
    base of H.  Returned in H's vertex numbering.
    """
    morphism = canonical_morphism(k.based, h.based)
    if morphism is None:
        raise InvalidInputError("relative_image needs K to be a subgroup of H")
    vertices = tuple(sorted(set(morphism.vertex_map)))
    edges = tuple(
        sorted({(morphism(o), x, morphism(t)) for o, x, t in k.graph.edges})
    )
    return Subgraph(vertices, edges)


@dataclass(frozen=True)
class ExtensionVerdict:
    """Outcome of classifying an extension K <= H.

    For a free extension, ``free_factor`` is a proper free factor of H
    that contains K (its complement has rank >= 1).  For an algebraic
    one, ``quotients_checked`` records the exhausted candidate list.
    """

    kind: str  # "algebraic" or "free"
    free_factor: Optional[SubgroupGraph] = None
    quotients_checked: int = 0

    @property
    def is_algebraic(self) -> bool:
        return self.kind == "algebraic"


def is_algebraic_extension(
    k: SubgroupGraph,
    h: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> ExtensionVerdict:
    """Classify the extension K <= H as algebraic or free.

    The extension is free iff some principal quotient Q of the graph of
    K lands in H as a proper free factor, so Q has smaller rank than H.
    The image D of the graph of K in the graph of H is itself a
    quotient, the one whose kernel the map K -> H induces; its subgroup
    is a free factor of H, and Q <= H exactly when Q maps onto D.  So Q
    is a free factor of H iff it is a free factor of D, which the step
    graph of the quotients decides.
    Candidates are tried in quotient order and the first free factor is
    returned.  ``plateau_budget`` is accepted for compatibility and has
    no effect.
    """
    morphism = canonical_morphism(k.based, h.based)
    if morphism is None:
        raise InvalidInputError("is_algebraic_extension needs K to be a subgroup of H")
    quotients = principal_quotients(k, max_vertices)
    by_key = {pq.graph.canonical_key(): pq for pq in quotients}
    image = _kernel(morphism.vertex_map)
    delta = next(pq for pq in quotients if _kernel(pq.quotient_map.vertex_map) == image)
    factors = _free_factor_keys(delta, by_key)
    rh = rank(h)
    for pq in quotients:
        if rank(pq.graph) < rh and pq.graph.canonical_key() in factors:
            return ExtensionVerdict("free", pq.graph, len(quotients))
    return ExtensionVerdict("algebraic", None, len(quotients))


def algebraic_extensions(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> list[SubgroupGraph]:
    """All algebraic extensions of K, in quotient order (K first).

    Complete because every algebraic extension is a principal quotient.
    A quotient H has a proper free factor among the quotients iff one
    step into H raises the rank by one (the last step of a chain of
    such steps), so H is algebraic over K iff no step into it does.
    ``plateau_budget`` is accepted for compatibility and has no effect.
    """
    return [pq.graph for pq in _algebraic_quotients(k, max_vertices)]


def _algebraic_quotients(k: SubgroupGraph, max_vertices: int) -> list[PrincipalQuotient]:
    """The principal quotients that are algebraic extensions of K."""
    quotients = principal_quotients(k, max_vertices)
    ranks = {pq.graph.canonical_key(): rank(pq.graph) for pq in quotients}
    return [
        pq for pq in quotients if all(ranks[s] != rank(pq.graph) - 1 for s in pq.step_sources)
    ]


def algebraic_closure(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> SubgroupGraph:
    """The largest algebraic extension of K; well defined because the
    join of two algebraic extensions is again algebraic.
    ``plateau_budget`` has no effect."""
    exts = _algebraic_quotients(k, max_vertices)
    for h in exts:
        if all(_refines(e.quotient_map, h.quotient_map) for e in exts):
            return h.graph
    raise AssertionError("algebraic extensions must contain a maximum")


def is_algebraically_closed(
    k: SubgroupGraph, plateau_budget: int = DEFAULT_PLATEAU_BUDGET
) -> bool:
    """K equals its own algebraic closure iff it is a free factor of the
    ambient free group; delegated to the ambient free-factor test.
    ``plateau_budget`` has no effect."""
    return is_free_factor_of_ambient(k)


class IsolationResult(NamedTuple):
    """Outcome of the isolation test.

    The test is exact, so ``complete`` is always True: either a
    verified witness was found, or the whole transition monoid was
    searched.  The field is kept so callers can keep checking it.
    """

    isolated: bool
    witness: Optional[tuple[Word, int]]
    complete: bool


def isolation_length_bound(h: SubgroupGraph) -> int:
    """The paper's length bound for root candidates: with n letters and
    k vertices, ``[(2n)^k k^(2k) + 1](k+1) + 2k``.  The isolation test
    itself does not enumerate words and does not use it."""
    n = h.alphabet.size
    k = h.vertex_count
    return ((2 * n) ** k * k ** (2 * k) + 1) * (k + 1) + 2 * k


def is_isolated(
    h: SubgroupGraph,
    depth_override: Optional[int] = None,
    state_limit: int = DEFAULT_ISOLATED_STATE_LIMIT,
) -> IsolationResult:
    """Decide whether H is isolated: no f outside H has a power in H.

    Each word d acts on the vertices of the graph as a partial
    injection; these form the transition monoid, searched breadth-first
    from the identity by appending one signed letter at a time in code
    order.  H is not isolated iff some element d moves a vertex u0
    around a cycle of length m >= 2.  Then, with c the geodesic-tree
    path to u0, f = c d c^-1 is a witness: f^m reads a loop at the
    base, and in an X-regular completion of the graph, where words act
    as permutations, no smaller positive power of f fixes the base.
    Conversely, if f is not in H but f^m is, write f = c d c^-1 with d
    cyclically reduced; d^m reads a loop at the end u0 of c, and d
    moves u0, so u0 lies on a cycle of length >= 2.  An exhausted
    monoid therefore proves isolation.  The witness is checked against
    ``contains`` and ``power_in`` before it is returned.

    Deciding isolation is PSPACE-complete in general, so the number of
    monoid elements is capped at ``state_limit``; exceeding it raises a
    resource-limit error.  ``depth_override`` is accepted for
    compatibility and has no effect.
    """
    n, width = h.vertex_count, h.alphabet.num_codes
    table = h.graph._step_table()
    # vertex n is a sink standing for "undefined", so that a partial
    # injection of the vertices becomes a total map on n + 1 points
    moves = [
        tuple(n if w < 0 else w for w in table[code::width]) + (n,)
        for code in range(width)
    ]
    identity = tuple(range(n + 1))
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {identity: (identity, -1)}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for code, move in enumerate(moves):
            q = tuple([move[x] for x in p])
            if q in parent:
                continue
            if len(parent) >= state_limit:
                raise ResourceLimitError(
                    f"isolation test explored {len(parent)} transition-monoid "
                    f"elements of a graph with {n} vertices and reached its "
                    f"state limit of {state_limit}; pass state_limit to raise it"
                )
            parent[q] = (p, code)
            cycle = _first_cycle(q, n)
            if cycle is not None:
                return _isolation_witness(h, q, parent, *cycle)
            queue.append(q)
    return IsolationResult(True, None, True)


def _first_cycle(p: tuple[int, ...], n: int) -> Optional[tuple[int, int]]:
    """Least vertex on a cycle of length >= 2 of the map ``p``, with the
    cycle length.  Every orbit of a partial injection is a chain ending
    in the sink ``n`` or a cycle, so each vertex is walked once."""
    seen = [False] * n
    for v in range(n):
        if seen[v]:
            continue
        length, w = 1, p[v]
        while w != v and w != n and not seen[w]:
            seen[w] = True
            length, w = length + 1, p[w]
        seen[v] = True
        if w == v and length >= 2:
            return v, length
    return None


def _isolation_witness(
    h: SubgroupGraph,
    q: tuple[int, ...],
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int]],
    u0: int,
    m: int,
) -> IsolationResult:
    """Verified witness f = c d c^-1 with power m, where d is the word
    that reached ``q`` (read off the parents) and c the tree path to u0."""
    d: list[int] = []
    while parent[q][1] >= 0:
        q, code = parent[q]
        d.append(code)
    c = spanning_tree(h, geodesic=True).path_codes(u0)
    f = free_reduce(h.alphabet, c + tuple(reversed(d)) + tuple(x ^ 1 for x in reversed(c)))
    if contains(h, f) or power_in(h, f) != m:
        raise AssertionError("an isolation witness must be a root outside H of least power m")
    return IsolationResult(False, (f, m), True)


def _least_extension(
    k: SubgroupGraph, max_vertices: int, keep: Callable[[SubgroupGraph], bool], name: str, kind: str
) -> SubgroupGraph:
    """Unique minimal member, under refinement, of the algebraic extensions
    of K whose graphs ``keep`` accepts; ``name`` is the caller's, for the
    error on a trivial K, and ``kind`` names the property in the checks."""
    if k.is_trivial():
        raise InvalidInputError(f"{name} is defined for nontrivial subgroups")
    found = [e for e in _algebraic_quotients(k, max_vertices) if keep(e.graph)]
    for m in found:
        if all(_refines(m.quotient_map, e.quotient_map) for e in found):
            if any(e != m and _refines(e.quotient_map, m.quotient_map) for e in found):
                raise AssertionError(f"{kind} closure must be unique")
            if rank(m.graph) > rank(k):
                raise AssertionError("a closure never has larger rank than K")
            return m.graph
    raise AssertionError(f"{kind} extensions must contain a minimum")


def malnormal_closure(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> SubgroupGraph:
    """Smallest malnormal subgroup containing K: the unique minimal
    malnormal member of the algebraic extensions (``_least_extension``).
    Its rank never exceeds the rank of K.  ``plateau_budget`` has no effect."""
    return _least_extension(
        k, max_vertices, lambda g: is_malnormal(g)[0], "malnormal closure", "malnormal")


def isolator(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
    depth_override: Optional[int] = None,
    state_limit: int = DEFAULT_ISOLATED_STATE_LIMIT,
) -> SubgroupGraph:
    """Smallest isolated subgroup containing K: the unique minimal
    isolated member of the algebraic extensions (``_least_extension``).

    Malnormal extensions are isolated outright, so the transition-monoid
    test only runs on the rest, under ``state_limit``.
    ``plateau_budget`` and ``depth_override`` have no effect.
    """
    def isolated(g: SubgroupGraph) -> bool:
        return is_malnormal(g)[0] or is_isolated(g, depth_override, state_limit).isolated

    return _least_extension(k, max_vertices, isolated, "isolator", "isolated")
