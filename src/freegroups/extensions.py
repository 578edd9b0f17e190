"""Extension classification: quotients, closures, and isolation.

Every overgroup H >= K that is "algebraic" (admits no decomposition
``K' * C`` with ``K <= K'`` and ``C`` nontrivial) appears among the
principal quotients of the graph of K, so the finitely many quotients
enumerate all algebraic extensions.  Filtering them with the
free-factor test classifies any extension, yields the algebraic
closure, and combined with the malnormality and isolation tests yields
malnormal closures and isolators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import InvalidInputError, ResourceLimitError
from .graph import Morphism, Subgraph, XDigraph, canonical_morphism, fold_all, transport
from .intersect import is_malnormal
from .subgroup import SubgroupGraph, contains, power_in, rank
from .whitehead import DEFAULT_PLATEAU_BUDGET, is_free_factor, is_free_factor_of_ambient
from .words import Word, reduced_words

DEFAULT_QUOTIENT_VERTEX_BOUND = 12
DEFAULT_ISOLATED_STATE_LIMIT = 10**6


@dataclass(frozen=True)
class PrincipalQuotient:
    """A folded core quotient of a subgroup graph, with the epimorphism."""

    graph: SubgroupGraph
    quotient_map: Morphism  # from the source subgroup graph onto `graph`


def principal_quotients(
    k: SubgroupGraph, max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND
) -> list[PrincipalQuotient]:
    """All based epimorphic images of the graph of K, up to isomorphism.

    Enumerated by breadth-first search over single vertex-pair
    identifications followed by complete folding; every epimorphism
    onto a folded graph factors through such steps, and images of core
    graphs stay core, so this generates exactly the quotient set while
    pruning isomorphic duplicates early.  Includes the graph of K
    itself.  Ordered by decreasing vertex count, then canonical form.
    """
    if k.vertex_count > max_vertices:
        raise ResourceLimitError(
            f"quotient enumeration is limited to {max_vertices} vertices "
            f"(got {k.vertex_count}); pass max_vertices to override"
        )
    identity = Morphism(tuple(range(k.vertex_count)))
    found: dict[tuple, PrincipalQuotient] = {
        k.canonical_key(): PrincipalQuotient(k, identity)
    }
    frontier = [found[k.canonical_key()]]
    while frontier:
        pq = frontier.pop()
        g = pq.graph.graph
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                quotient = _identify_and_fold(pq.graph, u, v, pq.quotient_map)
                key = quotient.graph.canonical_key()
                if key not in found:
                    found[key] = quotient
                    frontier.append(quotient)
    return sorted(
        found.values(),
        key=lambda pq: (-pq.graph.vertex_count, pq.graph.canonical_key()),
    )


def _identify_and_fold(
    sub: SubgroupGraph, u: int, v: int, prior: Morphism
) -> PrincipalQuotient:
    """Identify vertices u and v, fold to completion, recanonicalize."""
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
    renumber = transport(folded, base, quotient.graph, quotient.base)
    if renumber is None:
        raise AssertionError("a quotient must map onto its canonical form")
    vertex_map = tuple(
        renumber[fmap[squash(prior(w))]] for w in range(len(prior.vertex_map))
    )
    return PrincipalQuotient(quotient, Morphism(vertex_map))


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

    The extension is free iff some principal quotient of the graph of K
    lands in H as a proper free factor; a proper free factor must have
    strictly smaller rank, so candidates are prefiltered by rank and by
    the existence of a morphism into the graph of H.
    """
    if canonical_morphism(k.based, h.based) is None:
        raise InvalidInputError("is_algebraic_extension needs K to be a subgroup of H")
    quotients = principal_quotients(k, max_vertices)
    rh = rank(h)
    for pq in quotients:
        candidate = pq.graph
        if rank(candidate) >= rh:
            continue
        if canonical_morphism(candidate.based, h.based) is None:
            continue
        if is_free_factor(candidate, h, plateau_budget):
            return ExtensionVerdict("free", candidate, len(quotients))
    return ExtensionVerdict("algebraic", None, len(quotients))


def algebraic_extensions(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> list[SubgroupGraph]:
    """All algebraic extensions of K, in quotient order (K first).

    Complete because every algebraic extension is a principal quotient;
    the free ones are recognized by exhibiting a smaller-rank quotient
    that is a proper free factor, with results memoized across the
    candidate pairs.
    """
    quotients = [pq.graph for pq in principal_quotients(k, max_vertices)]
    memo: dict[tuple[tuple, tuple], bool] = {}

    def free_factor(a: SubgroupGraph, b: SubgroupGraph) -> bool:
        key = (a.canonical_key(), b.canonical_key())
        if key not in memo:
            memo[key] = is_free_factor(a, b, plateau_budget)
        return memo[key]

    out = []
    for h in quotients:
        rh = rank(h)
        free = any(
            rank(s) < rh
            and canonical_morphism(s.based, h.based) is not None
            and free_factor(s, h)
            for s in quotients
        )
        if not free:
            out.append(h)
    return out


def algebraic_closure(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> SubgroupGraph:
    """The largest algebraic extension of K; well defined because the
    join of two algebraic extensions is again algebraic."""
    exts = algebraic_extensions(k, max_vertices, plateau_budget)
    for h in exts:
        if all(canonical_morphism(e.based, h.based) is not None for e in exts):
            return h
    raise AssertionError("algebraic extensions must contain a maximum")


def is_algebraically_closed(
    k: SubgroupGraph, plateau_budget: int = DEFAULT_PLATEAU_BUDGET
) -> bool:
    """K equals its own algebraic closure iff it is a free factor of the
    ambient free group; delegated to the ambient free-factor test."""
    return is_free_factor_of_ambient(k, plateau_budget)


class IsolationResult(NamedTuple):
    """Outcome of the isolation search.

    ``complete`` is True when the verdict is unconditional: either a
    verified witness was found, or every candidate up to the full
    length bound was exhausted.  A bounded search that found nothing is
    reported with ``complete=False``, never silently upgraded.
    """

    isolated: bool
    witness: Optional[tuple[Word, int]]
    complete: bool


def isolation_length_bound(h: SubgroupGraph) -> int:
    """Length bound for root candidates: with n letters and k vertices,
    ``[(2n)^k k^(2k) + 1](k+1) + 2k``."""
    n = h.alphabet.size
    k = h.vertex_count
    return ((2 * n) ** k * k ** (2 * k) + 1) * (k + 1) + 2 * k


def is_isolated(
    h: SubgroupGraph,
    depth_override: Optional[int] = None,
    state_limit: int = DEFAULT_ISOLATED_STATE_LIMIT,
) -> IsolationResult:
    """Search for a root outside H: f with f not in H but f^m in H.

    Candidates f run through all reduced words up to the length bound
    (or ``depth_override``), powers through ``2 <= m <= #V``; larger
    powers reduce to this range.  A single-vertex graph is a sub-rose,
    hence a free factor of the ambient group, hence isolated with no
    search at all.  Without an override, exceeding ``state_limit``
    examined candidates raises a resource-limit error naming the bound.
    """
    if h.vertex_count == 1 or h.alphabet.size == 0:
        return IsolationResult(True, None, True)
    bound = isolation_length_bound(h)
    depth = bound if depth_override is None else depth_override
    examined = 0
    for f in reduced_words(h.alphabet, depth):
        if not f.codes:
            continue
        if depth_override is None:
            examined += 1
            if examined > state_limit:
                raise ResourceLimitError(
                    f"isolation search needs words up to length {bound} "
                    f"which exceeds the state limit of {state_limit}; "
                    "pass depth_override to run a bounded search"
                )
        if contains(h, f):
            continue
        m = power_in(h, f)
        if m is not None:
            if m < 2 or not contains(h, f**m):
                raise AssertionError("isolation witness must have a proper power in H")
            return IsolationResult(False, (f, m), True)
    return IsolationResult(True, None, depth >= bound)


def _closure_among(
    k: SubgroupGraph,
    candidates: list[SubgroupGraph],
    kind: str,
) -> SubgroupGraph:
    """Unique minimal member of a nonempty extension subset."""
    for m in candidates:
        if all(canonical_morphism(m.based, e.based) is not None for e in candidates):
            below = [
                e
                for e in candidates
                if e != m and canonical_morphism(e.based, m.based) is not None
            ]
            if below:
                raise AssertionError(f"{kind} closure must be unique")
            return m
    raise AssertionError(f"{kind} extensions must contain a minimum")


def malnormal_closure(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> SubgroupGraph:
    """Smallest malnormal subgroup containing K: the unique minimal
    malnormal member of the algebraic extensions.  Its rank never
    exceeds the rank of K."""
    if k.is_trivial():
        raise InvalidInputError("malnormal closure is defined for nontrivial subgroups")
    exts = algebraic_extensions(k, max_vertices, plateau_budget)
    mal = [e for e in exts if is_malnormal(e)[0]]
    result = _closure_among(k, mal, "malnormal")
    if rank(result) > rank(k):
        raise AssertionError("a closure never has larger rank than K")
    return result


def isolator(
    k: SubgroupGraph,
    max_vertices: int = DEFAULT_QUOTIENT_VERTEX_BOUND,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
    depth_override: Optional[int] = None,
    state_limit: int = DEFAULT_ISOLATED_STATE_LIMIT,
) -> SubgroupGraph:
    """Smallest isolated subgroup containing K: the unique minimal
    isolated member of the algebraic extensions.

    Malnormal extensions are isolated outright, so the expensive
    isolation search only runs on the rest; its bounds propagate.
    """
    if k.is_trivial():
        raise InvalidInputError("isolator is defined for nontrivial subgroups")
    exts = algebraic_extensions(k, max_vertices, plateau_budget)
    iso = [
        e
        for e in exts
        if is_malnormal(e)[0]
        or is_isolated(e, depth_override, state_limit).isolated
    ]
    result = _closure_among(k, iso, "isolated")
    if rank(result) > rank(k):
        raise AssertionError("a closure never has larger rank than K")
    return result
