"""Intersections via product graphs, and the properties they decide.

The product of two subgroup graphs recognizes the intersection at the
base pair; the remaining components describe intersections of
conjugates, one double coset per component.  The intersection walks
only the base component, over the step maps of both graphs; the other
questions stream the components of the full product.  This yields
intersection computation, malnormality and cyclonormality tests, the
immersion criterion, and the rank inequality probe for intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import AlphabetMismatchError, InvalidInputError
from .graph import XDigraph, _components, product
from .subgroup import (
    SubgroupGraph,
    _canonical_core,
    conjugate,
    contains,
    rank,
    spanning_tree,
)
from .words import Word, invert, multiply


def intersection(h: SubgroupGraph, k: SubgroupGraph) -> SubgroupGraph:
    """Canonical graph of H n K: core of the base-pair component of the
    product graph.  Always finite (Howson property).

    The component is reached by a breadth-first walk from the base pair
    over the step maps of both graphs, so no other part of the product
    is built; it is folded by construction, and the walk checks that
    every step it records is undone by the inverse code.  The core is
    then cut and renumbered in one more walk.
    """
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    h_steps, k_steps = h.graph.step_maps(), k.graph.step_maps()
    pairs = [(h.base, k.base)]
    index = {pairs[0]: 0}
    steps: list[dict[int, int]] = []
    for v, u in pairs:
        at_k = k_steps[u]
        here: dict[int, int] = {}
        for code, v2 in h_steps[v].items():
            u2 = at_k.get(code)
            if u2 is None:
                continue
            if h_steps[v2].get(code ^ 1) != v or k_steps[u2].get(code ^ 1) != u:
                raise AssertionError("a product of folded graphs must be folded")
            j = index.get((v2, u2))
            if j is None:
                j = index[(v2, u2)] = len(pairs)
                pairs.append((v2, u2))
            here[code] = j
        steps.append(here)
    return _canonical_core(h.alphabet, steps, 0)[0]


@dataclass(frozen=True)
class ComponentReport:
    """One connected component of a product graph.

    ``rank`` is #E - #V + 1 of the component, which equals the rank of
    its core at any vertex.  For a component away from the base pair
    with positive rank, ``double_coset_witness`` is a verified g with
    ``g H g^-1 n K`` nontrivial and g outside the base double coset.
    """

    component: XDigraph
    contains_base_pair: bool
    representative_vertex: tuple[int, int]
    rank: int
    double_coset_witness: Optional[Word]


def component_analysis(h: SubgroupGraph, k: SubgroupGraph) -> list[ComponentReport]:
    """Reports for every component of the product of the two graphs.

    The components are streamed in order of least product vertex from
    one pass over the product.  Witnesses are ``g = tau * sigma^-1``
    built from geodesic tree paths to the representative pair, kept
    short on purpose, and each is verified by intersecting the
    conjugate before it is reported.
    """
    return list(_reports(h, k))


def _reports(h: SubgroupGraph, k: SubgroupGraph) -> Iterator[ComponentReport]:
    """The reports of ``component_analysis``, one component at a time,
    so that a caller can stop at the first one it needs."""
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    prod = product(h.graph, k.graph, base_pair=(h.base, k.base))
    base_id = prod.pair_index()[(h.base, k.base)]
    tree_h = spanning_tree(h, geodesic=True)
    tree_k = spanning_tree(k, geodesic=True)
    # A component with edges away from the base pair is exactly the
    # obstruction to <g H g^-1, K> being a free product: its loops are
    # nontrivial elements of a conjugate intersection.  Conversely a g
    # whose conjugate meets K nontrivially always lights up such a
    # component, so no separate free-product criterion is exposed.
    for comp in _components(prod.graph):
        has_base = base_id in comp.vertices
        v, u = prod.pairs[comp.vertices[0]]
        comp_rank = len(comp.graph.edges) - comp.graph.vertex_count + 1
        witness = None
        if not has_base and comp_rank > 0:
            sigma = tree_h.path_word(v)
            tau = tree_k.path_word(u)
            witness = multiply(tau, invert(sigma))
            if intersection(conjugate(h, witness), k).is_trivial():
                raise AssertionError("witness must realize a nontrivial conjugate intersection")
        yield ComponentReport(comp.graph, has_base, (v, u), comp_rank, witness)


def is_malnormal(h: SubgroupGraph) -> tuple[bool, Optional[Word]]:
    """Tree criterion: malnormal iff every component of the self-product
    away from the base pair is a tree (rank 0).

    The components are streamed and the test stops at the first one of
    positive rank away from the base pair.  Only the witness returned
    is built and verified: a g with g not in H and ``g H g^-1 n H``
    nontrivial.
    """
    for report in _reports(h, h):
        if not report.contains_base_pair and report.rank > 0:
            g = report.double_coset_witness
            if g is None or contains(h, g):
                raise AssertionError("malnormality witness must lie outside H")
            return False, g
    return True, None


def is_cyclonormal(h: SubgroupGraph) -> bool:
    """True iff every non-base component of the self-product has rank <= 1,
    i.e. all conjugate intersections over nontrivial double cosets are cyclic.

    Reads only ``#E - #V + 1`` of each streamed component, builds no
    witness, and stops at the first component of rank >= 2 away from
    the base pair.
    """
    prod = product(h.graph, h.graph, base_pair=(h.base, h.base))
    base_id = prod.pair_index()[(h.base, h.base)]
    return all(
        base_id in comp.vertices or len(comp.graph.edges) - len(comp.vertices) + 1 <= 1
        for comp in _components(prod.graph)
    )


def is_immersed(gens: Sequence[Word]) -> bool:
    """No-cancellation criterion on a generating tuple.

    True iff every product of two generators or inverses (other than a
    factor against its own inverse) is as long as the factors combined;
    equivalently, the wedge of loops spelling the tuple is already
    folded.  Generators must be nontrivial.
    """
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
