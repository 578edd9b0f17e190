"""Intersections via product graphs, and the properties they decide.

The product of two subgroup graphs recognizes the intersection at the
base pair; the remaining components describe intersections of
conjugates, one double coset per component.  This yields intersection
computation, malnormality and cyclonormality tests, the immersion
criterion, and the rank inequality probe for intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AlphabetMismatchError, InvalidInputError
from .graph import XDigraph, connected_components, core, product
from .subgroup import (
    SubgroupGraph,
    conjugate,
    contains,
    rank,
    spanning_tree,
)
from .words import Word, invert, multiply


def intersection(h: SubgroupGraph, k: SubgroupGraph) -> SubgroupGraph:
    """Canonical graph of H n K: core of the base-pair component of the
    product graph.  Always finite (Howson property)."""
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups use different alphabets")
    prod = product(h.graph, k.graph, base_pair=(h.base, k.base))
    base = prod.pair_index()[(h.base, k.base)]
    cored, cmap = core(prod.graph, base)
    return SubgroupGraph(cored, cmap[base])


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

    Witnesses are ``g = tau * sigma^-1`` built from geodesic tree paths
    to the representative pair, kept short on purpose, and are verified
    by intersecting the conjugate before being reported.
    """
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
    reports = []
    for comp in connected_components(prod.graph):
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
        reports.append(
            ComponentReport(comp.graph, has_base, (v, u), comp_rank, witness)
        )
    return reports


def is_malnormal(h: SubgroupGraph) -> tuple[bool, Optional[Word]]:
    """Tree criterion: malnormal iff every component of the self-product
    away from the base pair is a tree (rank 0).

    On failure returns a verified witness g with g not in H and
    ``g H g^-1 n H`` nontrivial.
    """
    for report in component_analysis(h, h):
        if not report.contains_base_pair and report.rank > 0:
            g = report.double_coset_witness
            if g is None or contains(h, g):
                raise AssertionError("malnormality witness must lie outside H")
            return False, g
    return True, None


def is_cyclonormal(h: SubgroupGraph) -> bool:
    """True iff every non-base component of the self-product has rank <= 1,
    i.e. all conjugate intersections over nontrivial double cosets are cyclic."""
    return all(
        report.contains_base_pair or report.rank <= 1
        for report in component_analysis(h, h)
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
