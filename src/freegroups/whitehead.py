"""Whitehead automorphisms and free-factor detection.

The free-factor test drives the classification of extensions: a
subgroup K is a free factor of the ambient free group iff some
automorphism carries it onto a subgroup generated by part of the
letter set, i.e. onto a sub-rose.  Since rank is preserved and
``#E = #V + rk - 1`` for core graphs, minimizing the edge count of the
subgroup graph over the automorphism orbit is the whole story: the
minimum is ``rk(K)`` exactly when K is a free factor.

Minimization uses the classical finite family of Whitehead moves:
greedy descent on the edge count (peak reduction guarantees descent
reaches the orbit minimum), then an exhaustive breadth-first sweep of
the equal-size plateau as a safety net for level moves, bounded by a
configurable state budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .graph import canonical_morphism
from .subgroup import SubgroupGraph, basis, rank, rebase_inside, stallings_graph
from .words import Alphabet, Word, free_reduce

DEFAULT_PLATEAU_BUDGET = 10_000


@dataclass(frozen=True)
class WhiteheadAuto:
    """An elementary automorphism of F(X).

    Either a permutation-inversion (a bijection of the signed letters
    commuting with inversion) or a multiplier: a letter ``a`` together
    with a carrier ``A`` containing ``a`` but not ``a^-1``; letters
    outside ``{a, a^-1}`` pick up an ``a`` on the sides recorded by the
    carrier, ``x -> a^[x^-1 in A] x a^-[x in A]``.
    """

    alphabet: Alphabet
    kind: str  # "permutation" or "multiplier"
    images: tuple[tuple[int, ...], ...]  # image codes per positive letter
    multiplier: Optional[int] = None
    carrier: Optional[frozenset[int]] = field(default=None, hash=False, compare=False)

    def __call__(self, w: Word) -> Word:
        return apply_auto(self, w)

    def is_identity(self) -> bool:
        return all(img == (2 * i,) for i, img in enumerate(self.images))

    def inverse(self) -> "WhiteheadAuto":
        if self.kind == "permutation":
            images: list[tuple[int, ...]] = [()] * self.alphabet.size
            for i, (code,) in enumerate(self.images):
                if code & 1 == 0:
                    images[code >> 1] = (2 * i,)
                else:
                    images[code >> 1] = (2 * i + 1,)
            return WhiteheadAuto(self.alphabet, "permutation", tuple(images))
        if self.multiplier is None or self.carrier is None:
            raise AssertionError("a multiplier automorphism needs its multiplier and carrier")
        a = self.multiplier
        carrier = frozenset(
            {a ^ 1} | {x for x in self.carrier if x != self.multiplier}
        )
        return _multiplier_auto(self.alphabet, a ^ 1, carrier)


def _multiplier_auto(alphabet: Alphabet, a: int, carrier: frozenset[int]) -> WhiteheadAuto:
    if a not in carrier or a ^ 1 in carrier:
        raise InvalidInputError("carrier must contain the multiplier but not its inverse")
    images = []
    for i in range(alphabet.size):
        x = 2 * i
        if x == a or x == a ^ 1:
            images.append((x,))
            continue
        img: tuple[int, ...] = (x,)
        if x ^ 1 in carrier:
            img = (a,) + img
        if x in carrier:
            img = img + (a ^ 1,)
        images.append(img)
    return WhiteheadAuto(alphabet, "multiplier", tuple(images), a, carrier)


@lru_cache(maxsize=64)
def enumerate_whitehead(alphabet: Alphabet) -> tuple[WhiteheadAuto, ...]:
    """The finite Whitehead family: all letter permutation-inversions
    plus all valid multipliers (A, a), deduplicated by action."""
    n = alphabet.size
    autos: dict[tuple, WhiteheadAuto] = {}

    for perm in permutations(range(n)):
        for signs in range(1 << n):
            images = tuple(
                (2 * perm[i] + ((signs >> i) & 1),) for i in range(n)
            )
            autos.setdefault(images, WhiteheadAuto(alphabet, "permutation", images))

    for auto in _multiplier_moves(alphabet):
        autos.setdefault(auto.images, auto)

    return tuple(autos.values())


@lru_cache(maxsize=64)
def _multiplier_moves(alphabet: Alphabet) -> tuple[WhiteheadAuto, ...]:
    """All multiplier automorphisms that act nontrivially."""
    n = alphabet.size
    out: dict[tuple, WhiteheadAuto] = {}
    for a in range(2 * n):
        rest = [c for c in range(2 * n) if c != a and c != a ^ 1]
        for mask in range(1, 1 << len(rest)):
            carrier = frozenset(
                {a} | {c for j, c in enumerate(rest) if (mask >> j) & 1}
            )
            auto = _multiplier_auto(alphabet, a, carrier)
            out.setdefault(auto.images, auto)
    return tuple(out.values())


def apply_auto(auto: WhiteheadAuto, w: Word) -> Word:
    """Letter-wise substitution followed by free reduction."""
    if w.alphabet != auto.alphabet:
        raise InvalidInputError("automorphism and word use different alphabets")
    out: list[int] = []
    for code in w.codes:
        img = auto.images[code >> 1]
        if code & 1:
            out.extend(c ^ 1 for c in reversed(img))
        else:
            out.extend(img)
    return free_reduce(w.alphabet, out)


def transform_subgroup(auto: WhiteheadAuto, g: SubgroupGraph) -> SubgroupGraph:
    """Graph of the image subgroup, built from a basis of the input."""
    return stallings_graph(
        g.alphabet, [apply_auto(auto, w) for w in basis(g).elements]
    )


def is_free_factor_of_ambient(
    k: SubgroupGraph, plateau_budget: int = DEFAULT_PLATEAU_BUDGET
) -> bool:
    """Decide whether K is a free factor of the whole free group.

    Greedy descent on the positive-edge count of the subgroup graph
    under single multiplier moves, then breadth-first search of the
    equal-size plateau (restarting the descent if the plateau reveals a
    smaller neighbor).  At the orbit minimum, K is a free factor iff
    the graph is a sub-rose, i.e. has a single vertex.  Permutation
    automorphisms never change edge counts and are not used as moves.
    """
    cur = k
    if cur.vertex_count == 1:
        return True
    moves = _multiplier_moves(k.alphabet)
    while True:
        best = None
        for auto in moves:
            image = transform_subgroup(auto, cur)
            if image.edge_count < cur.edge_count and (
                best is None or image.edge_count < best.edge_count
            ):
                best = image
        if best is not None:
            cur = best
            if cur.vertex_count == 1:
                return True
            continue
        smaller = _plateau_search(cur, moves, plateau_budget)
        if smaller is None:
            return cur.vertex_count == 1
        cur = smaller
        if cur.vertex_count == 1:
            return True


def _plateau_search(
    start: SubgroupGraph, moves: Sequence[WhiteheadAuto], budget: int
) -> Optional[SubgroupGraph]:
    """Sweep the orbit plateau at the current size; return a strictly
    smaller neighbor if one is reachable through level moves."""
    size = start.edge_count
    visited = {start.canonical_key()}
    frontier = deque([start])
    while frontier:
        g = frontier.popleft()
        for auto in moves:
            image = transform_subgroup(auto, g)
            if image.edge_count < size:
                return image
            if image.edge_count > size:
                continue
            key = image.canonical_key()
            if key in visited:
                continue
            if len(visited) >= budget:
                raise ResourceLimitError(
                    f"plateau search exceeded its budget of {budget} states; "
                    "raise plateau_budget to continue"
                )
            visited.add(key)
            frontier.append(image)
    return None


def is_free_factor(
    k: SubgroupGraph,
    h: SubgroupGraph,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> bool:
    """Decide whether K is a free factor of H (K <= H required).

    K's generators are rewritten over a geodesic-tree basis of H, which
    identifies H with an abstract free group, and the ambient test is
    run there.
    """
    if canonical_morphism(k.based, h.based) is None:
        raise InvalidInputError("is_free_factor needs K to be a subgroup of H")
    if rank(h) == 0:
        return True  # both trivial
    return is_free_factor_of_ambient(rebase_inside(k, h), plateau_budget)
