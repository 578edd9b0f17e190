"""Whitehead automorphisms and free-factor detection.

The free-factor test drives the classification of extensions: a
subgroup K is a free factor of the ambient free group iff some
automorphism carries it onto a subgroup generated by part of the
letter set.  Conjugation keeps free factors free factors, so the test
works on the conjugacy class of K, whose graph is the cyclic core: the
subgroup graph with the stem to its base removed, a core graph at
every vertex.  Rank is preserved and ``#E = #V + rk - 1``, so the
minimum of the cyclic core's edge count over the automorphism orbit is
``rk(K)`` exactly when K is a free factor, i.e. when the minimal cyclic
core is a single vertex.

Minimization uses the multiplier moves (A, a): ``a`` is a signed letter
and A a set of signed letters holding ``a`` but not ``a^-1``, and the
move sends ``x -> a^[x^-1 in A] x a^-[x in A]``.  The size of a move's
image needs no image.  Let ``B = {a} u {x^-1 : x in A, x != a}`` and let
the star of a vertex be the set of signed labels leaving it; then the
cyclic core of the image has

    #E(image) = #E - #{a-edges} + #{v : star(v) meets both B and its complement}

edges, where the a-edges are the edges labelled by the letter of ``a``.
This is the subgroup form of Whitehead's cut count (Gersten, "On
Whitehead's algorithm", Bull. AMS 10, 1984; Roig, Ventura and Weil, "On
the complexity of the Whitehead minimization problem", IJAC 17, 2007).
So the sizes of all moves are read off the vertices grouped by star,
and only the image of the chosen move is built, with its size checked
against the prediction.  Gersten's peak reduction holds for cyclic
cores: one that no multiplier move shrinks is already at its orbit
minimum.  So greedy descent on the edge count is the whole search, and
level moves are never explored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Optional

from .errors import InvalidInputError
from .graph import _star_masks, canonical_morphism, type_with_anchor
from .subgroup import (
    SubgroupGraph,
    _canonical_core,
    basis,
    rank,
    rebase_inside,
    stallings_graph,
)
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

    Works on the cyclic core of K, the graph of its conjugacy class,
    since conjugation keeps free factors free factors.  Greedy descent
    on the edge count builds only the image of the most reducing
    multiplier move, whose size it reads off the star masks (see the
    module docstring) and checks on the built image.  By Gersten's peak
    reduction the first core that no move reduces is at the orbit
    minimum, where K is a free factor iff it is a single vertex.
    Permutations never change sizes and are not moves; a one-letter
    alphabet has no multiplier moves.  ``plateau_budget`` has no effect.
    """
    return _minimal_cyclic_core(k).vertex_count == 1


def _minimal_cyclic_core(k: SubgroupGraph) -> SubgroupGraph:
    """The end of the descent: a cyclic core that no move reduces."""
    cur = _cyclic_core(k)
    moves = _multiplier_moves(k.alphabet)
    while cur.vertex_count > 1:
        sizes = _move_sizes(cur, _star_masks(cur.graph))
        best = min(range(len(sizes)), key=sizes.__getitem__, default=None)
        if best is None or sizes[best] >= cur.edge_count:
            break
        image = _cyclic_core(transform_subgroup(moves[best], cur))
        if image.edge_count != sizes[best]:
            raise AssertionError(
                f"a Whitehead move was predicted to give {sizes[best]} edges "
                f"and gave {image.edge_count}"
            )
        cur = image
    return cur


def _cyclic_core(g: SubgroupGraph) -> SubgroupGraph:
    """The graph with the stem to its base removed, based where the stem
    ended: the graph of a conjugate of the subgroup, core at every vertex."""
    t = type_with_anchor(g.based)
    anchor = t.host_vertices[t.anchor]
    return _canonical_core(g.alphabet, g.graph._step_table(), g.vertex_count, anchor)[0]


@lru_cache(maxsize=64)
def _move_cuts(alphabet: Alphabet) -> tuple[tuple[int, int], ...]:
    """For each move of ``_multiplier_moves``, the bitmask of its cut
    ``B = {a} u {x^-1 : x in A, x != a}`` and the letter of ``a``."""
    cuts = []
    for auto in _multiplier_moves(alphabet):
        a = auto.multiplier
        b = 1 << a  # type: ignore[operator]
        for x in auto.carrier:  # type: ignore[union-attr]
            if x != a:
                b |= 1 << (x ^ 1)
        cuts.append((b, a >> 1))  # type: ignore[operator]
    return tuple(cuts)


def _move_sizes(g: SubgroupGraph, stars: list[int]) -> list[int]:
    """Edge count of the cyclic core of each multiplier image of the
    cyclic core ``g``, in ``_multiplier_moves`` order: ``#E - #{a-edges}``
    plus the vertices whose star meets both B and its complement."""
    letters = [0] * g.alphabet.size
    for _, x, _ in g.graph.edges:
        letters[x] += 1
    classes = Counter(stars).items()
    size = g.edge_count
    return [
        size - letters[a] + sum(n for m, n in classes if 0 != m & b != m)
        for b, a in _move_cuts(g.alphabet)
    ]


def is_free_factor(
    k: SubgroupGraph,
    h: SubgroupGraph,
    plateau_budget: int = DEFAULT_PLATEAU_BUDGET,
) -> bool:
    """Decide whether K is a free factor of H (K <= H required).

    K's generators are rewritten over a geodesic-tree basis of H, which
    identifies H with an abstract free group, and the ambient test is
    run there.  ``plateau_budget`` has no effect.
    """
    if canonical_morphism(k.based, h.based) is None:
        raise InvalidInputError("is_free_factor needs K to be a subgroup of H")
    if rank(h) == 0:
        return True  # both trivial
    return is_free_factor_of_ambient(rebase_inside(k, h))
