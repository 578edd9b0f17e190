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
image needs no image.  Let ``B = {a} u {x^-1 : x in A, x != a}`` be its
cut and let the star of a vertex be the set of signed labels leaving
it; then the cyclic core of the image has

    #E(image) = #E - #{a-edges} + #{v : star(v) meets both B and its complement}

edges, where the a-edges are the edges labelled by the letter of ``a``.
This is the subgroup form of Whitehead's cut count (Gersten, "On
Whitehead's algorithm", Bull. AMS 10, 1984; Roig, Ventura and Weil, "On
the complexity of the Whitehead minimization problem", IJAC 17, 2007).
A star that does not meet both sides lies in B or in its complement,
and only the empty star lies in both.  So with ``F(S) = #{v : star(v)
<= S}`` for every set S of the 2r signed codes,

    #E(image) = #E - #{a-edges} + #V + F({}) - F(B) - F(B^c),

and ``#{a-edges} = #V - F(all codes but a)``, since in a folded graph
no two a-edges leave (or enter) one vertex.  F is the subset-sum
(zeta) transform of the histogram of the stars: 2r rounds of slice
additions over a table of 2^(2r) entries.  Every move's size is then
two lookups in it, at the move's cut and at its complement.  The
moves are listed once per alphabet, as their cuts, in ``_cut_masks``.
A descent step costs the table plus the 2r(4^(r-1) - 1) moves: 256
entries and 504 moves at rank 4, 65,536 and 262,128 at rank 8, 16.7
million entries at rank 12, whatever the size of the graph.

Only the image of the chosen move is built, and it is cut straight
from the move's cut B (``_cut_image``).  A half-edge off the letter of
``a`` reads an image that starts with ``a`` iff its code is in B, so
the half-edges with codes in B - {a} move, as a block, from their
vertex to the far end of its a-edge, or to a new vertex an a-edge
reaches; the a-edges stay.  The table is folded as built, with no
union-find and nothing spelled.  The library's one leaf-pruning walk,
``graph._core_numbering``, then prunes its leaves other than the base,
cuts the base's stem up to the anchor, where the tree that held the
base meets the rest, and numbers the cyclic core from there, once, in
time linear in #E.  The built size is checked against the prediction.
``transform_subgroup``, which spells the image of every edge and
folds, builds the image under any automorphism of the family, and the
cut images are tested against it.  Gersten's peak reduction holds for
cyclic cores: one that no multiplier move shrinks is already at its
orbit minimum.  So greedy descent on the edge count is the whole
search, and level moves are never explored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, repeat
from operator import add, sub
from typing import Optional

from .errors import AlphabetMismatchError, InvalidInputError
from .graph import Edge, XDigraph, _rows, _star_masks, canonical_morphism
from .subgroup import (
    SubgroupGraph,
    _canonical_core,
    _fold_core,
    _spell_path,
    rebase_inside,
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
    """The finite Whitehead family: all letter permutation-inversions,
    then the multipliers (A, a) that act nontrivially
    (``_multiplier_moves``); no two of them act alike."""
    n = alphabet.size
    signed = tuple(
        WhiteheadAuto(alphabet, "permutation", tuple(
            (2 * perm[i] + (signs >> i & 1),) for i in range(n)
        ))
        for perm in permutations(range(n))
        for signs in range(1 << n)
    )
    return signed + _multiplier_moves(alphabet)


@lru_cache(maxsize=64)
def _multiplier_moves(alphabet: Alphabet) -> tuple[WhiteheadAuto, ...]:
    """All multiplier automorphisms that act nontrivially, one per cut
    of ``_cut_masks``, in its order."""
    return tuple(_cut_move(alphabet, i) for i in range(len(_cut_masks(alphabet))))


def apply_auto(auto: WhiteheadAuto, w: Word) -> Word:
    """Letter-wise substitution followed by free reduction."""
    if w.alphabet != auto.alphabet:
        raise AlphabetMismatchError("automorphism and word use different alphabets")
    out: list[int] = []
    for code in w.codes:
        img = auto.images[code >> 1]
        if code & 1:
            out.extend(c ^ 1 for c in reversed(img))
        else:
            out.extend(img)
    return free_reduce(w.alphabet, out)


def transform_subgroup(auto: WhiteheadAuto, g: SubgroupGraph) -> SubgroupGraph:
    """Graph of the image subgroup, built by edge substitution: every
    edge ``(o, x, t)`` becomes a path from o to t that spells the image
    of x, and the result is folded and cored at the base.  The closed
    paths at the base then spell the images of H's elements, so the
    folded core is the graph of the image, built in time linear in #E."""
    if auto.alphabet != g.alphabet:
        raise AlphabetMismatchError("automorphism and subgroup use different alphabets")
    edges: list[Edge] = []
    fresh = g.vertex_count
    for o, x, t in g.graph.edges:
        fresh = _spell_path(edges, o, auto.images[x], fresh, end=t)
    return _fold_core(g.alphabet, fresh, edges, g.base)


def is_free_factor_of_ambient(
    k: SubgroupGraph, plateau_budget: int = DEFAULT_PLATEAU_BUDGET
) -> bool:
    """Decide whether K is a free factor of the whole free group.

    K's graph is first read over the letters Y it uses, in their order:
    F(Y) is a free factor of F(X), so K is a free factor of F(X) iff it
    is one of F(Y), and the moves of the smaller alphabet decide.  The
    descent works on the cyclic core of K, the graph of its conjugacy
    class, since conjugation keeps free factors free factors.  Each step
    scores every multiplier move from one subset-sum table over the
    vertex stars (see the module docstring), and builds only the image
    of the first move of least size, cut from the move's cut
    (``_cut_image``), checking its size against the prediction.  By
    Gersten's peak reduction the first core that no move reduces is at
    the orbit minimum, where K is a free factor iff it is a single
    vertex.  Permutations never change sizes and are not moves; a
    one-letter alphabet has no multiplier moves.  ``plateau_budget``
    has no effect.
    """
    return _minimal_cyclic_core(_over_letters_used(k)).vertex_count == 1


def _over_letters_used(k: SubgroupGraph) -> SubgroupGraph:
    """K's graph relabelled over the letters it uses, in their order, or
    K itself when it uses them all.  Keeping the order keeps the
    canonical numbering."""
    used = sorted({x for _, x, _ in k.graph.edges})
    if len(used) == k.alphabet.size:
        return k
    letter = {x: i for i, x in enumerate(used)}
    alphabet = Alphabet([k.alphabet.symbols[x] for x in used])
    edges = [(o, letter[x], t) for o, x, t in k.graph.edges]
    return SubgroupGraph(XDigraph(alphabet, k.vertex_count, edges), k.base)


def _minimal_cyclic_core(k: SubgroupGraph) -> SubgroupGraph:
    """The end of the descent: a cyclic core that no move reduces."""
    cur = _cyclic_core(k)
    while cur.vertex_count > 1:
        stars = _star_masks(cur.graph)
        sizes = _move_sizes(cur, stars)
        least = min(sizes, default=cur.edge_count)
        if least >= cur.edge_count:
            break
        image = _cut_image(cur, stars, *_cut(cur.alphabet, sizes.index(least)))
        if image.edge_count != least:
            raise AssertionError(
                f"a Whitehead move was predicted to give {least} edges "
                f"and gave {image.edge_count}"
            )
        cur = image
    return cur


def _cyclic_core(g: SubgroupGraph) -> SubgroupGraph:
    """The graph with the stem to its base removed, based where the stem
    ended: the graph of a conjugate of the subgroup, core at every vertex.
    When the base is a leaf, one walk cuts the stem and numbers the rest
    (``_canonical_core`` with a stem list).  Otherwise there is no stem
    and that is ``g`` itself: a canonical graph numbered again from its
    own base is unchanged."""
    table, width = g.graph._step_table(), g.alphabet.num_codes
    if table[g.base * width:g.base * width + width].count(-1) != width - 1:
        return g
    return _canonical_core(g.alphabet, table, g.vertex_count, g.base, [])[0]


@lru_cache(maxsize=64)
def _cut_masks(alphabet: Alphabet) -> tuple[int, ...]:
    """The multiplier moves, each as its cut ``B = {a} u {x^-1 : x in A,
    x != a}``, a bitmask: a block of ``4^(r-1) - 1`` moves per multiplier
    ``a``, in code order, whose carriers count up the other codes as the
    bits of a mask from 1.  The one enumeration of the moves: their
    automorphisms (``_cut_move``) and sizes (``_move_sizes``) follow it."""
    n = alphabet.num_codes
    cuts: list[int] = []
    for a in range(n):
        sums = [1 << a]
        for c in range(n):
            if c != a and c != a ^ 1:
                sums += [s | 1 << (c ^ 1) for s in sums]
        cuts += sums[1:]
    return tuple(cuts)


def _cut(alphabet: Alphabet, i: int) -> tuple[int, int]:
    """Move ``i`` of ``_cut_masks`` as its multiplier ``a`` and cut B."""
    cuts = _cut_masks(alphabet)
    return i // (len(cuts) // alphabet.num_codes), cuts[i]


def _cut_move(alphabet: Alphabet, i: int) -> WhiteheadAuto:
    """Move ``i`` of ``_cut_masks``, read off its cut B:
    ``A = {a} u {x^-1 : x in B, x != a}``."""
    a, b = _cut(alphabet, i)
    n = alphabet.num_codes
    carrier = frozenset([a] + [x ^ 1 for x in range(n) if x != a and b >> x & 1])
    return _multiplier_auto(alphabet, a, carrier)


def _cut_image(g: SubgroupGraph, stars: list[int], a: int, cut: int) -> SubgroupGraph:
    """The cyclic core of the image of the cyclic core ``g``, whose vertex
    stars are ``stars``, under the move of multiplier ``a`` and cut B,
    built from the cut and numbered once.

    A half-edge c at v off the letter of ``a`` reads an image that starts
    with ``a`` iff c is in B.  So each v whose star meets B - {a} gets a
    hub h(v): the end of v's a-edge, or a new vertex that an a-edge from
    v reaches.  An edge ``(o, x, t)`` off the letter of ``a`` becomes the
    x-edge from h(o) or o, as 2x is in B or not, to h(t) or t, as 2x + 1
    is; the a-edges stay.  A hub takes the codes of B - {a} from one
    vertex only, so the table is folded as built.  One walk
    (``_canonical_core`` with a stem list) prunes the leaves other than
    the base and cuts the base's stem: the cyclic core survives, and is
    numbered from the anchor, where the stem ends.
    """
    table, width, n = g.graph._step_table(), g.alphabet.num_codes, g.vertex_count
    moved = cut & ~(1 << a)
    hub = list(range(n))
    count = n
    for v, star in enumerate(stars):
        if star & moved:
            h = table[v * width + a]
            if h < 0:
                h, count = count, count + 1
            hub[v] = h
    out = [-1] * (count * width)
    for v, h in enumerate(hub):
        if h >= n:
            out[v * width + a], out[h * width + (a ^ 1)] = h, v
    letter = a >> 1
    for v, row in enumerate(_rows(table, width, n)):
        for code, w in enumerate(row):
            if w < 0:
                continue
            if code >> 1 == letter:
                out[v * width + code] = w
            else:
                src = hub[v] if moved >> code & 1 else v
                out[src * width + code] = hub[w] if moved >> (code ^ 1) & 1 else w
    return _canonical_core(g.alphabet, out, count, 0, [])[0]


def _move_sizes(g: SubgroupGraph, stars: list[int]) -> list[int]:
    """Edge count of the cyclic core of each multiplier image of the
    cyclic core ``g``, in ``_cut_masks`` order, read off the table
    ``F(S) = #{v : stars[v] <= S}``: ``#E + F({}) + F(all codes but a)
    - F(B) - F(B^c)`` (see the module docstring)."""
    n = g.alphabet.num_codes
    full = (1 << n) - 1
    f = [0] * (full + 1)
    for mask in stars:
        f[mask] += 1
    # each round adds the entries with bit 0 clear into those with it
    # set and rotates the index right by one bit; after n rounds every
    # bit has been summed over and is back in its place
    for _ in range(n):
        f[1::2] = map(add, f[1::2], f[0::2])
        f = f[0::2] + f[1::2]
    # F(B) + F(B^c): the complement of B is its index counted from the end
    split = list(map(add, f, reversed(f)))
    cuts = _cut_masks(g.alphabet)
    block = len(cuts) // n if n else 0
    sizes: list[int] = []
    for a in range(n):
        top = g.edge_count + f[0] + f[full ^ (1 << a)]
        moves = cuts[a * block:(a + 1) * block]
        sizes += map(sub, repeat(top), map(split.__getitem__, moves))
    return sizes


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
    return is_free_factor_of_ambient(rebase_inside(k, h))
