"""Whitehead moves and the free-factor decision."""

from random import Random

import pytest

from freegroups.errors import InvalidInputError
from freegroups.graph import canonical_morphism, core
from freegroups.subgroup import (
    SubgroupGraph,
    basis,
    contains,
    full_group,
    non_tree_edges,
    rank,
    spanning_tree,
    stallings_graph,
    trivial_subgroup,
)
from freegroups.whitehead import (
    WhiteheadAuto,
    _cut_masks,
    _multiplier_auto,
    _multiplier_moves,
    apply_auto,
    enumerate_whitehead,
    is_free_factor,
    is_free_factor_of_ambient,
    transform_subgroup,
)
from freegroups.words import Alphabet, format_word, parse_word

from helpers import (
    AB,
    A1,
    is_subgraph_embedding,
    multiplier_moves_by_carriers,
    rand_gens,
    rand_subgroup,
    rand_word,
)

P = lambda s: parse_word(s, AB)


def test_enumerate_single_letter():
    fam = enumerate_whitehead(A1)
    # only the identity and the inversion a -> a^-1 act on one letter
    actions = sorted(auto.images for auto in fam)
    assert actions == [((0,),), ((1,),)]


def test_enumerate_two_letters_count():
    fam = enumerate_whitehead(AB)
    # 8 signed permutations plus 16 multiplier pairs of which 4 act trivially
    assert len(fam) == 20
    assert len({auto.images for auto in fam}) == 20
    perms = [a for a in fam if a.kind == "permutation"]
    assert len(perms) == 8


def test_every_auto_is_an_automorphism():
    # the images of the standard basis must generate the whole group
    rose = full_group(AB)
    for auto in enumerate_whitehead(AB):
        images = [apply_auto(auto, P(letter)) for letter in "ab"]
        assert stallings_graph(AB, images) == rose


def test_apply_examples():
    # multiplier a^-1 with carrier {a^-1, b} sends b to ba
    auto = next(
        a
        for a in enumerate_whitehead(AB)
        if a.kind == "multiplier" and a.images == ((0,), (2, 0))
    )
    assert format_word(apply_auto(auto, P("ab"))) == "aba"
    ident = next(a for a in enumerate_whitehead(AB) if a.is_identity())
    assert apply_auto(ident, P("abAB")) == P("abAB")
    inv_a = WhiteheadAuto(AB, "permutation", ((1,), (2,)))
    assert format_word(apply_auto(inv_a, P("a"))) == "A"


def test_inverse_roundtrip():
    rng = Random(51)
    for auto in enumerate_whitehead(AB):
        inv = auto.inverse()
        for _ in range(5):
            w = rand_word(rng, AB, 8)
            assert apply_auto(inv, apply_auto(auto, w)) == w


def test_autos_preserve_word_problem():
    rng = Random(52)
    fam = enumerate_whitehead(AB)
    for _ in range(15):
        gens = rand_gens(rng, AB, 3, 5)
        h = stallings_graph(AB, gens)
        auto = fam[rng.randrange(len(fam))]
        image = stallings_graph(AB, [apply_auto(auto, g) for g in gens])
        for _ in range(15):
            w = rand_word(rng, AB, 6)
            assert contains(image, apply_auto(auto, w)) == contains(h, w)


def test_transform_subgroup_consistency():
    rng = Random(53)
    fam = enumerate_whitehead(AB)
    for _ in range(10):
        h = rand_subgroup(rng, AB)
        auto = fam[rng.randrange(len(fam))]
        direct = stallings_graph(
            AB, [apply_auto(auto, w) for w in basis(h).elements]
        )
        assert transform_subgroup(auto, h) == direct


def test_multiplier_moves_match_the_carrier_loop():
    # the moves read off the cut masks are the carrier loop's, in its
    # order and with its carriers, at ranks 0-5
    for r, count in enumerate((0, 0, 12, 90, 504, 2550)):
        alphabet = Alphabet.from_string("abcde"[:r])
        moves, oracle = _multiplier_moves(alphabet), multiplier_moves_by_carriers(alphabet)
        assert len(moves) == count
        assert moves == oracle
        assert [m.carrier for m in moves] == [m.carrier for m in oracle]


def test_whitehead_family_acts_without_repeats():
    # the signed permutations, then the multiplier moves: no two act alike
    for r, count in enumerate((1, 2, 20, 138, 888)):
        alphabet = Alphabet.from_string("abcd"[:r])
        fam, moves = enumerate_whitehead(alphabet), _multiplier_moves(alphabet)
        assert len(fam) == len({auto.images for auto in fam}) == count
        signed = len(fam) - len(moves)
        assert fam[signed:] == moves
        assert {auto.kind for auto in fam[:signed]} == {"permutation"}


def test_ambient_free_factor_examples():
    assert is_free_factor_of_ambient(stallings_graph(AB, [P("ab")]))
    assert not is_free_factor_of_ambient(stallings_graph(AB, [P("aa")]))
    assert is_free_factor_of_ambient(full_group(AB))
    assert is_free_factor_of_ambient(trivial_subgroup(AB))
    # commutator is not part of any basis
    assert not is_free_factor_of_ambient(stallings_graph(AB, [P("abAB")]))
    # one letter: no multiplier moves, the cyclic core decides
    assert is_free_factor_of_ambient(stallings_graph(A1, [parse_word("a", A1)]))
    assert not is_free_factor_of_ambient(stallings_graph(A1, [parse_word("aa", A1)]))
    assert is_free_factor_of_ambient(trivial_subgroup(A1))


def test_ambient_decision_reads_only_the_letters_used():
    # a subgroup of F(Y) is a free factor of F(X) iff it is one of F(Y):
    # over ten letters <ab> and <abAB> are decided over ab and <a^2> over
    # a, and no cut table for ten letters (5.2 million moves) is built
    ten = Alphabet.from_string("abcdefghij")
    _cut_masks.cache_clear()
    for w, verdict in (("ab", True), ("aa", False), ("abAB", False)):
        assert is_free_factor_of_ambient(stallings_graph(ten, [parse_word(w, ten)])) is verdict
    # the cache holds exactly the tables of a and ab
    for small in (A1, AB):
        _cut_masks(small)
    info = _cut_masks.cache_info()
    assert (info.currsize, info.misses) == (2, 2)


def test_descent_builds_no_move_family():
    # the descent reads its moves off their cuts and builds only the
    # chosen one: a rank-6 free factor fills no cache of automorphisms,
    # and one-letter alphabets, which have no moves, decide as well
    six = Alphabet.from_string("abcdef")
    h = stallings_graph(six, [parse_word(x, six) for x in "abc"])
    rng = Random(50)
    for a in (6, 9, 10, 4, 11, 7):
        carrier = frozenset({a} | {c for c in range(12) if c >> 1 != a >> 1 and rng.random() < 0.3})
        h = transform_subgroup(_multiplier_auto(six, a, carrier), h)
    assert {x for _, x, _ in h.graph.edges} == set(range(6))
    _multiplier_moves.cache_clear()
    assert is_free_factor_of_ambient(h)
    assert is_free_factor_of_ambient(stallings_graph(A1, [parse_word("a", A1)]))
    assert not is_free_factor_of_ambient(stallings_graph(A1, [parse_word("aa", A1)]))
    assert _multiplier_moves.cache_info().currsize == 0


def test_relative_free_factor_examples():
    assert is_free_factor(stallings_graph(AB, [P("a")]), full_group(AB))
    assert not is_free_factor(
        stallings_graph(AB, [P("aa")]), stallings_graph(AB, [P("a")])
    )
    # one element of a free basis of H is a free factor of H
    h = stallings_graph(AB, [P("aab"), P("ba")])
    k = stallings_graph(AB, [P("aab")])
    assert is_free_factor(k, h)
    with pytest.raises(InvalidInputError):
        is_free_factor(stallings_graph(AB, [P("b")]), stallings_graph(AB, [P("a")]))


def test_trivial_subgroup_is_a_free_factor_of_itself():
    # rebase_inside gives the trivial subgroup over the empty alphabet,
    # which the ambient test accepts; no rank-zero special case is needed
    assert is_free_factor(trivial_subgroup(AB), trivial_subgroup(AB))
    assert is_free_factor(trivial_subgroup(AB), stallings_graph(AB, [P("ab")]))


def test_free_factor_self_and_rank_bound():
    rng = Random(54)
    for _ in range(10):
        h = rand_subgroup(rng, AB, max_vertices=6)
        assert is_free_factor(h, h)
    for _ in range(10):
        h = rand_subgroup(rng, AB, max_vertices=6)
        k = rand_subgroup(rng, AB, max_vertices=6)
        if canonical_morphism(k.based, h.based) is not None and is_free_factor(k, h):
            assert rank(k) <= rank(h)


def test_three_letter_alphabet():
    from helpers import ABC

    fam = enumerate_whitehead(ABC)
    # 48 signed permutations; 6 * 2^4 multiplier pairs, 6 acting trivially
    assert len(fam) == 48 + 96 - 6
    w = parse_word("abc", ABC)
    assert is_free_factor_of_ambient(stallings_graph(ABC, [w]))
    assert not is_free_factor_of_ambient(
        stallings_graph(ABC, [parse_word("aa", ABC)])
    )


def test_plateau_budget_has_no_effect():
    # the descent alone is exact: no budget is consulted, none can trip
    from freegroups.extensions import is_algebraically_closed
    from freegroups.words import Alphabet

    for budget in (0, 1, 10):
        assert not is_free_factor_of_ambient(
            stallings_graph(AB, [P("aabb")]), plateau_budget=budget
        )
        assert not is_free_factor_of_ambient(
            stallings_graph(AB, [P("aa"), P("bb")]), plateau_budget=budget
        )
        assert not is_algebraically_closed(stallings_graph(AB, [P("aabb")]), budget)
        assert is_free_factor(
            stallings_graph(AB, [P("ab")]), stallings_graph(AB, [P("ab"), P("bb")]), budget
        )
    # a plateau of 98,220 level images for a breadth-first sweep
    abcd = Alphabet.from_string("abcd")
    k = stallings_graph(abcd, [parse_word(w, abcd) for w in ("cbDA", "adca", "abaaCA")])
    assert not is_free_factor_of_ambient(k, plateau_budget=10)


def test_embedded_subgraph_is_free_factor():
    # deleting a non-tree edge and re-coring yields an embedded core subgraph,
    # which is always a free factor of the original subgroup
    rng = Random(55)
    checked = 0
    while checked < 10:
        h = rand_subgroup(rng, AB, max_vertices=6)
        tree = spanning_tree(h)
        extra = non_tree_edges(h, tree)
        if len(extra) < 2:
            continue
        from freegroups.graph import XDigraph

        pruned = XDigraph(
            h.alphabet,
            h.vertex_count,
            [e for e in h.graph.edges if e != extra[0]],
        )
        cored, cmap = core(pruned, h.base)
        k = SubgroupGraph(cored, cmap[h.base])
        morphism = canonical_morphism(k.based, h.based)
        assert morphism is not None
        assert is_subgraph_embedding(morphism, k.graph, h.graph)
        assert is_free_factor(k, h)
        checked += 1
