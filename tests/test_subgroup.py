"""Subgroup graphs: construction, membership, bases, index, conjugacy."""

import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from freegroups.errors import AlphabetMismatchError, InvalidInputError, NotAMemberError
from freegroups.extensions import is_algebraic_extension, relative_image
from freegroups.graph import (
    based_isomorphism,
    canonical_morphism,
    is_regular,
    isomorphic,
    product,
    trace_path,
    transport,
    type_graph,
)
from freegroups.subgroup import (
    SubgroupGraph,
    basis,
    conjugacy_equivalent,
    conjugate,
    conjugate_into,
    contains,
    coset_representatives,
    expand_in_basis,
    full_group,
    hall_completion,
    index,
    is_nielsen_reduced,
    is_normal,
    join,
    power_in,
    rank,
    rebase_inside,
    relative_index,
    rewrite_in_basis,
    schreier_check,
    spanning_tree,
    spanning_tree_from_edges,
    stallings_graph,
    trivial_subgroup,
)
from freegroups.intersect import component_analysis, intersection, is_immersed
from freegroups.whitehead import apply_auto, enumerate_whitehead, is_free_factor, transform_subgroup
from freegroups.words import Alphabet, Word, format_word, invert, multiply, parse_word

from helpers import AB, A1, product_words, rand_gens, rand_subgroup, rand_word

P = lambda s: parse_word(s, AB)
P1 = lambda s: parse_word(s, A1)


# -- construction -------------------------------------------------------------


def test_stallings_graph_examples():
    fig4 = stallings_graph(AB, [P("aab"), P("bABa"), P("abA")])
    assert fig4.vertex_count == 6 and fig4.edge_count == 8
    assert stallings_graph(AB, [P("aa"), P("aaa")]) == stallings_graph(AB, [P("a")])
    assert stallings_graph(AB, []) == trivial_subgroup(AB)
    assert stallings_graph(AB, [P(""), P("aA")]) == trivial_subgroup(AB)


def test_canonicity_over_generating_sets():
    rng = Random(21)
    for _ in range(25):
        gens = rand_gens(rng, AB, 3, 5)
        # Nielsen-style moves keep the subgroup; verify by mutual membership
        moved = list(gens)
        moved[0] = multiply(moved[0], moved[-1])
        if not moved[0].codes:
            continue
        moved.append(invert(gens[0]))
        h1 = stallings_graph(AB, gens)
        h2 = stallings_graph(AB, moved)
        assert all(contains(h2, g) for g in gens)
        assert all(contains(h1, g) for g in moved)
        assert h1 == h2


def test_contains_examples():
    h7 = stallings_graph(AB, [P("bbAA")])
    assert not contains(h7, P("ab"))
    assert contains(h7, P(""))
    assert contains(stallings_graph(AB, [P("ab"), P("Ba")]), P("aaaaaa"))


# -- trees, bases, rewriting ---------------------------------------------------


def test_spanning_tree_two_cycle():
    g = stallings_graph(AB, [P("aa")])
    tree = spanning_tree(g)
    assert tree.edges == frozenset({(0, 0, 1)})
    assert [e for e in g.graph.edges if e not in tree.edges] == [(1, 0, 0)]


def test_spanning_tree_rose_empty():
    tree = spanning_tree(full_group(AB))
    assert tree.edges == frozenset()


def test_spanning_tree_from_edges_rejects_non_trees():
    g = stallings_graph(AB, [P("ab"), P("ba")])
    tree = spanning_tree_from_edges(g, [(0, 0, 1), (2, 0, 0)])
    assert len(basis(g, tree)) == rank(g) == 2
    with pytest.raises(InvalidInputError):
        spanning_tree_from_edges(g, g.graph.edges)  # all four edges: has a cycle
    with pytest.raises(InvalidInputError):
        spanning_tree_from_edges(g, [(0, 0, 1), (0, 0, 2)])  # (0, a, 2) is not an edge


def test_trees_of_another_graph_are_rejected():
    g = stallings_graph(AB, [P("ab"), P("bba")])
    for other in ([P("aab")], [P("a"), P("b")], [P("aabAb"), P("bab")]):
        tree = spanning_tree(stallings_graph(AB, other))
        with pytest.raises(InvalidInputError):
            basis(g, tree)
        with pytest.raises(InvalidInputError):
            rewrite_in_basis(g, tree, P("ab"))


def test_geodesic_tree_depths():
    rng = Random(22)
    for _ in range(20):
        g = rand_subgroup(rng, AB)
        tree = spanning_tree(g, geodesic=True)
        # BFS layers realize graph distance
        steps = g.graph.step_maps()
        dist = {g.base: 0}
        frontier = [g.base]
        while frontier:
            nxt = []
            for v in frontier:
                for code in steps[v]:
                    w = steps[v][code]
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        assert all(tree.depth[v] == dist[v] for v in range(g.vertex_count))


def test_basis_examples():
    g = stallings_graph(AB, [P("aa")])
    assert [format_word(w) for w in basis(g).elements] == ["aa"]
    rose = full_group(AB)
    assert sorted(format_word(w) for w in basis(rose).elements) == ["a", "b"]


def test_rank_examples():
    assert rank(stallings_graph(AB, [P("aa")])) == 1
    assert rank(trivial_subgroup(AB)) == 0
    from freegroups.intersect import intersection

    h = stallings_graph(AB, [P("ab"), P("Ba")])
    k = stallings_graph(AB, [P("aaa"), P("AbA")])
    assert rank(intersection(h, k)) == 2


def test_rank_equals_basis_size_any_tree():
    rng = Random(23)
    for _ in range(20):
        g = rand_subgroup(rng, AB)
        for geodesic in (True, False):
            tree = spanning_tree(g, geodesic=geodesic, rng=Random(rng.randrange(10**6)))
            assert len(basis(g, tree)) == rank(g)


def test_basis_words_are_the_reduced_words_word_checks():
    # basis words skip the reduction scan of Word(...); it must accept them unchanged
    rng = Random(29)
    for _ in range(20):
        g = rand_subgroup(rng, AB)
        tree = spanning_tree(g, geodesic=rng.random() < 0.5, rng=Random(rng.randrange(10**6)))
        words = list(basis(g, tree).elements)
        w = rand_word(rng, AB, 8)
        if not contains(g, w):
            words += hall_completion(g, w).basis_h + hall_completion(g, w).basis_c
        for w in words:
            assert Word(AB, w.codes) == w


def test_tree_paths_cancelling_next_to_an_edge_raise_under_optimize():
    # a hand-made tree whose path to one end of a non-tree edge ends with
    # that edge's inverse must be rejected by a check that -O keeps
    script = """
from freegroups.errors import InvalidInputError
from freegroups.graph import XDigraph
from freegroups.subgroup import SpanningTree, SubgroupGraph, basis
from freegroups.words import Alphabet
g = SubgroupGraph(XDigraph(Alphabet("ab"), 2, [(0, 0, 1), (1, 0, 0)]), 0)
# each tree holds one edge but says vertex 1 is entered along the other
for edge, enter in (((0, 0, 1), 1), ((1, 0, 0), 0)):
    tree = SpanningTree(g.graph, 0, frozenset({edge}), (0, 0), (None, enter), (0, 1), False)
    try:
        print(basis(g, tree))
    except InvalidInputError as exc:
        print(exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.splitlines() == [
        "word is not freely reduced at a^-1 a",
        "word is not freely reduced at a a^-1",
    ], done.stderr


def test_rewrite_examples():
    g = stallings_graph(AB, [P("aa")])
    tree = spanning_tree(g)
    assert rewrite_in_basis(g, tree, P("aaaa")) == (1, 1)
    rose = full_group(AB)
    rtree = spanning_tree(rose)
    assert rewrite_in_basis(rose, rtree, P("abA")) == (1, 2, -1)


def test_rewrite_roundtrip_and_membership_error():
    rng = Random(24)
    for _ in range(20):
        gens = rand_gens(rng, AB, 3, 5)
        g = stallings_graph(AB, gens)
        if g.is_trivial():
            continue
        tree = spanning_tree(g)
        b = basis(g, tree)
        for w in list(product_words(gens, 3))[:30]:
            idx = rewrite_in_basis(g, tree, w)
            assert expand_in_basis(b.elements, idx) == w
    for indices in ([0], [3], [1, -3]):
        with pytest.raises(InvalidInputError):
            expand_in_basis([P("a"), P("b")], indices)
    with pytest.raises(NotAMemberError):
        rewrite_in_basis(
            stallings_graph(AB, [P("aa")]),
            spanning_tree(stallings_graph(AB, [P("aa")])),
            P("a"),
        )


def test_nielsen_examples():
    assert is_nielsen_reduced([P("a"), P("b")])
    assert not is_nielsen_reduced([P("a"), P("ab")])
    with pytest.raises(InvalidInputError):
        is_nielsen_reduced([P("a"), P("A")])
    with pytest.raises(InvalidInputError):
        is_nielsen_reduced([P("")])


def test_geodesic_basis_is_nielsen_reduced():
    rng = Random(25)
    for _ in range(30):
        g = rand_subgroup(rng, AB)
        b = basis(g, spanning_tree(g, geodesic=True))
        if b.elements:
            assert is_nielsen_reduced(b.elements)


# -- index, cosets, normality ---------------------------------------------------


def test_index_examples():
    kernel = stallings_graph(AB, [P("aa"), P("b"), P("abA")])
    assert index(kernel) == 2
    assert index(stallings_graph(AB, [P("aa")])) is None
    assert index(full_group(AB)) == 1


def test_coset_soundness():
    rng = Random(26)
    kernel = stallings_graph(AB, [P("aa"), P("b"), P("abA")])
    reps = coset_representatives(kernel)
    assert len(reps) == 2
    for _ in range(50):
        w = rand_word(rng, AB, 8)
        hits = [r for r in reps if contains(kernel, multiply(w, invert(r)))]
        assert len(hits) == 1


def test_schreier_examples():
    assert schreier_check(stallings_graph(AB, [P("aa"), P("b"), P("abA")]))
    assert schreier_check(full_group(AB))
    with pytest.raises(InvalidInputError):
        schreier_check(stallings_graph(AB, [P("aa")]))


def test_is_normal_examples():
    assert is_normal(stallings_graph(AB, [P("aa"), P("b"), P("abA")]))
    assert not is_normal(stallings_graph(AB, [P("a")]))
    assert is_normal(trivial_subgroup(AB))
    assert is_normal(full_group(AB))


def test_is_normal_regular_but_asymmetric():
    # an index-3 completion: X-regular, yet some vertex is not an
    # equivalent base, so condition (2) of the normality test fails
    from freegroups.graph import regular_complete

    g = SubgroupGraph(
        regular_complete(stallings_graph(AB, [P("aba")]).graph), 0
    )
    assert index(g) == 3
    assert not is_normal(g)


def test_index_of_trivial_subgroup():
    from freegroups.words import Alphabet

    assert index(trivial_subgroup(AB)) is None
    assert index(trivial_subgroup(Alphabet(""))) == 1  # F itself is trivial


def test_normal_conjugation_invariance():
    rng = Random(27)
    checked = 0
    for _ in range(40):
        from freegroups.graph import regular_complete

        h = rand_subgroup(rng, AB, max_vertices=6)
        g = SubgroupGraph(regular_complete(h.graph), h.base)
        if is_normal(g):
            checked += 1
            for letter in ("a", "b"):
                assert based_isomorphism(conjugate(g, P(letter)).based, g.based)
    assert checked >= 1


# -- conjugation ----------------------------------------------------------------


def test_conjugate_examples():
    a2 = stallings_graph(AB, [P("aa")])
    assert conjugate(a2, P("b")) == stallings_graph(AB, [P("baaB")])
    member = stallings_graph(AB, [P("ab"), P("Ba")])
    assert conjugate(member, P("ab")) == member  # conjugation by a member
    assert conjugate(a2, P("a")) == a2


def test_conjugate_involution_and_type_invariance():
    rng = Random(28)
    for _ in range(20):
        h = rand_subgroup(rng, AB)
        g = rand_word(rng, AB, 5)
        c = conjugate(h, g)
        assert conjugate(c, invert(g)) == h
        assert isomorphic(type_graph(c.based), type_graph(h.based))


def test_conjugacy_equivalent_examples():
    a2 = stallings_graph(AB, [P("aa")])
    moved = stallings_graph(AB, [P("baaB")])
    g = conjugacy_equivalent(a2, moved)
    assert g is not None and conjugate(a2, g) == moved
    assert format_word(g) == "b"
    assert conjugacy_equivalent(
        stallings_graph(AB, [P("a")]), stallings_graph(AB, [P("b")])
    ) is None
    assert conjugacy_equivalent(a2, a2) == P("")


def test_conjugate_into_examples():
    moved = stallings_graph(AB, [P("baaB")])
    target = stallings_graph(AB, [P("a")])
    g = conjugate_into(moved, target)
    assert g is not None
    assert canonical_morphism(conjugate(moved, g).based, target.based) is not None
    assert conjugate_into(stallings_graph(AB, [P("b")]), target) is None
    assert conjugate_into(stallings_graph(AB, [P("aa")]), target) == P("")


def test_power_in_examples():
    assert power_in(stallings_graph(AB, [P("aaa")]), P("a")) == 3
    h = stallings_graph(AB, [P("ab"), P("Ba")])
    assert power_in(h, P("ab")) == 1
    assert power_in(stallings_graph(AB, [P("a")]), P("b")) is None
    with pytest.raises(InvalidInputError):
        power_in(h, P(""))


def test_conjugacy_roundtrip_random():
    rng = Random(31)
    for _ in range(20):
        h = rand_subgroup(rng, AB, max_vertices=7)
        g = rand_word(rng, AB, 5)
        k = conjugate(h, g)
        witness = conjugacy_equivalent(h, k)
        assert witness is not None
        assert conjugate(h, witness) == k


def test_conjugacy_none_verdict_brute_force():
    # when the type graphs rule conjugacy out, no short conjugator exists
    from freegroups.words import reduced_words

    rng = Random(35)
    for _ in range(10):
        h = rand_subgroup(rng, AB, max_vertices=5)
        k = rand_subgroup(rng, AB, max_vertices=5)
        if conjugacy_equivalent(h, k) is not None:
            continue
        for g in reduced_words(AB, 3):
            assert conjugate(h, g) != k


def test_conjugate_into_random():
    rng = Random(32)
    for _ in range(15):
        k = rand_subgroup(rng, AB, max_vertices=5)
        g = rand_word(rng, AB, 4)
        extra = rand_subgroup(rng, AB, max_vertices=4)
        h = join(conjugate(k, g), extra)
        witness = conjugate_into(k, h)
        assert witness is not None
        assert canonical_morphism(conjugate(k, witness).based, h.based) is not None


def test_conjugate_language_shift():
    rng = Random(33)
    for _ in range(10):
        gens = rand_gens(rng, AB, 2, 4)
        h = stallings_graph(AB, gens)
        g = rand_word(rng, AB, 4)
        c = conjugate(h, g)
        for w in list(product_words(gens, 3))[:20]:
            shifted = multiply(g, multiply(w, invert(g)))
            assert contains(c, shifted)
            assert contains(h, w) == contains(c, shifted)


def test_rewrite_agrees_with_contains():
    rng = Random(34)
    for _ in range(10):
        h = rand_subgroup(rng, AB)
        tree = spanning_tree(h)
        for _ in range(30):
            w = rand_word(rng, AB, 7)
            try:
                rewrite_in_basis(h, tree, w)
                member = True
            except NotAMemberError:
                member = False
            assert member == contains(h, w)


def test_power_in_least_exponent():
    rng = Random(29)
    from helpers import exponents_in

    for _ in range(25):
        h = rand_subgroup(rng, AB)
        g = rand_word(rng, AB, 4, nontrivial=True)
        m = power_in(h, g)
        powers = exponents_in(h, g, limit=h.vertex_count)
        assert m == (min(powers) if powers else None)


# -- Hall completion and joins -----------------------------------------------------


def test_hall_completion_fig7():
    h = stallings_graph(AB, [P("bbAA")])
    result = hall_completion(h, P("ab"))
    assert result.finite_index == 5
    assert not contains(result.subgroup, P("ab"))
    assert is_regular(result.subgroup.graph)
    morphism = canonical_morphism(h.based, result.subgroup.based)
    assert morphism is not None and morphism.is_injective()
    assert [format_word(w) for w in result.basis_h] == ["bbAA"]
    assert len(result.basis_h) + len(result.basis_c) == 6


def test_hall_completion_trivial_subgroup():
    result = hall_completion(trivial_subgroup(AB), P("a"))
    assert result.finite_index == 2
    assert not contains(result.subgroup, P("a"))


def test_hall_completion_on_finite_index_subgroup():
    kernel = stallings_graph(AB, [P("aa"), P("b"), P("abA")])
    result = hall_completion(kernel, P("a"))
    assert result.subgroup == kernel
    assert result.basis_c == ()


def test_hall_completion_rejects_members():
    with pytest.raises(InvalidInputError):
        hall_completion(stallings_graph(AB, [P("aa")]), P("aa"))


def test_hall_completion_properties_random():
    rng = Random(30)
    for _ in range(15):
        h = rand_subgroup(rng, AB, max_vertices=8)
        g = rand_word(rng, AB, 6, nontrivial=True)
        if contains(h, g):
            continue
        result = hall_completion(h, g)
        assert index(result.subgroup) == result.finite_index
        assert not contains(result.subgroup, g)
        m = canonical_morphism(h.based, result.subgroup.based)
        assert m is not None and m.is_injective()
        for w in result.basis_h:
            assert contains(h, w)


def test_join_examples():
    assert join(
        stallings_graph(AB, [P("a")]), stallings_graph(AB, [P("b")])
    ) == full_group(AB)
    h = stallings_graph(AB, [P("abab")])
    assert join(h, trivial_subgroup(AB)) == h
    assert join(
        stallings_graph(AB, [P("aa")]), stallings_graph(AB, [P("aaa")])
    ) == stallings_graph(AB, [P("a")])


def test_rebase_and_relative_index():
    a1 = stallings_graph(AB, [P("a")])
    a4 = stallings_graph(AB, [P("aaaa")])
    assert relative_index(a4, a1) == 4
    assert relative_index(a1, a1) == 1
    inner = rebase_inside(a4, a1)
    assert rank(inner) == 1
    # infinite relative index: <a> inside F(a,b)
    assert relative_index(a1, full_group(AB)) is None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: expand_in_basis([], [1]), "cannot expand over an empty basis"),
        (lambda: coset_representatives(stallings_graph(AB, [P("a")])),
         "coset representatives exist only at finite index"),
        (lambda: rebase_inside(stallings_graph(AB, [P("b")]), stallings_graph(AB, [P("a")])),
         "rebase_inside needs M to be a subgroup of H"),
    ],
    ids=["expand-empty-basis", "cosets-infinite-index", "rebase-not-a-subgroup"],
)
def test_subgroup_layer_error_paths(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_subgroup_graph_validation():
    from freegroups.graph import XDigraph

    with pytest.raises(InvalidInputError):
        SubgroupGraph(XDigraph(AB, 2, [(0, 0, 1)]), 0)  # dangling, not core
    with pytest.raises(InvalidInputError):
        SubgroupGraph(XDigraph(AB, 2, ()), 0)  # disconnected
    with pytest.raises(InvalidInputError, match="base vertex"):
        SubgroupGraph(XDigraph(AB, 1, [(0, 0, 0)]), 1)  # no such base
    with pytest.raises(InvalidInputError, match="connected"):
        SubgroupGraph(XDigraph(AB, 3, [(0, 0, 0), (1, 0, 2), (2, 0, 1)]), 0)
    with pytest.raises(InvalidInputError, match="core"):
        SubgroupGraph(XDigraph(AB, 2, [(0, 0, 0), (0, 1, 1)]), 0)


def test_subgroup_graph_hands_its_checked_step_table_on():
    # the input graph no longer holds the table built to validate it; an
    # input already in canonical numbering hands it, and its edge tuple,
    # to the canonical graph, and any other input is renumbered afresh; a
    # graph that holds its table alone, as a loaded one does, keeps it
    from freegroups.graph import XDigraph, graph_from_json, graph_to_json

    rng = Random(91)
    for _ in range(20):
        h = rand_subgroup(rng, AB, max_vertices=9)
        perm = list(range(h.vertex_count))
        rng.shuffle(perm)
        g = XDigraph(AB, h.vertex_count, [(perm[o], x, perm[t]) for o, x, t in h.graph.edges])
        g._step_table()
        loaded = SubgroupGraph(g, perm[h.base])
        assert loaded == h
        assert g._steps is None
        fresh = XDigraph(AB, h.vertex_count, loaded.graph.edges)
        assert loaded.graph._steps == fresh._step_table()
        canonical = XDigraph(AB, h.vertex_count, h.graph.edges)
        checked = canonical._step_table()
        kept = SubgroupGraph(canonical, 0)
        assert kept == h
        assert kept.graph.edges is canonical.edges
        assert kept.graph._steps is checked
        assert canonical._steps is None
        stored = graph_from_json(graph_to_json(h.based)).graph
        table = stored._steps
        kept = SubgroupGraph(stored, 0)
        assert stored._steps is table is kept.graph._steps
        assert stored._edges is kept.graph._edges is None
        assert kept == h
        assert stored.edges == h.graph.edges


def test_a_loaded_graph_holds_one_int_object_per_vertex():
    # json.loads makes a new int object for every endpoint past the small
    # int cache; the load writes them into the step table from one list of
    # vertex ints, and a canonical graph keeps that table; the edge tuple
    # derived from it takes its termini from the table and one origin per
    # vertex
    from freegroups.graph import graph_from_json, graph_to_json

    h = stallings_graph(AB, [P("a" * 300 + "b"), P("ba")])
    based = graph_from_json(graph_to_json(h.based))
    assert based.graph._edges is None
    table_ids = {id(v) for v in based.graph._steps if v >= 0}
    assert len(table_ids) == h.vertex_count == 302
    kept = SubgroupGraph(based.graph, based.base)
    assert kept == h
    assert kept.graph._steps is based.graph._steps
    edges = kept.graph.edges
    assert edges == h.graph.edges
    assert {id(t) for _, _, t in edges} <= table_ids
    assert len({id(o) for o, _, _ in edges}) <= h.vertex_count


XY = Alphabet.from_string("xy")


@pytest.mark.parametrize(
    "call",
    [
        lambda k, h: canonical_morphism(k.based, h.based),
        lambda k, h: is_free_factor(k, h),
        lambda k, h: relative_index(k, h),
        lambda k, h: rebase_inside(k, h),
        lambda k, h: relative_image(k, h),
        lambda k, h: is_algebraic_extension(k, h),
        lambda k, h: power_in(stallings_graph(AB, [P("aa")]), parse_word("x", XY)),
        lambda k, h: rewrite_in_basis(h, spanning_tree(h), parse_word("x", XY)),
    ],
    ids=[
        "canonical_morphism", "is_free_factor", "relative_index", "rebase_inside",
        "relative_image", "is_algebraic_extension", "power_in", "rewrite_in_basis",
    ],
)
def test_k_in_h_functions_reject_two_alphabets(call):
    # <xy> over xy and F(a, b) have the same codes, so only the alphabet
    # check tells them apart
    k = stallings_graph(XY, [parse_word("xy", XY)])
    with pytest.raises(AlphabetMismatchError):
        call(k, full_group(AB))


# every public function of two operands, called on H = <ab> over ab and
# X = <xy> or the word xy over xy: the same codes, other alphabets
MISMATCHED_CALLS = {
    "intersection": lambda h, x, w: intersection(h, x),
    "component_analysis": lambda h, x, w: component_analysis(h, x),
    "stallings_graph": lambda h, x, w: stallings_graph(AB, [P("a"), w]),
    "contains": lambda h, x, w: contains(h, w),
    "trace_path": lambda h, x, w: trace_path(h.graph, h.base, w),
    "transport": lambda h, x, w: transport(h.graph, h.base, x.graph, x.base),
    "multiply": lambda h, x, w: multiply(P("ab"), w),
    "power_in": lambda h, x, w: power_in(h, w),
    "conjugate": lambda h, x, w: conjugate(h, w),
    "conjugacy_equivalent": lambda h, x, w: conjugacy_equivalent(h, x),
    "conjugate_into": lambda h, x, w: conjugate_into(x, h),
    "hall_completion": lambda h, x, w: hall_completion(h, w),
    "join": lambda h, x, w: join(h, x),
    "product": lambda h, x, w: product(h.graph, x.graph),
    "apply_auto": lambda h, x, w: apply_auto(enumerate_whitehead(AB)[-1], w),
    "transform_subgroup": lambda h, x, w: transform_subgroup(enumerate_whitehead(AB)[-1], x),
    "is_immersed": lambda h, x, w: is_immersed([P("ab"), w]),
}


@pytest.mark.parametrize("name", MISMATCHED_CALLS)
def test_two_operand_functions_raise_alphabet_mismatch(name):
    h = stallings_graph(AB, [P("ab")])
    w = parse_word("xy", XY)
    with pytest.raises(AlphabetMismatchError):
        MISMATCHED_CALLS[name](h, stallings_graph(XY, [w]), w)


def test_far_more_vertices_than_edges_is_rejected_cheaply(capsys):
    # a connected graph has #V <= #E + 1, which is checked before any
    # per-vertex structure is built, by the library and by `fg`
    import json
    import tracemalloc

    from freegroups.cli import _build_parser, main
    from freegroups.graph import graph_from_json

    def load(record):
        with pytest.raises(InvalidInputError, match="must be connected"):
            based = graph_from_json(record)
            SubgroupGraph(based.graph, based.base)
        return 2

    def fg_member(record):
        return main(["--alphabet", "ab", "member", "--sub", record, "--word", "a"])

    _build_parser()  # built once per process, outside the measurement
    for vertices, edges in ((10**6, []), (10**9, [[0, "a", 0]])):
        record = json.dumps({"alphabet": "ab", "vertices": vertices, "base": 0, "edges": edges})
        for run in (load, fg_member):
            tracemalloc.start()
            try:
                assert run(record) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
    assert capsys.readouterr().err == "error: subgroup graph must be connected\n" * 2
