"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Everything is desk-scale (alphabets of at most three
letters, graphs of at most about forty vertices) and deterministic via
fixed seeds.
"""

import time
from random import Random

from freegroups.extensions import (
    algebraic_closure,
    algebraic_extensions,
    is_isolated,
    isolator,
    malnormal_closure,
    principal_quotients,
)
from freegroups.graph import (
    XDigraph,
    canonical_morphism,
    core,
    graph_from_json,
    product,
)
from freegroups.intersect import (
    hanna_neumann_check,
    intersection,
    is_cyclonormal,
    is_immersed,
    is_malnormal,
)
from freegroups.subgroup import (
    SubgroupGraph,
    basis,
    conjugate,
    contains,
    expand_in_basis,
    hall_completion,
    index,
    is_nielsen_reduced,
    join,
    power_in,
    rank,
    relative_index,
    rewrite_in_basis,
    schreier_check,
    spanning_tree,
    spanning_tree_from_edges,
    stallings_graph,
)
from freegroups.whitehead import is_free_factor_of_ambient
from freegroups.words import (
    format_word,
    invert,
    multiply,
    parse_word,
    synthetic_alphabet,
)

from helpers import (
    AB,
    ABC,
    A1,
    is_subgraph_embedding,
    language_words,
    product_words,
    rand_gens,
    rand_subgroup,
    rand_word,
)

P = lambda s: parse_word(s, AB)
P1 = lambda s: parse_word(s, A1)


def test_criterion_01_hall_completion_of_fig7():
    h = stallings_graph(AB, [P("bbAA")])
    result = hall_completion(h, P("ab"))
    assert result.finite_index == 5
    assert index(result.subgroup) == 5
    assert not contains(result.subgroup, P("ab"))
    # base-preserving subgraph embedding (hence H is a free factor of L)
    m = canonical_morphism(h.based, result.subgroup.based)
    assert m is not None and is_subgraph_embedding(m, h.graph, result.subgroup.graph)
    # Schreier count |Y| = index*(rk F - 1) + 1 = 6, split with Y_H = {bbAA}
    assert [format_word(w) for w in result.basis_h] == ["bbAA"]
    assert len(result.basis_h) + len(result.basis_c) == 6
    assert rank(result.subgroup) == 6
    for w in result.basis_h + result.basis_c:
        assert contains(result.subgroup, w)
    print("ACCEPTANCE 1 PASS: Hall completion of <b^2 a^-2> avoiding ab has index 5")


def test_criterion_02_fig8_product_and_intersection():
    h = stallings_graph(AB, [P("ab"), P("Ba")])
    k = stallings_graph(AB, [P("aaa"), P("AbA")])
    prod = product(h.graph, k.graph, base_pair=(h.base, k.base))
    assert prod.graph.is_connected()
    base = prod.pair_index()[(h.base, k.base)]
    cored, _ = core(prod.graph, base)
    assert cored.vertex_count == prod.graph.vertex_count
    assert len(cored.edges) == len(prod.graph.edges)
    meet = intersection(h, k)
    assert rank(meet) == 2
    assert (meet.vertex_count, meet.edge_count) == (6, 7)
    print("ACCEPTANCE 2 PASS: product of the two rank-2 subgroups is a connected core graph; intersection has rank 2")


def test_criterion_03_two_letter_cycle_language():
    # two vertices with parallel a- and b-edges, plus a dangling c-edge
    g = XDigraph(ABC, 3, [(0, 0, 1), (0, 1, 1), (1, 2, 2)])
    accepted = language_words(g, 0, 10)
    expected = set()
    for n in range(0, 6):
        expected.add(parse_word("aB" * n, ABC).codes)
        expected.add(parse_word("bA" * n, ABC).codes)
    assert accepted == expected
    cored, vmap = core(g, 0)
    assert cored.vertex_count == 2
    assert cored.edges == ((0, 0, 1), (0, 1, 1))
    print("ACCEPTANCE 3 PASS: the language is exactly (a b^-1)^n for |n| <= 5 and the core drops the dangling edge")


# Host graph and highlighted tree reconstructed so that the tree basis is
# valid; the caption's second word appears with one amended exponent sign
# (b a^-1 b^3 a^-1 b^-1), since the printed set admits no realization as a
# tree basis of any folded graph.
FIG5_GRAPH = (
    '{"alphabet": "ab", "vertices": 8, "base": 0, "edges": '
    '[[0, "a", 1], [0, "b", 3], [1, "a", 4], [2, "a", 0], [2, "b", 4], '
    '[3, "a", 5], [3, "b", 1], [4, "a", 3], [4, "b", 6], [6, "b", 7], '
    '[7, "b", 5]]}'
)
FIG5_TREE = [(0, 1, 3), (2, 0, 0), (3, 0, 5), (3, 1, 1), (4, 0, 3), (6, 1, 7), (7, 1, 5)]


def test_criterion_04_tree_basis_of_fig5_fixture():
    based = graph_from_json(FIG5_GRAPH)
    host = SubgroupGraph(based.graph, based.base)
    assert host.graph == based.graph  # fixture is stored canonically
    tree = spanning_tree_from_edges(host, FIG5_TREE)
    got = set(basis(host, tree).elements)
    assert got == {P("AbaB"), P("bAbbbAB"), P("bbaaB"), P("aBB")}
    print("ACCEPTANCE 4 PASS: highlighted-tree basis of the reconstructed figure graph matches exactly")


def test_criterion_05_folding_confluence_and_canonicity():
    rng = Random(1005)
    for trial in range(100):
        gens = rand_gens(rng, AB, 4, 8)
        a = stallings_graph(AB, gens, rng=Random(rng.randrange(10**9)))
        b = stallings_graph(AB, gens, rng=Random(rng.randrange(10**9)))
        assert a == b  # canonical equality == based isomorphism
        # a Nielsen-moved generating set of the same subgroup
        moved = list(gens)
        moved[0] = multiply(gens[0], gens[-1])
        moved.append(invert(gens[-1]))
        moved = [w for w in moved if w.codes]
        c = stallings_graph(AB, moved)
        assert all(contains(c, g) for g in gens)
        assert all(contains(a, g) for g in moved)
        assert a == c
    print("ACCEPTANCE 5 PASS: 100 random fold orders and equivalent generating sets give based-isomorphic graphs")


def test_criterion_06_schreier_formula():
    from freegroups.graph import regular_complete

    rng = Random(1006)
    for trial in range(50):
        h = rand_subgroup(rng, AB, max_vertices=12)
        g = SubgroupGraph(regular_complete(h.graph), h.base)
        i = index(g)
        assert i == g.vertex_count
        assert rank(g) - 1 == i * (AB.size - 1)
        assert schreier_check(g)
    print("ACCEPTANCE 6 PASS: Schreier formula holds exactly on 50 random finite-index completions")


def test_criterion_07_membership_oracle_agreement():
    rng = Random(1007)
    for trial in range(20):
        gens = rand_gens(rng, AB, 3, 5)
        h = stallings_graph(AB, gens)
        tree = spanning_tree(h)
        b = basis(h, tree)
        oracle = product_words(gens, 6)
        pool = sorted(oracle, key=lambda w: w.shortlex_key())
        positives = [pool[rng.randrange(len(pool))] for _ in range(250)]
        for w in positives:
            assert contains(h, w)  # oracle word must be accepted
            if w.codes:
                assert expand_in_basis(b.elements, rewrite_in_basis(h, tree, w)) == w
        for _ in range(250):
            w = rand_word(rng, AB, 8)
            if contains(h, w):
                # constructive certificate: rewriting reproduces the word
                if w.codes:
                    assert expand_in_basis(b.elements, rewrite_in_basis(h, tree, w)) == w
            else:
                assert w not in oracle
    print("ACCEPTANCE 7 PASS: membership agrees with the product-enumeration oracle on 20 subgroups x 500 words")


def test_criterion_08_geodesic_bases_are_nielsen_reduced():
    rng = Random(1008)
    for trial in range(100):
        h = rand_subgroup(rng, AB, max_gens=4, max_len=7)
        b = basis(h, spanning_tree(h, geodesic=True))
        if b.elements:
            assert is_nielsen_reduced(b.elements)
    print("ACCEPTANCE 8 PASS: geodesic-tree bases are Nielsen reduced on 100 random subgroups")


def test_criterion_09_malnormality_witnesses():
    ok, witness = is_malnormal(stallings_graph(AB, [P("a")]))
    assert ok and witness is None
    ok, witness = is_malnormal(stallings_graph(AB, [P("aa")]))
    assert not ok and witness is not None
    rng = Random(1009)
    found = 0
    while found < 100:
        # plant a proper power to force non-malnormality
        w = rand_word(rng, AB, 4, nontrivial=True)
        power = w ** rng.randint(2, 3)
        gens = [power] + rand_gens(rng, AB, 2, 5)
        h = stallings_graph(AB, gens)
        if contains(h, w):
            continue
        found += 1
        ok, g = is_malnormal(h)
        assert not ok
        assert not contains(h, g)
        assert rank(intersection(conjugate(h, g), h)) >= 1
    print("ACCEPTANCE 9 PASS: 100 planted non-malnormal subgroups, every witness verified")


def test_criterion_10_immersed_implies_cyclonormal():
    rng = Random(1010)
    done = 0
    while done < 50:
        gens = []
        for letter in "ab"[: rng.randint(1, 2)]:
            middle = rand_word(rng, AB, rng.randint(0, 4))
            w = parse_word(letter + format_word(middle) + letter, AB)
            gens.append(w)
        if not all(len(g) >= 2 for g in gens) or not is_immersed(gens):
            continue
        done += 1
        assert is_cyclonormal(stallings_graph(AB, gens))
    print("ACCEPTANCE 10 PASS: 50 immersed tuples (first = last letter construction) are all cyclonormal")


def test_criterion_11_intersection_rank_inequality():
    rng = Random(1011)
    done = 0
    while done < 200:
        if rng.random() < 0.5:
            shared = rand_word(rng, AB, 5, nontrivial=True)
            h = stallings_graph(AB, [shared] + rand_gens(rng, AB, 2, 5))
            k = stallings_graph(AB, [shared] + rand_gens(rng, AB, 2, 5))
        else:
            h = rand_subgroup(rng, AB)
            k = rand_subgroup(rng, AB)
        if intersection(h, k).is_trivial():
            continue
        done += 1
        assert hanna_neumann_check(h, k)
    print("ACCEPTANCE 11 PASS: rank inequality holds on 200 random pairs with nontrivial intersection")


def test_criterion_12_extension_suite():
    a2 = stallings_graph(AB, [P("aa")])
    a1 = stallings_graph(AB, [P("a")])
    assert len(principal_quotients(a2)) == 2
    assert set(algebraic_extensions(a2)) == {a2, a1}
    assert algebraic_closure(a2) == a1
    assert malnormal_closure(a2) == a1
    assert isolator(a2) == a1
    rng = Random(1012)
    for trial in range(50):
        k = rand_subgroup(rng, AB, max_gens=3, max_len=6, max_vertices=6)
        assert (algebraic_closure(k) == k) == is_free_factor_of_ambient(k)
    print("ACCEPTANCE 12 PASS: quotient and closure computations match; closure fixed-point agrees with the ambient free-factor test on 50 subjects")


def test_criterion_13_power_membership_bound():
    rng = Random(1013)
    for trial in range(100):
        g = rand_word(rng, AB, 4, nontrivial=True)
        n = rng.randint(1, 4)
        h = stallings_graph(AB, [g**n] + rand_gens(rng, AB, 2, 4))
        m = power_in(h, g)
        assert m is not None and 1 <= m <= h.vertex_count
        assert contains(h, g**m)
        for smaller in range(1, m):
            assert not contains(h, g**smaller)
    print("ACCEPTANCE 13 PASS: least powers found within the vertex-count bound on 100 planted cases")


def test_criterion_14_greenberg_stallings():
    rng = Random(1014)

    def substitute(words, target_basis):
        out = []
        for w in words:
            indices = [
                (c >> 1) + 1 if c & 1 == 0 else -((c >> 1) + 1) for c in w.codes
            ]
            out.append(expand_in_basis(target_basis, indices))
        return out

    done = 0
    while done < 20:
        g_base = rand_subgroup(rng, AB, max_gens=2, max_len=5)
        if rank(g_base) < 2 or g_base.vertex_count > 8:
            continue
        inner = synthetic_alphabet(rank(g_base))
        base_words = basis(g_base).elements
        from freegroups.graph import regular_complete

        pair = []
        for _ in range(2):
            inner_sub = rand_subgroup(rng, inner, max_gens=2, max_len=4, max_vertices=4)
            completed = SubgroupGraph(regular_complete(inner_sub.graph), inner_sub.base)
            pair.append(
                stallings_graph(AB, substitute(basis(completed).elements, base_words))
            )
        h, k = pair
        meet = intersection(h, k)
        if meet.is_trivial():
            continue
        # premise: the intersection has finite index in both factors
        assert relative_index(meet, h) is not None
        assert relative_index(meet, k) is not None
        # conclusion: finite index in the join
        assert relative_index(meet, join(h, k)) is not None
        done += 1
    print("ACCEPTANCE 14 PASS: intersections of finite relative index have finite index in the join on 20 constructed pairs")


def test_criterion_15_isolation_at_full_bound_rank_one():
    start = time.time()
    for p in (2, 3, 5):
        h = stallings_graph(A1, [P1("a" * p)])
        result = is_isolated(h)
        assert result.complete
        assert not result.isolated
        assert result.witness == (P1("a"), p)
    assert is_isolated(stallings_graph(A1, [P1("a")])) == (True, None, True)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 15 PASS: full-bound isolation answers in rank one ({elapsed:.2f}s)")
