"""Quotients, algebraic extensions, closures, isolation."""

from random import Random

import pytest

from freegroups.errors import InvalidInputError, ResourceLimitError
from freegroups.extensions import (
    algebraic_closure,
    algebraic_extensions,
    is_algebraic_extension,
    is_algebraically_closed,
    is_isolated,
    isolation_length_bound,
    isolator,
    malnormal_closure,
    principal_quotients,
    relative_image,
)
from freegroups.graph import canonical_morphism
from freegroups.intersect import is_malnormal
from freegroups.subgroup import (
    conjugate,
    full_group,
    rank,
    stallings_graph,
    trivial_subgroup,
)
from freegroups.words import format_word, parse_word

from helpers import AB, A1, quotient_keys_by_partitions, rand_subgroup, spans

P = lambda s: parse_word(s, AB)
P1 = lambda s: parse_word(s, A1)


# -- principal quotients --------------------------------------------------------


def test_quotients_of_a_squared():
    qs = principal_quotients(stallings_graph(AB, [P("aa")]))
    assert len(qs) == 2
    graphs = {pq.graph for pq in qs}
    assert graphs == {stallings_graph(AB, [P("aa")]), stallings_graph(AB, [P("a")])}


def test_quotients_of_rose():
    assert len(principal_quotients(full_group(AB))) == 1


def test_quotient_maps_are_epimorphisms():
    k = stallings_graph(AB, [P("abAB")])
    for pq in principal_quotients(k):
        vmap = pq.quotient_map.vertex_map
        assert len(vmap) == k.vertex_count
        assert set(vmap) == set(range(pq.graph.vertex_count))
        # label-preserving: every edge transports
        target = pq.graph.graph.step_maps()
        for o, x, t in k.graph.edges:
            assert target[vmap[o]][2 * x] == vmap[t]


def test_quotients_match_partition_oracle():
    rng = Random(61)
    cases = [
        stallings_graph(AB, [P("abAB")]),
        stallings_graph(AB, [P("aa"), P("bb")]),
    ]
    while len(cases) < 6:
        g = rand_subgroup(rng, AB, max_vertices=5)
        cases.append(g)
    for k in cases:
        fast = {pq.graph.canonical_key() for pq in principal_quotients(k)}
        slow = quotient_keys_by_partitions(k)
        assert fast == slow


def test_quotients_closed_under_quotients():
    k = stallings_graph(AB, [P("aa"), P("bb")])
    keys = {pq.graph.canonical_key() for pq in principal_quotients(k)}
    for pq in principal_quotients(k):
        for inner in principal_quotients(pq.graph):
            assert inner.graph.canonical_key() in keys


def test_quotient_vertex_bound():
    big = stallings_graph(AB, [P("ab" * 7)])
    with pytest.raises(ResourceLimitError):
        principal_quotients(big)
    small = stallings_graph(AB, [P("abab")])
    with pytest.raises(ResourceLimitError):
        principal_quotients(small, max_vertices=3)
    assert len(principal_quotients(small, max_vertices=4)) > 1


# -- relative images --------------------------------------------------------------


def test_relative_image_examples():
    a1 = stallings_graph(AB, [P("a")])
    a2 = stallings_graph(AB, [P("aa")])
    img = relative_image(a2, a1)
    assert spans(img, a1.graph)
    h = stallings_graph(AB, [P("ab"), P("Ba")])
    assert spans(relative_image(h, h), h.graph)


def test_relative_image_proper_subgraph():
    # K = <a> inside H = <a, bab^-1>: the image is the a-loop at the base
    h = stallings_graph(AB, [P("a"), P("baB")])
    k = stallings_graph(AB, [P("a")])
    img = relative_image(k, h)
    assert img.vertices == (0,)
    assert img.edges == ((0, 0, 0),)
    sub = img.as_xdigraph(h.graph)
    from freegroups.graph import is_folded

    assert is_folded(sub) and sub.is_connected()


def test_relative_image_errors():
    with pytest.raises(InvalidInputError):
        relative_image(stallings_graph(AB, [P("b")]), stallings_graph(AB, [P("a")]))


# -- extension classification -------------------------------------------------------


def test_extension_verdicts():
    a1 = stallings_graph(AB, [P("a")])
    a2 = stallings_graph(AB, [P("aa")])
    assert is_algebraic_extension(a2, a1).is_algebraic
    verdict = is_algebraic_extension(a1, full_group(AB))
    assert verdict.kind == "free"
    assert verdict.free_factor is not None and rank(verdict.free_factor) < 2
    assert is_algebraic_extension(a2, a2).is_algebraic


def test_algebraic_extensions_examples():
    a2 = stallings_graph(AB, [P("aa")])
    a1 = stallings_graph(AB, [P("a")])
    assert set(algebraic_extensions(a2)) == {a2, a1}
    assert algebraic_extensions(a1) == [a1]
    ab_cycle = stallings_graph(AB, [P("ab")])
    assert algebraic_extensions(ab_cycle) == [ab_cycle]


def test_algebraic_extensions_relative_image_full():
    rng = Random(62)
    for _ in range(6):
        k = rand_subgroup(rng, AB, max_gens=2, max_len=5, max_vertices=5)
        for h in algebraic_extensions(k):
            assert spans(relative_image(k, h), h.graph)


def test_extension_transitivity_spot_check():
    rng = Random(63)
    for _ in range(5):
        k = rand_subgroup(rng, AB, max_gens=2, max_len=5, max_vertices=5)
        exts = algebraic_extensions(k)
        for h in exts:
            for q in algebraic_extensions(h, max_vertices=14):
                if canonical_morphism(h.based, q.based) is None:
                    continue
                assert is_algebraic_extension(k, q, max_vertices=14).is_algebraic


def test_rank_one_extension_arithmetic():
    # cyclic subgroups: extensions of <a^4> are exactly the divisor powers
    a4 = stallings_graph(AB, [P("aaaa")])
    expected = {
        stallings_graph(AB, [P("aaaa")]),
        stallings_graph(AB, [P("aa")]),
        stallings_graph(AB, [P("a")]),
    }
    assert set(algebraic_extensions(a4)) == expected
    assert algebraic_closure(a4) == stallings_graph(AB, [P("a")])


def test_algebraic_closure_examples():
    a2 = stallings_graph(AB, [P("aa")])
    a1 = stallings_graph(AB, [P("a")])
    assert algebraic_closure(a2) == a1
    assert algebraic_closure(a1) == a1
    kernel = stallings_graph(AB, [P("aa"), P("b"), P("abA")])
    assert algebraic_closure(kernel) == full_group(AB)


def test_algebraically_closed():
    assert is_algebraically_closed(stallings_graph(AB, [P("a")]))
    assert not is_algebraically_closed(stallings_graph(AB, [P("aa")]))
    assert is_algebraically_closed(full_group(AB))


# -- isolation ----------------------------------------------------------------------


def test_is_isolated_examples():
    r = is_isolated(stallings_graph(A1, [P1("aa")]))
    assert (r.isolated, r.complete) == (False, True)
    word, m = r.witness
    assert (format_word(word), m) == ("a", 2)
    assert is_isolated(stallings_graph(A1, [P1("a")])) == (True, None, True)
    r = is_isolated(stallings_graph(AB, [P("a")]), depth_override=6)
    assert r.isolated


def test_is_isolated_full_bound_rank_one():
    h = stallings_graph(A1, [P1("aaa")])
    assert isolation_length_bound(h) == (2**3 * 3**6 + 1) * 4 + 6
    r = is_isolated(h)
    assert not r.isolated and r.witness == (P1("a"), 3)


def test_is_isolated_longer_witness():
    # the root of <b a^2 b^-1> is b a b^-1, found at search length three
    h = stallings_graph(AB, [P("baaB")])
    r = is_isolated(h)
    assert not r.isolated
    word, m = r.witness
    assert (word, m) == (P("baB"), 2)


def test_is_isolated_state_limit():
    # <ab> is isolated (a free factor) but has 2 vertices, so the full
    # exhaustive search is astronomically long; the limit must trip
    with pytest.raises(ResourceLimitError):
        is_isolated(stallings_graph(AB, [P("ab")]), state_limit=500)
    # bounded search is honest about incompleteness
    r = is_isolated(stallings_graph(AB, [P("ab")]), depth_override=4)
    assert r.isolated and not r.complete


def test_malnormal_closure_examples():
    a2 = stallings_graph(AB, [P("aa")])
    a1 = stallings_graph(AB, [P("a")])
    assert malnormal_closure(a2) == a1
    assert malnormal_closure(a1) == a1  # already malnormal
    moved = malnormal_closure(stallings_graph(AB, [P("baaB")]))
    assert moved == stallings_graph(AB, [P("baB")])
    assert moved == conjugate(a1, P("b"))  # conjugation equivariance


def test_isolator_examples():
    a2 = stallings_graph(AB, [P("aa")])
    a1 = stallings_graph(AB, [P("a")])
    assert isolator(a2) == a1
    assert isolator(a1) == a1
    a6 = stallings_graph(A1, [P1("aaaaaa")])
    assert isolator(a6) == stallings_graph(A1, [P1("a")])


def test_closure_fixed_points_and_minimality():
    rng = Random(64)
    for _ in range(5):
        k = rand_subgroup(rng, AB, max_gens=2, max_len=5, max_vertices=5)
        mal = malnormal_closure(k)
        assert malnormal_closure(mal) == mal
        assert is_malnormal(mal)[0]
        assert canonical_morphism(k.based, mal.based) is not None
        assert rank(mal) <= rank(k)
        # minimality: no smaller malnormal algebraic extension contains K
        for e in algebraic_extensions(k):
            if e != mal and is_malnormal(e)[0]:
                assert canonical_morphism(mal.based, e.based) is not None


def test_closures_reject_trivial():
    with pytest.raises(InvalidInputError):
        malnormal_closure(trivial_subgroup(AB))
    with pytest.raises(InvalidInputError):
        isolator(trivial_subgroup(AB))
