"""Quotients, algebraic extensions, closures, isolation."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path
from random import Random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freegroups.extensions as fe
from freegroups.errors import InvalidInputError, ResourceLimitError
from freegroups.extensions import (
    _refines,
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
    contains,
    full_group,
    join,
    power_in,
    rank,
    stallings_graph,
    trivial_subgroup,
)
from freegroups.words import format_word, parse_word

from helpers import (
    AB,
    ABC,
    A1,
    algebraic_extension_by_whitehead,
    algebraic_extensions_by_whitehead,
    isolation_by_word_search,
    principal_quotients_by_refolding,
    quotient_keys_by_partitions,
    rand_subgroup,
    spans,
)

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


def _letter_sharing_swap_classes(g) -> int:
    """The swap classes of the self-product of ``g`` off the diagonal whose
    pairs share a letter: components of the graph on the pairs (v, u),
    v < u, that joins each to the pair of ends of every letter both read."""
    steps = g.graph.step_maps()
    pairs = nx.Graph()
    for v in range(g.vertex_count):
        for u in range(v + 1, g.vertex_count):
            for code, v2 in steps[v].items():
                u2 = steps[u].get(code)
                if u2 is not None:
                    pairs.add_edge((v, u), (min(v2, u2), max(v2, u2)))
    return nx.number_connected_components(pairs)


@pytest.mark.parametrize("gens", [("aBB", "BAbb"), ("abAB",), ("aB", "baaa", "abb")])
def test_quotients_fold_one_pair_per_swap_class(gens):
    # a pair and the pairs its letters lead to generate one congruence,
    # so each quotient folds the least pair of each swap class whose pairs
    # share a letter, and merges a pair whose stars share none unfolded
    k = stallings_graph(AB, [P(w) for w in gens])
    with mock.patch.object(fe, "_fold_merges", wraps=fe._fold_merges) as folds:
        quotients = principal_quotients(k)
    classes = sum(_letter_sharing_swap_classes(pq.graph) for pq in quotients)
    pairs = sum(comb(pq.graph.vertex_count, 2) for pq in quotients)
    assert folds.call_count == classes < pairs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_quotients_match_refolding_route_over_f3(seed):
    # the class walk reads rows of six codes, and F3 stars share no letter
    # in more ways than F2 stars do
    k = rand_subgroup(Random(seed), ABC, max_gens=3, max_len=9, max_vertices=8)
    assert principal_quotients(k) == principal_quotients_by_refolding(k)


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
    # an isolated subgroup on 18 vertices whose transition monoid has
    # several hundred elements: a small state limit must trip, naming
    # the elements explored and the vertex count, and the default
    # limit must reach the exact verdict
    h = stallings_graph(AB, [P("aabbaaaaabbAABabab")])
    assert h.vertex_count == 18
    with pytest.raises(ResourceLimitError) as exc:
        is_isolated(h, state_limit=100)
    assert "explored 100 " in str(exc.value) and "18 vertices" in str(exc.value)
    assert is_isolated(h) == (True, None, True)
    assert isolation_by_word_search(h, 5) is None
    # depth_override is accepted and has no effect; verdicts are complete
    assert is_isolated(stallings_graph(AB, [P("ab")]), depth_override=4) == (True, None, True)
    r = is_isolated(stallings_graph(AB, [P("baaB")]), depth_override=1)
    assert (r.witness, r.complete) == ((P("baB"), 2), True)


def test_is_isolated_commutator():
    # the word search needs length 83,886,093 here; the monoid is tiny
    h = stallings_graph(AB, [P("abAB")])
    assert isolation_length_bound(h) == 83_886_093
    assert is_isolated(h, state_limit=30) == (True, None, True)


def _subgroups(max_vertices: int):
    """Random F2 subgroups on at most ``max_vertices`` vertices, drawn
    through a seed so that every size up to the bound turns up often."""
    return st.integers(0, 2**32).map(
        lambda seed: rand_subgroup(
            Random(seed), AB, max_gens=2, max_len=10, max_vertices=max_vertices
        )
    )


@settings(max_examples=60, deadline=None)
@given(_subgroups(max_vertices=6))
def test_isolation_agrees_with_word_search(h):
    r = is_isolated(h)
    assert r.complete
    found = isolation_by_word_search(h, 7)
    if r.isolated:
        assert r.witness is None and found is None
        return
    f, m = r.witness
    assert m >= 2 and not contains(h, f) and contains(h, f**m) and power_in(h, f) == m
    if len(f) <= 7:
        assert found is not None


@settings(max_examples=10, deadline=None)
@given(_subgroups(max_vertices=8), st.data())
def test_algebraic_extensions_agree_with_whitehead(k, data):
    assert algebraic_extensions(k) == algebraic_extensions_by_whitehead(k)
    quotients = principal_quotients(k)
    h = quotients[data.draw(st.integers(0, len(quotients) - 1))].graph
    assert is_algebraic_extension(k, h) == algebraic_extension_by_whitehead(k, h)
    extra = stallings_graph(AB, [P(data.draw(st.text(alphabet="aAbB", min_size=1, max_size=3)))])
    h = join(k, extra)
    assert is_algebraic_extension(k, h) == algebraic_extension_by_whitehead(k, h)


@settings(max_examples=80, deadline=None)
@given(_subgroups(max_vertices=9))
def test_quotients_match_refolding_route(k):
    quotients = principal_quotients(k)
    assert quotients == principal_quotients_by_refolding(k)
    for s in quotients:
        for q in quotients:
            by_walk = canonical_morphism(s.graph.based, q.graph.based) is not None
            assert _refines(s.quotient_map, q.quotient_map) == by_walk


def test_isolation_witness_check_survives_optimize():
    # a wrong cycle length makes a wrong witness (a, 3) for <aa>; the
    # check must still raise under -O
    script = """
import freegroups.extensions as fe
from freegroups.subgroup import stallings_graph
from freegroups.words import Alphabet, parse_word
ab = Alphabet.from_string("ab")
fe._first_cycle = lambda p, n: (0, 3) if p[0] != 0 else None
try:
    fe.is_isolated(stallings_graph(ab, [parse_word("aa", ab)]))
except AssertionError:
    print("raised")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "raised", done.stderr


def test_quotient_steps_form_the_identification_dag():
    # every quotient but K is reached by a step from a larger quotient,
    # and no step raises the rank by more than one
    for gens in (["aa", "bb"], ["abAB"], ["aBB", "BAbb"]):
        k = stallings_graph(AB, [P(w) for w in gens])
        quotients = principal_quotients(k)
        by_key = {pq.graph.canonical_key(): pq.graph for pq in quotients}
        assert quotients[0].graph == k and quotients[0].step_sources == frozenset()
        for pq in quotients[1:]:
            assert pq.step_sources and pq.step_sources <= by_key.keys()
            for key in pq.step_sources:
                src = by_key[key]
                assert src.vertex_count > pq.graph.vertex_count
                assert canonical_morphism(src.based, pq.graph.based) is not None
                assert rank(pq.graph) <= rank(src) + 1


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
