"""Graph layer: folding, cores, tracing, morphisms, products, completion."""

import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.errors import InvalidInputError
from freegroups.graph import (
    BasedGraph,
    XDigraph,
    based_isomorphism,
    canonical_morphism,
    connected_components,
    core,
    fold_all,
    graph_from_json,
    graph_to_json,
    is_folded,
    is_regular,
    isomorphic,
    product,
    regular_complete,
    to_dot,
    trace_path,
    transport,
    type_graph,
    type_with_anchor,
)
from freegroups.subgroup import SubgroupGraph, contains, full_group, stallings_graph
from freegroups.words import Alphabet, Word, parse_word

from helpers import AB, ABC, language_words, naive_fold, rand_gens, rand_subgroup

P = lambda s: parse_word(s, AB)


def fig3_graph() -> XDigraph:
    # two vertices joined by parallel a- and b-edges, plus a dangling c-edge
    return XDigraph(ABC, 3, [(0, 0, 1), (0, 1, 1), (1, 2, 2)])


def two_cycle() -> XDigraph:
    return XDigraph(AB, 2, [(0, 0, 1), (1, 0, 0)])


@pytest.mark.parametrize(
    "vertex_count, edges, message",
    [
        (-3, [], "vertex count -3"),
        (2.5, [], "vertex count 2.5"),
        ("2", [], "vertex count '2'"),
        (True, [], "vertex count True"),
        (2, [(0, 0.0, 1)], "edge (0, 0.0, 1) needs integer"),
        (2, [(0, 0, True)], "edge (0, 0, True) needs integer"),
        (2, [(0, 0, 1), (0, "a", 1)], "triples"),
        (2, [(0, 0)], "triples"),
        (2, [5], "triples"),
        (2, [(0, 0, 2)], "edge (0, 0, 2) has a vertex out of range"),
        (2, [(0, 2, 1)], "edge (0, 2, 1) has an invalid label"),
    ],
)
def test_xdigraph_rejects_bad_vertex_count_and_edge_entries(vertex_count, edges, message):
    # graph_from_json's rule: exact ints, so no bool, float or str passes
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        XDigraph(AB, vertex_count, edges)



_LOOP = XDigraph(AB, 2, [(0, 0, 1), (1, 1, 0)])  # 0 -a-> 1 -b-> 0


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BasedGraph(_LOOP, 1.5), InvalidInputError, "base vertex 1.5 out of range"),
        (lambda: BasedGraph(_LOOP, True), InvalidInputError, "base vertex True out of range"),
        (lambda: BasedGraph(_LOOP, 2), InvalidInputError, "base vertex 2 out of range"),
        (lambda: SubgroupGraph(_LOOP, 1.5), InvalidInputError, "base vertex 1.5 out of range"),
        (lambda: SubgroupGraph(_LOOP, -1), InvalidInputError, "base vertex -1 out of range"),
        (lambda: core(_LOOP, 0.0), InvalidInputError, "vertex 0.0 out of range"),
        (lambda: core(_LOOP, True), InvalidInputError, "vertex True out of range"),
        (lambda: trace_path(_LOOP, -2, P("a")), InvalidInputError, "vertex -2 out of range"),
        (lambda: trace_path(_LOOP, 2, P("a")), InvalidInputError, "vertex 2 out of range"),
        (lambda: transport(_LOOP, 0, _LOOP, -1), InvalidInputError, "vertex -1 out of range"),
        (lambda: transport(_LOOP, 3, _LOOP, 0), InvalidInputError, "vertex 3 out of range"),
        (lambda: _LOOP.step(2, 0), IndexError, "vertex 2 out of range"),  # the low-level step
        (lambda: _LOOP.step(True, 1), IndexError, "vertex True out of range"),
        (lambda: _LOOP.step(1.5, 0), IndexError, "vertex 1.5 out of range"),
        (lambda: _LOOP.step(0, 99), IndexError, "code 99 out of range"),
        (lambda: _LOOP.step(0, -1), IndexError, "code -1 out of range"),
        (lambda: _LOOP.step(0, True), IndexError, "code True out of range"),
    ],
    ids=["based-float", "based-bool", "based-high", "subgroup-float", "subgroup-negative",
         "core-float", "core-bool", "trace-negative", "trace-high", "transport-target",
         "transport-source", "step-high", "step-bool", "step-float", "step-code-high",
         "step-code-negative", "step-code-bool"],
)
def test_vertex_arguments_are_exact_ints_in_range(call, error, message):
    # a bool, a float or a negative index must not reach the step table as a row number
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# -- foldedness -------------------------------------------------------------


def test_is_folded_examples():
    assert not is_folded(XDigraph(AB, 3, [(0, 0, 1), (0, 0, 2)]))
    assert is_folded(XDigraph(AB, 1, [(0, 0, 0)]))
    assert is_folded(two_cycle())
    # two a-edges arriving at one vertex is equally non-folded
    assert not is_folded(XDigraph(AB, 3, [(0, 0, 2), (1, 0, 2)]))


def test_fold_parallel_edges():
    g = XDigraph(AB, 2, [(0, 0, 1), (0, 0, 1)])
    folded, vmap = fold_all(g)
    assert folded.edges == ((0, 0, 1),) and folded.vertex_count == 2
    assert vmap == (0, 1)


def test_fold_already_folded_graph_unchanged():
    g = two_cycle()
    folded, vmap = fold_all(g)
    assert folded == g and vmap == (0, 1)


def test_fold_wedge_preserves_language():
    # wedge spelling aab, bABa, abA at one vertex, folded
    H = stallings_graph(AB, [P("aab"), P("bABa"), P("abA")])
    assert is_folded(H.graph)
    for w in ("aab", "bABa", "abA", "aabbABa", "aabaab"):
        assert contains(H, P(w))
    # short non-members, checked against the path-enumeration oracle
    accepted = {t for t in language_words(H.graph, H.base, 3)}
    for w in ("a", "b", "ab", "ba", "aab"):
        assert (P(w).codes in accepted) == contains(H, P(w))


def test_fold_confluence_random_orders():
    rng = Random(11)
    for _ in range(30):
        gens = rand_gens(rng, AB, 3, 6)
        a = stallings_graph(AB, gens, rng=Random(rng.randrange(10**6)))
        b = stallings_graph(AB, gens, rng=Random(rng.randrange(10**6)))
        assert a == b  # canonical form makes based-isomorphism equality


@st.composite
def multigraphs(draw):
    """Small graphs with loops, multi-edges and possibly several components."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, st.integers(0, 2), vertex), max_size=12))
    return XDigraph(ABC, n, edges)


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.one_of(st.none(), st.integers(0, 2**32)))
def test_fold_all_matches_naive_fold(g, seed):
    folded, vmap = fold_all(g, None if seed is None else Random(seed))
    blocks = [frozenset(v for v in range(g.vertex_count) if vmap[v] == i)
              for i in range(folded.vertex_count)]
    edges = {(blocks[o], x, blocks[t]) for o, x, t in folded.edges}
    assert (set(blocks), edges) == naive_fold(g)
    assert len(edges) == len(folded.edges)


def test_fold_language_soundness_random_multigraphs():
    # reduced labels of the input survive folding at the tracked vertex
    from freegroups.words import free_reduce

    rng = Random(71)
    for _ in range(25):
        n = rng.randint(1, 5)
        edges = [
            (rng.randrange(n), rng.randrange(2), rng.randrange(n))
            for _ in range(rng.randint(0, 8))
        ]
        g = XDigraph(AB, n, edges)
        folded, vmap = fold_all(g)
        for codes in language_words(g, 0, 5):
            w = free_reduce(AB, codes)
            assert trace_path(folded, vmap[0], w) == vmap[0]


def test_fold_decreases_edges_by_folds():
    g = XDigraph(AB, 3, [(0, 0, 1), (0, 0, 2), (1, 1, 2)])
    folded, _ = fold_all(g)
    assert len(folded.edges) == 2  # exactly one fold happened


# -- core -------------------------------------------------------------------


def test_core_drops_dangling_edge():
    cored, vmap = core(fig3_graph(), 0)
    assert cored.vertex_count == 2
    assert cored.edges == ((0, 0, 1), (0, 1, 1))
    assert vmap == {0: 0, 1: 1}


def test_core_single_vertex():
    g = XDigraph(AB, 1, ())
    cored, _ = core(g, 0)
    assert cored == g


def test_core_prunes_pendant_path_iteratively():
    # 2-cycle with a pendant path of length 2 hanging off vertex 1
    g = XDigraph(AB, 4, [(0, 0, 1), (1, 0, 0), (1, 1, 2), (2, 1, 3)])
    cored, vmap = core(g, 0)
    assert cored == two_cycle()
    # oracle: repeated leaf deletion must remove exactly vertices 2, 3
    assert set(vmap) == {0, 1}


def test_core_idempotent_and_language_preserving():
    rng = Random(12)
    for _ in range(20):
        h = rand_subgroup(rng, AB)
        attached = XDigraph(
            h.alphabet,
            h.vertex_count + 1,
            list(h.graph.edges) + [(h.base, 0, h.vertex_count)],
        )
        if not is_folded(attached):
            continue
        cored, vmap = core(attached, h.base)
        again, _ = core(cored, vmap[h.base])
        assert again == cored
        assert language_words(cored, vmap[h.base], 4) == language_words(
            attached, h.base, 4
        )


def test_core_requires_folded():
    with pytest.raises(InvalidInputError):
        core(XDigraph(AB, 3, [(0, 0, 1), (0, 0, 2)]), 0)


# -- tracing ----------------------------------------------------------------


def test_trace_path_examples():
    g = two_cycle()
    assert trace_path(g, 0, P("aa")) == 0
    assert trace_path(g, 0, P("b")) is None
    # Fig 3: aB returns to the base after one (a b^-1) period
    fig3 = fig3_graph()
    assert trace_path(fig3, 0, parse_word("aB", ABC)) == 0
    assert trace_path(fig3, 0, parse_word("", ABC)) == 0


def test_fig3_language():
    accepted = language_words(fig3_graph(), 0, 10)
    expected = set()
    for n in range(-5, 6):
        w = parse_word("aB" * n if n >= 0 else "bA" * (-n), ABC)
        expected.add(w.codes)
    assert accepted == expected


# -- morphisms --------------------------------------------------------------


def test_based_isomorphism_examples():
    g = two_cycle()
    ident = based_isomorphism(BasedGraph(g, 0), BasedGraph(g, 0))
    assert ident is not None and ident.vertex_map == (0, 1)
    swap = based_isomorphism(BasedGraph(g, 0), BasedGraph(g, 1))
    assert swap is not None and swap.vertex_map == (1, 0)
    rose = XDigraph(AB, 1, [(0, 0, 0)])
    assert based_isomorphism(BasedGraph(rose, 0), BasedGraph(g, 0)) is None


def test_canonical_morphism_examples():
    a2 = stallings_graph(AB, [P("aa")])
    a1 = stallings_graph(AB, [P("a")])
    down = canonical_morphism(a2.based, a1.based)
    assert down is not None and set(down.vertex_map) == {0}
    assert canonical_morphism(a1.based, a2.based) is None
    aab = stallings_graph(AB, [P("aab")])
    assert canonical_morphism(aab.based, full_group(AB).based) is not None


def test_mutual_morphisms_imply_isomorphism():
    rng = Random(13)
    for _ in range(20):
        h = rand_subgroup(rng, AB)
        k = rand_subgroup(rng, AB)
        hk = canonical_morphism(h.based, k.based)
        kh = canonical_morphism(k.based, h.based)
        if hk is not None and kh is not None:
            assert based_isomorphism(h.based, k.based) is not None


# -- type graphs ------------------------------------------------------------


def test_type_graph_examples():
    a2 = stallings_graph(AB, [P("aa")])
    assert type_graph(a2.based) == a2.graph
    stem = stallings_graph(AB, [P("baaB")])
    assert type_graph(stem.based) == a2.graph
    single = XDigraph(AB, 1, ())
    assert type_graph(BasedGraph(single, 0)) == single


def test_type_anchor_and_stem():
    stem = stallings_graph(AB, [P("baaB")])
    t = type_with_anchor(stem.based)
    assert t.stem == (2,)  # the removed arc reads "b"
    assert t.graph.vertex_count == 2


def test_type_of_a_graph_that_is_no_core_raises():
    # the stem walk meets a vertex of degree other than two before one
    # of degree three: a path ending in a leaf, and a base with no edge
    # in a graph that has one; a raise, so it holds under -O too
    for g in (XDigraph(AB, 3, [(0, 0, 1), (1, 1, 2)]), XDigraph(AB, 2, [(1, 0, 1)])):
        with pytest.raises(AssertionError, match="stem interior vertex must have degree two"):
            type_with_anchor(BasedGraph(g, 0))


# -- products and components -------------------------------------------------


def test_product_fig8():
    h = stallings_graph(AB, [P("ab"), P("Ba")])
    k = stallings_graph(AB, [P("aaa"), P("AbA")])
    prod = product(h.graph, k.graph, base_pair=(0, 0))
    assert prod.graph.vertex_count == 6
    assert len(prod.graph.edges) == 7
    assert prod.graph.is_connected()
    base = prod.pair_index()[(0, 0)]
    cored, _ = core(prod.graph, base)
    assert cored.vertex_count == 6 and len(cored.edges) == 7


def test_product_two_cycles():
    a2 = stallings_graph(AB, [P("aa")]).graph
    prod = product(a2, a2, base_pair=(0, 0))
    comps = connected_components(prod.graph)
    assert len(comps) == 2
    assert {len(c.vertices) for c in comps} == {2}


def test_product_disjoint_labels():
    ra = stallings_graph(AB, [P("a")]).graph
    rb = stallings_graph(AB, [P("b")]).graph
    prod = product(ra, rb, base_pair=(0, 0))
    assert prod.graph.vertex_count == 1 and prod.graph.edges == ()


def test_product_degree_bound():
    rng = Random(14)
    for _ in range(10):
        h = rand_subgroup(rng, AB)
        k = rand_subgroup(rng, AB)
        prod = product(h.graph, k.graph, base_pair=(0, 0))
        dh, dk = h.graph.degrees(), k.graph.degrees()
        for i, (v, u) in enumerate(prod.pairs):
            assert prod.graph.degrees()[i] <= min(dh[v], dk[u])


def test_connected_components_examples():
    edgeless = XDigraph(AB, 3, ())
    assert len(connected_components(edgeless)) == 3
    assert len(connected_components(two_cycle())) == 1


# -- regular completion -------------------------------------------------------


def test_regular_complete_examples():
    single = XDigraph(AB, 1, ())
    completed = regular_complete(single)
    assert completed.edges == ((0, 0, 0), (0, 1, 0))  # the full-group rose
    rose = completed
    assert regular_complete(rose) == rose


def test_regular_complete_degrees():
    rng = Random(15)
    for _ in range(20):
        h = rand_subgroup(rng, AB)
        completed = regular_complete(h.graph)
        assert is_regular(completed)
        assert set(completed.edges) >= set(h.graph.edges)
        assert completed.vertex_count == h.vertex_count
        assert all(d == 2 * AB.size for d in completed.degrees())


# -- serialization ------------------------------------------------------------


def test_json_roundtrip():
    h = stallings_graph(AB, [P("bbAA")])
    text = graph_to_json(h.based)
    loaded = graph_from_json(text)
    assert loaded.graph == h.graph and loaded.base == h.base


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: graph_from_json("[]"), "malformed graph record: "),
        (lambda: graph_from_json("{}"), "malformed graph record: 'alphabet'"),
        (lambda: transport(XDigraph(AB, 2, []), 0, XDigraph(AB, 1, []), 0),
         "transport requires a connected source graph"),
        (lambda: regular_complete(XDigraph(AB, 2, [(0, 0, 0), (0, 0, 1)])),
         "regular_complete needs a folded graph"),
    ],
    ids=["json-list", "json-empty-object", "transport-disconnected", "complete-unfolded"],
)
def test_graph_layer_error_paths(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
        call()


def test_isomorphic_returns_early_on_sizes_and_on_empty_graphs():
    loop = XDigraph(AB, 1, [(0, 0, 0)])
    assert not isomorphic(XDigraph(AB, 2, [(0, 0, 1)]), loop)  # vertex counts differ
    assert not isomorphic(XDigraph(AB, 1, [(0, 0, 0), (0, 1, 0)]), loop)  # edge counts differ
    assert isomorphic(XDigraph(AB, 0, []), XDigraph(AB, 0, []))


def test_json_rejects_garbage():
    with pytest.raises(InvalidInputError):
        graph_from_json("{not json")
    with pytest.raises(InvalidInputError):
        graph_from_json('{"alphabet": "ab", "vertices": 1, "base": 0, "edges": [[0, "z", 0]]}')


def test_dot_output():
    h = stallings_graph(AB, [P("aa")])
    text = to_dot(h.based)
    assert text.count("->") == 2
    assert "doublecircle" in text
    assert text == to_dot(h.based)  # deterministic


def test_dot_escapes_quotes_and_backslashes_in_labels():
    alph = Alphabet(['x"y', "a\\b"])
    h = stallings_graph(alph, [Word(alph, (0,)), Word(alph, (2,))])
    text = to_dot(h.based)
    assert '[label="x\\"y"];' in text
    assert '[label="a\\\\b"];' in text
