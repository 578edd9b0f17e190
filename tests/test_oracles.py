"""The step-table walks and the Whitehead descent against independent oracles.

A graph's step table, and the tables that folds, cores and products hand
on to the graphs they build, must hold what step maps built one
half-edge at a time hold, and reject an unfolded graph with the same
message.  The base-component intersection, the component walk behind the
reports and the malnormal and cyclonormal tests, and the fused fold ->
core -> canonical builds must give exactly what the full product graph
and the unfused builds give; generators read into one table must make
the fold of the spelled wedge in any reading order; the swap classes of
a self-product, each lifted to its component and that component's swap,
must give the components of the walk over all ordered pairs; a component
report is the same value whether or not its graph has been built.
``parse_word`` must read a text as the loop over its characters does,
errors included.  The one-pass graph-JSON load must give what the load
in separate passes gives, errors included.  The star-split sizes of
Whitehead moves must match the built images and the move-by-move count,
edge substitution must build what folding the images of a basis builds,
the descent over cut masks must take the enumerated descent's steps, and
the descent on cyclic cores must decide free factors as the descent on
based graphs does.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from random import Random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.cli import _subgroup_from_json
from freegroups.extensions import principal_quotients
from freegroups.errors import InvalidInputError, WordParseError
from freegroups.graph import (
    BasedGraph,
    XDigraph,
    _core_numbering,
    _fold,
    _fold_wedge,
    _load_graph,
    _quotient_table,
    _star_masks,
    based_isomorphism,
    connected_components,
    core,
    fold_all,
    graph_from_json,
    graph_to_json,
    is_folded,
    product,
    type_graph,
    type_with_anchor,
)
from freegroups.intersect import (
    _product_components,
    _self_product_classes,
    component_analysis,
    intersection,
    is_cyclonormal,
    is_malnormal,
)
from freegroups.subgroup import (
    SubgroupGraph,
    _is_canonical,
    _spell_path,
    basis,
    conjugate,
    join,
    spanning_tree,
    stallings_graph,
    trivial_subgroup,
)
from freegroups.errors import ResourceLimitError
import freegroups.subgroup as fsub
import freegroups.whitehead as fw
from freegroups.whitehead import (
    _cut,
    _cut_image,
    _cyclic_core,
    _minimal_cyclic_core,
    _move_sizes,
    _multiplier_moves,
    enumerate_whitehead,
    is_free_factor_of_ambient,
    transform_subgroup,
)
from freegroups.words import Alphabet, Word, free_reduce, identity, invert, multiply, parse_word

from helpers import (
    A1,
    AB,
    ABC,
    component_analysis_by_full_product,
    conjugate_unfused,
    core_by_leaf_deletion,
    core_order_by_maps,
    cyclic_core_by_degrees,
    free_factor_by_based_descent,
    intersection_by_full_product,
    join_unfused,
    minimal_cyclic_core_by_enumeration,
    move_sizes_by_classes,
    naive_fold,
    parse_word_by_chars,
    rand_subgroup,
    rand_word,
    smaller_state_on_plateau,
    spelled_wedge,
    stallings_graph_unfused,
    stem_by_pruning,
    step_maps_by_edges,
    subgroup_from_json_by_passes,
    table_of_maps,
    transform_by_basis,
    type_with_anchor_by_degrees,
)

ABCD = Alphabet.from_string("abcd")
ABCDE = Alphabet.from_string("abcde")


def _subgroup(rng: Random, alphabet, max_vertices: int):
    """A random subgroup on at most ``max_vertices`` vertices; every
    second one is conjugated, so that its base sits on a stem."""
    while True:
        h = rand_subgroup(rng, alphabet, max_gens=3, max_len=9, max_vertices=max_vertices)
        if rng.random() < 0.5:
            h = conjugate(h, rand_word(rng, alphabet, 5))
        if h.vertex_count <= max_vertices:
            return h


def _subgroups(max_vertices: int):
    """Random F2/F3 subgroups, drawn through a seed."""
    return st.tuples(st.sampled_from([AB, ABC]), st.integers(0, 2**32)).map(
        lambda a: _subgroup(Random(a[1]), a[0], max_vertices)
    )


@st.composite
def _pairs(draw, max_vertices: int):
    """Two subgroups over one alphabet; every second pair shares an element."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    rng = Random(draw(st.integers(0, 2**32)))
    h = _subgroup(rng, alphabet, max_vertices)
    k = _subgroup(rng, alphabet, max_vertices)
    if draw(st.booleans()):
        k = join(k, stallings_graph(alphabet, basis(h).elements[:1]))
    return h, k


def _readable_conjugator(rng: Random, h) -> Word:
    """A word ``w`` with a random head and a tail whose inverse is a
    reduced path from the base, so that conjugation walks into H."""
    steps = h.graph.step_maps()
    v, path = h.base, []
    for _ in range(rng.randint(0, 6)):
        codes = [c for c in sorted(steps[v]) if not path or c != path[-1] ^ 1]
        if not codes:
            break
        path.append(rng.choice(codes))
        v = steps[v][path[-1]]
    head = rand_word(rng, h.alphabet, 3) if rng.random() < 0.5 else identity(h.alphabet)
    return multiply(head, invert(Word(h.alphabet, tuple(path))))


@st.composite
def _generators(draw):
    """Generator lists over F2 or F3, with trivial and empty lists."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    code = st.integers(0, alphabet.num_codes - 1)
    raw = draw(st.lists(st.lists(code, max_size=12), max_size=4))
    return alphabet, [free_reduce(alphabet, codes) for codes in raw]


# -- intersection and component reports ----------------------------------------


@settings(max_examples=150, deadline=None)
@given(_pairs(max_vertices=30))
def test_intersection_matches_full_product(pair):
    h, k = pair
    assert intersection(h, k).graph == intersection_by_full_product(h, k).graph


@settings(max_examples=60, deadline=None)
@given(_pairs(max_vertices=12))
def test_component_analysis_matches_full_product(pair):
    h, k = pair
    assert component_analysis(h, k) == component_analysis_by_full_product(h, k)


@settings(max_examples=60, deadline=None)
@given(_subgroups(max_vertices=14))
def test_malnormal_and_cyclonormal_match_full_product(h):
    reports = component_analysis_by_full_product(h, h)
    bad = [r for r in reports if not r.contains_base_pair and r.rank > 0]
    expected = (True, None) if not bad else (False, bad[0].double_coset_witness)
    assert is_malnormal(h) == expected
    assert is_cyclonormal(h) == all(r.contains_base_pair or r.rank <= 1 for r in reports)




def _square(alphabet, seed: int) -> SubgroupGraph:
    """<w^2> for a random nontrivial w: a self-product with a double cover."""
    w = rand_word(Random(seed), alphabet, 6, nontrivial=True)
    return stallings_graph(alphabet, [multiply(w, w)])


def _rose(alphabet, letters: int) -> SubgroupGraph:
    """One vertex with a loop on each of the first ``letters`` letters (all, if fewer)."""
    return stallings_graph(
        alphabet, [Word(alphabet, (2 * x,)) for x in range(min(letters, alphabet.size))]
    )


def _self_product_subgroups():
    """Random F2/F3 subgroups, the trivial subgroup, roses and <w^2>."""
    alphabets = st.sampled_from([AB, ABC])
    return st.one_of(
        _subgroups(max_vertices=14),
        alphabets.map(trivial_subgroup),
        st.tuples(alphabets, st.integers(1, 3)).map(lambda a: _rose(*a)),
        st.tuples(alphabets, st.integers(0, 2**32)).map(lambda a: _square(*a)),
    )


def _check_swap_classes(h: SubgroupGraph) -> int:
    """Check the swap classes of H x H against the walk over all ordered
    pairs, and return how many of them are double covers.

    Each class lifted to C and swap(C), or to the one component C when
    it is a double cover, must give exactly the components of the
    ordered walk off the base pair: the same pair sets, edge counts and
    ranks.  The base component must be the diagonal.  Each class must
    start at the least pair of C and swap(C), a pair (v, u) with v < u."""
    n = h.vertex_count
    ordered = list(_product_components(h.graph, h.graph, (h.base, h.base)))
    [(diagonal, diagonal_edges)] = [(sorted(p), e) for p, e, has_base in ordered if has_base]
    assert (diagonal, diagonal_edges) == (list(range(0, n * n, n + 1)), h.edge_count)
    expected = sorted(
        (sorted(p), e, e - len(p) + 1) for p, e, has_base in ordered if not has_base
    )
    lifted, doubles = [], 0
    for pairs, edge_count, double in _self_product_classes(
        h.graph._step_table(), h.alphabet.num_codes, range(n)
    ):
        twin = [p % n * n + p // n for p in pairs]
        v, u = divmod(pairs[0], n)
        assert v < u and pairs[0] == min(pairs + twin)
        assert len(set(pairs + twin)) == 2 * len(pairs)  # one orientation of each pair
        class_rank = edge_count - len(pairs) + 1
        if double:
            doubles += 1
            lifted.append((sorted(pairs + twin), 2 * edge_count, 2 * class_rank - 1))
        else:
            lifted += [(sorted(c), edge_count, class_rank) for c in (pairs, twin)]
    assert sorted(lifted) == expected
    return doubles


@settings(max_examples=80, deadline=None)
@given(_self_product_subgroups())
def test_swap_classes_lift_to_the_ordered_self_product(h):
    _check_swap_classes(h)
    copy_of_h = SubgroupGraph(XDigraph(h.alphabet, h.vertex_count, h.graph.edges), 0)
    assert copy_of_h is not h and copy_of_h == h
    oracle = component_analysis_by_full_product(h, h)
    assert component_analysis(h, h) == component_analysis(h, copy_of_h) == oracle
    # the ordered walk decides both tests, with the witness at the least bad pair
    bad = [
        p[0] for p, e, has_base in _product_components(h.graph, h.graph, (h.base, h.base))
        if not has_base and e - len(p) + 1 > 0
    ]
    if bad:
        tree = spanning_tree(h, geodesic=True)
        v, u = divmod(bad[0], h.vertex_count)
        expected = (False, multiply(tree.path_word(u), invert(tree.path_word(v))))
    else:
        expected = (True, None)
    assert is_malnormal(h) == expected
    assert is_cyclonormal(h) == all(
        has_base or e - len(p) + 1 <= 1
        for p, e, has_base in _product_components(h.graph, h.graph, (h.base, h.base))
    )


def test_swap_classes_include_double_covers():
    # <w^2> always has one; random subgroups have some, and classes
    # whose swap is a second component, so both lifts are checked
    rng = Random(13)
    cases = [_square(AB, 1), _square(ABC, 2), _rose(AB, 2), trivial_subgroup(ABC)]
    cases += [_subgroup(rng, alphabet, 14) for alphabet in (AB, ABC) for _ in range(20)]
    doubles = [_check_swap_classes(h) for h in cases]
    assert doubles[0] >= 1 and doubles[1] >= 1
    assert sum(d > 0 for d in doubles[4:]) >= 1
    assert any(
        not double
        for h in cases
        for *_, double in _self_product_classes(
            h.graph._step_table(), h.alphabet.num_codes, range(h.vertex_count)
        )
    )

def test_component_analysis_on_factors_of_different_sizes():
    # pair ids are v * #V_K + u: unequal vertex counts, in both orders
    rng = Random(11)
    checked = 0
    while checked < 12:
        h = _subgroup(rng, AB, 14)
        k = _subgroup(rng, AB, 9)
        if h.vertex_count == k.vertex_count:
            continue
        assert component_analysis(h, k) == component_analysis_by_full_product(h, k)
        assert component_analysis(k, h) == component_analysis_by_full_product(k, h)
        checked += 1


def test_isolated_base_pair_is_a_one_vertex_component():
    a, b = (stallings_graph(AB, [parse_word(w, AB)]) for w in ("a", "b"))
    [report] = component_analysis(a, b)
    assert report == component_analysis_by_full_product(a, b)[0]
    assert report.contains_base_pair and report.representative_vertex == (0, 0)
    assert (report.component.vertex_count, report.component.edges) == (1, ())
    assert (report.rank, report.double_coset_witness) == (0, None)
    # an isolated base pair beside components that carry edges
    h = stallings_graph(AB, [parse_word("aa", AB)])
    k = stallings_graph(AB, [parse_word("baB", AB)])
    reports = component_analysis(h, k)
    assert reports == component_analysis_by_full_product(h, k)
    assert reports[0].contains_base_pair and reports[0].component.vertex_count == 1
    assert [r.rank for r in reports[1:]] == [1]


def _self_product_sized(rng: Random, planted: list[str], length: int):
    """An F2 subgroup on 30-55 vertices: the planted words and three
    reduced random words of ``length`` letters (about ``3 * length - 6``
    vertices without planted words)."""
    while True:
        gens = [parse_word(w, AB) for w in planted]
        for _ in range(3):
            codes = [rng.randrange(4)]
            while len(codes) < length:
                code = rng.randrange(4)
                if code != codes[-1] ^ 1:
                    codes.append(code)
            gens.append(Word(AB, codes))
        h = stallings_graph(AB, gens)
        if 30 <= h.vertex_count <= 55:
            return h


def test_self_product_walks_at_benchmark_sizes():
    # plain, holding a square w^2, and holding <u, v> with its conjugate
    # by g, so that malnormal, non-malnormal and non-cyclonormal all occur
    plantings = ([], ["abab"], [], ["aBBaBB"], ["aab", "abb", "babaabBAB", "bababbBAB"])
    rng = Random(7)
    answers, sizes = set(), []
    for length in (12, 16, 19):
        for planted in plantings:
            h = _self_product_sized(rng, planted, length)
            sizes.append(h.vertex_count)
            reports = component_analysis_by_full_product(h, h)
            assert component_analysis(h, h) == reports
            bad = [r for r in reports if not r.contains_base_pair and r.rank > 0]
            expected = (True, None) if not bad else (False, bad[0].double_coset_witness)
            assert is_malnormal(h) == expected
            cyclonormal = all(r.contains_base_pair or r.rank <= 1 for r in reports)
            assert is_cyclonormal(h) == cyclonormal
            answers.add((expected[0], cyclonormal))
    assert answers == {(True, True), (False, True), (False, False)}
    assert max(sizes) >= 48


def test_reports_are_values_before_and_after_their_graph_is_built():
    # <u, v> and its conjugate by g: a self-product whose reports carry witnesses
    h = _self_product_sized(Random(7), ["aab", "abb", "babaabBAB", "bababbBAB"], 12)
    oracle = component_analysis_by_full_product(h, h)
    assert any(r.double_coset_witness is not None for r in oracle)
    for read in (False, True):
        for forward in (True, False):
            reports = component_analysis(h, h)
            if read:
                [r.component for r in reports]
            assert (reports == oracle) if forward else (oracle == reports)
    # the oracle's reports are built eagerly, from equal graphs
    assert [hash(r) for r in component_analysis(h, h)] == [hash(r) for r in oracle]
    assert [repr(r) for r in component_analysis(h, h)] == [repr(r) for r in oracle]
    for read in (False, True):
        reports = component_analysis(h, h)
        if read:
            [r.component for r in reports]
        assert [pickle.loads(pickle.dumps(r)) for r in reports] == oracle
        assert copy.deepcopy(reports) == oracle
    report = component_analysis(h, h)[-1]
    for field in ("component", "rank"):
        with pytest.raises(FrozenInstanceError):
            setattr(report, field, None)
    assert report.component is report.component
    assert report == oracle[-1]


def test_component_graphs_are_built_only_when_read(monkeypatch):
    h = _self_product_sized(Random(3), [], 16)
    trusted = XDigraph._trusted
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args[1])
        return trusted(*args, **kwargs)

    monkeypatch.setattr(XDigraph, "_trusted", classmethod(counted))
    reports = component_analysis(h, h)
    # a malnormal subgroup: no witness is built, so nothing else wraps a graph
    assert all(r.double_coset_witness is None for r in reports)
    assert calls == [] and len(reports) > 300
    for i, report in enumerate(reports[:40]):
        first = report.component
        assert report.component is first
        assert calls[i:] == [first.vertex_count]
    assert len(calls) == 40

@st.composite
def _multigraphs(draw):
    """Unfolded multigraphs with loops, multi-edges and isolated vertices."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, st.integers(0, 2), vertex), max_size=16))
    return XDigraph(ABC, n, edges)


@settings(max_examples=200, deadline=None)
@given(_multigraphs())
def test_connected_components_match_networkx(g):
    ref = nx.MultiGraph()
    ref.add_nodes_from(range(g.vertex_count))
    ref.add_edges_from((o, t) for o, _, t in g.edges)
    expected = sorted(sorted(c) for c in nx.connected_components(ref))
    comps = connected_components(g)
    assert [list(c.vertices) for c in comps] == expected
    for c in comps:
        renum = {v: i for i, v in enumerate(c.vertices)}
        assert c.graph.edges == tuple(
            sorted((renum[o], x, renum[t]) for o, x, t in g.edges if o in renum)
        )
    assert g.is_connected() == (len(expected) == 1)


# -- fused builds ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_generators(), st.one_of(st.none(), st.integers(0, 2**32)))
def test_stallings_graph_matches_unfused(gens, seed):
    alphabet, words = gens
    rng = lambda: None if seed is None else Random(seed)  # noqa: E731
    fused = stallings_graph(alphabet, words, rng())
    assert fused.graph == stallings_graph_unfused(alphabet, words, rng()).graph


def test_stallings_graph_of_empty_and_trivial_generators():
    trivial = stallings_graph_unfused(AB, [])
    assert stallings_graph(AB, []).graph == trivial.graph
    assert stallings_graph(AB, [free_reduce(AB, [0, 1])]).graph == trivial.graph
    assert stallings_graph(ABC, [free_reduce(ABC, [])] * 3).graph.vertex_count == 1


@st.composite
def _wedge_words(draw):
    """Generator lists over F1, F2 or F3, some of them equal to, inverse
    to or proper powers of others."""
    alphabet = draw(st.sampled_from([A1, AB, ABC]))
    code = st.integers(0, alphabet.num_codes - 1)
    words = [free_reduce(alphabet, codes)
             for codes in draw(st.lists(st.lists(code, max_size=12), max_size=5))]
    kin = st.tuples(st.integers(0, 4), st.sampled_from([1, -1, 2, -2, 3]))
    for i, power in draw(st.lists(kin, max_size=3)) if words else ():
        words.append(words[i % len(words)] ** power)
    return alphabet, draw(st.permutations(words))


def _wedge_graph(alphabet, words) -> XDigraph:
    """The graph _fold_wedge reads these words into, in the order given."""
    table, count = _fold_wedge([w.codes for w in words], alphabet.num_codes)
    return XDigraph._trusted(alphabet, count, None, table)


def _assert_folds_the_spelled_wedge(alphabet, words, built: XDigraph) -> None:
    # the table is a folded graph's (its edges give it back), and that
    # graph is the fold of the spelled wedge, based at the wedge vertex
    assert XDigraph(alphabet, built.vertex_count, built.edges)._step_table() == built._steps
    folded, vmap = fold_all(spelled_wedge(alphabet, words))
    assert based_isomorphism(BasedGraph(built, 0), BasedGraph(folded, vmap[0])) is not None


@settings(max_examples=300, deadline=None)
@given(_wedge_words(), st.integers(0, 2**32))
def test_wedge_fold_matches_the_fold_of_the_spelled_wedge(gens, seed):
    alphabet, words = gens
    shuffled = list(words)
    Random(seed).shuffle(shuffled)
    for order in (words, sorted(words, key=len), shuffled):
        _assert_folds_the_spelled_wedge(alphabet, words, _wedge_graph(alphabet, order))
    for rng in (None, Random(seed)):
        assert stallings_graph(alphabet, words, rng) == stallings_graph_unfused(alphabet, words)


def test_wedge_fold_folds_a_middle_that_both_traces_leave_at_one_vertex():
    # b and aaB build a b-loop at 0 and a's from 0 to 1 and back; BabaBA
    # reads Ba forwards and A backwards, both to vertex 1, so its middle
    # baB, which is not cyclically reduced, fills b at 1 first and last
    words = [parse_word(t, AB) for t in ("b", "aaB", "BabaBA")]
    built = _wedge_graph(AB, words)
    _assert_folds_the_spelled_wedge(AB, words, built)
    assert (built.vertex_count, built.edge_count) == (3, 5)


def test_wedge_fold_without_merges_keeps_its_table_and_still_checks_it():
    # aab and bba share no prefix or suffix at the wedge vertex, so
    # nothing merges, and the tail keeps the table as it was built
    words = [parse_word(t, AB) for t in ("aab", "bba")]
    with mock.patch("freegroups.graph._quotient_table", wraps=_quotient_table) as tail:
        built = _wedge_graph(AB, words)
    table, parent, _ = tail.call_args.args
    assert parent == list(range(built.vertex_count)) and built._steps is table
    _assert_folds_the_spelled_wedge(AB, words, built)
    # the inverse-code check runs on that path too: a half-edge whose
    # inverse slot is empty raises
    broken = list(table)
    broken[broken.index(-1)] = 0
    with pytest.raises(AssertionError, match="two equally labelled half-edges"):
        _quotient_table(broken, parent, AB.num_codes)


def test_wedge_fold_checks_raise_under_optimize():
    # with the merge loop patched to do nothing, ab, aab leaves a folded
    # table whose one queued merge is undone, which only the check of the
    # queued merges sees; abA leaves slot a at 0 held by two vertices,
    # which the inverse-code check sees first
    script = """
import freegroups.graph as fgraph
from freegroups.subgroup import stallings_graph
from freegroups.words import Alphabet, parse_word
ab = Alphabet.from_string("ab")
fgraph._fold_merges = lambda steps, parent, merges: None
for texts in (("ab", "aab"), ("abA",)):
    try:
        stallings_graph(ab, [parse_word(t, ab) for t in texts])
    except AssertionError as exc:
        print(exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.splitlines() == [
        "a queued merge of the wedge fold left two blocks",
        "folding left two equally labelled half-edges at a vertex",
    ], done.stderr


@settings(max_examples=200, deadline=None)
@given(_subgroups(max_vertices=30), st.integers(0, 2**32))
def test_conjugate_matches_unfused(h, seed):
    rng = Random(seed)
    if rng.random() < 0.5:
        w = _readable_conjugator(rng, h)
    else:
        w = rand_word(rng, h.alphabet, 10)
    assert conjugate(h, w).graph == conjugate_unfused(h, w).graph


@settings(max_examples=150, deadline=None)
@given(_pairs(max_vertices=30))
def test_join_matches_unfused(pair):
    h, k = pair
    assert join(h, k).graph == join_unfused(h, k).graph


@settings(max_examples=100, deadline=None)
@given(_pairs(max_vertices=12), st.integers(0, 2**32))
def test_trusted_graphs_are_what_the_public_constructor_builds(pair, seed):
    # the builds wrap their edges without checking or sorting them, so
    # each edge tuple must be the sorted, in-range one XDigraph() makes
    h, k = pair
    rng = Random(seed)
    subgroups = [
        stallings_graph(h.alphabet, basis(h).elements + basis(k).elements),
        conjugate(h, _readable_conjugator(rng, h)),
        conjugate(k, rand_word(rng, h.alphabet, 8)),
        join(h, k),
        intersection(h, k),
        *(pq.graph for pq in principal_quotients(_subgroup(rng, h.alphabet, 6))),
    ]
    perm = list(range(h.vertex_count))
    rng.shuffle(perm)
    relabelled = [(perm[o], x, perm[t]) for o, x, t in h.graph.edges]
    subgroups += [
        _cyclic_core(h),
        SubgroupGraph(XDigraph(h.alphabet, h.vertex_count, relabelled), perm[h.base]),
    ]
    wedge = h.graph.edges + tuple((o + h.vertex_count, x, t + h.vertex_count)
                                  for o, x, t in k.graph.edges) + ((0, 0, h.vertex_count),)
    built = [
        *(s.graph for s in subgroups),
        *(type_graph(s.based) for s in subgroups),
        *(r.component for r in component_analysis(h, k)),
        *(c.graph for c in connected_components(product(h.graph, k.graph).graph)),
        fold_all(XDigraph(h.alphabet, h.vertex_count + k.vertex_count, wedge)).graph,
    ]
    # and each build that hands a step table on hands the one its edges give
    assert all(s.graph._steps is not None for s in subgroups)
    for g in built:
        assert g == XDigraph(g.alphabet, g.vertex_count, g.edges)
        if g._steps is not None:
            assert g._steps == table_of_maps(step_maps_by_edges(g), g.alphabet.num_codes)


@settings(max_examples=200, deadline=None)
@given(_multigraphs())
def test_step_table_matches_the_step_maps_oracle(g):
    # folded or not, the table and its views hold what step maps built
    # one half-edge at a time hold, and the first clash raises the same message
    width = g.alphabet.num_codes
    for graph in (g, fold_all(g).graph):
        fresh = XDigraph(graph.alphabet, graph.vertex_count, graph.edges)
        try:
            expected = step_maps_by_edges(graph)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as raised:
                fresh.step_maps()
            assert str(raised.value) == str(exc)
            assert not is_folded(fresh)
            continue
        assert is_folded(fresh)
        assert graph.step_maps() == fresh.step_maps() == expected
        assert graph._step_table() == fresh._step_table() == table_of_maps(expected, width)
        assert [[graph.step(v, c) for c in range(width)] for v in range(graph.vertex_count)] \
            == [[m.get(c) for c in range(width)] for m in expected]


@settings(max_examples=200, deadline=None)
@given(_multigraphs(), st.integers(0, 11))
def test_fold_and_core_numbering_match_the_oracles(g, v):
    # _fold against naive_fold: the blocks, numbered by least vertex, and
    # the folded edges that their rows hold
    width, n = g.alphabet.num_codes, g.vertex_count
    table, count, block = _fold(n, g.edges, width)
    naive_blocks, naive_edges = naive_fold(g)
    blocks = sorted(naive_blocks, key=min)
    assert [frozenset(u for u in range(n) if block[u] == i) for i in range(count)] == blocks
    assert len(table) == count * width
    assert {
        (blocks[i // width], code >> 1, blocks[w])
        for i, w in enumerate(table) for code in [i % width] if w >= 0 and not code & 1
    } == naive_edges
    # the core of the naively folded graph, against leaf deletion and a
    # walk over the step maps in sorted code order
    number = {u: i for i, b in enumerate(blocks) for u in b}
    folded = XDigraph(g.alphabet, count, {(number[o], x, number[t]) for o, x, t in g.edges})
    v = number[v % n]
    order, edges, core_table = _core_numbering(folded._step_table(), folded.vertex_count, v)
    assert order == core_order_by_maps(folded, v)
    pos = {u: i for i, u in enumerate(order)}
    assert edges == tuple(sorted(
        (pos[o], x, pos[t]) for o, x, t in folded.edges if o in pos and t in pos
    ))
    core = XDigraph(g.alphabet, len(order), edges)
    assert core_table == table_of_maps(step_maps_by_edges(core), width)
    # a graph is kept as canonical exactly when that walk from 0 numbers it as it is
    assert _is_canonical(core_table, len(order))
    assert _is_canonical(folded._step_table(), folded.vertex_count) == (
        core_order_by_maps(folded, 0) == list(range(folded.vertex_count))
    )


@settings(max_examples=150, deadline=None)
@given(_multigraphs(), st.integers(0, 11))
def test_core_matches_leaf_deletion(g, v):
    folded, vmap = fold_all(g)
    v = vmap[v % g.vertex_count]
    assert is_folded(folded)
    assert core(folded, v) == core_by_leaf_deletion(folded, v)


def test_core_keeps_the_base_when_pruning_reaches_it():
    # a spur 0-b->1 at the base and a stem 0-a->2-a->3 to a b-loop:
    # deleting 1 leaves the base with one half-edge, and it must stay
    g = XDigraph(AB, 4, [(0, 1, 1), (0, 0, 2), (2, 0, 3), (3, 1, 3)])
    cored, vmap = core(g, 0)
    assert vmap == {0: 0, 2: 1, 3: 2}
    assert cored.edges == ((0, 0, 1), (1, 0, 2), (2, 1, 2))
    # the same shape through conjugation: <a^3 b a^-3> conjugated by a^-1
    h = stallings_graph(AB, [parse_word("aaabAAA", AB)])
    assert conjugate(h, parse_word("A", AB)) == stallings_graph(AB, [parse_word("aabAA", AB)])


# -- word parsing -------------------------------------------------------------------

# é and É are latin-1 letters; ÿ is one too, but its inverse Ÿ is not, and
# no α of the Greek alphabet is
_PARSE_ALPHABETS = [AB, ABC, Alphabet.from_string("éÿ"), Alphabet.from_string("αβ")]
_PARSE_CHARS = "abcABC" + "éÉÿŸ" + "αβΑΒ" + " \t\n\u3000" + "xZ0,\x00\xff😀"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_PARSE_ALPHABETS), st.data())
def test_parse_word_matches_the_loop_over_characters(alphabet, data):
    # letters and their inverses alone, so that pairs cancel, or mixed
    # with whitespace, unknown and non-latin-1 characters
    chars = st.sampled_from(alphabet._names)
    if data.draw(st.booleans()):
        chars |= st.sampled_from(_PARSE_CHARS)
    text = data.draw(st.text(chars))
    try:
        expected = parse_word_by_chars(text, alphabet)
    except WordParseError as exc:
        with pytest.raises(WordParseError) as raised:
            parse_word(text, alphabet)
        assert type(raised.value) is type(exc) and raised.value.position == exc.position
        assert str(raised.value) == str(exc)
        return
    assert parse_word(text, alphabet) == expected


# -- the graph-JSON load ----------------------------------------------------------


def _load(text: str):
    """The graph-JSON load through the public functions, or the error it
    raises; ``fg``'s load (``cli._subgroup_from_json``) must agree."""
    try:
        alphabet = Alphabet(tuple(json.loads(text)["alphabet"]))
        fg = _subgroup_from_json(text, alphabet)
    except Exception as exc:  # the class and message are compared
        fg = (type(exc), str(exc))
    try:
        based = graph_from_json(text)
        loaded = SubgroupGraph(based.graph, based.base)
    except Exception as exc:
        based, loaded = None, (type(exc), str(exc))
    assert fg == loaded
    return based, loaded


def _load_by_passes(text: str):
    try:
        return subgroup_from_json_by_passes(text)
    except Exception as exc:
        return type(exc), str(exc)


def _relabelled(rng: Random, record: dict) -> dict:
    """The same graph with its vertices permuted and its edges shuffled;
    every fourth time the numbering is kept and only the order changes."""
    perm = list(range(record["vertices"]))
    if rng.random() < 0.75:
        rng.shuffle(perm)
    edges = [[perm[o], x, perm[t]] for o, x, t in record["edges"]]
    rng.shuffle(edges)
    return {**record, "base": perm[record["base"]], "edges": edges}


def _corrupted(rng: Random, record: dict) -> dict:
    """The record with one fault of eight kinds, chosen by ``rng``."""
    record = {**record, "edges": [list(e) for e in record["edges"]]}
    edges, n = record["edges"], record["vertices"]
    labels = list(record["alphabet"])
    e = rng.choice(edges)
    kind = rng.randrange(8)
    if kind == 0:  # an endpoint out of range
        e[rng.choice([0, 2])] = rng.choice([-1, n, n + rng.randrange(5)])
    elif kind == 1:  # a label outside the alphabet
        e[1] = rng.choice(["z", "", "ab", 0, None, ["a"]])
    elif kind == 2:  # a second half-edge with a label already at the vertex
        edges.insert(rng.randrange(len(edges) + 1), [e[0], e[1], rng.randrange(n)])
    elif kind == 3:  # a dangling vertex: one edge to a new vertex
        record["vertices"] = n + 1
        edges.append([rng.randrange(n), rng.choice(labels), n])
    elif kind == 4:  # a second component: a new vertex with a loop
        record["vertices"] = n + 1
        edges.append([n, rng.choice(labels), n])
    elif kind == 5:  # the base out of range
        record["base"] = rng.choice([-1, n, n + 3])
    elif kind == 6:  # a record that is not a three-element list
        edges[edges.index(e)] = rng.choice([{"o": 0}, "a0b", 5, None, e[:2], e + [0]])
    else:  # a bool or float endpoint
        e[rng.choice([0, 2])] = rng.choice([True, False, 0.0, float(e[0])])
    return record


@settings(max_examples=150, deadline=None)
@given(_subgroups(max_vertices=30), st.integers(0, 2**32))
def test_graph_json_load_matches_the_load_by_passes(h, seed):
    rng = Random(seed)
    text = graph_to_json(h.based)
    # canonical JSON is kept: the step table its record pass wrote
    based, loaded = _load(text)
    assert loaded.graph._steps is based.graph._steps
    assert loaded.graph._steps == XDigraph(h.alphabet, h.vertex_count, h.graph.edges)._step_table()
    assert loaded == h == _load_by_passes(text)
    # the same graph relabelled and shuffled is renumbered to it
    record = json.loads(text)
    moved = json.dumps(_relabelled(rng, record))
    assert _load(moved)[1] == h == _load_by_passes(moved)
    # a fault gives the same error class and message on both paths
    for start in (record, _relabelled(rng, record)):
        bad = json.dumps(_corrupted(rng, start))
        assert _load(bad)[1] == _load_by_passes(bad)


def _swapped(rng: Random, record: dict) -> dict:
    """The same graph with two vertices swapped, vertex 0 every second
    time, and its edges in their order."""
    n = record["vertices"]
    u, v = (0 if rng.random() < 0.5 else rng.randrange(n)), rng.randrange(n)
    perm = list(range(n))
    perm[u], perm[v] = v, u
    edges = [[perm[o], x, perm[t]] for o, x, t in record["edges"]]
    return {**record, "base": perm[record["base"]], "edges": edges}


def _doubled(record: dict) -> dict:
    """Two disjoint copies of the graph, based in the first."""
    n = record["vertices"]
    edges = record["edges"] + [[o + n, x, t + n] for o, x, t in record["edges"]]
    return {**record, "vertices": 2 * n, "edges": edges}


def _with_leaf(rng: Random, record: dict) -> dict:
    """The graph with one new vertex hung on a free slot of some vertex."""
    n, labels = record["vertices"], list(record["alphabet"])
    taken = {(o, x, 0) for o, x, _ in record["edges"]} | {(t, x, 1) for _, x, t in record["edges"]}
    free = [(v, x, d) for v in range(n) for x in labels for d in (0, 1) if (v, x, d) not in taken]
    if not free:  # every vertex is full: no leaf can be hung on
        return record
    v, x, d = rng.choice(free)
    edge = [v, x, n] if d == 0 else [n, x, v]
    edges = record["edges"][:]
    edges.insert(rng.randrange(len(edges) + 1), edge)
    return {**record, "vertices": n + 1, "edges": edges}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([A1, AB, ABC]), st.integers(0, 2**32))
def test_record_pass_recognises_canonical_numbering_as_the_walk_does(alphabet, seed):
    # the first-slot and degree test of the record pass against the walk
    # _is_canonical makes over the table of the same graph, in any record order
    rng = Random(seed)
    h = _subgroup(rng, alphabet, 30)
    record = json.loads(graph_to_json(h.based))
    variants = [record, _relabelled(rng, record), _swapped(rng, record), _doubled(record),
                _with_leaf(rng, record)]
    for variant in variants:
        n = variant["vertices"]
        edges = [(o, alphabet.symbols.index(x), t) for o, x, t in variant["edges"]]
        walked = _is_canonical(XDigraph(alphabet, n, edges)._step_table(), n)
        based, canonical = _load_graph(json.dumps(variant))
        assert canonical == (variant["base"] == 0 and walked)
        assert based.graph.edges == tuple(sorted(edges))
    assert _load_graph(json.dumps(record))[1]


@settings(max_examples=100, deadline=None)
@given(_subgroups(max_vertices=30), st.integers(0, 2**32))
def test_a_loaded_graph_has_the_value_of_its_edges(h, seed):
    # a graph loaded into its step table alone equals, hashes, prints,
    # pickles and copies as XDigraph(...) of its record edges does, before
    # and after its edge tuple is derived
    record = json.loads(graph_to_json(h.based))
    for variant in (record, _relabelled(Random(seed), record)):
        text = json.dumps(variant)
        alphabet = h.alphabet
        edges = [(o, alphabet.symbols.index(x), t) for o, x, t in variant["edges"]]
        expected = XDigraph(alphabet, h.vertex_count, edges)
        for view in (lambda g: g, hash, repr, lambda g: pickle.loads(pickle.dumps(g)),
                     copy.deepcopy):
            g = graph_from_json(text).graph
            assert g.edge_count == expected.edge_count and g._edges is None
            assert view(g) == view(expected) and view(expected) == view(g)
            assert g.edges == tuple(sorted(edges)) == expected.edges
            assert view(g) == view(expected) and view(expected) == view(g)


def test_graph_json_load_reports_the_first_bad_edge_in_sorted_order():
    record = {"alphabet": "ab", "vertices": 2, "base": 0,
              "edges": [[0, "b", 1], [0, "a", 9], [-1, "a", 0], [1, "a", 0]]}
    text = json.dumps(record)
    assert _load(text)[1] == _load_by_passes(text)
    assert _load(text)[1][1] == "edge (-1, 0, 0) has a vertex out of range"
    # the record checks run over every record before the range check
    record["edges"].append([0, "z", 0])
    assert _load(json.dumps(record))[1][1] == "edge label 'z' outside alphabet"


def test_graph_json_load_reports_a_negative_vertex_count():
    # a negative count takes the edge path, with or without edges, where
    # XDigraph(...) names it after the record checks, as the passes do
    count = (InvalidInputError, "vertex count -3 is not a non-negative integer")
    label = (InvalidInputError, "edge label 'z' outside alphabet")
    for edges, expected in (([[0, "a", 1]], count), ([], count), ([[0, "z", 1]], label)):
        text = json.dumps({"alphabet": "ab", "vertices": -3, "base": 0, "edges": edges})
        assert _load(text)[1] == _load_by_passes(text) == expected


def test_unfolded_build_input_raises_under_optimize():
    # with the merge loop patched to do nothing, the one foldedness check
    # of each build that needs folds must still fire under -O; before
    # that, `fg` must reject an unfolded graph JSON and renumber a valid
    # one given out of canonical numbering, since the load checks raise
    script = """
import contextlib, io
import freegroups.graph as fgraph
import freegroups.subgroup as fs
from freegroups.cli import main
from freegroups.words import Alphabet, parse_word
for record in ('{"alphabet": "ab", "vertices": 2, "base": 0, "edges": [[0, "a", 1], [0, "a", 0]]}',
               '{"alphabet": "ab", "vertices": 2, "base": 1, "edges": [[1, "a", 0], [0, "b", 1]]}'):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--alphabet", "ab", "graph", "--sub", record])
    print(code, out.getvalue() + err.getvalue(), end="")
ab = Alphabet.from_string("ab")
h = fs.stallings_graph(ab, [parse_word("ab", ab)])
k = fs.stallings_graph(ab, [parse_word("aB", ab)])
fgraph._fold_merges = lambda steps, parent, merges: None
builds = [lambda: fs.stallings_graph(ab, [parse_word("ab", ab), parse_word("aab", ab)]),
          lambda: fs.join(h, k)]
raised = 0
for build in builds:
    try:
        build()
    except AssertionError:
        raised += 1
print(raised)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.splitlines() == [
        "2 error: graph is not folded: two half-edges labeled a at vertex 0",
        '0 {"alphabet": "ab", "vertices": 2, "base": 0, "edges": [[0, "a", 1], [1, "b", 0]]}',
        "2",
    ], done.stderr


# -- type graphs and cyclic cores ---------------------------------------------------


@st.composite
def _hung_graphs(draw):
    """A folded connected graph of rank 1 to 4 with trees hung on it, as
    a Whitehead image is before its cut, and a random vertex of it."""
    alphabet = draw(st.sampled_from([A1, AB, ABC]))
    rng = Random(draw(st.integers(0, 2**32)))
    h = rand_subgroup(rng, alphabet, max_gens=4, max_len=6)
    while h.is_trivial():
        h = rand_subgroup(rng, alphabet, max_gens=4, max_len=6)
    edges, n = list(h.graph.edges), h.vertex_count
    for _ in range(draw(st.integers(1, 5))):
        n = _spell_path(edges, rng.randrange(n), rand_word(rng, alphabet, 9).codes, n)
    g, vmap = fold_all(XDigraph(alphabet, n, edges))
    # every second base is a vertex of a hung path, most often in a tree
    if n > h.vertex_count and draw(st.booleans()):
        return g, vmap[draw(st.integers(h.vertex_count, n - 1))]
    return g, draw(st.integers(0, g.vertex_count - 1))


@settings(max_examples=200, deadline=None)
@given(_hung_graphs())
def test_stem_cut_matches_pruning_every_leaf(graph_and_base):
    # with a stem list, the walk from any vertex, in the core or in a
    # hanging tree, cuts the stem that pruning every leaf and walking
    # the tree path to the first survivor gives, and numbers the core
    # from that anchor as the walk without a stem list from it does
    g, v = graph_and_base
    assert 1 <= len(g.edges) - g.vertex_count + 1 <= 4
    width = g.alphabet.num_codes
    anchor, expected = stem_by_pruning(g, v)
    stem: list[int] = []
    order, edges, core_table = _core_numbering(g._step_table(), g.vertex_count, v, stem)
    assert stem == expected
    assert order == core_order_by_maps(g, anchor)
    pos = {u: i for i, u in enumerate(order)}
    assert edges == tuple(sorted(
        (pos[o], x, pos[t]) for o, x, t in g.edges if o in pos and t in pos
    ))
    cut = XDigraph(g.alphabet, len(order), edges)
    assert core_table == table_of_maps(step_maps_by_edges(cut), width)
    assert (order, edges, core_table) == _core_numbering(g._step_table(), g.vertex_count, anchor)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([A1, AB, ABC]), st.integers(0, 2**32))
def test_type_with_anchor_matches_the_degree_pass(alphabet, seed):
    # the stem walk and the core at its end give the type graph, anchor,
    # stem and host vertices that a degree pass, a stem walk and an
    # order-keeping renumbering give, on random subgroups and conjugates
    rng = Random(seed)
    h = rand_subgroup(rng, alphabet, max_gens=3, max_len=9)
    for g in (h, conjugate(h, rand_word(rng, alphabet, 6)), trivial_subgroup(alphabet)):
        assert type_with_anchor(g.based) == type_with_anchor_by_degrees(g.based)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([A1, AB, ABC]), st.integers(0, 2**32))
def test_cyclic_core_is_the_conjugate_by_the_inverse_stem(alphabet, seed):
    # a graph whose base has degree two or more is its own cyclic core,
    # the very object; otherwise the cyclic core is the conjugate by the
    # inverse of the stem, s^-1 H s, based where the stem ends
    rng = Random(seed)
    h = rand_subgroup(rng, alphabet, max_gens=3, max_len=9)
    for g in (h, conjugate(h, rand_word(rng, alphabet, 6)), trivial_subgroup(alphabet)):
        c = _cyclic_core(g)
        if g.graph.degrees()[g.base] >= 2:
            assert c is g
        stem = Word(alphabet, type_with_anchor_by_degrees(g.based).stem)
        assert c == conjugate(g, invert(stem)) == cyclic_core_by_degrees(g)


# -- Whitehead descent ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([AB, ABC, ABCD]), st.integers(0, 2**32))
def test_move_sizes_match_built_images(alphabet, seed):
    # every multiplier move's predicted size is the edge count of the
    # cyclic core (type graph) of the image that transform_subgroup builds
    h = _subgroup(Random(seed), alphabet, max_vertices=8)
    c = _cyclic_core(h)
    sizes = _move_sizes(c, _star_masks(c.graph))
    moves = _multiplier_moves(alphabet)
    assert len(sizes) == len(moves)
    for auto, predicted in zip(moves, sizes):
        assert predicted == len(type_graph(transform_subgroup(auto, h).based).edges)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([AB, ABC, ABCD]), st.integers(0, 2**32))
def test_cut_images_match_the_substitution_oracle(alphabet, seed):
    # for every move, the image cut from the move's cut B is the cyclic
    # core of the image that edge substitution spells, folds and cores,
    # in the same numbering and with the same step table
    c = _cyclic_core(_subgroup(Random(seed), alphabet, max_vertices=10))
    stars = _star_masks(c.graph)
    moves = _multiplier_moves(alphabet)
    for i, auto in enumerate(moves):
        image = _cut_image(c, stars, *_cut(alphabet, i))
        oracle = _cyclic_core(transform_subgroup(auto, c))
        assert image == oracle
        assert image.graph._step_table() == oracle.graph._step_table()


def test_descent_step_numbers_its_image_once():
    # from a cyclic core, a descent step numbers its image once, from the
    # anchor, and nothing else; some images have a stem, which the route
    # through edge substitution numbers twice, at the base and at the anchor
    steps = stemmed = 0
    for seed in range(20):
        alphabet = (AB, ABC, ABCD)[seed % 3]
        c = _cyclic_core(_sub_rose_image(Random(seed), alphabet))
        with mock.patch.object(
            fsub, "_core_numbering", wraps=fsub._core_numbering
        ) as numberings, mock.patch.object(fw, "_cut_image", wraps=fw._cut_image) as images:
            _minimal_cyclic_core(c)
        assert numberings.call_count == images.call_count
        steps += images.call_count
        for (g, _, a, cut), _ in images.call_args_list:
            others = [x ^ 1 for x in range(alphabet.num_codes) if x != a and cut >> x & 1]
            carrier = frozenset([a] + others)
            image = transform_subgroup(fw._multiplier_auto(alphabet, a, carrier), g)
            stemmed += _cyclic_core(image) is not image
    assert steps >= 20 and stemmed >= 5


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([A1, AB, ABC, ABCD, ABCDE]), st.integers(0, 2**32))
def test_move_sizes_match_the_move_by_move_oracle(alphabet, seed):
    # the subset-sum table scores every move as the loop over star
    # classes does, on random cyclic cores and on the one-vertex trivial
    # graph, the only one with an empty star (the F({}) term)
    h = _subgroup(Random(seed), alphabet, max_vertices=12)
    for c in (_cyclic_core(h), trivial_subgroup(alphabet)):
        stars = _star_masks(c.graph)
        assert _move_sizes(c, stars) == move_sizes_by_classes(c, stars)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([A1, AB, ABC]), st.integers(0, 2**32))
def test_transform_subgroup_matches_the_basis_route(alphabet, seed):
    # edge substitution builds the graph that folding the images of a
    # basis builds, for every member of the Whitehead family
    h = _subgroup(Random(seed), alphabet, max_vertices=8)
    for g in (h, trivial_subgroup(alphabet)):
        for auto in enumerate_whitehead(alphabet):
            assert transform_subgroup(auto, g) == transform_by_basis(auto, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([AB, ABC, ABCD]), st.integers(0, 2**32), st.booleans())
def test_descent_matches_the_enumerated_descent(alphabet, seed, planted):
    # the descent over cut masks takes the oracle's path: the same end
    # core after the same number of built images
    rng = Random(seed)
    if planted:
        h = conjugate(_sub_rose_image(rng, alphabet), rand_word(rng, alphabet, 5))
    else:
        h = _subgroup(rng, alphabet, max_vertices=8)
    with mock.patch.object(fw, "_cut_image", wraps=fw._cut_image) as built:
        end = _minimal_cyclic_core(h)
    assert (end, built.call_count) == minimal_cyclic_core_by_enumeration(h)


def _sub_rose_image(rng: Random, alphabet):
    """A Whitehead image of a proper sub-rose: a free factor."""
    sub = alphabet.symbols[: rng.randint(1, alphabet.size - 1)]
    h = stallings_graph(alphabet, [parse_word(x, alphabet) for x in sub])
    family = enumerate_whitehead(alphabet)
    for _ in range(rng.randint(1, 5)):
        h = transform_subgroup(family[rng.randrange(len(family))], h)
    return h


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([AB, ABC]), st.integers(0, 2**32))
def test_free_factor_matches_based_descent_on_small_subgroups(alphabet, seed):
    # the based descent's plateaus grow fast in F3: at most two generators
    # and 6 vertices in F2, 4 in F3, keep it near 50 ms a case
    limit = 6 if alphabet is AB else 4
    rng = Random(seed)
    while True:
        h = rand_subgroup(rng, alphabet, max_gens=2, max_len=6, max_vertices=limit)
        if rng.random() < 0.5:
            h = conjugate(h, rand_word(rng, alphabet, 3))
        if h.vertex_count <= limit:
            break
    assert is_free_factor_of_ambient(h) == free_factor_by_based_descent(h)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([AB, ABC, ABCD]), st.integers(0, 2**32))
def test_free_factor_matches_based_descent_on_sub_rose_images(alphabet, seed):
    h = _sub_rose_image(Random(seed), alphabet)
    assert is_free_factor_of_ambient(h)
    assert free_factor_by_based_descent(h)


def test_plateau_sweep_finds_nothing_below_the_descent():
    # peak reduction: a cyclic core that no multiplier move shrinks is at
    # its orbit minimum, so no sweep of its level moves goes lower.  The
    # cases are F2-F4 subgroups on <= 8 vertices, every second one a
    # conjugated Whitehead image of a sub-rose; each sweep stops after 300
    # states (one F4 plateau of seeds 0-119 is larger and takes 10 s whole)
    swept = 0
    for seed in range(120):
        alphabet = (AB, ABC, ABCD)[seed % 3]
        rng = Random(seed)
        planted = seed % 2 == 1
        while True:
            if planted:
                h = conjugate(_sub_rose_image(rng, alphabet), rand_word(rng, alphabet, 5))
            else:
                h = _subgroup(rng, alphabet, max_vertices=8)
            if h.vertex_count <= 8:
                break
        end = _minimal_cyclic_core(h)
        assert end.vertex_count == 1 or not planted
        try:
            assert smaller_state_on_plateau(end, budget=300) is None
        except ResourceLimitError:
            continue
        swept += end.vertex_count > 1
    assert swept >= 15


def test_mispredicted_move_raises_under_optimize():
    # with the size predictor off by one, the built image of the chosen
    # move disagrees with it, and the check must still fire under -O
    script = """
import freegroups.whitehead as fw
from freegroups.subgroup import stallings_graph
from freegroups.words import Alphabet, parse_word
ab = Alphabet.from_string("ab")
sizes = fw._move_sizes
fw._move_sizes = lambda g, stars: [s - 1 for s in sizes(g, stars)]
try:
    fw.is_free_factor_of_ambient(stallings_graph(ab, [parse_word("abab", ab)]))
except AssertionError:
    print("raised")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "raised", done.stderr
