"""Intersections, component reports, malnormality, immersion."""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from freegroups.errors import AlphabetMismatchError, InvalidInputError
from freegroups.intersect import (
    component_analysis,
    hanna_neumann_check,
    intersection,
    is_cyclonormal,
    is_immersed,
    is_malnormal,
)
from freegroups.subgroup import (
    conjugate,
    contains,
    full_group,
    rank,
    stallings_graph,
    trivial_subgroup,
)
from freegroups.words import format_word, invert, parse_word

from helpers import (
    AB,
    ABC,
    exponents_in,
    immersed_by_products,
    rand_gens,
    rand_subgroup,
    rand_word,
)

P = lambda s: parse_word(s, AB)


def fig8_pair():
    return (
        stallings_graph(AB, [P("ab"), P("Ba")]),
        stallings_graph(AB, [P("aaa"), P("AbA")]),
    )


# -- intersection ----------------------------------------------------------------


def test_intersection_fig8():
    h, k = fig8_pair()
    meet = intersection(h, k)
    assert rank(meet) == 2
    assert meet.vertex_count == 6 and meet.edge_count == 7


def test_intersection_disjoint():
    meet = intersection(stallings_graph(AB, [P("a")]), stallings_graph(AB, [P("b")]))
    assert meet == trivial_subgroup(AB)


def test_intersection_cyclic_case_against_exponent_oracle():
    a2 = stallings_graph(AB, [P("aa")])
    a3 = stallings_graph(AB, [P("aaa")])
    meet = intersection(a2, a3)
    assert meet == stallings_graph(AB, [P("aaaaaa")])
    # brute force over exponents: a^n in both iff 6 | n
    both = exponents_in(a2, P("a"), 36) & exponents_in(a3, P("a"), 36)
    assert both == exponents_in(meet, P("a"), 36) == {6, 12, 18, 24, 30, 36}


def test_intersection_membership_level():
    rng = Random(41)
    for _ in range(15):
        g1 = rand_gens(rng, AB, 2, 4)
        g2 = rand_gens(rng, AB, 2, 4)
        h, k = stallings_graph(AB, g1), stallings_graph(AB, g2)
        meet = intersection(h, k)
        for _ in range(40):
            w = rand_word(rng, AB, 8)
            assert contains(meet, w) == (contains(h, w) and contains(k, w))


def test_intersection_symmetry():
    rng = Random(42)
    for _ in range(15):
        h = rand_subgroup(rng, AB)
        k = rand_subgroup(rng, AB)
        assert intersection(h, k) == intersection(k, h)


# -- components --------------------------------------------------------------------


def test_component_analysis_squares():
    a2 = stallings_graph(AB, [P("aa")])
    reports = component_analysis(a2, a2)
    assert len(reports) == 2
    base = [r for r in reports if r.contains_base_pair]
    off = [r for r in reports if not r.contains_base_pair]
    assert len(base) == len(off) == 1
    assert off[0].rank == 1
    assert format_word(off[0].double_coset_witness) == "a"


def test_component_analysis_rose_and_fig8():
    a1 = stallings_graph(AB, [P("a")])
    assert len(component_analysis(a1, a1)) == 1
    h, k = fig8_pair()
    assert len(component_analysis(h, k)) == 1


def test_witnesses_verified():
    rng = Random(43)
    for _ in range(15):
        h = rand_subgroup(rng, AB, max_vertices=7)
        k = rand_subgroup(rng, AB, max_vertices=7)
        for r in component_analysis(h, k):
            if r.double_coset_witness is not None:
                g = r.double_coset_witness
                assert rank(intersection(conjugate(h, g), k)) >= 1


# -- malnormality -------------------------------------------------------------------


def test_malnormal_examples():
    ok, witness = is_malnormal(stallings_graph(AB, [P("a")]))
    assert ok and witness is None
    ok, witness = is_malnormal(stallings_graph(AB, [P("aa")]))
    assert not ok and format_word(witness) == "a"
    assert is_malnormal(full_group(AB))[0]  # vacuous: no non-base components


def test_malnormal_witness_verified():
    rng = Random(44)
    found = 0
    while found < 20:
        h = rand_subgroup(rng, AB, max_vertices=7)
        ok, g = is_malnormal(h)
        if ok:
            continue
        found += 1
        assert not contains(h, g)
        assert rank(intersection(conjugate(h, g), h)) >= 1


def test_malnormal_brute_force_cross_check():
    # when the test says malnormal, no short conjugator may contradict it
    from freegroups.words import reduced_words

    rng = Random(47)
    for _ in range(12):
        h = rand_subgroup(rng, AB, max_vertices=6)
        ok, _ = is_malnormal(h)
        if not ok:
            continue
        for g in reduced_words(AB, 4):
            if not g.codes or contains(h, g):
                continue
            assert intersection(conjugate(h, g), h).is_trivial()


def test_cyclonormal_examples():
    assert is_cyclonormal(stallings_graph(AB, [P("aa"), P("bab")]))
    # malnormal implies cyclonormal
    assert is_cyclonormal(stallings_graph(AB, [P("a")]))
    # regression data: found by randomized search, has a rank-2 off-diagonal
    # component in its self-product
    bad = stallings_graph(AB, [P("aa"), P("bb"), P("abab"), P("ba")])
    assert not is_cyclonormal(bad)
    reports = component_analysis(bad, bad)
    assert max(r.rank for r in reports if not r.contains_base_pair) >= 2


# -- immersion ----------------------------------------------------------------------


def test_immersed_examples():
    assert is_immersed([P("aa"), P("bab")])
    assert not is_immersed([P("a"), P("ab")])
    assert is_immersed([P("aba")])
    with pytest.raises(InvalidInputError):
        is_immersed([P("")])


def test_immersed_matches_pairwise_products():
    rng = Random(47)
    cases = [[], [P("a")], [P("a"), P("a")], [P("a"), P("A")], [P("ab"), P("B")], [P("abA")]]
    for _ in range(200):
        gens = rand_gens(rng, AB, 3, 4)
        pick = rng.random()
        if pick < 0.2:
            gens.append(rng.choice(gens))  # a repeated generator
        elif pick < 0.4:
            gens.append(invert(rng.choice(gens)))  # a generator and its inverse
        elif pick < 0.6:
            gens.append(parse_word(rng.choice("aAbB"), AB))  # a one-letter word
        cases.append(gens)
    for gens in cases:
        assert is_immersed(gens) == immersed_by_products(gens), gens
    # the two error cases: an empty word, reported before anything else,
    # and generators over two alphabets
    mixed = [P("ab"), parse_word("ab", ABC)]
    for bad, error in (([P("ab"), P("")], InvalidInputError), (mixed, AlphabetMismatchError)):
        for decide in (is_immersed, immersed_by_products):
            with pytest.raises(InvalidInputError) as raised:
                decide(bad)
            assert type(raised.value) is error
    with pytest.raises(InvalidInputError, match="nontrivial"):
        is_immersed(mixed + [P("")])


def test_immersed_implies_cyclonormal():
    rng = Random(46)
    for _ in range(20):
        # first/last letter construction: h_i starts and ends with x_i
        gens = []
        for i, letter in enumerate("ab"):
            middle = rand_word(rng, AB, 3)
            w = parse_word(letter + format_word(middle) + letter, AB)
            if len(w.codes) < 2:
                w = parse_word(letter * 2, AB)
            gens.append(w)
        if not is_immersed(gens):
            continue
        assert is_cyclonormal(stallings_graph(AB, gens))


# -- rank inequality -----------------------------------------------------------------


def test_hanna_neumann_examples():
    h, k = fig8_pair()
    assert hanna_neumann_check(h, k)
    a2 = stallings_graph(AB, [P("aa")])
    assert hanna_neumann_check(a2, a2)
    assert hanna_neumann_check(
        stallings_graph(AB, [P("a")]), stallings_graph(AB, [P("b")])
    )  # trivial intersection, vacuous


def test_witness_check_survives_optimize_flag():
    # with intersection patched to answer "trivial", the witness of the
    # non-malnormal <aa> fails its check; under -O that check must still run
    script = """
import freegroups.intersect as fi
from freegroups.subgroup import stallings_graph, trivial_subgroup
from freegroups.words import Alphabet, parse_word
ab = Alphabet.from_string("ab")
fi.intersection = lambda h, k: trivial_subgroup(h.alphabet)
try:
    fi.is_malnormal(stallings_graph(ab, [parse_word("aa", ab)]))
except AssertionError:
    print("raised")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "raised", done.stderr
